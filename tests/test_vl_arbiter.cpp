// VL arbitration: WRR table semantics in isolation, then end-to-end
// bandwidth sharing on a congested link.
#include <gtest/gtest.h>

#include <map>

#include "fabric/topology.h"
#include "fabric/vl_arbiter.h"

namespace ibsec::fabric {
namespace {

bool always(ib::VirtualLane) { return true; }

TEST(VlArbiter, HighTableWinsWhenSendable) {
  VlArbitrationConfig config;
  config.high_priority = {{1, 10}};
  config.low_priority = {{0, 10}};
  VlArbiter arb(config);
  EXPECT_EQ(arb.pick(always), 1);
}

TEST(VlArbiter, FallsToLowWhenHighEmptyHanded) {
  VlArbitrationConfig config;
  config.high_priority = {{1, 10}};
  config.low_priority = {{0, 10}};
  VlArbiter arb(config);
  const auto only_vl0 = [](ib::VirtualLane vl) { return vl == 0; };
  EXPECT_EQ(arb.pick(only_vl0), 0);
}

TEST(VlArbiter, ReturnsMinusOneWhenNothingSendable) {
  VlArbitrationConfig config;
  config.high_priority = {{1, 10}};
  config.low_priority = {{0, 10}};
  VlArbiter arb(config);
  EXPECT_EQ(arb.pick([](ib::VirtualLane) { return false; }), -1);
}

TEST(VlArbiter, WeightedAlternation) {
  // Two low-priority VLs with weights 2:1 (in 64-byte units); sending
  // 64-byte packets should yield a 2:1 service pattern.
  VlArbitrationConfig config;
  config.low_priority = {{2, 2}, {3, 1}};
  VlArbiter arb(config);
  std::map<int, int> counts;
  for (int i = 0; i < 30; ++i) {
    const int vl = arb.pick(always);
    ASSERT_GE(vl, 0);
    ++counts[vl];
    arb.on_sent(static_cast<ib::VirtualLane>(vl), 64);
  }
  EXPECT_EQ(counts[2], 20);
  EXPECT_EQ(counts[3], 10);
}

TEST(VlArbiter, LargePacketExhaustsWeight) {
  // Weight 16 = 1024 bytes: one MTU packet spends the whole allocation.
  VlArbitrationConfig config;
  config.low_priority = {{2, 16}, {3, 16}};
  VlArbiter arb(config);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    const int vl = arb.pick(always);
    order.push_back(vl);
    arb.on_sent(static_cast<ib::VirtualLane>(vl), 1058);
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3, 2, 3}));
}

TEST(VlArbiter, ZeroWeightEntriesNeverServe) {
  VlArbitrationConfig config;
  config.low_priority = {{2, 0}, {3, 5}};
  VlArbiter arb(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.pick(always), 3);
    arb.on_sent(3, 64);
  }
}

TEST(VlArbiter, PaperDefaultShape) {
  const auto config = VlArbitrationConfig::paper_default(16);
  ASSERT_EQ(config.high_priority.size(), 1u);
  EXPECT_EQ(config.high_priority[0].vl, kRealtimeVl);
  // Low table: best-effort plus the 13 remaining data VLs (not VL15).
  ASSERT_EQ(config.low_priority.size(), 14u);
  EXPECT_EQ(config.low_priority[0].vl, kBestEffortVl);
  for (const auto& entry : config.low_priority) {
    EXPECT_NE(entry.vl, ib::kManagementVl);
  }
}

// --- end-to-end: bandwidth sharing on one congested link ---------------------

TEST(VlArbiterFabric, WeightedShareOnCongestedLink) {
  // Two flows on VLs 2 and 3 with weights 3:1 blast a single link; the
  // delivered byte counts should approach that ratio.
  FabricConfig cfg;
  cfg.topology.mesh_width = 2;
  cfg.topology.mesh_height = 1;
  VlArbitrationConfig arb;
  arb.low_priority = {{2, 48}, {3, 16}};  // 3 MTU : 1 MTU
  cfg.link.arbitration = arb;
  Fabric fabric(cfg);

  std::map<int, int> delivered;
  fabric.hca(1).set_receive_callback([&](ib::Packet&& pkt) {
    ++delivered[pkt.lrh.vl];
  });

  auto send_burst = [&](ib::VirtualLane vl, int count) {
    for (int i = 0; i < count; ++i) {
      ib::Packet pkt;
      pkt.lrh.vl = vl;
      pkt.lrh.sl = vl;
      pkt.lrh.slid = fabric.lid_of_node(0);
      pkt.lrh.dlid = fabric.lid_of_node(1);
      pkt.bth.opcode = ib::OpCode::kUdSendOnly;
      pkt.bth.pkey = ib::kDefaultPKey;
      pkt.deth = ib::Deth{1, 2};
      pkt.payload.assign(1024, 0x11);
      pkt.finalize();
      fabric.hca(0).send(std::move(pkt));
    }
  };
  send_burst(2, 60);
  send_burst(3, 60);
  // Run only long enough for ~40 packets' worth of link time, then check
  // the interleaving ratio among those delivered.
  fabric.simulator().run_until(40 * 3'400'000);
  ASSERT_GT(delivered[2], 0);
  ASSERT_GT(delivered[3], 0);
  const double ratio =
      static_cast<double>(delivered[2]) / static_cast<double>(delivered[3]);
  EXPECT_NEAR(ratio, 3.0, 0.8);
  fabric.simulator().run();  // drain to keep destructors happy
}

TEST(VlArbiterFabric, DefaultConfigKeepsRealtimePriority) {
  // Regression guard: with the default tables, realtime still preempts a
  // best-effort backlog (the Figure 1 mechanism).
  FabricConfig cfg;
  cfg.topology.mesh_width = 2;
  cfg.topology.mesh_height = 1;
  Fabric fabric(cfg);
  std::vector<ib::VirtualLane> order;
  fabric.hca(1).set_receive_callback(
      [&](ib::Packet&& pkt) { order.push_back(pkt.lrh.vl); });
  for (int i = 0; i < 8; ++i) {
    ib::Packet pkt;
    pkt.lrh.vl = kBestEffortVl;
    pkt.lrh.slid = fabric.lid_of_node(0);
    pkt.lrh.dlid = fabric.lid_of_node(1);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = ib::kDefaultPKey;
    pkt.deth = ib::Deth{1, 2};
    pkt.payload.assign(1024, 0);
    pkt.finalize();
    fabric.hca(0).send(std::move(pkt));
  }
  ib::Packet rt;
  rt.lrh.vl = kRealtimeVl;
  rt.lrh.slid = fabric.lid_of_node(0);
  rt.lrh.dlid = fabric.lid_of_node(1);
  rt.bth.opcode = ib::OpCode::kUdSendOnly;
  rt.bth.pkey = ib::kDefaultPKey;
  rt.deth = ib::Deth{1, 2};
  rt.payload.assign(1024, 0);
  rt.finalize();
  fabric.hca(0).send(std::move(rt));
  fabric.simulator().run();
  const auto rt_pos =
      std::find(order.begin(), order.end(), kRealtimeVl) - order.begin();
  EXPECT_LE(rt_pos, 2);
}

}  // namespace
}  // namespace ibsec::fabric
