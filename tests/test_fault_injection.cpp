// Failure injection: random wire corruption is caught by the VCRC at every
// hop (including the final switch->HCA link), no corrupted payload ever
// reaches an application, and the fabric's loss accounting balances. Also
// the --faults grammar: valid specs parse to what they say, malformed ones
// and names the built topology lacks are rejected.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/scenario.h"

namespace ibsec::fabric {
namespace {

using namespace ibsec::time_literals;

TEST(FaultInjection, PerfectLinksByDefault) {
  FabricConfig cfg;
  cfg.topology.mesh_width = 2;
  cfg.topology.mesh_height = 1;
  Fabric fabric(cfg);
  int received = 0;
  fabric.hca(1).set_receive_callback([&](ib::Packet&&) { ++received; });
  for (int i = 0; i < 50; ++i) {
    ib::Packet pkt;
    pkt.lrh.vl = kBestEffortVl;
    pkt.lrh.slid = fabric.lid_of_node(0);
    pkt.lrh.dlid = fabric.lid_of_node(1);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = ib::kDefaultPKey;
    pkt.deth = ib::Deth{1, 2};
    pkt.payload.assign(512, 0x44);
    pkt.finalize();
    fabric.hca(0).send(std::move(pkt));
  }
  fabric.simulator().run();
  EXPECT_EQ(received, 50);
  EXPECT_EQ(fabric.simulator().obs().snapshot().sum_matching(
                "switch.*.drop.vcrc"),
            0);
}

TEST(FaultInjection, CorruptionCaughtAndAccounted) {
  FabricConfig cfg;
  cfg.topology.mesh_width = 2;
  cfg.topology.mesh_height = 1;
  cfg.link.faults.corruption_rate = 0.2;
  Fabric fabric(cfg);

  // The raw fabric HCA sits *below* the VCRC check (that is the CA's job,
  // covered by EndNodeCatchesLastHopCorruption), so last-hop corruption
  // reaches this callback — but must always be *detectable* via the VCRC.
  int received_valid = 0, received_corrupt = 0;
  fabric.hca(1).set_receive_callback([&](ib::Packet&& pkt) {
    if (pkt.vcrc_valid()) {
      ++received_valid;
      for (std::uint8_t b : pkt.payload) EXPECT_EQ(b, 0x44);
    } else {
      ++received_corrupt;
    }
  });
  constexpr int kSent = 300;
  for (int i = 0; i < kSent; ++i) {
    ib::Packet pkt;
    pkt.lrh.vl = kBestEffortVl;
    pkt.lrh.slid = fabric.lid_of_node(0);
    pkt.lrh.dlid = fabric.lid_of_node(1);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = ib::kDefaultPKey;
    pkt.deth = ib::Deth{1, 2};
    pkt.payload.assign(512, 0x44);
    pkt.finalize();
    fabric.hca(0).send(std::move(pkt));
  }
  fabric.simulator().run();

  const std::int64_t dropped_vcrc =
      fabric.simulator().obs().snapshot().sum_matching("switch.*.drop.vcrc");
  // Three lossy hops at 20% each: roughly half the packets arrive clean.
  EXPECT_LT(received_valid, kSent * 3 / 4);
  EXPECT_GT(received_valid, kSent / 4);
  EXPECT_GT(dropped_vcrc, 0);
  EXPECT_GT(received_corrupt, 0);  // last-hop corruption is the CA's to drop
  // Conservation: every packet was delivered clean, dropped at a switch, or
  // arrived corrupted on the last hop.
  EXPECT_EQ(received_valid + received_corrupt + dropped_vcrc, kSent);
  // And the injectors' own counters agree with what was caught.
  std::uint64_t corrupted_total = fabric.hca(0).out().packets_corrupted();
  for (int s = 0; s < fabric.node_count(); ++s) {
    for (int p = 0; p < fabric.switch_at(s).num_ports(); ++p) {
      corrupted_total += fabric.switch_at(s).out(p).packets_corrupted();
    }
  }
  EXPECT_EQ(corrupted_total,
            static_cast<std::uint64_t>(dropped_vcrc + received_corrupt));
}

TEST(FaultInjection, EndNodeCatchesLastHopCorruption) {
  // Force corruption on the switch->HCA link only is impractical to isolate
  // via config (all links share LinkParams), so run a transport-level
  // scenario and assert the CAs' ca.*.retired.vcrc counters engage.
  workload::ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.duration = 1 * kMillisecond;
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.4;
  cfg.fabric.link.faults.corruption_rate = 0.05;
  workload::Scenario scenario(cfg);
  const auto r = scenario.run();
  // Last-hop corruption reached the CA check.
  EXPECT_GT(r.obs.sum_matching("ca.*.retired.vcrc"), 0);
  EXPECT_GT(r.delivered, 100u); // plenty of clean traffic still flowed
}

TEST(FaultInjection, DeterministicGivenSeed) {
  auto run_once = [] {
    workload::ScenarioConfig cfg;
    cfg.seed = 18;
    cfg.duration = 500 * kMicrosecond;
    cfg.enable_realtime = false;
    cfg.fabric.link.faults.corruption_rate = 0.05;
    workload::Scenario scenario(cfg);
    return scenario.run().delivered;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultSpec, DocumentedSpecParses) {
  const auto campaign = FaultCampaign::parse(
      "seed=42;drop=0.01;corrupt=0.005;link=sw1.out3:drop=0.5;"
      "flap=sw1.out3:100us-300us;flap=sw2.out1:2.5us-;dead-switch=5");
  ASSERT_TRUE(campaign.has_value());
  EXPECT_EQ(campaign->seed, 42u);
  EXPECT_EQ(campaign->default_profile.drop_rate, 0.01);
  EXPECT_EQ(campaign->default_profile.corruption_rate, 0.005);
  const FaultProfile& link = campaign->link_overrides.at("sw1.out3");
  EXPECT_EQ(link.drop_rate, 0.5);
  EXPECT_EQ(link.corruption_rate, 0.005);  // snapshot of the defaults
  ASSERT_EQ(link.flaps.size(), 1u);
  EXPECT_EQ(link.flaps[0].down_at, 100 * kMicrosecond);
  EXPECT_EQ(link.flaps[0].up_at, 300 * kMicrosecond);
  const FaultProfile& forever = campaign->link_overrides.at("sw2.out1");
  ASSERT_EQ(forever.flaps.size(), 1u);
  EXPECT_EQ(forever.flaps[0].down_at, 2'500'000);
  EXPECT_EQ(forever.flaps[0].up_at, -1);
  EXPECT_EQ(campaign->dead_switches, std::vector<int>{5});
  EXPECT_TRUE(FaultCampaign::parse(";;drop=1;").has_value());
}

TEST(FaultSpec, MalformedSpecsRejected) {
  for (const char* bad : {
           "bogus",                        // entry without '='
           "noise=1",                      // unknown key
           "seed=abc", "seed=-1", "seed=12x",
           "dead-switch=abc", "dead-switch=-1", "dead-switch=",
           "drop=nan", "drop=inf", "drop=1.5", "drop=-0.1", "corrupt=2",
           "link=sw0.out1:drop=1.5",       // rate outside [0, 1]
           "link=sw0.out1:drop=",          // empty value
           "link=sw0.out1:drop=0.1,",      // trailing empty item
           "link=sw0.out1:jitter=0.1",     // unknown subkey
           "link=sw0.out1",                // no ':'
           "flap=sw0.out1:1e300us-",       // ps conversion would overflow
           "flap=sw0.out1:nanus-", "flap=sw0.out1:5us-1e14us",
           "flap=sw0.out1:-5us-", "flap=sw0.out1:5us",
       }) {
    EXPECT_FALSE(FaultCampaign::parse(bad).has_value()) << bad;
  }
}

// A link or switch the built topology lacks fails the build loudly instead
// of running the experiment without that fault.
TEST(FaultSpecDeathTest, UnknownLinkOrSwitchFailsFabricBuild) {
  const auto build = [](const char* spec) {
    FabricConfig cfg;  // the 4x4 mesh: sw0..sw15
    cfg.fault_campaign = FaultCampaign::parse(spec).value();
    Fabric fabric(cfg);
  };
  EXPECT_DEATH(build("link=nosuchlink:drop=1"), "link nosuchlink");
  EXPECT_DEATH(build("flap=sw99.out1:5us-"), "link sw99.out1");
  EXPECT_DEATH(build("dead-switch=99"), "dead-switch 99.*16 switches");
  build("link=sw15.out2:drop=1;dead-switch=15");  // the last ones exist
}

}  // namespace
}  // namespace ibsec::fabric
