// Seeded adversarial control-plane campaigns.
//
// An AttackCampaign is to the attacker model what a FaultCampaign is to the
// link-failure model: a parseable, seeded description of a whole adversarial
// scenario that replays byte-identically. Where the original `Attacker` is a
// bandwidth weapon (flood the wire with bad P_Keys), a campaign targets a
// specific control-plane surface and declares a machine-checkable success
// metric, exported through the obs registry as
//   attacker.<kind>.attempts / attacker.<kind>.success
// so a corpus test can assert "defense X bounds attacker success to Y" —
// and catch the defense being silently disabled.
//
// Campaign kinds (grammar name → surface attacked):
//   scan          Q_Key guessing against a victim's workload UD QP. The
//                 plaintext Q_Key is the paper's headline vulnerability:
//                 without authentication a keyspace of K falls at rate ~1/K
//                 per probe; partition-level authentication drops every
//                 probe (no MAC key) regardless of the Q_Key guess.
//   trap-forge    forged kTrapPKeyViolation MADs that weaponize the SIF
//                 activation path: each trap names an honest victim as the
//                 "offender" and the victim's own partition P_Key as the
//                 "invalid" key, so an unvalidated SM blackholes the victim
//                 at its ingress switch. SM trap validation rejects traps
//                 whose reported P_Key is one the claimed offender
//                 legitimately holds.
//   rc-spoof      forged RC ACK/NAK storms against a victim's live RC
//                 windows (the `rc_bad_control` fail-closed path). Success
//                 = a spoofed control packet clearing window entries it
//                 never earned (counted CA-side as rc.spoofed_control_
//                 accepted). RcConfig::validate_control bounds success to
//                 ~window/2^24 per attempt; disabling it lets a random PSN
//                 flush the whole window about half the time.
//   replay        captures honest delivered UD packets at the victim and
//                 re-injects them verbatim (original SLID and MAC tag, so
//                 the tag still verifies). The AuthEngine replay window is
//                 the defense; without it every replay re-delivers.
//   side-channel  contention probe: the campaign drives a seeded ON/OFF
//                 square wave of victim traffic at a target node while the
//                 attacker streams probes at the same target and samples
//                 its *own* HCA send-queue depth — the credit backpressure
//                 of the shared egress link (the paper's queuing-time DoS
//                 signal, read in reverse). Success = correctly classified
//                 epochs. Ingress rate limiting kills the signal by
//                 clipping both flows below the shared link's capacity.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "transport/subnet_manager.h"

namespace ibsec::workload {

enum class AttackKind : std::uint8_t {
  kScan = 0,
  kTrapForge,
  kRcSpoof,
  kReplay,
  kSideChannel,
};

const char* to_string(AttackKind kind);

/// One campaign's knobs. Fields not meaningful for a kind are ignored by it
/// but still round-trip through the spec grammar.
struct AttackSpec {
  AttackKind kind = AttackKind::kScan;
  /// Attacking node; -1 picks the highest-numbered non-SM node.
  int node = -1;
  /// Victim node; -1 resolves a kind-appropriate victim deterministically.
  int victim = -1;
  /// Attempt budget (probes / forged MADs / spoofed ACKs / replays).
  std::uint64_t count = 400;
  /// Inter-attempt spacing (side-channel: epoch length); 0 = kind default.
  SimTime interval = 0;
  /// scan: Q_Key candidate space (success rate ~ 1/keyspace without auth).
  std::uint64_t keyspace = 64;
  /// rc-spoof: QPNs probed, [2, 2+qpn_range).
  std::uint32_t qpn_range = 8;
  /// side-channel: square-wave epochs observed (half ON, half OFF).
  int epochs = 8;

  bool operator==(const AttackSpec&) const = default;
};

/// A full adversarial scenario: one seed, any number of campaigns.
/// Parallel to fabric::FaultCampaign, including the spec grammar.
struct AttackCampaignSpec {
  std::uint64_t seed = 0xA77ACC;
  std::vector<AttackSpec> attacks;

  bool enabled() const { return !attacks.empty(); }

  /// Parses the run_experiment `--attack` spec: semicolon-separated
  /// `key=value` entries:
  ///   seed=42                         campaign RNG seed
  ///   attack=<kind>                   one campaign with kind defaults
  ///   attack=<kind>:<k>=<v>,<k>=<v>   ...with subkey overrides
  /// kinds: scan | trap-forge | rc-spoof | replay | side-channel
  /// subkeys: node=N victim=N count=N interval=<T>us keyspace=N
  ///          qpn-range=N epochs=N
  /// Returns nullopt on a malformed spec (unknown kind/key, bad number, a
  /// node or victim below -1). A node or victim the fabric lacks fails
  /// loudly when the AttackCampaignSet is built.
  static std::optional<AttackCampaignSpec> parse(std::string_view spec);

  /// Canonical full-form spec string; parse(to_string()) == *this.
  std::string to_string() const;

  /// One-line human-readable summary for experiment banners.
  std::string describe() const;

  bool operator==(const AttackCampaignSpec&) const = default;
};

/// Everything a campaign may touch, gathered by Scenario after bring-up.
/// Raw pointers: the Scenario outlives its campaign set.
struct AttackContext {
  fabric::Fabric* fabric = nullptr;
  std::vector<transport::ChannelAdapter*> cas;
  transport::SubnetManager* sm = nullptr;
  int sm_node = 0;
  std::vector<int> node_partition;          ///< node -> partition index
  std::vector<ib::PKeyValue> partition_pkeys;  ///< partition -> P_Key
  std::vector<ib::Qpn> ud_qp_of_node;       ///< node -> workload UD QP
  std::vector<int> attacker_nodes;          ///< DoS flooder nodes
  std::vector<int> rc_stream_nodes;         ///< nodes with bound RC streams
};

/// Base campaign: owns the seeded RNG and the shared-by-kind obs counters.
/// Counters are resolved eagerly in the constructor — campaigns only exist
/// when a spec asks for them, so baseline snapshots are unchanged.
class AttackCampaign {
 public:
  AttackCampaign(AttackContext& ctx, AttackSpec spec, std::uint16_t id,
                 Rng rng);
  virtual ~AttackCampaign() = default;

  /// Begins the attempt schedule on the simulator event queue.
  virtual void start(SimTime at) = 0;
  void stop() { stopped_ = true; }
  /// Post-run success resolution for campaigns whose metric is a CA/SM
  /// counter delta rather than a per-packet delivery (trap-forge, rc-spoof,
  /// side-channel). Called by the set after the measurement window, before
  /// the registry snapshot.
  virtual void finish() {}

  /// A delivered packet carrying this campaign's id reached `node`'s CA.
  virtual void on_delivered(int node, const ib::Packet& pkt);
  /// An honest (non-attack) packet was delivered at `node` (replay capture).
  virtual void observe(int node, const ib::Packet& pkt);

  const AttackSpec& spec() const { return spec_; }
  /// 1-based campaign id, stamped into PacketMeta::attack_campaign.
  std::uint16_t id() const { return id_; }
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t successes() const { return successes_; }

 protected:
  sim::Simulator& simulator();
  void record_attempt();
  void record_success(std::uint64_t n = 1);
  /// Stamps the common attack metadata (is_attack + campaign id).
  void tag(ib::Packet& pkt) const;

  AttackContext& ctx_;
  AttackSpec spec_;
  std::uint16_t id_;
  Rng rng_;
  bool stopped_ = false;

 private:
  obs::Counter* obs_attempts_ = nullptr;  // "attacker.<kind>.attempts"
  obs::Counter* obs_success_ = nullptr;   // "attacker.<kind>.success"
  std::uint64_t attempts_ = 0;
  std::uint64_t successes_ = 0;
};

/// Builds, starts and finishes every campaign in a spec, and routes
/// delivered packets back to the campaign that sent them.
class AttackCampaignSet {
 public:
  AttackCampaignSet(const AttackCampaignSpec& spec, AttackContext ctx);

  /// Staggers each campaign's start within one packet slot (mirrors the
  /// Scenario's source staggering; draws come from `stagger` so adding
  /// campaigns never perturbs the existing draw sequence).
  void start(SimTime base, Rng& stagger);
  void stop();
  void finish();

  /// Delivery dispatch, called from the Scenario's delivery probe: attack
  /// packets go to their owning campaign, honest ones to every observer.
  void on_delivered(int node, const ib::Packet& pkt);

  const std::vector<std::unique_ptr<AttackCampaign>>& campaigns() const {
    return campaigns_;
  }

 private:
  AttackContext ctx_;
  std::vector<std::unique_ptr<AttackCampaign>> campaigns_;
};

}  // namespace ibsec::workload
