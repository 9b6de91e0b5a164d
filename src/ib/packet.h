// The InfiniBand data packet: headers + payload + ICRC/VCRC trailer, with
// byte-exact serialization, plus the (non-wire) simulation metadata used by
// the metrics pipeline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.h"
#include "ib/headers.h"

namespace ibsec::ib {

/// Simulation-only annotations; never serialized.
struct PacketMeta {
  enum class TrafficClass : std::uint8_t {
    kBestEffort = 0,
    kRealtime = 1,
    kManagement = 2,
  };

  // Timestamps use -1 as "not yet"; 0 is a legitimate instant.
  SimTime created_at = -1;    ///< message posted to the QP send queue
  SimTime injected_at = -1;   ///< first byte placed on the HCA's wire
  SimTime delivered_at = -1;  ///< last byte received at the destination HCA
  std::uint32_t src_node = 0;
  std::uint32_t dst_node = 0;
  /// Sending QP number. For UD this duplicates DETH.SrcQP; for RC there is
  /// no wire field, but the sending HCA knows which send queue the packet
  /// came from — this mirrors that hardware context, it is not a wire leak.
  std::uint32_t src_qp = 0;
  TrafficClass traffic_class = TrafficClass::kBestEffort;
  bool is_attack = false;    ///< generated by a compromised node
  /// 1-based id of the workload AttackCampaign that generated this packet
  /// (0 = none). Simulation-side attribution only — never serialized — so
  /// campaigns can count their own deliveries without inspecting payloads.
  std::uint16_t attack_campaign = 0;
  std::uint64_t message_id = 0;
  /// obs::TraceRecorder identity: 0 = never considered (tracing off),
  /// obs::kTraceNotSampled = considered and skipped by the sampling hash.
  /// Copies made for RC retransmission keep the id so every wire trip of a
  /// message attaches to one lifecycle. Simulation-side metadata like the
  /// timestamps above — never serialized to the wire.
  std::uint64_t trace_id = 0;
};

/// A single IBA packet. Extension headers are present according to the BTH
/// opcode (DETH for UD, RETH for RDMA, AETH for acks); GRH only when
/// LRH.lnh == 3.
class Packet {
 public:
  Lrh lrh;
  std::optional<Grh> grh;
  Bth bth;
  std::optional<Deth> deth;
  std::optional<Reth> reth;
  std::optional<Aeth> aeth;
  std::vector<std::uint8_t> payload;
  std::uint32_t icrc = 0;  ///< Invariant CRC *or* Authentication Tag
  std::uint16_t vcrc = 0;  ///< Variant CRC, verified at every hop

  PacketMeta meta;

  /// Total bytes on the wire: headers + payload + ICRC(4) + VCRC(2).
  std::size_t wire_size() const;

  // Byte materializers. Each clears `out`, reserves the exact size and
  // fills it, so hot paths (AuthEngine, ChannelAdapter) keep one scratch
  // vector per object and reuse its capacity across packets.
  /// Full wire image (headers, payload, ICRC, VCRC).
  void serialize_into(std::vector<std::uint8_t>& out) const;
  /// Bytes covered by the ICRC with the IBA variant-field masking applied:
  /// LRH.VL nibble, GRH.tclass/flow_label/hop_limit (when present) and
  /// BTH.resv8a are replaced with one-bits. These are exactly the bytes the
  /// paper's Authentication Tag MACs, so switches rewriting variant fields
  /// never invalidate the tag.
  void icrc_covered_into(std::vector<std::uint8_t>& out) const;
  /// Bytes covered by the VCRC: everything from LRH to the end of the ICRC
  /// field, unmasked.
  void vcrc_covered_into(std::vector<std::uint8_t>& out) const;

  /// CRCs are computed by streaming the body through the incremental CRC
  /// classes (headers via a stack buffer, payload in place) — no heap
  /// traffic, same values as hashing the materialized covered bytes.
  std::uint32_t compute_icrc() const;
  std::uint16_t compute_vcrc() const;

  /// Fills LRH.pkt_len (4-byte words from LRH through ICRC). Must run
  /// before ICRC/AT computation since the length is a covered field.
  void set_lengths();

  /// set_lengths() + plain ICRC + VCRC. Call after mutating headers or
  /// payload. The authentication engine instead calls set_lengths(), writes
  /// its tag into `icrc`, and refresh_vcrc().
  void finalize();

  /// Recomputes only the VCRC, after the ICRC field was rewritten
  /// (AuthEngine::sign). Switches verify the VCRC and never rewrite it.
  void refresh_vcrc() { vcrc = compute_vcrc(); }

  bool icrc_valid() const { return icrc == compute_icrc(); }
  bool vcrc_valid() const { return vcrc == compute_vcrc(); }

  /// Parses a wire image; std::nullopt if the buffer is malformed
  /// (truncated, inconsistent lengths, unknown opcode). CRC fields are
  /// loaded but not validated — callers decide (switches check VCRC,
  /// endpoints check ICRC/AT).
  static std::optional<Packet> parse(std::span<const std::uint8_t> wire);

 private:
  std::size_t headers_size() const;
  // Clears `out`, reserves, and appends headers + payload, with or without
  // the ICRC masking rules applied.
  void serialize_body(std::vector<std::uint8_t>& out, bool masked) const;
  // Append-only core of serialize_body (no clear/reserve).
  void append_body(std::vector<std::uint8_t>& out, bool masked) const;
};

}  // namespace ibsec::ib
