#include "ib/packet.h"

#include "crypto/crc16.h"
#include "crypto/crc32.h"

namespace ibsec::ib {
namespace {

// Streams the packet body (headers, optionally ICRC-masked, then payload)
// into `sink` piecewise: each header is serialized into a stack buffer and
// handed over, the payload is handed over in place. Every body consumer —
// materializing into a vector, or feeding an incremental CRC — goes through
// this one function, so the byte stream is identical by construction.
template <class Sink>
void stream_body(const Packet& pkt, bool masked, Sink&& sink) {
  std::uint8_t buf[Grh::kWireSize];  // large enough for every header

  pkt.lrh.serialize(std::span<std::uint8_t, Lrh::kWireSize>(buf,
                                                            Lrh::kWireSize));
  if (masked) {
    buf[0] |= 0xF0;  // LRH.VL nibble -> ones
  }
  sink(std::span<const std::uint8_t>(buf, Lrh::kWireSize));

  if (pkt.grh) {
    pkt.grh->serialize(std::span<std::uint8_t, Grh::kWireSize>(
        buf, Grh::kWireSize));
    if (masked) {
      // tclass + flow_label live in bytes 0..3 (with ip_ver in the top
      // nibble of byte 0); hop_limit is byte 7 (IBA 7.8.1 / 9.8).
      buf[0] |= 0x0F;
      buf[1] = 0xFF;
      buf[2] = 0xFF;
      buf[3] = 0xFF;
      buf[7] = 0xFF;
    }
    sink(std::span<const std::uint8_t>(buf, Grh::kWireSize));
  }

  pkt.bth.serialize(std::span<std::uint8_t, Bth::kWireSize>(buf,
                                                            Bth::kWireSize));
  if (masked) {
    buf[4] = 0xFF;  // BTH.resv8a — where the auth algorithm id rides
  }
  sink(std::span<const std::uint8_t>(buf, Bth::kWireSize));

  if (pkt.deth) {
    pkt.deth->serialize(std::span<std::uint8_t, Deth::kWireSize>(
        buf, Deth::kWireSize));
    sink(std::span<const std::uint8_t>(buf, Deth::kWireSize));
  }
  if (pkt.reth) {
    pkt.reth->serialize(std::span<std::uint8_t, Reth::kWireSize>(
        buf, Reth::kWireSize));
    sink(std::span<const std::uint8_t>(buf, Reth::kWireSize));
  }
  if (pkt.aeth) {
    pkt.aeth->serialize(std::span<std::uint8_t, Aeth::kWireSize>(
        buf, Aeth::kWireSize));
    sink(std::span<const std::uint8_t>(buf, Aeth::kWireSize));
  }

  if (!pkt.payload.empty()) {
    sink(std::span<const std::uint8_t>(pkt.payload.data(),
                                       pkt.payload.size()));
  }
}

void append_icrc_be(std::vector<std::uint8_t>& out, std::uint32_t icrc) {
  out.push_back(static_cast<std::uint8_t>(icrc >> 24));
  out.push_back(static_cast<std::uint8_t>(icrc >> 16));
  out.push_back(static_cast<std::uint8_t>(icrc >> 8));
  out.push_back(static_cast<std::uint8_t>(icrc));
}

bool known_opcode(std::uint8_t raw) {
  switch (static_cast<OpCode>(raw)) {
    case OpCode::kRcSendFirst:
    case OpCode::kRcSendMiddle:
    case OpCode::kRcSendLast:
    case OpCode::kRcSendOnly:
    case OpCode::kRcAck:
    case OpCode::kRcRdmaWriteOnly:
    case OpCode::kRcRdmaReadRequest:
    case OpCode::kRcRdmaReadResponse:
    case OpCode::kUdSendOnly:
      return true;
  }
  return false;
}

}  // namespace

std::size_t Packet::headers_size() const {
  std::size_t size = Lrh::kWireSize + Bth::kWireSize;
  if (grh) size += Grh::kWireSize;
  if (deth) size += Deth::kWireSize;
  if (reth) size += Reth::kWireSize;
  if (aeth) size += Aeth::kWireSize;
  return size;
}

std::size_t Packet::wire_size() const {
  return headers_size() + payload.size() + 4 /*ICRC*/ + 2 /*VCRC*/;
}

void Packet::append_body(std::vector<std::uint8_t>& out, bool masked) const {
  stream_body(*this, masked, [&out](std::span<const std::uint8_t> piece) {
    out.insert(out.end(), piece.begin(), piece.end());
  });
}

void Packet::serialize_body(std::vector<std::uint8_t>& out,
                            bool masked) const {
  out.clear();
  out.reserve(headers_size() + payload.size());
  append_body(out, masked);
}

void Packet::icrc_covered_into(std::vector<std::uint8_t>& out) const {
  serialize_body(out, /*masked=*/true);
}

void Packet::vcrc_covered_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(headers_size() + payload.size() + 4);
  append_body(out, /*masked=*/false);
  append_icrc_be(out, icrc);
}

void Packet::serialize_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(wire_size());
  append_body(out, /*masked=*/false);
  append_icrc_be(out, icrc);
  out.push_back(static_cast<std::uint8_t>(vcrc >> 8));
  out.push_back(static_cast<std::uint8_t>(vcrc));
}

std::uint32_t Packet::compute_icrc() const {
  crypto::Crc32 crc;
  stream_body(*this, /*masked=*/true,
              [&crc](std::span<const std::uint8_t> piece) {
                crc.update(piece);
              });
  return crc.value();
}

std::uint16_t Packet::compute_vcrc() const {
  crypto::Crc16Iba crc;
  stream_body(*this, /*masked=*/false,
              [&crc](std::span<const std::uint8_t> piece) {
                crc.update(piece);
              });
  const std::uint8_t trailer[4] = {static_cast<std::uint8_t>(icrc >> 24),
                                   static_cast<std::uint8_t>(icrc >> 16),
                                   static_cast<std::uint8_t>(icrc >> 8),
                                   static_cast<std::uint8_t>(icrc)};
  crc.update(trailer);
  return crc.value();
}

void Packet::set_lengths() {
  // pkt_len counts 4-byte words from the first byte of LRH through ICRC.
  lrh.pkt_len = static_cast<std::uint16_t>(
      (headers_size() + payload.size() + 4) / 4);
}

void Packet::finalize() {
  set_lengths();
  icrc = compute_icrc();
  vcrc = compute_vcrc();
}

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> wire) {
  if (wire.size() < Lrh::kWireSize + Bth::kWireSize + 6) return std::nullopt;

  Packet pkt;
  std::size_t offset = 0;
  pkt.lrh = Lrh::parse(std::span<const std::uint8_t, Lrh::kWireSize>(
      &wire[offset], Lrh::kWireSize));
  offset += Lrh::kWireSize;

  if (pkt.lrh.lnh == 3) {
    if (wire.size() < offset + Grh::kWireSize + Bth::kWireSize + 6) {
      return std::nullopt;
    }
    pkt.grh = Grh::parse(std::span<const std::uint8_t, Grh::kWireSize>(
        &wire[offset], Grh::kWireSize));
    offset += Grh::kWireSize;
  }

  if (!known_opcode(wire[offset])) return std::nullopt;
  pkt.bth = Bth::parse(std::span<const std::uint8_t, Bth::kWireSize>(
      &wire[offset], Bth::kWireSize));
  offset += Bth::kWireSize;

  if (opcode_has_deth(pkt.bth.opcode)) {
    if (wire.size() < offset + Deth::kWireSize + 6) return std::nullopt;
    pkt.deth = Deth::parse(std::span<const std::uint8_t, Deth::kWireSize>(
        &wire[offset], Deth::kWireSize));
    offset += Deth::kWireSize;
  }
  if (opcode_has_reth(pkt.bth.opcode)) {
    if (wire.size() < offset + Reth::kWireSize + 6) return std::nullopt;
    pkt.reth = Reth::parse(std::span<const std::uint8_t, Reth::kWireSize>(
        &wire[offset], Reth::kWireSize));
    offset += Reth::kWireSize;
  }
  if (opcode_has_aeth(pkt.bth.opcode)) {
    if (wire.size() < offset + Aeth::kWireSize + 6) return std::nullopt;
    pkt.aeth = Aeth::parse(std::span<const std::uint8_t, Aeth::kWireSize>(
        &wire[offset], Aeth::kWireSize));
    offset += Aeth::kWireSize;
  }

  if (wire.size() < offset + 6) return std::nullopt;
  const std::size_t payload_len = wire.size() - offset - 6;
  pkt.payload.assign(wire.begin() + static_cast<long>(offset),
                     wire.begin() + static_cast<long>(offset + payload_len));
  offset += payload_len;

  pkt.icrc = static_cast<std::uint32_t>(wire[offset]) << 24 |
             static_cast<std::uint32_t>(wire[offset + 1]) << 16 |
             static_cast<std::uint32_t>(wire[offset + 2]) << 8 |
             wire[offset + 3];
  pkt.vcrc = static_cast<std::uint16_t>(wire[offset + 4] << 8 |
                                        wire[offset + 5]);
  return pkt;
}

}  // namespace ibsec::ib
