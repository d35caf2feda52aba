// Decoded packet model: Ethernet II / IPv4 / TCP, the only stack the BGP
// monitoring traces in the paper use. Addresses and ports are kept in host
// byte order after decoding.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/time.hpp"

namespace tdat {

struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;
  bool urg = false;

  friend bool operator==(const TcpFlags&, const TcpFlags&) = default;
};

struct Ipv4Header {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t protocol = 0;  // 6 = TCP
  std::uint8_t ttl = 0;
  std::uint16_t ident = 0;
  std::uint16_t total_length = 0;
  std::size_t header_len = 0;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint16_t window = 0;  // raw, pre-scaling
  TcpFlags flags;
  std::size_t header_len = 0;
  // From options (MSS/wscale/SACK-permitted appear on SYN segments only,
  // timestamps on every segment once negotiated — RFC 793 / 1323):
  std::optional<std::uint16_t> mss;
  std::optional<std::uint8_t> window_scale;
  bool sack_permitted = false;
  std::optional<std::uint32_t> ts_val;  // TSval of the timestamps option
  std::optional<std::uint32_t> ts_ecr;  // TSecr
};

// One captured packet: decoded header views plus the raw layer-2 frame.
// `index` is the packet's position in its trace and is used as the trace_ref
// carried by event series.
//
// Ownership: `frame` is a read-only view; `backing` pins the bytes behind
// it. decode_frame either copies the caller's buffer into a private backing
// (the legacy path — safe for transient inputs) or, when handed a keepalive,
// views the caller's buffer directly and shares its ownership — the
// streaming path, where `backing` is a pcap-stream arena chunk holding many
// packets' frames. Either way a DecodedPacket copy is cheap (one refcount
// bump, no byte copy), the frame bytes are immutable after decoding, and the
// packet may be handed to another thread freely.
struct DecodedPacket {
  Micros ts = 0;
  std::size_t index = 0;
  Ipv4Header ip;
  TcpHeader tcp;
  std::span<const std::uint8_t> frame;  // full layer-2 frame as captured
  std::shared_ptr<const void> backing;  // owns (or pins) the frame bytes
  std::size_t payload_offset = 0;       // offset of the TCP payload in `frame`
  std::size_t payload_len = 0;
  // Capture-file position of the record this packet came from (header offset
  // and total on-disk length, record header included), stamped by
  // decode_records from StreamRecord::file_offset; zero/zero from
  // decode_frame. The live engine uses these to checkpoint retained packets
  // as offset runs instead of bytes.
  std::uint64_t rec_offset = 0;
  std::uint32_t rec_len = 0;

  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return frame.subspan(payload_offset, payload_len);
  }
  [[nodiscard]] bool has_payload() const { return payload_len > 0; }
};

inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

}  // namespace tdat
