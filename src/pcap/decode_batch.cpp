#include "pcap/decode_batch.hpp"

#include <algorithm>
#include <bit>

#include "pcap/checksum.hpp"
#include "pcap/decode.hpp"
#include "util/bytes.hpp"

namespace tdat {
namespace {

constexpr std::size_t kEth = 14;

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

}  // namespace

std::size_t decode_records(std::span<const StreamRecord> records,
                           std::size_t start_index, bool verify_checksums,
                           DecodeScratch& scratch,
                           std::vector<DecodedPacket>& out) {
  const std::size_t n = std::min(records.size(), kDecodeBatch);
  std::uint64_t mask = 0;

  // Pass 1 — fixed-field extraction with a folded validity mask. The reject
  // conditions mirror decode_frame's early returns exactly (see the header
  // contract); they are just accumulated into `v` instead of branched on,
  // leaving three predictable branches per lane: the two bounds guards the
  // loads need, and the store of a surviving lane.
  for (std::size_t i = 0; i < n; ++i) {
    const StreamRecord& rec = records[i];
    const std::uint8_t* p = rec.data.data();
    const std::size_t len = rec.data.size();

    // Truncated-capture skip plus the minimum Eth + IPv4 + TCP footprint; a
    // shorter frame cannot decode (the scalar path rejects it via reader
    // exhaustion) and its loads below would be out of bounds.
    if (len < rec.orig_len || len < kEth + 20 + 20) continue;

    const std::uint8_t ver_ihl = p[kEth];
    const std::size_t ihl = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
    bool v = be16(p + 12) == kEtherTypeIpv4;
    v &= (ver_ihl >> 4) == 4;
    v &= ihl >= 20;
    const std::uint16_t total_len = be16(p + kEth + 2);
    v &= p[kEth + 9] == kIpProtoTcp;
    v &= total_len >= ihl;
    v &= kEth + total_len <= len;
    const std::size_t tcp_off = kEth + ihl;
    v &= tcp_off + 20 <= len;  // bounds for the TCP loads below
    if (!v) continue;

    const std::uint8_t* t = p + tcp_off;
    const std::size_t doff = static_cast<std::size_t>(t[12] >> 4) * 4;
    v = doff >= 20;
    v &= total_len >= ihl + doff;
    if (!v) continue;

    scratch.ihl[i] = static_cast<std::uint8_t>(ihl);
    scratch.ttl[i] = p[kEth + 8];
    scratch.total_len[i] = total_len;
    scratch.ident[i] = be16(p + kEth + 4);
    scratch.src[i] = be32(p + kEth + 12);
    scratch.dst[i] = be32(p + kEth + 16);
    scratch.sport[i] = be16(t);
    scratch.dport[i] = be16(t + 2);
    scratch.seq[i] = be32(t + 4);
    scratch.ack[i] = be32(t + 8);
    scratch.doff[i] = static_cast<std::uint8_t>(doff);
    scratch.flags[i] = t[13];
    scratch.window[i] = be16(t + 14);
    mask |= std::uint64_t{1} << i;
  }

  // Pass 2 — materialize the survivors, lane order preserved (clearing the
  // lowest set bit walks the mask in increasing lane order). Variable-rate
  // work lives here: TCP options and checksum verification can still reject
  // a lane, exactly as decode_frame would.
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    const StreamRecord& rec = records[i];
    const std::span<const std::uint8_t> frame = rec.data;
    const std::size_t ihl = scratch.ihl[i];
    const std::size_t doff = scratch.doff[i];

    DecodedPacket pkt;
    pkt.ts = rec.ts;
    pkt.index = start_index + i;
    pkt.ip.src = scratch.src[i];
    pkt.ip.dst = scratch.dst[i];
    pkt.ip.protocol = kIpProtoTcp;
    pkt.ip.ttl = scratch.ttl[i];
    pkt.ip.ident = scratch.ident[i];
    pkt.ip.total_length = scratch.total_len[i];
    pkt.ip.header_len = ihl;
    pkt.tcp.src_port = scratch.sport[i];
    pkt.tcp.dst_port = scratch.dport[i];
    pkt.tcp.seq = scratch.seq[i];
    pkt.tcp.ack = scratch.ack[i];
    pkt.tcp.window = scratch.window[i];
    pkt.tcp.header_len = doff;
    const std::uint8_t flags = scratch.flags[i];
    pkt.tcp.flags.fin = flags & 0x01;
    pkt.tcp.flags.syn = flags & 0x02;
    pkt.tcp.flags.rst = flags & 0x04;
    pkt.tcp.flags.psh = flags & 0x08;
    pkt.tcp.flags.ack = flags & 0x10;
    pkt.tcp.flags.urg = flags & 0x20;

    if (doff > 20) {
      // Options are fully inside the frame: the mask already enforced
      // 14 + total_length <= len and total_length >= ihl + doff.
      const std::uint8_t* opt = frame.data() + kEth + ihl + 20;
      const std::size_t opt_len = doff - 20;
      if (opt_len == 12 && opt[0] == 1 && opt[1] == 1 && opt[2] == 8 &&
          opt[3] == 10) {
        // NOP NOP Timestamps — the layout on essentially every post-SYN
        // segment of a timestamp-negotiated session.
        pkt.tcp.ts_val = be32(opt + 4);
        pkt.tcp.ts_ecr = be32(opt + 8);
      } else {
        ByteReader r(frame);
        r.skip(kEth + ihl + 20);
        if (!detail::decode_tcp_options(r, opt_len, pkt.tcp) || !r.ok()) {
          continue;  // malformed option list, same reject as the scalar path
        }
      }
    }

    const std::size_t tcp_total = pkt.ip.total_length - ihl;
    if (verify_checksums) {
      if (internet_checksum(frame.subspan(kEth, ihl)) != 0) continue;
      if (tcp_checksum(pkt.ip.src, pkt.ip.dst,
                       frame.subspan(kEth + ihl, tcp_total)) != 0) {
        continue;
      }
    }

    pkt.payload_offset = kEth + ihl + doff;
    pkt.payload_len = tcp_total - doff;
    pkt.rec_offset = rec.file_offset;
    pkt.rec_len = static_cast<std::uint32_t>(kRecordHeaderLen + frame.size());
    if (rec.arena) {
      pkt.frame = frame;
      pkt.backing = rec.arena;
    } else {
      auto copy = std::make_shared<std::vector<std::uint8_t>>(frame.begin(),
                                                              frame.end());
      pkt.frame = std::span<const std::uint8_t>(*copy);
      pkt.backing = std::move(copy);
    }
    out.push_back(std::move(pkt));
  }
  return n;
}

}  // namespace tdat
