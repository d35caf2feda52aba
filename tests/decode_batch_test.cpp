// Differential test of the batched SoA header decoder against decode_frame:
// over clean records, systematically mutated headers, truncations, and
// pseudo-random garbage, decode_records must make the same accept/reject
// decision as the scalar path for every record and produce field-identical
// packets for every accept — with and without checksum verification — each
// stamped with its record's capture position. The batch decoder has no
// semantics of its own; this test is what pins it to decode_frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pcap/decode.hpp"
#include "pcap/decode_batch.hpp"
#include "pcap/pcap_file.hpp"
#include "pcap/pcap_stream.hpp"
#include "sim_scenarios.hpp"

namespace tdat {
namespace {

PcapFile sample_trace() {
  SimWorld world(77);
  for (int i = 0; i < 4; ++i) {
    const auto s =
        world.add_session(SessionSpec{}, test::table_messages(600, 9 + i));
    world.start_session(s, static_cast<Micros>(i) * 30 * kMicrosPerSec);
  }
  world.run_until(2000 * kMicrosPerSec);
  return world.take_trace();
}

std::string optional_u32(const std::optional<std::uint32_t>& v) {
  return v ? std::to_string(*v) : "-";
}

// Every decoded field, payload bytes included, as one comparable string.
std::string packet_fingerprint(const DecodedPacket& p) {
  std::string out;
  out += std::to_string(p.ts) + "|" + std::to_string(p.index);
  out += "|ip:" + std::to_string(p.ip.src) + "," + std::to_string(p.ip.dst) +
         "," + std::to_string(p.ip.protocol) + "," + std::to_string(p.ip.ttl) +
         "," + std::to_string(p.ip.ident) + "," +
         std::to_string(p.ip.total_length) + "," +
         std::to_string(p.ip.header_len);
  out += "|tcp:" + std::to_string(p.tcp.src_port) + "," +
         std::to_string(p.tcp.dst_port) + "," + std::to_string(p.tcp.seq) +
         "," + std::to_string(p.tcp.ack) + "," + std::to_string(p.tcp.window) +
         "," + std::to_string(p.tcp.header_len);
  out += "|fl:" + std::to_string(p.tcp.flags.syn) + std::to_string(p.tcp.flags.ack) +
         std::to_string(p.tcp.flags.fin) + std::to_string(p.tcp.flags.rst) +
         std::to_string(p.tcp.flags.psh) + std::to_string(p.tcp.flags.urg);
  out += "|opt:" + (p.tcp.mss ? std::to_string(*p.tcp.mss) : "-") + "," +
         (p.tcp.window_scale ? std::to_string(*p.tcp.window_scale) : "-") +
         "," + std::to_string(p.tcp.sack_permitted) + "," +
         optional_u32(p.tcp.ts_val) + "," + optional_u32(p.tcp.ts_ecr);
  out += "|pay:" + std::to_string(p.payload_offset) + "+" +
         std::to_string(p.payload_len) + ":";
  for (const std::uint8_t b : p.payload()) out += std::to_string(b) + ",";
  out += "|frame:" + std::to_string(p.frame.size());
  return out;
}

// The scalar reference: decode_frame per record, truncated captures skipped.
std::vector<std::string> scalar_decode(const std::vector<StreamRecord>& recs,
                                       bool verify) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const StreamRecord& rec = recs[i];
    if (rec.data.size() < rec.orig_len) continue;
    if (auto pkt = decode_frame(rec.ts, i, rec.data, verify, rec.arena)) {
      out.push_back(packet_fingerprint(*pkt));
    }
  }
  return out;
}

std::vector<std::string> batch_decode_all(const std::vector<StreamRecord>& recs,
                                          bool verify) {
  DecodeScratch scratch;
  std::vector<DecodedPacket> pkts;
  std::size_t off = 0;
  const std::span<const StreamRecord> span(recs);
  while (off < span.size()) {
    off += decode_records(span.subspan(off), off, verify, scratch, pkts);
  }
  std::vector<std::string> out;
  out.reserve(pkts.size());
  for (const DecodedPacket& p : pkts) {
    // Beyond decode_frame's fields: the position of the record it came from.
    EXPECT_EQ(p.rec_offset, recs[p.index].file_offset);
    EXPECT_EQ(p.rec_len, 16 + recs[p.index].data.size());
    out.push_back(packet_fingerprint(p));
  }
  return out;
}

void expect_equivalent(const std::vector<StreamRecord>& recs) {
  for (const bool verify : {false, true}) {
    SCOPED_TRACE(verify ? "verify" : "no-verify");
    EXPECT_EQ(batch_decode_all(recs, verify), scalar_decode(recs, verify));
  }
}

// Gives each record the file offset it has in a capture of exactly these
// records: 24-byte global header, then 16-byte header + data per record.
void assign_file_offsets(std::vector<StreamRecord>& recs) {
  std::uint64_t offset = 24;
  for (StreamRecord& r : recs) {
    r.file_offset = offset;
    offset += 16 + r.data.size();
  }
}

std::vector<StreamRecord> as_records(const PcapFile& file) {
  std::vector<StreamRecord> recs;
  recs.reserve(file.records.size());
  for (const PcapRecord& r : file.records) {
    recs.push_back({r.ts, r.orig_len, std::span<const std::uint8_t>(r.data),
                    nullptr});
  }
  assign_file_offsets(recs);
  return recs;
}

TEST(DecodeBatch, CleanTraceMatchesScalarDecode) {
  const PcapFile file = sample_trace();
  ASSERT_GT(file.records.size(), 200u);
  expect_equivalent(as_records(file));
}

TEST(DecodeBatch, HeaderMutationsMatchScalarDecode) {
  PcapFile file = sample_trace();
  // Mutate one header byte per record, cycling through the fields every
  // reject condition reads: ethertype, version/IHL, protocol, total length,
  // TCP data offset, and the option bytes.
  const std::size_t kOffsets[] = {12, 13, 14, 15, 16, 17, 23, 26, 33, 46, 47, 54};
  const std::uint8_t kValues[] = {0x00, 0x01, 0x40, 0x44, 0x46, 0x55,
                                  0x60, 0x80, 0xf0, 0xff};
  std::size_t v = 0;
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    auto& data = file.records[i].data;
    const std::size_t off = kOffsets[i % std::size(kOffsets)];
    if (off < data.size()) data[off] = kValues[v++ % std::size(kValues)];
  }
  expect_equivalent(as_records(file));
}

TEST(DecodeBatch, TruncationsMatchScalarDecode) {
  PcapFile file = sample_trace();
  // Truncated captures (snaplen cuts) and orig_len inflation: both forms of
  // "fewer bytes than the wire frame" must skip identically. Lengths sweep
  // the interesting boundaries: inside Ethernet, inside IP, inside TCP,
  // inside the options, one short of complete.
  const std::size_t kLens[] = {0, 5, 13, 14, 33, 34, 35, 53, 54, 55, 65, 66};
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    auto& rec = file.records[i];
    if (i % 3 == 0) {
      rec.data.resize(std::min<std::size_t>(rec.data.size(),
                                            kLens[i % std::size(kLens)]));
    } else if (i % 3 == 1) {
      rec.orig_len = static_cast<std::uint32_t>(rec.data.size()) + 1;
    }
  }
  expect_equivalent(as_records(file));
}

TEST(DecodeBatch, GarbageFramesMatchScalarDecode) {
  // Pseudo-random frames (fixed LCG, no real structure): virtually all
  // reject, through every combination of conditions.
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  const auto next_byte = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint8_t>(state >> 33);
  };
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t len = 0; len < 120; ++len) {
    std::vector<std::uint8_t> frame(len);
    for (auto& b : frame) b = next_byte();
    // Half of them get a valid-looking prefix so the deeper conditions are
    // reached, not just the ethertype check.
    if (len % 2 == 0 && len >= 24) {
      frame[12] = 0x08;
      frame[13] = 0x00;
      frame[14] = 0x45;
      frame[23] = 6;
    }
    frames.push_back(std::move(frame));
  }
  std::vector<StreamRecord> recs;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    recs.push_back({static_cast<Micros>(i), static_cast<std::uint32_t>(frames[i].size()),
                    std::span<const std::uint8_t>(frames[i]), nullptr});
  }
  assign_file_offsets(recs);
  expect_equivalent(recs);
}

TEST(DecodeBatch, LaneIndexingSurvivesPartialBatches) {
  // 3 batches of 64 plus a remainder: indices must be contiguous per record
  // (not per accepted packet) across batch boundaries.
  const PcapFile file = sample_trace();
  std::vector<StreamRecord> recs = as_records(file);
  recs.resize(std::min<std::size_t>(recs.size(), 3 * kDecodeBatch + 17));
  DecodeScratch scratch;
  std::vector<DecodedPacket> pkts;
  std::size_t off = 0;
  const std::span<const StreamRecord> span(recs);
  while (off < span.size()) {
    const std::size_t consumed =
        decode_records(span.subspan(off), off, false, scratch, pkts);
    ASSERT_GT(consumed, 0u);
    ASSERT_LE(consumed, kDecodeBatch);
    off += consumed;
  }
  ASSERT_FALSE(pkts.empty());
  for (std::size_t i = 1; i < pkts.size(); ++i) {
    EXPECT_LT(pkts[i - 1].index, pkts[i].index);
  }
  EXPECT_LT(pkts.back().index, recs.size());
}

}  // namespace
}  // namespace tdat
