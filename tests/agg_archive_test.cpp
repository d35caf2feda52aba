// .tdagg archive format tests: sketch and archive round trips, the
// versioning contract, and rejection of damaged images — the result store
// must fail loudly on corruption, never return half an archive.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "agg/archive.hpp"
#include "agg/sketch.hpp"
#include "util/bytes.hpp"

namespace tdat::agg {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

ConnectionRecord sample_record(std::uint32_t peer, const char* run = "") {
  ConnectionRecord c;
  c.run_id = run;
  c.collector_ip = 0x0a090909;
  c.peer_ip = peer;
  c.peer_as = 65000 + (peer & 0xff);
  c.key.ip_a = peer;
  c.key.port_a = 20000;
  c.key.ip_b = 0x0a090909;
  c.key.port_b = 179;
  c.transfer_begin = 1000;
  c.transfer_end = 90'000'000;
  c.updates = 4200;
  c.prefixes = 9000;
  c.factor_delay_us[1] = 60'000'000;
  c.factor_delay_us[4] = 20'000'000;
  c.group_delay_us[0] = 60'000'000;
  return c;
}

Archive sample_archive() {
  Archive a;
  a.ingest.truncated = 1;
  a.ingest.skipped_bytes = 37;
  a.connections.push_back(sample_record(0x0a000102));
  a.connections.push_back(sample_record(0x0a000101));
  ConnectionRecord q = sample_record(0x0a000103);
  q.quarantine_reason = "unrecoverable BGP framing";
  q.transfer_begin = q.transfer_end = 0;
  a.connections.push_back(q);
  for (const ConnectionRecord& c : a.connections) {
    if (!c.has_transfer()) continue;
    SketchGroup g;
    g.key = {c.run_id, c.collector_ip, c.peer_ip, c.peer_as};
    sketch_observe(g.transfer_us, c.transfer_us());
    for (std::size_t f = 0; f < kFactorCount; ++f) {
      sketch_observe(g.factor_delay_us[f], c.factor_delay_us[f]);
    }
    a.sketches.push_back(std::move(g));
  }
  a.normalize();
  return a;
}

TEST(SketchCodec, RoundTripsOccupiedBucketsAndExtremes) {
  HistogramSnapshot s;
  sketch_observe(s, 1);
  sketch_observe(s, 1000);
  sketch_observe(s, 1000);
  sketch_observe(s, 123456789);
  ByteWriter w;
  encode_sketch(s, w);
  ByteReader r(w.data());
  const HistogramSnapshot back = decode_sketch(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.buckets, s.buckets);
  EXPECT_EQ(back.count, 4u);
  EXPECT_EQ(back.sum, s.sum);
  EXPECT_EQ(back.min, 1);
  EXPECT_EQ(back.max, 123456789);
}

TEST(SketchCodec, EmptySketchRoundTrips) {
  ByteWriter w;
  encode_sketch(HistogramSnapshot{}, w);
  ByteReader r(w.data());
  const HistogramSnapshot back = decode_sketch(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back.count, 0u);
  EXPECT_EQ(back.min, 0);
  EXPECT_EQ(back.max, 0);
}

TEST(SketchCodec, RejectsCountContradictingBuckets) {
  HistogramSnapshot s;
  sketch_observe(s, 5);
  ByteWriter w;
  encode_sketch(s, w);
  std::vector<std::uint8_t> bytes = w.take();
  bytes[0] += 1;  // count field no longer matches the bucket total
  ByteReader r(bytes);
  (void)decode_sketch(r);
  EXPECT_FALSE(r.ok());
}

TEST(ArchiveFormat, SerializeParseRoundTripIsExact) {
  const Archive a = sample_archive();
  const std::string bytes = a.serialize();
  const auto parsed = parse_archive(as_bytes(bytes));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().serialize(), bytes);
  EXPECT_EQ(parsed.value().connections, a.connections);
  EXPECT_EQ(parsed.value().ingest.truncated, 1u);
  EXPECT_EQ(parsed.value().quarantined(), 1u);
  EXPECT_EQ(parsed.value().transfers(), 2u);
  ASSERT_EQ(parsed.value().sketches.size(), 2u);
  EXPECT_EQ(parsed.value().sketches[0].key, a.sketches[0].key);
}

TEST(ArchiveFormat, RejectsBadMagicNewerVersionTruncationAndTrailingBytes) {
  const std::string bytes = sample_archive().serialize();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(parse_archive(as_bytes(bad_magic)).ok());

  std::string newer = bytes;
  newer[4] = static_cast<char>(kArchiveVersion + 1);  // version u32le
  const auto v = parse_archive(as_bytes(newer));
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().find("newer"), std::string::npos);

  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{9}, std::size_t{3}}) {
    EXPECT_FALSE(parse_archive(as_bytes(bytes.substr(0, cut))).ok())
        << "cut at " << cut;
  }

  std::string trailing = bytes + "junk";
  EXPECT_FALSE(parse_archive(as_bytes(trailing)).ok());
}

TEST(ArchiveFormat, RejectsRowsAndSketchKeysOutOfCanonicalOrder) {
  // Merge folds sorted inputs linearly, so a well-formed image whose rows or
  // sketch groups are out of canonical order must not parse.
  Archive swapped = sample_archive();
  ASSERT_LT(swapped.connections[0], swapped.connections[1]);
  std::swap(swapped.connections[0], swapped.connections[1]);
  const auto rows = parse_archive(as_bytes(swapped.serialize()));
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.error().find("order"), std::string::npos);

  Archive duplicate_key = sample_archive();
  ASSERT_EQ(duplicate_key.sketches.size(), 2u);
  duplicate_key.sketches[1].key = duplicate_key.sketches[0].key;
  EXPECT_FALSE(parse_archive(as_bytes(duplicate_key.serialize())).ok());

  Archive reversed = sample_archive();
  std::swap(reversed.sketches[0], reversed.sketches[1]);
  EXPECT_FALSE(parse_archive(as_bytes(reversed.serialize())).ok());
}

TEST(ArchiveFormat, RejectsStringLengthBeyondPayload) {
  // A record whose run_id length field points past the end of the image.
  Archive a;
  a.connections.push_back(sample_record(1, "run-a"));
  std::string bytes = a.serialize();
  // The first string is run_id, 48 bytes in: 4 magic + 4 version + 4*8
  // diagnostics counters + 8 connection count.
  const std::size_t len_at = 4 + 4 + 32 + 8;
  bytes[len_at] = '\xff';
  bytes[len_at + 1] = '\xff';
  EXPECT_FALSE(parse_archive(as_bytes(bytes)).ok());
}

TEST(ArchiveFormat, FileRoundTrip) {
  const Archive a = sample_archive();
  const std::string path = ::testing::TempDir() + "/agg_roundtrip.tdagg";
  ASSERT_TRUE(write_archive_file(path, a));
  const auto back = read_archive_file(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().serialize(), a.serialize());
  std::remove(path.c_str());
}

TEST(ArchiveFormat, ReadReportsMissingFileWithPath) {
  const auto missing = read_archive_file("/nonexistent/x.tdagg");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("/nonexistent/x.tdagg"), std::string::npos);
}

TEST(ArchiveMerge, EmptyArchiveIsIdentityAndBudgetFlagsSum) {
  const Archive a = sample_archive();
  Archive left;
  left.merge_from(a);
  EXPECT_EQ(left.serialize(), a.serialize());
  Archive right = a;
  right.merge_from(Archive{});
  EXPECT_EQ(right.serialize(), a.serialize());

  Archive exhausted;
  exhausted.budget_exhausted_runs = 1;
  Archive merged = a;
  merged.merge_from(exhausted);
  const auto back = parse_archive(as_bytes(merged.serialize()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().budget_exhausted_runs, 1u);
  EXPECT_TRUE(back.value().ingest.budget_exhausted);
}

}  // namespace
}  // namespace tdat::agg
