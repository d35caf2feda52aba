#include "fleet/shard_plan.hpp"

#include <array>
#include <span>

#include "pcap/decode_batch.hpp"
#include "pcap/pcap_stream.hpp"
#include "tcp/connection.hpp"

namespace tdat::fleet {

namespace {

void add_record(ShardRuns& shard, std::uint64_t& expected_next,
                std::uint64_t offset, std::uint64_t record_bytes) {
  // Consecutive records for the same shard coalesce into one run; a gap
  // (another shard's records in between, or resync-skipped garbage) starts
  // a new one.
  if (!shard.runs.empty() && offset == expected_next) {
    ++shard.runs.back().count;
  } else {
    shard.runs.push_back({offset, 1});
  }
  expected_next = offset + record_bytes;
  ++shard.records;
  shard.bytes += record_bytes;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

std::string ShardPlan::to_json() const {
  std::string out = "{\"capture\": ";
  append_json_string(out, capture);
  out += ", \"capture_bytes\": ";
  append_u64(out, capture_bytes);
  out += ", \"records\": ";
  append_u64(out, records);
  out += ", \"packets\": ";
  append_u64(out, packets);
  out += ", \"shards\": ";
  append_u64(out, shards.size());
  out += ", \"ingest\": " + ingest.to_json();
  out += ", \"shard_runs\": [";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (s != 0) out += ", ";
    const ShardRuns& shard = shards[s];
    out += "{\"shard\": ";
    append_u64(out, s);
    out += ", \"records\": ";
    append_u64(out, shard.records);
    out += ", \"bytes\": ";
    append_u64(out, shard.bytes);
    out += ", \"runs\": [";
    for (std::size_t i = 0; i < shard.runs.size(); ++i) {
      if (i != 0) out += ", ";
      out += "{\"offset\": ";
      append_u64(out, shard.runs[i].offset);
      out += ", \"count\": ";
      append_u64(out, shard.runs[i].count);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Result<ShardPlan> build_shard_plan(const std::string& capture,
                                   std::size_t shards,
                                   const IngestPolicy& policy,
                                   bool verify_checksums) {
  if (shards == 0) {
    return Err<ShardPlan>("fleet: shard count must be positive");
  }
  TDAT_TRY(stream, PcapStream::open_auto(capture, policy));

  ShardPlan plan;
  plan.capture = capture;
  plan.shards.resize(shards);
  // Per shard: where that shard's last run ends, for run coalescing.
  std::vector<std::uint64_t> expected_next(shards, 0);

  std::array<StreamRecord, kDecodeBatch> batch;
  DecodeScratch scratch;
  std::vector<DecodedPacket> decoded;
  std::size_t index = 0;
  for (;;) {
    std::size_t n = 0;
    while (n < kDecodeBatch && stream.next(batch[n])) ++n;
    if (n == 0) break;
    // n <= kDecodeBatch, so one call decodes every lane.
    decode_records(std::span<const StreamRecord>(batch.data(), n), index,
                   verify_checksums, scratch, decoded);
    std::size_t pkt = 0;
    for (std::size_t lane = 0; lane < n; ++lane) {
      // Undecodable (non-TCP / truncated) records go to shard 0 so nothing
      // is lost — same rule as `tdat shard`.
      std::size_t shard = 0;
      if (pkt < decoded.size() && decoded[pkt].index == index + lane) {
        shard = conn_key_hash(make_conn_key(decoded[pkt])) % shards;
        ++pkt;
        ++plan.packets;
      }
      // The record's file_offset and on-disk length ARE the plan.
      add_record(plan.shards[shard], expected_next[shard],
                 batch[lane].file_offset,
                 kRecordHeaderLen + batch[lane].data.size());
    }
    index += n;
    // Release the pins before the next refill so chunked-reader arenas
    // recycle (no-op when the capture is mmap'd).
    decoded.clear();
    for (std::size_t i = 0; i < n; ++i) batch[i].arena.reset();
  }

  plan.ingest = stream.diagnostics();
  plan.records = stream.records_read();
  plan.capture_bytes = stream.bytes_read();
  return plan;
}

}  // namespace tdat::fleet
