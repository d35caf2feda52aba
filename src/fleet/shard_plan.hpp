// Zero-copy shard planning (DESIGN.md §14): one batched-decode sweep over
// the mmap'd capture that assigns every record to a connection-hash bucket
// and emits, per shard, a list of (offset, count) record runs — never
// materializing a shard pcap. A worker given a shard's runs mmaps the same
// capture and ingests exactly those records (core/trace_source.hpp
// OffsetRunSource), so the only bytes ever written for an N-way scale-out
// are the N result archives.
//
// Equivalence contract: the sharding rule is the one `tdat shard` uses —
// `conn_key_hash(make_conn_key(pkt)) % shards`, undecodable records to
// shard 0 — so every packet of a connection lands with one worker and the
// merged worker archives reproduce the whole-run archive byte for byte.
// The sweep opens the capture through PcapStream::open_auto like a real run
// (same mmap-or-read choice, same resync, same error budget), and keeps the
// resulting IngestDiagnostics in the plan: workers only ever see clean
// planned records, so the coordinator injects the plan-time diagnostics into
// the merged archive to keep damaged captures byte-identical too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "pcap/ingest.hpp"
#include "pcap/record_runs.hpp"
#include "util/result.hpp"

namespace tdat::fleet {

struct ShardRuns {
  std::vector<RecordRun> runs;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  // record bytes incl. 16-byte headers
};

struct ShardPlan {
  std::string capture;
  std::uint64_t capture_bytes = 0;  // bytes the sweep consumed (incl. header)
  std::uint64_t records = 0;
  std::uint64_t packets = 0;        // records that decoded to TCP packets
  IngestDiagnostics ingest;         // capture damage found by the sweep
  std::vector<ShardRuns> shards;

  // Machine-readable plan for `tdat shard --plan`: everything a scheduler
  // needs to hand shards to workers by hand.
  [[nodiscard]] std::string to_json() const;
};

// Sweeps `capture` once and builds the N-shard plan. `verify_checksums`
// must match the analyzer's setting only for undecodable-record placement;
// any consistent value preserves merge equivalence. Fails when the capture
// is unreadable or not a pcap.
[[nodiscard]] Result<ShardPlan> build_shard_plan(
    const std::string& capture, std::size_t shards,
    const IngestPolicy& policy = {}, bool verify_checksums = false);

}  // namespace tdat::fleet
