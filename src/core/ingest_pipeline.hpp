// The batched/parallel ingest stage of run_pipeline (DESIGN.md §11): drain a
// TraceSource into demultiplexed connections as fast as the hardware allows.
//
// Serial shape (jobs == 1): pull raw records in batches, run the SoA batch
// decoder (pcap/decode_batch.hpp), and feed the flat-table demux — one
// thread, no queues, no atomics.
//
// Parallel shape (jobs > 1): the calling thread reads raw-record batches
// and hands them to a decode-worker pool; each decoded batch is split by
// connection-key hash into per-shard sub-batches; each shard worker owns a
// private ConnectionDemux and applies sub-batches in batch-sequence order
// (a resequencing buffer absorbs decode-worker races).
// Reading, decoding, and demuxing overlap across cores — this is what makes
// --jobs scale on the ingest side rather than only in per-connection
// analysis.
//
// Determinism: a connection's packets all land on one shard (the shard is a
// pure function of the connection key) and arrive in capture order (the
// resequencer restores batch order; lanes inside a batch are emitted in
// order), so every per-connection decision — reopen splits, the timestamp
// clamp — replays exactly as in the serial demux. The final connection list
// is the shards' outputs merged by first-packet trace index, which is the
// global first-seen order the serial path produces. Identical packets in,
// bit-identical connections out, at any job count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "tcp/connection.hpp"
#include "util/time.hpp"

namespace tdat {

class TraceSource;

struct IngestStageResult {
  std::vector<Connection> connections;  // global first-seen order
  std::uint64_t packets = 0;            // decoded TCP packets
  // Wall time spent inside header decode, summed across decode workers (can
  // exceed the stage's wall clock when they overlap). bytes / decode_busy is
  // the decode stage's standalone throughput.
  Micros decode_busy = 0;
  std::size_t ingest_jobs = 1;  // threads the stage actually used
};

// Drains `source` completely, decoding with the source's checksum setting.
// opts supplies jobs (0 = default_jobs()).
[[nodiscard]] IngestStageResult run_ingest_stage(TraceSource& source,
                                                 const AnalyzerOptions& opts);

}  // namespace tdat
