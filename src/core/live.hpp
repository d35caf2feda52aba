// The always-on incremental analysis engine (DESIGN.md §15). Where
// run_pipeline drains a finished source once and analyzes at the end,
// LiveEngine runs forever in epochs:
//
//   run_epoch()   ingest whatever the source has right now (raw-record
//                 batches through the same header decoder as batch ingest),
//                 demux into the live connection table, re-analyze exactly
//                 the connections that received packets — analyze_connection
//                 is a pure function of (connection, options), so
//                 re-analyzing a connection over its grown packet list
//                 yields what batch analysis of the same packets would —
//                 then apply the bounded-memory policies below.
//   eviction      with `window > 0`, packets older than (newest ts − window)
//                 are dropped from each live connection, keeping the first
//                 few packets (the handshake that anchors the profile) and
//                 the most recent one. Analysis of evicted connections is an
//                 approximation over the retained window; with window == 0
//                 nothing is dropped and live results are bit-identical to
//                 batch.
//   idle GC       with `idle_gc > 0`, a connection idle that long is
//                 retired: its packets, event series, and non-OPEN messages
//                 are freed (the finished DelayReport/MCT/findings survive
//                 for snapshots) and its demux slot is forgotten, so a new
//                 flow on the same 4-tuple opens a fresh connection.
//
// render_snapshot() builds the standard ReportModel over the current state
// and runs it through the registered sinks, so a live snapshot is the same
// bytes the batch CLI would print for the same input — the keystone
// invariant the live equivalence tests enforce: replaying a finished
// capture through LiveEngine with eviction and GC disabled, then draining,
// produces byte-identical `agg`/`json`/`text` output to batch analyze.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analyzer.hpp"
#include "core/checkpoint.hpp"
#include "core/locate.hpp"
#include "core/report.hpp"
#include "core/trace_source.hpp"
#include "pcap/decode_batch.hpp"

namespace tdat {

struct LiveOptions {
  AnalyzerOptions analyzer;
  // Eviction horizon for per-connection packet history, in capture time
  // (not wall time). 0 keeps everything — required for batch equivalence.
  Micros window = 0;
  // Retire connections idle this long (capture time). 0 never retires.
  Micros idle_gc = 0;
  // Upper bound on raw records ingested per epoch, so one epoch's latency
  // stays bounded even when the source has a deep backlog.
  std::size_t epoch_batch_records = 4096;
};

// The checkpoint's echo of every option in `opts` that shapes results —
// written by checkpoint_state and compared against on restore, so both
// sides are built here.
[[nodiscard]] CheckpointConfig checkpoint_config(const LiveOptions& opts);

// Cumulative engine accounting, separate from PipelineStats so live counters
// (GC, eviction) never leak into batch-identical outputs.
struct LiveEngineStats {
  std::uint64_t epochs = 0;            // epochs that ingested >= 1 record
  std::uint64_t records = 0;           // raw pcap records ingested
  std::uint64_t packets = 0;           // decoded TCP packets demuxed
  std::uint64_t connections_total = 0; // ever opened
  std::uint64_t connections_active = 0;
  std::uint64_t connections_gc = 0;    // retired by idle GC
  std::uint64_t packets_evicted = 0;   // dropped by the window policy
  Micros newest_ts = -1;               // newest capture timestamp seen
};

class LiveEngine {
 public:
  // The source must outlive the engine. Live sources (core/live_source.hpp)
  // return records provisionally; batch sources just drain.
  LiveEngine(TraceSource& source, LiveOptions opts);

  // One epoch: ingest (bounded by epoch_batch_records), re-analyze dirty
  // connections, evict / GC. Returns the number of raw records ingested —
  // 0 means the source had nothing right now (poll and retry while
  // source_live()) or is exhausted.
  std::size_t run_epoch();

  // True while the source may still produce input (see TraceSource::live).
  [[nodiscard]] bool source_live() const { return source_.live(); }
  // Checks the source for new input (re-stat a followed file, etc.).
  [[nodiscard]] bool poll_source() { return source_.poll_live(); }

  // Declares the input final and consumes it to the true end with batch
  // end-of-data semantics (truncation tallies included). After drain() the
  // engine state is final; render_snapshot() gives the batch-equivalent
  // report.
  void drain();

  // Renders the current state through the standard report sinks. Entries
  // appear in connection-open order — the batch report order.
  [[nodiscard]] std::string render_snapshot(
      ReportFormat format, const ReportRenderOptions& ropts = {});

  // Fills the engine-owned portion of a checkpoint: config echo, counters,
  // next_index/now, and each connection's retained packets as offset runs
  // derived from the rec_offset/rec_len stamps ingest left on them (retired
  // connections use the runs stashed at retirement). The caller supplies
  // capture identity and the source's resume state. Fails when any retained
  // packet has no capture-file backing (in-memory sources).
  [[nodiscard]] Result<Unit> checkpoint_state(LiveCheckpoint& out) const;

  // Rebuilds engine state from `ckpt` by mmapping the capture at
  // `capture_path` and re-ingesting every connection's runs in connection
  // order — the demux key->connection contract guarantees two connections on
  // one key never interleave, so per-connection replay reproduces connection
  // creation order, slot states, and packet lists exactly. Retired
  // connections are replayed, re-analyzed, then re-trimmed. Must be called
  // on a fresh engine; on error the engine state is unspecified and the
  // caller falls back to a new engine + full replay.
  [[nodiscard]] Result<Unit> restore_state(const LiveCheckpoint& ckpt,
                                           const std::string& capture_path);

  [[nodiscard]] const LiveEngineStats& stats() const { return stats_; }
  // Batch-shaped stats for --stats / the JSON stats sink.
  [[nodiscard]] PipelineStats pipeline_stats() const;
  // Packets currently held across all live connections — the quantity the
  // window/idle-GC policies exist to bound.
  [[nodiscard]] std::size_t retained_packets() const;

 private:
  // Decodes `recs` (trace indices first_index, first_index + 1, ...) into
  // the connection table, marking the receiving connections dirty. The one
  // ingest step of both run_epoch and restore_state. Returns the number of
  // packets ingested.
  std::size_t ingest_records(std::span<const StreamRecord> recs,
                             std::size_t first_index);
  void analyze_dirty();
  void evict_window();
  void gc_idle();
  void retire(std::size_t i);
  // Frees what a retired connection no longer needs — packets, series, and
  // non-OPEN messages — and marks it retired. Shared by retire() and
  // restore_state(), so a restored retiree is trimmed exactly as the
  // original was.
  void trim_retired(std::size_t i);

  struct ConnState {
    Micros last_ts = -1;  // newest packet timestamp (pre-clamp)
    SnifferLocationEstimate where;  // frozen at last analysis
    bool dirty = false;    // received packets since last analysis
    bool retired = false;  // idle-GC'd; demux slot forgotten
    // Offset runs of the packets held at retirement, stashed before the
    // packet list is freed so a retired connection stays checkpointable.
    std::vector<CheckpointRun> retired_runs;
  };

  TraceSource& source_;
  LiveOptions opts_;
  ConnectionDemux demux_;
  std::vector<ConnectionAnalysis> results_;  // parallel to demux connections
  std::vector<ConnState> states_;            // parallel to results_
  std::vector<std::uint32_t> dirty_;         // connection indices, this epoch
  std::vector<StreamRecord> record_buf_;
  std::vector<DecodedPacket> packet_buf_;
  DecodeScratch decode_scratch_;
  LiveEngineStats stats_;
  std::size_t next_index_ = 0;  // global trace record index
  std::size_t retired_ = 0;
  Micros now_ = -1;  // newest capture timestamp across all connections
  Micros ingest_wall_ = 0;
  Micros analyze_wall_ = 0;
  Micros total_wall_ = 0;
};

}  // namespace tdat
