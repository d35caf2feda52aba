// The single ingest abstraction of the analysis pipeline: a TraceSource
// serves raw pcap records in capture order, plus the capture-level
// accounting (bytes, records) PipelineStats reports. Consumers decode the
// records with the batch decoder (pcap/decode_batch.hpp) under the source's
// own checksum setting, so run_pipeline (core/analyzer.hpp) and LiveEngine
// (core/live.hpp) take any source the same way — there is no per-source
// decode loop left to keep bit-identical by hand.
//
// Sources and accounting (bytes = 24-byte global header + per-record 16-byte
// header + stored bytes, matching PcapStream::bytes_read byte for byte):
//   PcapFileSource      in-memory PcapFile (analyze_trace); records carry no
//                       file offset and are copied out by the decoder.
//   PcapStreamSource    chunked or mmap'd streaming file ingest
//                       (analyze_file); zero-copy arena-backed frames.
//   MultiFileSource     rotated captures: opens every file (or every *.pcap
//                       in a directory), orders the files by their first
//                       record timestamp, and concatenates them.
//   OffsetRunSource     a fleet worker's planned record runs (below).
// The live sources (FollowSource, RingBufferSource) are in
// core/live_source.hpp.
#pragma once

#include <string>
#include <vector>

#include "pcap/mmap_file.hpp"
#include "pcap/pcap_file.hpp"
#include "pcap/pcap_stream.hpp"
#include "pcap/record_runs.hpp"
#include "util/result.hpp"

namespace tdat {

class TraceSource {
 public:
  explicit TraceSource(bool verify_checksums)
      : verify_checksums_(verify_checksums) {}
  virtual ~TraceSource() = default;

  // Fills out[0..n) with the next raw records in capture order and returns n
  // (0 at end of source). Consumers assign trace indices by counting records
  // — one per raw record, decoded or not — so every source of the same
  // records yields the same packet indices.
  [[nodiscard]] virtual std::size_t next_raw_records(
      std::span<StreamRecord> out) = 0;

  // Whether this source's records are decoded with IPv4/TCP checksum
  // verification (frames failing it are dropped like undecodable ones).
  [[nodiscard]] bool verify_checksums() const { return verify_checksums_; }

  // Capture bytes consumed so far (headers included where the source sees
  // them) and pcap records seen (decoded or not). Stable after exhaustion.
  [[nodiscard]] virtual std::uint64_t bytes_ingested() const = 0;
  [[nodiscard]] virtual std::uint64_t records_seen() const = 0;

  // What ingest dropped or skipped to produce the records served so far
  // (aggregated across files for multi-file sources); all-zero for sources
  // that cannot encounter capture corruption.
  [[nodiscard]] virtual IngestDiagnostics diagnostics() const { return {}; }
  // Appends one entry per underlying capture file (clean files included;
  // the report layer filters). Sources without file identity append nothing.
  virtual void collect_file_diagnostics(
      std::vector<FileIngestDiagnostics>& out) const {
    (void)out;
  }

  // ---- Live-source extension (core/live_source.hpp implements these) ----
  // While live() is true, next_raw_records() returning no records is
  // provisional — the capture is still being written. The caller polls
  // poll_live() (re-stat a followed file, check a feed) and retries; once
  // the input is known to be finished it calls begin_drain(), after which
  // the source applies batch end-of-data semantics (truncation tallies
  // included) and exhausts normally. Batch sources are never live.
  [[nodiscard]] virtual bool live() const { return false; }
  // Returns true when new input may be available for a retry.
  [[nodiscard]] virtual bool poll_live() { return false; }
  virtual void begin_drain() {}

 private:
  bool verify_checksums_;
};

// In-memory PcapFile. The file must outlive the source (frames are spans
// into its record buffers).
class PcapFileSource final : public TraceSource {
 public:
  PcapFileSource(const PcapFile& file, bool verify_checksums);

  [[nodiscard]] std::size_t next_raw_records(
      std::span<StreamRecord> out) override;
  [[nodiscard]] std::uint64_t bytes_ingested() const override { return bytes_; }
  [[nodiscard]] std::uint64_t records_seen() const override {
    return file_->records.size();
  }
  [[nodiscard]] IngestDiagnostics diagnostics() const override {
    return file_->ingest;
  }

 private:
  const PcapFile* file_;
  std::size_t next_ = 0;
  std::uint64_t bytes_ = 0;
};

// Streaming single-file ingest over PcapStream; frames stay zero-copy views
// pinned by their arena chunk.
class PcapStreamSource final : public TraceSource {
 public:
  [[nodiscard]] static Result<PcapStreamSource> open(
      const std::string& path, bool verify_checksums,
      const IngestPolicy& policy = {});

  PcapStreamSource(PcapStream stream, bool verify_checksums)
      : TraceSource(verify_checksums), stream_(std::move(stream)) {}

  [[nodiscard]] std::size_t next_raw_records(
      std::span<StreamRecord> out) override;
  [[nodiscard]] std::uint64_t bytes_ingested() const override {
    return stream_.bytes_read();
  }
  [[nodiscard]] std::uint64_t records_seen() const override {
    return stream_.records_read();
  }
  [[nodiscard]] IngestDiagnostics diagnostics() const override {
    return stream_.diagnostics();
  }
  void collect_file_diagnostics(
      std::vector<FileIngestDiagnostics>& out) const override {
    if (!path_.empty()) out.push_back({path_, stream_.diagnostics()});
  }

 private:
  PcapStream stream_;
  std::string path_;  // empty for memory-backed streams
};

// Rotated-capture concatenation. `inputs` may mix capture files and
// directories; a directory contributes every regular file directly inside it
// (a rotated-capture drop usually holds nothing else; name them *.pcap).
// Files are ordered by the timestamp of their first record — rotation order —
// then streamed back to back.
class MultiFileSource final : public TraceSource {
 public:
  [[nodiscard]] static Result<MultiFileSource> open(
      const std::vector<std::string>& inputs, bool verify_checksums,
      const IngestPolicy& policy = {});

  [[nodiscard]] std::size_t next_raw_records(
      std::span<StreamRecord> out) override;
  [[nodiscard]] std::uint64_t bytes_ingested() const override;
  [[nodiscard]] std::uint64_t records_seen() const override;
  [[nodiscard]] IngestDiagnostics diagnostics() const override;
  void collect_file_diagnostics(
      std::vector<FileIngestDiagnostics>& out) const override;

  [[nodiscard]] std::size_t file_count() const { return parts_.size(); }

 private:
  struct Part {
    PcapStream stream;
    std::string path;
    StreamRecord pending;  // one-record lookahead (first record decides order)
    bool has_pending = false;
  };

  explicit MultiFileSource(bool verify_checksums)
      : TraceSource(verify_checksums) {}

  std::vector<Part> parts_;  // ordered by first-record timestamp
  std::size_t current_ = 0;
};

// Fleet-worker ingest: mmaps the capture and serves only the records named
// by a shard plan's offset runs (pcap/record_runs.hpp), zero-copy out of the
// shared mapping. The plan sweep already saw — and accounted — every damaged
// region, so this source's own diagnostics are always clean; the coordinator
// injects the plan-time IngestDiagnostics into the merged archive instead
// (DESIGN.md §14). After the drain, failed() reports a plan/image mismatch
// (stale plan over a rewritten capture), which the worker must surface as an
// ingest error rather than silently returning a partial archive.
class OffsetRunSource final : public TraceSource {
 public:
  [[nodiscard]] static Result<OffsetRunSource> open(const std::string& path,
                                                    std::vector<RecordRun> runs,
                                                    bool verify_checksums);

  [[nodiscard]] std::size_t next_raw_records(
      std::span<StreamRecord> out) override;
  // The 24-byte global header is charged here (the plan made this worker read
  // it), record header + stored bytes per served record — the same accounting
  // rule as every other capture-backed source.
  [[nodiscard]] std::uint64_t bytes_ingested() const override {
    return 24 + reader_.bytes_read();
  }
  [[nodiscard]] std::uint64_t records_seen() const override {
    return reader_.records_read();
  }

  [[nodiscard]] bool failed() const { return reader_.failed(); }
  [[nodiscard]] const std::string& error() const { return reader_.error(); }

 private:
  OffsetRunSource(RecordRunReader reader, bool verify_checksums)
      : TraceSource(verify_checksums), reader_(std::move(reader)) {}

  RecordRunReader reader_;
};

}  // namespace tdat
