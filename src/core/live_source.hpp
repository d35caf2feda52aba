// Live TraceSources for the always-on engine (DESIGN.md §15): inputs that
// have no end yet.
//
//   FollowSource      tails a growing pcap file, `tail -f` style: polls the
//                     path for appended bytes (PcapStream tail mode defers
//                     every truncation/resync decision until the bytes are
//                     final), detects rotation (new inode at the path, or
//                     the file shrinking under the reader — copytruncate),
//                     drains the rotated-away segment to its real end with
//                     batch semantics, and reopens the new file — the same
//                     concatenation MultiFileSource gives rotated batch
//                     inputs.
//   RingBufferSource  the same tail-mode streaming over an in-memory
//                     RingBufferFeed, for tests and benches that append a
//                     capture image in arbitrary chunks (mid-record splits
//                     included) and must reproduce the batch byte stream
//                     exactly.
//
// Both implement the TraceSource live extension: next_raw_records()
// returning 0 is provisional while live() is true; poll_live() checks for
// new input; begin_drain() declares the input final.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/trace_source.hpp"

namespace tdat {

// Append-only byte buffer feeding a tail-mode PcapStream. Producer side:
// append() / close(); consumer side is the ByteFeed interface the stream
// pulls from. Internally a compacting vector (consumed bytes are dropped
// whenever the read cursor passes half the buffer), so memory stays bounded
// by the unconsumed backlog, not the capture length. Thread-safe: one
// producer and one consumer may run concurrently.
class RingBufferFeed final : public ByteFeed {
 public:
  void append(std::span<const std::uint8_t> bytes);
  void close();

  [[nodiscard]] std::size_t read(std::uint8_t* dst, std::size_t n) override;
  [[nodiscard]] std::size_t available() const override;
  [[nodiscard]] bool closed() const override;

 private:
  mutable std::mutex mu_;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  // read cursor into buf_
  bool closed_ = false;
};

// TraceSource over a RingBufferFeed. The pcap global header may arrive in
// pieces: the stream is opened lazily once 24 bytes are buffered. A feed
// whose first 24 bytes are not a valid pcap header is a hard failure
// (failed()/error()), not something to wait out.
class RingBufferSource final : public TraceSource {
 public:
  explicit RingBufferSource(std::shared_ptr<RingBufferFeed> feed,
                            bool verify_checksums,
                            const IngestPolicy& policy = {});

  [[nodiscard]] std::size_t next_raw_records(
      std::span<StreamRecord> out) override;
  [[nodiscard]] std::uint64_t bytes_ingested() const override;
  [[nodiscard]] std::uint64_t records_seen() const override;
  [[nodiscard]] IngestDiagnostics diagnostics() const override;

  [[nodiscard]] bool live() const override;
  [[nodiscard]] bool poll_live() override;
  void begin_drain() override;

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  [[nodiscard]] bool try_open();

  std::shared_ptr<RingBufferFeed> feed_;
  IngestPolicy policy_;
  std::optional<PcapStream> stream_;
  bool draining_ = false;
  bool ended_ = false;
  bool failed_ = false;
  std::string error_;
};

// Tails a growing (and possibly rotating) pcap file. Construction never
// fails: the path does not even have to exist yet — the source waits for a
// file with a complete global header to appear. Hard failures (a file that
// is there but is not a pcap) surface through failed()/error().
class FollowSource final : public TraceSource {
 public:
  FollowSource(std::string path, bool verify_checksums,
               const IngestPolicy& policy = {});

  // Resuming construction (checkpoint restore): the first segment opens
  // mid-file at `resume` — the stream continues as if it had itself read the
  // prefix, so bytes_ingested()/records_seen()/diagnostics() match an
  // uninterrupted follow. A failed resume open (capture no longer seekable
  // to the offset) is a hard failure surfaced via failed(), which the caller
  // turns into a full-replay fallback.
  FollowSource(std::string path, bool verify_checksums,
               const IngestPolicy& policy, const PcapStream::Resume& resume);

  [[nodiscard]] std::size_t next_raw_records(
      std::span<StreamRecord> out) override;
  [[nodiscard]] std::uint64_t bytes_ingested() const override;
  [[nodiscard]] std::uint64_t records_seen() const override;
  [[nodiscard]] IngestDiagnostics diagnostics() const override;
  void collect_file_diagnostics(
      std::vector<FileIngestDiagnostics>& out) const override;

  [[nodiscard]] bool live() const override;
  [[nodiscard]] bool poll_live() override;
  void begin_drain() override;

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  // Capture files fully consumed so far (rotated-away segments).
  [[nodiscard]] std::size_t segments_completed() const {
    return past_files_.size();
  }

  // A checkpoint can only bind to a single capture file: once the follow has
  // rotated (or no stream is open yet) there is no one offset to resume at.
  [[nodiscard]] bool checkpointable() const {
    return stream_.has_value() && past_files_.empty() && !rotated_;
  }
  // Stream resume state to stamp into a checkpoint. Call between epochs
  // (never mid-read) and only while checkpointable(): bytes_read() then sits
  // exactly on the next unread record header.
  [[nodiscard]] PcapStream::Resume resume_state() const;

 private:
  // Opens the file currently at path_ if it exists with a complete global
  // header. Returns true once a stream is open.
  [[nodiscard]] bool try_open();
  // Folds the finished segment's accounting into the running totals and
  // closes it.
  void finalize_segment();

  std::string path_;
  IngestPolicy policy_;
  std::optional<PcapStream> stream_;
  // Identity (st_dev, st_ino) of the open segment, for rotation detection.
  std::uint64_t dev_ = 0;
  std::uint64_t ino_ = 0;
  bool have_id_ = false;
  bool rotated_ = false;   // current segment is final; reopen path_ after it
  bool draining_ = false;  // no more input anywhere: finish and stop
  bool ended_ = false;
  bool failed_ = false;
  std::string error_;
  // Accounting accumulated from rotated-away segments; the active stream's
  // numbers are added on top.
  IngestDiagnostics past_diag_;
  std::uint64_t past_bytes_ = 0;
  std::uint64_t past_records_ = 0;
  std::vector<FileIngestDiagnostics> past_files_;
  // Pending checkpoint-resume position for the first open; consumed by
  // try_open.
  std::optional<PcapStream::Resume> resume_;
};

}  // namespace tdat
