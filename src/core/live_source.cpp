#include "core/live_source.hpp"

#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

#include "util/log.hpp"
#include "util/metrics.hpp"

namespace tdat {
namespace {

constexpr std::size_t kGlobalHeaderLen = 24;

// Stat `path`; true only for a regular file holding at least a complete
// pcap global header (anything shorter is a capture still being born).
bool stat_openable(const std::string& path, std::uint64_t& dev,
                   std::uint64_t& ino, std::uint64_t& size) {
#if defined(__unix__) || defined(__APPLE__)
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  if (!S_ISREG(st.st_mode) || st.st_size < 0) return false;
  dev = static_cast<std::uint64_t>(st.st_dev);
  ino = static_cast<std::uint64_t>(st.st_ino);
  size = static_cast<std::uint64_t>(st.st_size);
  return size >= kGlobalHeaderLen;
#else
  (void)path;
  (void)dev;
  (void)ino;
  (void)size;
  return false;
#endif
}

}  // namespace

// --------------------------------------------------------- RingBufferFeed --

void RingBufferFeed::append(std::span<const std::uint8_t> bytes) {
  std::lock_guard lock(mu_);
  if (closed_) return;
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void RingBufferFeed::close() {
  std::lock_guard lock(mu_);
  closed_ = true;
}

std::size_t RingBufferFeed::read(std::uint8_t* dst, std::size_t n) {
  std::lock_guard lock(mu_);
  const std::size_t got = std::min(n, buf_.size() - head_);
  std::memcpy(dst, buf_.data() + head_, got);
  head_ += got;
  // Compact once the consumed prefix dominates, so memory tracks the
  // unconsumed backlog instead of growing with the capture.
  if (head_ >= 4096 && head_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return got;
}

std::size_t RingBufferFeed::available() const {
  std::lock_guard lock(mu_);
  return buf_.size() - head_;
}

bool RingBufferFeed::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

// ------------------------------------------------------- RingBufferSource --

RingBufferSource::RingBufferSource(std::shared_ptr<RingBufferFeed> feed,
                                   bool verify_checksums,
                                   const IngestPolicy& policy)
    : TraceSource(verify_checksums), feed_(std::move(feed)), policy_(policy) {}

bool RingBufferSource::try_open() {
  if (stream_) return true;
  if (failed_ || ended_) return false;
  if (feed_->available() < kGlobalHeaderLen && !feed_->closed()) return false;
  auto opened = PcapStream::from_feed(feed_, policy_);
  if (!opened.ok()) {
    failed_ = true;
    ended_ = true;
    error_ = opened.error();
    TDAT_LOG_WARN("live: feed is not a pcap stream: %s", error_.c_str());
    return false;
  }
  stream_.emplace(std::move(opened).value());
  if (draining_) stream_->begin_drain();
  return true;
}

std::size_t RingBufferSource::next_raw_records(std::span<StreamRecord> out) {
  if (!try_open()) return 0;
  std::size_t n = 0;
  while (n < out.size()) {
    const StreamStatus st = stream_->next_live(out[n]);
    if (st != StreamStatus::kOk) {
      if (st == StreamStatus::kEnd) ended_ = true;
      break;
    }
    ++n;
  }
  return n;
}

std::uint64_t RingBufferSource::bytes_ingested() const {
  return stream_ ? stream_->bytes_read() : 0;
}

std::uint64_t RingBufferSource::records_seen() const {
  return stream_ ? stream_->records_read() : 0;
}

IngestDiagnostics RingBufferSource::diagnostics() const {
  return stream_ ? stream_->diagnostics() : IngestDiagnostics{};
}

bool RingBufferSource::live() const { return !ended_ && !failed_; }

bool RingBufferSource::poll_live() {
  if (ended_ || failed_) return false;
  if (!stream_) {
    return feed_->available() >= kGlobalHeaderLen || feed_->closed();
  }
  return feed_->available() > 0 || feed_->closed();
}

void RingBufferSource::begin_drain() {
  draining_ = true;
  if (!stream_ && !try_open()) {
    if (!stream_) ended_ = true;  // nothing ever arrived (or not a pcap)
    return;
  }
  stream_->begin_drain();
}

// ----------------------------------------------------------- FollowSource --

FollowSource::FollowSource(std::string path, bool verify_checksums,
                           const IngestPolicy& policy)
    : TraceSource(verify_checksums), path_(std::move(path)), policy_(policy) {
  // Growth happens through fread + re-fstat; the mmap fast path snapshots a
  // fixed size at open and must not be used for a file still being written.
  policy_.use_mmap = false;
}

FollowSource::FollowSource(std::string path, bool verify_checksums,
                           const IngestPolicy& policy,
                           const PcapStream::Resume& resume)
    : FollowSource(std::move(path), verify_checksums, policy) {
  resume_ = resume;
}

PcapStream::Resume FollowSource::resume_state() const {
  PcapStream::Resume r;
  if (!stream_) return r;
  r.offset = stream_->bytes_read();
  r.records = stream_->records_read();
  r.last_ts = stream_->last_record_ts();
  r.diag = stream_->diagnostics();
  return r;
}

bool FollowSource::try_open() {
  if (stream_) return true;
  if (failed_ || ended_) return false;
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::uint64_t size = 0;
  if (!stat_openable(path_, dev, ino, size)) return false;
  auto opened = resume_ ? PcapStream::open_resumed(path_, policy_, *resume_)
                        : PcapStream::open(path_, policy_);
  resume_.reset();  // only the first segment resumes; rotations start fresh
  if (!opened.ok()) {
    // The file holds >= 24 bytes yet fails header parse: not a pcap. That
    // is permanent damage, not a capture still being written.
    failed_ = true;
    ended_ = true;
    error_ = opened.error();
    TDAT_LOG_WARN("live: cannot follow %s: %s", path_.c_str(),
                  error_.c_str());
    return false;
  }
  stream_.emplace(std::move(opened).value());
  stream_->set_tail(!draining_);
  // Re-stat for identity as close to the open as possible (a rotation can
  // slip between the first stat and the fopen; the next poll re-checks).
  if (stat_openable(path_, dev, ino, size)) {
    dev_ = dev;
    ino_ = ino;
    have_id_ = true;
  } else {
    have_id_ = false;
  }
  rotated_ = false;
  metrics().counter("live.segments_opened").inc();
  TDAT_LOG_INFO("live: following %s", path_.c_str());
  return true;
}

void FollowSource::finalize_segment() {
  if (!stream_) return;
  past_diag_.add(stream_->diagnostics());
  past_bytes_ += stream_->bytes_read();
  past_records_ += stream_->records_read();
  past_files_.push_back({path_, stream_->diagnostics()});
  stream_.reset();
  have_id_ = false;
}

std::size_t FollowSource::next_raw_records(std::span<StreamRecord> out) {
  std::size_t n = 0;
  while (n < out.size()) {
    if (!stream_ && !try_open()) break;
    const StreamStatus st = stream_->next_live(out[n]);
    if (st == StreamStatus::kOk) {
      ++n;
      continue;
    }
    if (st == StreamStatus::kNeedMore) break;
    // kEnd: this segment is finished for good — either it was rotated away
    // and fully drained, the whole follow is draining, or the stream hit a
    // terminal condition (strict stop, resync budget).
    finalize_segment();
    if (rotated_ && !draining_) {
      rotated_ = false;
      continue;  // the new file at path_ (may not be ready yet)
    }
    ended_ = true;
    break;
  }
  return n;
}

std::uint64_t FollowSource::bytes_ingested() const {
  return past_bytes_ + (stream_ ? stream_->bytes_read() : 0);
}

std::uint64_t FollowSource::records_seen() const {
  return past_records_ + (stream_ ? stream_->records_read() : 0);
}

IngestDiagnostics FollowSource::diagnostics() const {
  IngestDiagnostics total = past_diag_;
  if (stream_) total.add(stream_->diagnostics());
  return total;
}

void FollowSource::collect_file_diagnostics(
    std::vector<FileIngestDiagnostics>& out) const {
  for (const FileIngestDiagnostics& f : past_files_) out.push_back(f);
  if (stream_) out.push_back({path_, stream_->diagnostics()});
}

bool FollowSource::live() const { return !ended_ && !failed_; }

bool FollowSource::poll_live() {
  if (ended_ || failed_) return false;
  if (!stream_) return try_open();
  if (stream_->poll_growth()) return true;
  if (rotated_ || draining_) return true;  // final records/tallies pending
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::uint64_t size = 0;
  std::uint64_t consumed = stream_->file_bytes_consumed();
  if (!stat_openable(path_, dev, ino, size)) {
    // Path momentarily gone or reborn too small to judge — likely the
    // rename phase of a rotation; keep serving the open fd and re-check.
    return false;
  }
  const bool replaced = have_id_ && (dev != dev_ || ino != ino_);
  const bool shrunk = size < consumed;  // copytruncate under the reader
  if (replaced || shrunk) {
    // What the open fd can still deliver is final: drain it with batch
    // semantics (truncation tallies included), then reopen the path.
    stream_->begin_drain();
    rotated_ = true;
    metrics().counter("live.rotations").inc();
    TDAT_LOG_INFO("live: %s rotated (%s); draining old segment",
                  path_.c_str(), replaced ? "replaced" : "truncated");
    return true;
  }
  return false;
}

void FollowSource::begin_drain() {
  draining_ = true;
  if (!stream_ && !try_open()) {
    if (!stream_) ended_ = true;  // no capture ever appeared
    return;
  }
  (void)stream_->poll_growth();  // pick up bytes appended since the last read
  stream_->begin_drain();
}

}  // namespace tdat
