// Streaming pcap reader: reads the capture in fixed-size chunks and hands
// out records as std::span views into per-chunk arena buffers, so the ingest
// hot path performs no per-record heap allocation (the in-memory parse_pcap
// allocates one vector per record).
//
// Arena lifetime rules: every StreamRecord carries a shared_ptr pin on the
// chunk its bytes live in. A chunk stays alive exactly as long as the stream
// is filling it or at least one record (or DecodedPacket built from one via
// decode_frame's `backing` parameter) still references it; drop the pins and
// the chunk is recycled for a later refill. Records never straddle chunks —
// a record crossing a read boundary is relocated into the next chunk before
// it is handed out, so `data` is always contiguous.
//
// Zero-copy mode (from_image / the mmap fast path): when the whole capture
// is already contiguous in memory behind a caller-supplied keepalive, the
// stream walks it in place. No chunk buffers, no refill copies, no straddle
// relocation — every record is a span into the pinned image and the pin is
// the image itself. Parsing, corrupt-record recovery, and accounting are the
// same code as the chunked path (refill degenerates to a bounds check), so
// the two modes are bit-identical on every input.
//
// Supports the same four global-header variants as parse_pcap (µs/ns magic,
// either byte order). Corrupt-record handling is governed by IngestPolicy:
// by default a corrupt record header triggers a forward scan for the next
// plausible record (timestamp-monotonicity + sane-length heuristic, bounded
// by max_errors); under `strict` the historical semantics apply — the first
// corrupt header ends the stream, keeping everything before it. Either way
// the damage is tallied in IngestDiagnostics, never silently absorbed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pcap/ingest.hpp"
#include "pcap/pcap_file.hpp"
#include "util/result.hpp"

namespace tdat {

class Counter;
class LatencyHistogram;

// Size of the header in front of every record's stored bytes.
inline constexpr std::size_t kRecordHeaderLen = 16;

// A raw captured record viewed in place. Valid while `arena` (or any other
// copy of it) is held; copying the struct is two words plus a refcount bump.
struct StreamRecord {
  Micros ts = 0;
  std::uint32_t orig_len = 0;
  std::span<const std::uint8_t> data;  // view into `arena`
  std::shared_ptr<const void> arena;   // pin for `data`
  // Capture-file offset of this record's 16-byte header. Lets downstream
  // consumers (checkpointing, shard planning) name the record by position so
  // it can be re-read from the file later without serializing its bytes.
  std::uint64_t file_offset = 0;
};

// Tri-state result of a live read. kNeedMore only occurs in tail mode: the
// source has no complete record *right now*, but more bytes may still arrive
// — retry after the source grows. kEnd is terminal.
enum class StreamStatus { kOk, kEnd, kNeedMore };

// Byte source for live in-memory streaming (ring buffers, test harnesses).
// `read` is non-blocking and returns however many bytes are available;
// `closed` flips once the producer is done appending, after which the stream
// drains the remaining buffered bytes with batch semantics.
class ByteFeed {
 public:
  virtual ~ByteFeed() = default;
  [[nodiscard]] virtual std::size_t read(std::uint8_t* dst, std::size_t n) = 0;
  [[nodiscard]] virtual std::size_t available() const = 0;
  [[nodiscard]] virtual bool closed() const = 0;
};

class PcapStream {
 public:
  static constexpr std::size_t kDefaultChunkSize = 1 << 20;  // 1 MiB

  // Opens a capture file for streaming. Fails on a malformed global header,
  // with the same error messages as parse_pcap.
  [[nodiscard]] static Result<PcapStream> open(
      const std::string& path, std::size_t chunk_size = kDefaultChunkSize);
  [[nodiscard]] static Result<PcapStream> open(
      const std::string& path, const IngestPolicy& policy,
      std::size_t chunk_size = kDefaultChunkSize);

  // Streams an in-memory image (chunked through the same arena machinery,
  // so boundary handling is exercised regardless of source). The image only
  // needs to stay alive while the stream is read.
  [[nodiscard]] static Result<PcapStream> from_memory(
      std::span<const std::uint8_t> image,
      std::size_t chunk_size = kDefaultChunkSize);
  [[nodiscard]] static Result<PcapStream> from_memory(
      std::span<const std::uint8_t> image, const IngestPolicy& policy,
      std::size_t chunk_size = kDefaultChunkSize);

  // Zero-copy: streams a pinned, contiguous image (e.g. an mmap'ed capture)
  // in place. `pin` owns the bytes behind `image` and is shared into every
  // record handed out, so the mapping lives exactly as long as anything
  // still references it.
  [[nodiscard]] static Result<PcapStream> from_image(
      std::shared_ptr<const void> pin, std::span<const std::uint8_t> image,
      const IngestPolicy& policy = {});

  // Opens `path` the fastest way available: memory-mapped zero-copy when the
  // path is a mappable regular file and `policy.use_mmap` allows it, the
  // chunked streaming reader otherwise (pipes, special files, --no-mmap).
  // The two paths are bit-identical on every input, including corrupt ones.
  [[nodiscard]] static Result<PcapStream> open_auto(
      const std::string& path, const IngestPolicy& policy = {},
      std::size_t chunk_size = kDefaultChunkSize);

  // Resume state for re-opening a followed capture exactly where a
  // checkpointed reader left off: the stream behaves as if it had itself
  // delivered `records` records and tallied `diag` over the first `offset`
  // bytes. `offset` must sit on a record-header boundary of the original
  // read sequence — PcapStream::bytes_read() between next_live() calls is
  // exactly such an offset (pending stashes and paused resync scans are not
  // counted until resolved, so a mid-record crash resumes at the record's
  // header and re-parses it deterministically).
  struct Resume {
    std::uint64_t offset = 0;   // first unread byte (>= 24, the global header)
    std::uint64_t records = 0;  // records delivered before the checkpoint
    Micros last_ts = -1;        // resync plausibility anchor (-1 = none yet)
    IngestDiagnostics diag;     // damage tallied before the checkpoint
  };

  // Opens `path` mid-file at a checkpointed position. Validates the global
  // header as usual (so byte-order/snaplen state is learned from the file,
  // not trusted from the checkpoint), then seeks to `resume.offset`. Fails
  // when the offset lies beyond the current end of file.
  [[nodiscard]] static Result<PcapStream> open_resumed(
      const std::string& path, const IngestPolicy& policy,
      const Resume& resume, std::size_t chunk_size = kDefaultChunkSize);

  // Live streaming over a ByteFeed (the chunked reader pulls from the feed
  // instead of a file). The feed must already hold the 24-byte global header
  // when this is called — callers poll `available()` first. The stream
  // starts in tail mode; it drains with batch semantics once the feed
  // closes (or after `begin_drain()`).
  [[nodiscard]] static Result<PcapStream> from_feed(
      std::shared_ptr<ByteFeed> feed, const IngestPolicy& policy = {},
      std::size_t chunk_size = kDefaultChunkSize);

  PcapStream(PcapStream&&) = default;
  PcapStream& operator=(PcapStream&&) = default;

  // Fetches the next record. Returns false at end of stream — clean EOF, a
  // truncated tail, or (strict mode / exhausted error budget) a corrupt
  // header; see `diagnostics()` for what, if anything, was lost. Batch
  // entry point: never used in tail mode (see next_live).
  [[nodiscard]] bool next(StreamRecord& out);

  // Tail-mode read: like next(), but when the source runs out of bytes
  // mid-record (or mid-resync-scan) while more may still arrive, returns
  // kNeedMore instead of tallying a truncation — the caller grows the
  // source (poll_growth / feed append) and retries. Every accept/reject
  // decision is deferred until the same bytes are present that the batch
  // reader would have had, so a finished capture replayed through any
  // sequence of kNeedMore retries yields the exact record sequence and
  // diagnostics of a single batch pass.
  [[nodiscard]] StreamStatus next_live(StreamRecord& out);

  // Tail mode: end-of-data is provisional (the file is still being written /
  // the feed is still open). Off by default; FollowSource turns it on.
  void set_tail(bool tail) { tail_ = tail; }
  [[nodiscard]] bool tail() const { return tail_; }

  // Leaves tail mode: the remaining bytes are final, and the next
  // next_live() calls apply batch end-of-data semantics (truncation tallies
  // included) instead of returning kNeedMore.
  void begin_drain() { tail_ = false; }

  // Re-checks a followed file's size (clearing the stdio EOF latch) so a
  // tail-mode stream can keep reading bytes appended since the last EOF.
  // Returns true when unread bytes are now available.
  [[nodiscard]] bool poll_growth();

  [[nodiscard]] bool nanosecond() const { return nanos_; }
  [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }
  [[nodiscard]] bool zero_copy() const { return pinned_; }
  [[nodiscard]] const IngestDiagnostics& diagnostics() const { return diag_; }

  // Ingest accounting: file bytes consumed (headers included) and records
  // handed out so far.
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t records_read() const { return records_read_; }
  // Timestamp of the last delivered record (-1 before the first): the resync
  // plausibility anchor, which a checkpoint must persist so a resumed stream
  // judges damaged bytes exactly as the uninterrupted one would have.
  [[nodiscard]] Micros last_record_ts() const { return last_ts_; }
  // Raw bytes fread from a file source so far (parsed or still buffered).
  // FollowSource compares this against the path's current size to detect a
  // copytruncate rotation (the file shrinking under the reader).
  [[nodiscard]] std::uint64_t file_bytes_consumed() const {
    return file_consumed_;
  }

  // Drains the remaining records into the in-memory representation — the
  // PcapFile API is a thin adapter over the stream (read_pcap_file uses it).
  [[nodiscard]] PcapFile drain_to_file();

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  using Arena = std::vector<std::uint8_t>;

  PcapStream() = default;

  [[nodiscard]] static Result<PcapStream> init(PcapStream stream);
  [[nodiscard]] std::size_t read_source(std::uint8_t* dst, std::size_t n);
  // Upper bound on bytes the source can still deliver (SIZE_MAX when the
  // file size is unknowable, e.g. a pipe).
  [[nodiscard]] std::size_t source_remaining() const;
  // Base of the buffer `pos_`/`fill_` index into: the current arena chunk,
  // or the pinned image in zero-copy mode.
  [[nodiscard]] const std::uint8_t* base() const {
    return pinned_ ? mem_.data() : arena_->data();
  }
  // Ensures >= n contiguous unconsumed bytes at the cursor, refilling (and
  // relocating a partial tail into a fresh arena) as needed. In zero-copy
  // mode this is a pure bounds check — the whole image is already there.
  [[nodiscard]] bool refill(std::size_t n);
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  // Largest incl_len a record may legitimately claim.
  [[nodiscard]] std::uint32_t effective_snaplen() const;
  // Does base()[at..at+16) look like a record header consistent with the
  // stream's byte order, snaplen, and timestamp progression?
  [[nodiscard]] bool plausible_record_at(std::size_t at, Micros after) const;
  // Scans forward from the (corrupt) header at pos_ for the next plausible
  // record; updates diag_ and positions pos_ on the recovered header. In
  // tail mode the scan pauses (kNeedMore) whenever a decision would need
  // bytes the source does not hold yet, and resumes on the next call with
  // its position and skip count intact.
  [[nodiscard]] StreamStatus resync_step();
  // Is end-of-data provisional right now? (tail mode and the source can
  // still grow: a followed file, or a feed not yet closed.)
  [[nodiscard]] bool tailing() const {
    if (!tail_) return false;
    if (feed_) return !feed_->closed();
    return file_ != nullptr;  // a plain memory image can never grow
  }

  // Source: exactly one of `file_` / `feed_` / `mem_` is active. With
  // `pinned_` set, `mem_` is the whole capture held alive by `pin_` and is
  // consumed in place instead of being chunked through arenas.
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::shared_ptr<ByteFeed> feed_;
  std::span<const std::uint8_t> mem_;
  std::shared_ptr<const void> pin_;  // keepalive for mem_ in zero-copy mode
  bool pinned_ = false;
  std::size_t mem_pos_ = 0;
  // Unread bytes left in file_ (SIZE_MAX when unseekable). Bounds arena
  // growth: a hostile record header can claim a multi-gigabyte record, but
  // the allocation must never exceed what the source can actually provide.
  std::size_t file_remaining_ = SIZE_MAX;
  // Total bytes fread from file_ so far; poll_growth re-derives
  // file_remaining_ from a fresh fstat minus this.
  std::uint64_t file_consumed_ = 0;

  std::size_t chunk_size_ = kDefaultChunkSize;
  std::shared_ptr<Arena> arena_;  // current chunk (unused in zero-copy mode)
  std::shared_ptr<Arena> spare_;  // retired chunk, recycled once unreferenced
  std::size_t fill_ = 0;          // valid bytes at base()
  std::size_t pos_ = 0;           // cursor into base()

  bool swapped_ = false;
  bool nanos_ = false;
  std::uint32_t snaplen_ = 65535;
  bool done_ = false;
  bool tail_ = false;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t records_read_ = 0;

  // Record header parsed but body not yet fully present (tail mode). The
  // stash exists because a refill relocates only the *unconsumed* tail into
  // the fresh arena — the 16 header bytes are already consumed, so the
  // parse cannot be rewound and re-run after more bytes arrive.
  struct PendingRecord {
    Micros ts = 0;
    std::uint32_t orig_len = 0;
    std::uint32_t incl_len = 0;
    bool have = false;
  };
  PendingRecord pending_;
  // Resync scan paused mid-flight waiting for more bytes (tail mode).
  bool resync_active_ = false;
  std::uint64_t resync_skipped_ = 0;

  IngestPolicy policy_;
  IngestDiagnostics diag_;
  // Timestamp of the last good record, anchoring the resync plausibility
  // window; -1 until the first record is seen.
  Micros last_ts_ = -1;

  // Ingest observability (cached global-registry lookups; see
  // util/metrics.hpp for the cost model). Pointers so the stream stays
  // movable.
  Counter* m_records_ = nullptr;      // pcap.records
  Counter* m_bytes_ = nullptr;        // pcap.bytes
  Counter* m_chunks_ = nullptr;       // pcap.chunk_refills
  Counter* m_recycles_ = nullptr;     // pcap.arena_recycles
  Counter* m_allocs_ = nullptr;       // pcap.arena_allocs
  Counter* m_straddles_ = nullptr;    // pcap.straddle_relocations
  Counter* m_err_truncated_ = nullptr;  // ingest.errors.truncated
  Counter* m_err_resynced_ = nullptr;   // ingest.errors.resynced
  Counter* m_err_skipped_ = nullptr;    // ingest.errors.skipped
  LatencyHistogram* m_refill_us_ = nullptr;  // pcap.refill_us
};

}  // namespace tdat
