#include "core/ingest_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "core/trace_source.hpp"
#include "pcap/decode_batch.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tdat {
namespace {

// Records per reader batch. A multiple of kDecodeBatch so the decoder runs
// full lanes; large enough that queue traffic is per-hundreds-of-records,
// not per-record.
constexpr std::size_t kIngestBatch = 4 * kDecodeBatch;

struct RecordBatch {
  std::uint64_t seq = 0;
  std::size_t start_index = 0;  // trace index of records[0]
  std::vector<StreamRecord> records;
};

struct ShardBatch {
  std::uint64_t seq = 0;
  std::vector<DecodedPacket> packets;
};

// Small bounded MPMC queue: producers block when full, consumers when empty,
// close() releases everyone. Coarse batches make the lock uncontended in
// practice; no lock-free machinery needed to keep the pipeline fed.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  void push(T item) {
    std::unique_lock lock(mu_);
    can_push_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return;  // shutting down; the item is dropped
    items_.push_back(std::move(item));
    lock.unlock();
    can_pop_.notify_one();
  }

  [[nodiscard]] bool pop(T& out) {
    std::unique_lock lock(mu_);
    can_pop_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    can_push_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    can_push_.notify_all();
    can_pop_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

// Decodes one record batch, appending to `pkts` (cleared first).
void decode_batch(const RecordBatch& b, bool verify, DecodeScratch& scratch,
                  std::vector<DecodedPacket>& pkts) {
  pkts.clear();
  std::size_t off = 0;
  const std::span<const StreamRecord> recs(b.records);
  while (off < recs.size()) {
    off += decode_records(recs.subspan(off), b.start_index + off, verify,
                          scratch, pkts);
  }
}

std::size_t shard_of(const DecodedPacket& pkt, std::size_t shards) {
  // High bits: the demux table consumes the low bits of the same hash.
  return static_cast<std::size_t>(conn_key_hash(make_conn_key(pkt)) >> 32) %
         shards;
}

void apply_shard_batch(ConnectionDemux& demux, ShardBatch& b) {
  for (DecodedPacket& pkt : b.packets) demux.add(std::move(pkt));
}

// Merge shard outputs back into the serial demux's first-seen order: a
// connection is first seen at its first packet, and trace indices are the
// capture order, so sorting by first-packet index reproduces it exactly
// (connections are never empty, and no two share a first packet).
std::vector<Connection> merge_shards(std::vector<std::vector<Connection>> per_shard) {
  std::size_t total = 0;
  for (const auto& v : per_shard) total += v.size();
  std::vector<Connection> all;
  all.reserve(total);
  for (auto& v : per_shard) {
    for (Connection& c : v) all.push_back(std::move(c));
  }
  std::sort(all.begin(), all.end(), [](const Connection& a, const Connection& b) {
    return a.packets.front().index < b.packets.front().index;
  });
  return all;
}

IngestStageResult run_serial(TraceSource& source) {
  IngestStageResult out;
  ConnectionDemux demux;
  RecordBatch b;
  b.records.resize(kIngestBatch);
  std::vector<DecodedPacket> pkts;
  pkts.reserve(kIngestBatch);
  DecodeScratch scratch;
  std::size_t index = 0;
  for (;;) {
    const std::size_t n =
        source.next_raw_records({b.records.data(), kIngestBatch});
    if (n == 0) break;
    b.records.resize(n);
    b.start_index = index;
    index += n;
    const std::int64_t t0 = monotonic_micros();
    decode_batch(b, source.verify_checksums(), scratch, pkts);
    out.decode_busy += monotonic_micros() - t0;
    out.packets += pkts.size();
    for (DecodedPacket& pkt : pkts) demux.add(std::move(pkt));
    b.records.resize(kIngestBatch);
  }
  out.connections = demux.take();
  return out;
}

IngestStageResult run_parallel(TraceSource& source, std::size_t jobs) {
  // Thread budget: this (reader) thread + decode workers + demux shards.
  // Decode is the heavy stage, so shards get ~1/4 of the budget and decode
  // the rest.
  const std::size_t shards = std::clamp<std::size_t>(jobs / 4, 1, 8);
  const std::size_t decoders = std::max<std::size_t>(1, jobs - 1 - shards);
  TDAT_TRACE_SPAN("ingest.parallel", "pcap", "jobs",
                  static_cast<std::int64_t>(jobs));

  IngestStageResult out;
  out.ingest_jobs = 1 + decoders + shards;

  BoundedQueue<RecordBatch> decode_q(2 * decoders + 2);
  std::vector<std::unique_ptr<BoundedQueue<ShardBatch>>> shard_qs;
  shard_qs.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_qs.push_back(
        std::make_unique<BoundedQueue<ShardBatch>>(2 * decoders + 2));
  }

  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::int64_t> decode_busy{0};
  std::atomic<std::size_t> decoders_left{decoders};

  std::vector<std::thread> threads;
  threads.reserve(decoders + shards);
  for (std::size_t d = 0; d < decoders; ++d) {
    threads.emplace_back([&] {
      DecodeScratch scratch;
      std::vector<DecodedPacket> pkts;
      pkts.reserve(kIngestBatch);
      RecordBatch b;
      while (decode_q.pop(b)) {
        const std::int64_t t0 = monotonic_micros();
        decode_batch(b, source.verify_checksums(), scratch, pkts);
        decode_busy.fetch_add(monotonic_micros() - t0,
                              std::memory_order_relaxed);
        packets.fetch_add(pkts.size(), std::memory_order_relaxed);
        // Split into per-shard sub-batches. Every shard gets the sequence
        // number — an empty sub-batch is still a resequencing token.
        std::vector<ShardBatch> split(shards);
        for (ShardBatch& sb : split) sb.seq = b.seq;
        for (DecodedPacket& pkt : pkts) {
          split[shard_of(pkt, shards)].packets.push_back(std::move(pkt));
        }
        for (std::size_t s = 0; s < shards; ++s) {
          shard_qs[s]->push(std::move(split[s]));
        }
      }
      if (decoders_left.fetch_sub(1) == 1) {
        for (auto& q : shard_qs) q->close();
      }
    });
  }

  std::vector<std::vector<Connection>> shard_conns(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      ConnectionDemux demux;
      std::uint64_t next_seq = 0;
      std::vector<ShardBatch> hold;  // out-of-order batches, few at a time
      ShardBatch b;
      while (shard_qs[s]->pop(b)) {
        if (b.seq != next_seq) {
          hold.push_back(std::move(b));
          continue;
        }
        apply_shard_batch(demux, b);
        ++next_seq;
        for (bool advanced = true; advanced;) {
          advanced = false;
          for (auto it = hold.begin(); it != hold.end(); ++it) {
            if (it->seq != next_seq) continue;
            apply_shard_batch(demux, *it);
            hold.erase(it);
            ++next_seq;
            advanced = true;
            break;
          }
        }
      }
      if (!hold.empty()) {
        // Only reachable if a decode worker died mid-run; apply what arrived
        // in sequence order rather than dropping it silently.
        TDAT_LOG_WARN("ingest: shard %zu finished with %zu unsequenced batches",
                      s, hold.size());
        std::sort(hold.begin(), hold.end(),
                  [](const ShardBatch& a, const ShardBatch& b2) {
                    return a.seq < b2.seq;
                  });
        for (ShardBatch& hb : hold) apply_shard_batch(demux, hb);
      }
      shard_conns[s] = demux.take();
    });
  }

  // This thread is the reader: raw records in, batches out.
  {
    std::uint64_t seq = 0;
    std::size_t index = 0;
    for (;;) {
      RecordBatch b;
      b.records.resize(kIngestBatch);
      const std::size_t n =
          source.next_raw_records({b.records.data(), kIngestBatch});
      if (n == 0) break;
      b.records.resize(n);
      b.seq = seq++;
      b.start_index = index;
      index += n;
      decode_q.push(std::move(b));
    }
    decode_q.close();
  }

  for (std::thread& t : threads) t.join();
  out.connections = merge_shards(std::move(shard_conns));
  out.packets = packets.load();
  out.decode_busy = decode_busy.load();
  return out;
}

}  // namespace

IngestStageResult run_ingest_stage(TraceSource& source,
                                   const AnalyzerOptions& opts) {
  const std::size_t jobs = opts.jobs == 0 ? default_jobs() : opts.jobs;
  if (jobs >= 2) return run_parallel(source, jobs);
  return run_serial(source);
}

}  // namespace tdat
