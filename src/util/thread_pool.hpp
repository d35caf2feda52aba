// Minimal fixed-width thread pool for the per-connection analysis fan-out.
//
// Deliberately work-stealing-free: parallel_for hands out indices through a
// single shared atomic counter, so the only cross-thread traffic on the hot
// path is one fetch_add per item; results land in caller-preallocated slots
// keyed by index, which is what makes parallel runs bit-identical to serial
// ones (see DESIGN.md "Pipeline performance").
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tdat {

class Counter;
class Gauge;
class LatencyHistogram;

// Worker-count resolution used by the CLI and analyze_* entry points:
// an explicit non-zero value wins; 0 means "default", which is the
// TDAT_JOBS environment variable when set (clamped to >= 1), else
// std::thread::hardware_concurrency().
[[nodiscard]] std::size_t default_jobs();

// Workers for a fan-out over `tasks` items: `requested` resolved as above,
// then clamped to the task count (never below 1).
[[nodiscard]] std::size_t effective_jobs(std::size_t requested,
                                         std::size_t tasks);

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task);

  // Blocks until the queue is drained and every worker is idle. Tasks may
  // submit further tasks; wait_idle covers those too.
  void wait_idle();

 private:
  // Tasks carry their enqueue time so the dequeueing worker can record the
  // queue wait into the pool.queue_wait_us histogram (the paper-adjacent
  // "where does a run stall" number for the analysis fan-out).
  struct Task {
    std::int64_t enqueued_us = 0;
    std::function<void()> fn;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task queued / stop
  std::condition_variable idle_cv_;   // signals waiters: pool went idle
  std::size_t busy_ = 0;
  bool stop_ = false;
  // Cached registry lookups (the registry guarantees stable addresses).
  Counter* tasks_total_ = nullptr;
  Gauge* workers_gauge_ = nullptr;
  LatencyHistogram* queue_wait_us_ = nullptr;
};

// Runs fn(0), ..., fn(n-1), distributing indices over `jobs` workers.
// jobs <= 1 (or n <= 1) runs inline on the calling thread — the serial
// special case spawns no threads and takes no locks. Index order within a
// worker is ascending; across workers it is arbitrary, so fn must only
// touch per-index state. The first exception thrown by any invocation is
// rethrown on the calling thread after all workers finish.
void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace tdat
