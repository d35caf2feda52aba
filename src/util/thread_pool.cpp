#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace tdat {

std::size_t default_jobs() {
  if (const char* env = std::getenv("TDAT_JOBS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
    return 1;  // set but unparsable/zero: stay serial rather than guess
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t effective_jobs(std::size_t requested, std::size_t tasks) {
  std::size_t jobs = requested == 0 ? default_jobs() : requested;
  if (tasks > 0 && jobs > tasks) jobs = tasks;
  return jobs > 0 ? jobs : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  tasks_total_ = &metrics().counter("pool.tasks");
  workers_gauge_ = &metrics().gauge("pool.workers");
  queue_wait_us_ = &metrics().histogram("pool.queue_wait_us");
  workers_gauge_->add(static_cast<std::int64_t>(threads));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_gauge_->add(-static_cast<std::int64_t>(workers_.size()));
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(Task{monotonic_micros(), std::move(task)});
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ and nothing left to run
    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    lock.unlock();
    queue_wait_us_->observe(monotonic_micros() - task.enqueued_us);
    tasks_total_->inc();
    {
      TDAT_TRACE_SPAN("pool.task", "pool");
      task.fn();
    }
    lock.lock();
    --busy_;
    if (queue_.empty() && busy_ == 0) idle_cv_.notify_all();
  }
}

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (jobs > n) jobs = n;

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    ThreadPool pool(jobs);
    for (std::size_t w = 0; w < jobs; ++w) pool.submit(drain);
    pool.wait_idle();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tdat
