#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/env.hpp"
#include "common/registry.hpp"
#include "obs/trace.hpp"

namespace hsd::runtime {

namespace {

// Set while a thread is executing worker_main; lets parallel_for detect
// nesting and degrade to an inline loop instead of deadlocking the pool.
thread_local bool t_on_worker = false;

std::unique_ptr<ThreadPool> g_pool;            // NOLINT: intentional singleton
std::mutex g_pool_mutex;

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // SplitMix64 finalizer over the combined state; one mix round per input
  // keeps distinct (base, stream) pairs statistically independent.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // serial: no workers, submit() runs inline
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {
    task();
    return;
  }
  const std::size_t slot =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    if (!queues_[q]->tasks.empty()) {
      task = std::move(queues_[q]->tasks.front());
      queues_[q]->tasks.pop_front();
      break;
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_release);
  task();
  return true;
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

bool ThreadPool::pop_or_steal(std::size_t id, std::function<void()>& out) {
  {
    // Own deque: newest first (LIFO) for cache locality.
    std::lock_guard<std::mutex> lock(queues_[id]->mutex);
    if (!queues_[id]->tasks.empty()) {
      out = std::move(queues_[id]->tasks.back());
      queues_[id]->tasks.pop_back();
      return true;
    }
  }
  // Steal oldest first (FIFO) from the other deques.
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    const std::size_t victim = (id + offset) % queues_.size();
    std::lock_guard<std::mutex> lock(queues_[victim]->mutex);
    if (!queues_[victim]->tasks.empty()) {
      out = std::move(queues_[victim]->tasks.front());
      queues_[victim]->tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_main(std::size_t id) {
  t_on_worker = true;
  // Registers this worker's trace buffer up front so spans recorded from
  // parallel_for/TaskGroup bodies carry a stable, readable thread name.
  obs::set_current_thread_name("pool-worker-" + std::to_string(id));
  std::function<void()> task;
  while (true) {
    if (pop_or_steal(id, task)) {
      queued_.fetch_sub(1, std::memory_order_release);
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

std::size_t configured_threads() {
  // Strict parse: a malformed or non-positive HSD_THREADS throws instead of
  // silently running at hardware width — the knob exists to pin determinism
  // experiments, so ignoring a bad value is worse than failing.
  if (const char* env = std::getenv(reg::kEnvThreads);
      env != nullptr && *env != '\0') {
    const std::size_t v = common::env_size(reg::kEnvThreads, 0);
    if (v == 0) {
      throw std::runtime_error(std::string(reg::kEnvThreads) +
                               ": must be a positive integer");
    }
    return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(configured_threads());
  return *g_pool;
}

void set_global_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(n);
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {  // errors are observable only through an explicit wait()
  }
}

void TaskGroup::record_exception() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) error_ = std::current_exception();
  failed_.store(true, std::memory_order_release);
}

void TaskGroup::finish_one() {
  // The decrement must happen under mutex_: wait() may return (and the
  // group be destroyed) as soon as it sees pending_ == 0, but it re-locks
  // mutex_ first, so a worker holding the lock here is never left touching
  // a dead group's mutex or condition variable.
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

void TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_.submit([this, fn = std::move(fn)] {
    try {
      fn();
    } catch (...) {
      record_exception();
    }
    finish_one();
  });
}

void TaskGroup::wait() {
  // Help drain the pool while tasks are outstanding: a waiter inside a
  // worker thread keeps making progress instead of parking a worker, so
  // nested joins cannot starve the pool.
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (pool_.try_run_one()) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(error_, nullptr);
    failed_.store(false, std::memory_order_release);
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t total = end - begin;
  ThreadPool& pool = global_pool();
  const std::size_t workers = pool.size();
  // Serial pool, nested call from a worker, or a single-block range: the
  // inline call is the exact serial loop (bit-identical by construction).
  if (workers <= 1 || ThreadPool::on_worker_thread()) {
    body(begin, end);
    return;
  }
  std::size_t g = grain;
  if (g == 0) g = std::max<std::size_t>(1, total / (4 * workers));
  if (g >= total) {
    body(begin, end);
    return;
  }

  TaskGroup group(pool);
  for (std::size_t lo = begin; lo < end; lo += g) {
    const std::size_t hi = std::min(end, lo + g);
    group.run([&, lo, hi] {
      if (group.failed()) return;  // a sibling block threw; skip the rest
      body(lo, hi);
    });
  }
  group.wait();
}

}  // namespace hsd::runtime
