#include "util/thread_pool.h"

#include <algorithm>

namespace mad {

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

unsigned ThreadPool::DefaultParallelism() {
  // Read once: hardware_concurrency() re-reads sysfs on every call, which
  // costs a small derivation several percent.
  static const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  return n;
}

void ThreadPool::EnsureWorkers(unsigned n) {
  MutexLock lock(mu_);
  if (stop_) return;  // after Shutdown the caller runs every chunk itself
  while (workers_.size() < n) {
    // Fixed slot per thread: the caller is worker 0, spawned threads are
    // 1..n. A stable identity (instead of a shared arrival counter) means
    // two threads can never collide on the same per-worker scratch slot.
    unsigned slot = static_cast<unsigned>(workers_.size()) + 1;
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

void ThreadPool::WorkerLoop(unsigned slot) {
  uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen) work_cv_.Wait(mu_);
      if (stop_) return;
      seen = generation_;
      ++running_;
    }
    RunSlice(slot);
    {
      MutexLock lock(mu_);
      if (--running_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::RunSlice(unsigned slot) {
  // Threads beyond the requested parallelism (the job asked for fewer
  // workers than exist) sit the job out.
  if (slot >= max_slots_) return;
  for (;;) {
    size_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= count_) return;
    size_t end = std::min(begin + chunk_, count_);
    (*body_)(slot, begin, end);
  }
}

void ThreadPool::ParallelFor(
    size_t count, size_t chunk_size, unsigned parallelism,
    const std::function<void(unsigned, size_t, size_t)>& body) {
  if (count == 0) return;
  unsigned p = std::max(1u, parallelism);
  size_t chunk = std::max<size_t>(1, chunk_size);
  if (p == 1 || count <= chunk) {
    body(0, 0, count);
    return;
  }
  MutexLock job_lock(job_serial_mu_);
  EnsureWorkers(p - 1);
  {
    MutexLock lock(mu_);
    // Drain stragglers of the previous generation before reusing the job
    // state: a worker that woke late may still be inside RunSlice (it bails
    // out immediately, but only after reading count_/max_slots_), and the
    // writes below must not race those reads.
    while (running_ > 0) done_cv_.Wait(mu_);
    body_ = &body;
    count_ = count;
    chunk_ = chunk;
    max_slots_ = p;
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.NotifyAll();
  RunSlice(0);  // the caller is a worker too
  MutexLock lock(mu_);
  while (running_ != 0 ||
         next_.load(std::memory_order_relaxed) < count_) {
    done_cv_.Wait(mu_);
  }
}

}  // namespace mad
