#include "util/thread_pool.h"

#include <utility>

namespace tripriv {

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and the queue is drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

size_t ThreadPool::NumShards(size_t n) const {
  const size_t width = workers_.empty() ? 1 : workers_.size();
  return n < width ? n : width;
}

void ThreadPool::ParallelFor(
    size_t n,
    const std::function<void(size_t shard, size_t begin, size_t end)>& fn) {
  if (n == 0) return;
  const size_t shards = NumShards(n);
  const size_t base = n / shards;
  const size_t extra = n % shards;  // the first `extra` shards get one more
  auto shard_bounds = [base, extra](size_t shard) {
    const size_t begin = shard * base + (shard < extra ? shard : extra);
    return std::pair<size_t, size_t>(begin,
                                     begin + base + (shard < extra ? 1 : 0));
  };
  if (workers_.empty() || shards == 1) {
    for (size_t s = 0; s < shards; ++s) {
      const auto [begin, end] = shard_bounds(s);
      fn(s, begin, end);
    }
    return;
  }
  // Shard 0 runs on the caller and every other shard on a worker, each
  // queued shard waking one. The completion barrier is shared by the queued
  // shard tasks; notifying under the barrier mutex makes the caller's
  // wakeup safe against the barrier going out of scope while a worker still
  // holds a reference, and the destructor's wait keeps it alive until the
  // last queued shard finishes even when shard 0 throws.
  struct Barrier {
    std::mutex mu;
    std::condition_variable done;
    size_t remaining = 0;
    ~Barrier() {
      std::unique_lock<std::mutex> lock(mu);
      done.wait(lock, [this] { return remaining == 0; });
    }
  } barrier;
  barrier.remaining = shards - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t s = 1; s < shards; ++s) {
      const auto [begin, end] = shard_bounds(s);
      tasks_.emplace_back([&fn, &barrier, s, begin, end] {
        fn(s, begin, end);
        std::lock_guard<std::mutex> barrier_lock(barrier.mu);
        if (--barrier.remaining == 0) barrier.done.notify_all();
      });
    }
  }
  for (size_t s = 1; s < shards; ++s) work_ready_.notify_one();
  const auto [begin, end] = shard_bounds(0);
  fn(0, begin, end);
  // ~Barrier waits for the queued shards.
}

}  // namespace tripriv
