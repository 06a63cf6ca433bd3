// Deterministic fixed-size thread pool.
//
// Parallelism in TriPriv must never change results: the fault-injection and
// WAL-recovery machinery replay runs from seeds and compare transcripts
// byte-for-byte, so a thread count may change wall-clock time and nothing
// else. The pool therefore exposes exactly one primitive, ParallelFor, with
// a determinism contract rather than a scheduling contract:
//
//   * [0, n) is split into NumShards(n) contiguous shards whose boundaries
//     depend only on n and the worker count — never on scheduling;
//   * the callback may only write state it owns (per-shard slots or
//     per-index slots); any cross-shard reduction is the caller's job and
//     must merge partial results in shard order;
//   * ParallelFor blocks until every shard has finished, so the caller
//     resumes with all shard writes visible (the completion mutex provides
//     the release/acquire pairing).
//
// With two or more shards, the calling thread runs shard 0 and each other
// shard is queued for a worker, waking one worker per queued shard. A pool
// built with num_threads == 0 runs every shard inline on the calling
// thread — the serial reference the parallel determinism suite compares
// against — and so does a call with one shard. ParallelFor must not be
// called from inside a pool task (a worker waiting on its own pool's queue
// deadlocks).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tripriv {

/// Fixed set of workers driving ParallelFor. See file comment.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = run everything inline on the caller).
  explicit ThreadPool(size_t num_threads);
  /// Joins all workers; queued shards are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (0 = inline mode).
  size_t num_threads() const { return workers_.size(); }

  /// Shard count ParallelFor(n, ...) uses: min(max(1, num_threads()), n).
  size_t NumShards(size_t n) const;

  /// Runs `fn(shard, begin, end)` for each of the NumShards(n) contiguous
  /// shards covering [0, n); blocks until all have finished. Shard 0 runs
  /// on the calling thread, concurrently with the other shards on workers —
  /// `fn` must honor the ownership rules in the file comment.
  void ParallelFor(size_t n,
                   const std::function<void(size_t shard, size_t begin,
                                            size_t end)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace tripriv
