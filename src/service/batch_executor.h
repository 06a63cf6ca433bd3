// Parallel batched execution over the fault-tolerant query service.
//
// One client rarely submits one query: the evaluation harness, the bench
// suite, and any real front-end push batches. BatchExecutor turns a batch
// into throughput without touching the service's semantics:
//
//   * statistical queries run as Prepare (pure: predicate evaluation +
//     fingerprinting) fanned out across the ThreadPool into positional
//     slots, then SubmitPrepared serially in submission order — so the
//     admission decisions, audit-state evolution, WAL bytes, fault draws,
//     and answers are byte-identical to a serial Submit loop at any thread
//     count;
//   * PIR record reads go through FailoverPirClient::ReadBatch, which runs
//     the reads serially in index order and shards only each replica's XOR
//     sweep across the pool.
//
// Determinism is not a nicety here: the fault-injection and WAL-recovery
// suites replay runs from seeds and diff transcripts byte-for-byte, and
// that only stays meaningful if the worker count is invisible to every
// transcript.

#pragma once

#include <cstdint>
#include <vector>

#include "service/query_service.h"
#include "util/status.h"

namespace tripriv {

class ThreadPool;

/// Batch observability counters.
struct BatchExecutorStats {
  uint64_t stat_batches = 0;
  uint64_t stat_queries = 0;
  uint64_t pir_batches = 0;
  uint64_t pir_reads = 0;
};

/// Fans batch work over a QueryService across a ThreadPool. See file
/// comment for the determinism contract. Both pointers must outlive the
/// executor; `pool` may be null (inline execution).
class BatchExecutor {
 public:
  BatchExecutor(QueryService* service, ThreadPool* pool);

  /// Runs `queries` through the serving ladder; results are positional.
  /// Prepare runs in parallel, SubmitPrepared serially in batch order —
  /// equivalent to calling service->Submit on each query in order.
  std::vector<ServiceAnswer> ExecuteQueryBatch(
      const std::vector<StatQuery>& queries);

  /// Same, tagging query i with tenant class `classes[i]` (obs::kClass*
  /// indices; positional, same length as `queries`) so shed and answer
  /// metrics attribute to the right class. Classes only label metrics —
  /// they never change a serving decision, so the determinism contract is
  /// untouched.
  std::vector<ServiceAnswer> ExecuteQueryBatch(
      const std::vector<StatQuery>& queries,
      const std::vector<uint8_t>& classes);

  /// Batched private record reads via the service's PIR backend; results
  /// are positional. Requires AttachPirBackend on the service.
  /// `tenant_class` tags the batch with an allowlisted class (obs::kClass*
  /// index, never a principal id): the recursive backend keys its
  /// expansion session on it, so a whole batch reuses one expanded state.
  std::vector<Result<std::vector<uint8_t>>> ExecutePirBatch(
      const std::vector<size_t>& indices, const Deadline& deadline,
      uint8_t tenant_class = obs::kClassUnattributed);

  const BatchExecutorStats& stats() const { return stats_; }

 private:
  QueryService* service_;
  ThreadPool* pool_;
  BatchExecutorStats stats_;
};

}  // namespace tripriv
