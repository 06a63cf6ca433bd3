// Row mutations against the live protected database.
//
// The epoch-versioned store (versioned_table.h) never edits a published
// table in place: writers submit RowMutations, and a flip applies a whole
// batch to a copy-on-write image of the base microdata. Rows are addressed
// by a stable 64-bit uid (never by position — deletes compact row indices,
// uids survive them), assigned at insert time and carried per epoch.
//
// ApplyMutations is transactional per batch: any invalid mutation (unknown
// uid, wrong arity, type mismatch) fails the whole batch and the caller's
// image is discarded, so a half-applied batch can never become an epoch.

#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.h"
#include "table/data_table.h"
#include "table/value.h"
#include "util/status.h"

namespace tripriv {

/// What one mutation does to the base microdata.
enum class MutationKind : uint8_t { kInsert = 0, kDelete = 1, kUpdate = 2 };

const char* MutationKindName(MutationKind kind);

/// One pending write. Built through the factories below.
struct RowMutation {
  MutationKind kind = MutationKind::kInsert;
  /// Target uid for kDelete / kUpdate; assigned by ApplyMutations for
  /// kInsert (the field is ignored on input there).
  uint64_t uid = 0;
  /// Full row payload for kInsert / kUpdate; empty for kDelete.
  std::vector<Value> row;

  static RowMutation Insert(std::vector<Value> row);
  static RowMutation Delete(uint64_t uid);
  static RowMutation Update(uint64_t uid, std::vector<Value> row);
};

/// Outcome of applying one batch.
struct MutationApplyResult {
  /// Uids whose record changed: inserted and updated uids (still present)
  /// plus deleted uids (no longer present — the incremental maintainer uses
  /// them to find the groups that lost members).
  std::vector<uint64_t> dirty_uids;
  size_t inserts = 0;
  size_t deletes = 0;
  size_t updates = 0;
};

/// Applies `batch` in order to the image (`base`, `uids`), where uids[i] is
/// the stable id of base row i. Inserted rows get fresh uids from
/// `*next_uid` (incremented). Every payload cell is validated against the
/// schema; kDelete / kUpdate of an unknown uid is kNotFound. The image is
/// edited in place: updates overwrite their row, inserts append, and
/// deletes leave in one stable compaction at the end, so rows the batch
/// does not name are neither copied nor re-validated. On any error
/// the image is left in an unspecified partially-applied state — callers
/// apply to scratch copies and discard them on failure (the copy-on-write
/// flip discipline).
Result<MutationApplyResult> ApplyMutations(const std::vector<RowMutation>& batch,
                                           DataTable* base,
                                           std::vector<uint64_t>* uids,
                                           uint64_t* next_uid);

/// Order-sensitive FNV-1a digest of a batch (kinds, uids, and cell bytes).
/// This is what the flip-begin WAL record carries instead of the mutation
/// payloads themselves: the WAL must never hold record-level data.
TRIPRIV_SANITIZES(aggregate, digest)
uint64_t MutationBatchFingerprint(const std::vector<RowMutation>& batch);

/// Deterministic FNV-1a digest of a whole table (schema column names plus
/// every cell, type-tagged). The flip-commit WAL record stores the digest
/// of the *protected* (published) table so recovery can verify the adopted
/// epoch image byte-for-byte.
TRIPRIV_SANITIZES(aggregate, digest)
uint64_t TableChecksum(const DataTable& table);

}  // namespace tripriv
