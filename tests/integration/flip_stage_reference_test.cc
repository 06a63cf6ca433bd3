// Reference tests for the epoch flip's full-table stages: ApplyMutations,
// the equivalence-class grouping behind the k-gate, IncrementalMdav and the
// replica render (Value::AppendDisplayString, SnapshotRecords). Each stage
// runs as one flat pass; the straightforward implementations they replaced
// are kept here — a copying apply, a std::map grouping, a member-list
// maintainer and snprintf rendering — and the library must match them
// exactly on random inputs, failing ones included (status code and
// message).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "pir/epoch_pir.h"
#include "sdc/anonymity.h"
#include "sdc/equivalence.h"
#include "sdc/incremental_mdav.h"
#include "sdc/microaggregation.h"
#include "stats/descriptive.h"
#include "table/datasets.h"
#include "table/mutation.h"
#include "util/random.h"

namespace tripriv {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations.

/// Applies the batch to a positional copy with tombstones and rebuilds the
/// table through DataTable::FromRows, re-validating every cell.
Result<MutationApplyResult> ReferenceApplyMutations(
    const std::vector<RowMutation>& batch, DataTable* base,
    std::vector<uint64_t>* uids, uint64_t* next_uid) {
  if (uids->size() != base->num_rows()) {
    return Status::InvalidArgument("uid vector does not match table rows");
  }
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < base->num_rows(); ++r) rows.push_back(base->row(r));
  std::vector<uint64_t> out_uids = *uids;
  std::vector<bool> dead(rows.size(), false);
  std::unordered_map<uint64_t, size_t> index_of_uid;
  for (size_t r = 0; r < out_uids.size(); ++r) index_of_uid[out_uids[r]] = r;

  auto validate_row = [base](const std::vector<Value>& row) -> Status {
    if (row.size() != base->num_columns()) {
      return Status::InvalidArgument("mutation row arity does not match schema");
    }
    for (size_t c = 0; c < row.size(); ++c) {
      TRIPRIV_RETURN_IF_ERROR(base->ValidateCell(c, row[c]));
    }
    return Status::OK();
  };

  MutationApplyResult result;
  for (const RowMutation& m : batch) {
    switch (m.kind) {
      case MutationKind::kInsert: {
        TRIPRIV_RETURN_IF_ERROR(validate_row(m.row));
        const uint64_t uid = (*next_uid)++;
        index_of_uid[uid] = rows.size();
        rows.push_back(m.row);
        out_uids.push_back(uid);
        dead.push_back(false);
        result.dirty_uids.push_back(uid);
        ++result.inserts;
        break;
      }
      case MutationKind::kDelete: {
        auto it = index_of_uid.find(m.uid);
        if (it == index_of_uid.end() || dead[it->second]) {
          return Status::NotFound("delete of unknown uid");
        }
        dead[it->second] = true;
        result.dirty_uids.push_back(m.uid);
        ++result.deletes;
        break;
      }
      case MutationKind::kUpdate: {
        auto it = index_of_uid.find(m.uid);
        if (it == index_of_uid.end() || dead[it->second]) {
          return Status::NotFound("update of unknown uid");
        }
        TRIPRIV_RETURN_IF_ERROR(validate_row(m.row));
        rows[it->second] = m.row;
        result.dirty_uids.push_back(m.uid);
        ++result.updates;
        break;
      }
    }
  }
  std::vector<std::vector<Value>> kept_rows;
  std::vector<uint64_t> kept_uids;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (dead[r]) continue;
    kept_rows.push_back(std::move(rows[r]));
    kept_uids.push_back(out_uids[r]);
  }
  TRIPRIV_ASSIGN_OR_RETURN(
      *base, DataTable::FromRows(base->schema(), std::move(kept_rows)));
  *uids = std::move(kept_uids);
  return result;
}

/// Groups rows through a std::map keyed on the QI value tuple (ordered by
/// Value::operator<).
EquivalenceClasses ReferenceGroupByColumns(const DataTable& table,
                                           const std::vector<size_t>& qi_cols) {
  std::map<std::vector<Value>, size_t> class_of_key;
  EquivalenceClasses out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> key;
    for (size_t c : qi_cols) key.push_back(table.at(r, c));
    auto [it, inserted] =
        class_of_key.try_emplace(std::move(key), out.classes.size());
    if (inserted) out.classes.emplace_back();
    out.classes[it->second].push_back(r);
  }
  return out;
}

std::vector<double> RawCentroid(const std::vector<std::vector<double>>& raw,
                                const std::vector<size_t>& member_rows) {
  std::vector<double> c(raw[0].size(), 0.0);
  for (size_t r : member_rows) {
    for (size_t j = 0; j < c.size(); ++j) c[j] += raw[r][j];
  }
  for (double& v : c) v /= static_cast<double>(member_rows.size());
  return c;
}

/// The maintainer over a per-row matrix, std::set dirty groups, a hash-map
/// renumbering and per-group member lists.
Result<IncrementalMdavResult> ReferenceIncrementalMdav(
    const DataTable& base, const std::vector<uint64_t>& uids,
    const std::vector<size_t>& cols, size_t k,
    const std::unordered_map<uint64_t, size_t>& prev_group_of_uid,
    const std::vector<uint64_t>& dirty_uids) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (base.num_rows() == 0) {
    return Status::InvalidArgument("cannot maintain an empty table");
  }
  if (uids.size() != base.num_rows()) {
    return Status::InvalidArgument("uid vector does not match table rows");
  }
  if (cols.empty()) return Status::InvalidArgument("no columns to maintain");
  const size_t n = base.num_rows();
  TRIPRIV_ASSIGN_OR_RETURN(auto raw, base.NumericMatrix(cols));

  std::set<size_t> dirty_groups;
  for (uint64_t uid : dirty_uids) {
    auto it = prev_group_of_uid.find(uid);
    if (it != prev_group_of_uid.end()) dirty_groups.insert(it->second);
  }
  std::vector<size_t> pool_rows;
  std::vector<size_t> prev_group(n, SIZE_MAX);
  for (size_t r = 0; r < n; ++r) {
    auto it = prev_group_of_uid.find(uids[r]);
    if (it == prev_group_of_uid.end() || dirty_groups.count(it->second) > 0) {
      pool_rows.push_back(r);
    } else {
      prev_group[r] = it->second;
    }
  }
  std::set<size_t> kept_ids;
  for (size_t r = 0; r < n; ++r) {
    if (prev_group[r] != SIZE_MAX) kept_ids.insert(prev_group[r]);
  }
  std::unordered_map<size_t, size_t> renumber;
  for (size_t id : kept_ids) {
    const size_t next = renumber.size();
    renumber[id] = next;
  }
  const size_t kept = renumber.size();

  IncrementalMdavResult result;
  result.group_of_row.assign(n, SIZE_MAX);
  result.groups_kept = kept;
  result.rows_reclustered = pool_rows.size();
  for (size_t r = 0; r < n; ++r) {
    if (prev_group[r] != SIZE_MAX) result.group_of_row[r] = renumber[prev_group[r]];
  }
  size_t num_groups = kept;
  if (pool_rows.size() >= k) {
    TRIPRIV_ASSIGN_OR_RETURN(MdavGrouping sub, MdavGroups(raw, pool_rows, k));
    for (size_t g = 0; g < sub.groups.size(); ++g) {
      for (size_t r : sub.groups[g]) result.group_of_row[r] = kept + g;
    }
    num_groups = kept + sub.groups.size();
  } else if (!pool_rows.empty()) {
    if (kept == 0) {
      for (size_t r : pool_rows) result.group_of_row[r] = 0;
      num_groups = 1;
    } else {
      std::vector<std::vector<size_t>> members(kept);
      for (size_t r = 0; r < n; ++r) {
        if (prev_group[r] != SIZE_MAX) members[result.group_of_row[r]].push_back(r);
      }
      std::vector<std::vector<double>> centroids(kept);
      for (size_t g = 0; g < kept; ++g) centroids[g] = RawCentroid(raw, members[g]);
      for (size_t r : pool_rows) {
        size_t best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (size_t g = 0; g < kept; ++g) {
          const double d = SquaredDistance(raw[r], centroids[g]);
          if (d < best_d) {
            best_d = d;
            best = g;
          }
        }
        result.group_of_row[r] = best;
      }
    }
  }
  result.num_groups = num_groups;

  std::vector<std::vector<size_t>> members(num_groups);
  for (size_t r = 0; r < n; ++r) members[result.group_of_row[r]].push_back(r);
  result.min_group_size = n;
  std::vector<std::vector<double>> masked = raw;
  for (size_t g = 0; g < num_groups; ++g) {
    result.min_group_size = std::min(result.min_group_size, members[g].size());
    const auto centroid = RawCentroid(raw, members[g]);
    for (size_t r : members[g]) masked[r] = centroid;
  }
  result.protected_table = base;
  for (size_t j = 0; j < cols.size(); ++j) {
    std::vector<double> col(n);
    for (size_t r = 0; r < n; ++r) col[r] = masked[r][j];
    TRIPRIV_RETURN_IF_ERROR(result.protected_table.SetNumericColumn(cols[j], col));
  }
  return result;
}

/// One cell rendered through snprintf("%.10g") / std::to_string.
std::string ReferenceDisplayString(const Value& v) {
  if (v.is_null()) return "";
  if (v.is_int()) return std::to_string(v.AsInt());
  if (v.is_real()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", 10, v.AsReal());
    return buf;
  }
  return v.AsString();
}

/// One std::string per row, grown to the widest row afterwards.
std::vector<std::vector<uint8_t>> ReferenceSnapshotRecords(const DataTable& table) {
  std::vector<std::vector<uint8_t>> records;
  size_t widest = 1;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string text;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) text.push_back('|');
      text += ReferenceDisplayString(table.at(r, c));
    }
    records.emplace_back(text.begin(), text.end());
    widest = std::max(widest, records.back().size());
  }
  for (auto& record : records) record.resize(widest, 0);
  return records;
}

// ---------------------------------------------------------------------------
// Random inputs.

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& from) {
  return from[rng->UniformU64(from.size())];
}

/// (int QI, real QI, categorical, real column holding ints and reals).
/// The small value pools make classes collide; they hold nulls, ±0.0,
/// Value(1) beside Value(1.0), empty strings and integers past 2^53.
Schema MixedSchema() {
  return Schema({{"i", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
                 {"x", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
                 {"s", AttributeType::kCategorical, AttributeRole::kQuasiIdentifier},
                 {"m", AttributeType::kReal, AttributeRole::kConfidential}});
}

const std::vector<std::vector<Value>>& MixedPools() {
  static const std::vector<std::vector<Value>> pools = {
      {Value(), Value(-1), Value(0), Value(1), Value(2),
       Value(int64_t{9007199254740992}), Value(int64_t{9007199254740993})},
      {Value(), Value(0.0), Value(-0.0), Value(1.0), Value(1.5),
       Value(9007199254740992.0)},
      {Value(), Value(""), Value("a"), Value("b")},
      {Value(), Value(1), Value(1.0), Value(0), Value(-0.0), Value(2)},
  };
  return pools;
}

std::vector<Value> MixedRow(Rng* rng) {
  std::vector<Value> row;
  for (const auto& pool : MixedPools()) row.push_back(Pick(rng, pool));
  return row;
}

DataTable MixedTable(size_t rows, Rng* rng) {
  DataTable table(MixedSchema());
  for (size_t r = 0; r < rows; ++r) {
    TRIPRIV_CHECK(table.AppendRow(MixedRow(rng)).ok());
  }
  return table;
}

/// A mutation payload: valid most of the time, else of the wrong arity or
/// with one cell of the wrong type.
std::vector<Value> Payload(Rng* rng) {
  std::vector<Value> row = MixedRow(rng);
  switch (rng->UniformU64(12)) {
    case 0:
      row.pop_back();
      break;
    case 1:
      row.push_back(Value(3));
      break;
    case 2: {
      const std::vector<Value> wrong = {Value("z"), Value("z"), Value(7), Value("z")};
      const size_t c = rng->UniformU64(row.size());
      row[c] = wrong[c];
      break;
    }
    case 3:
      row[0] = Value(2.5);  // a real in the integer column
      break;
    default:
      break;
  }
  return row;
}

/// A batch over the uids `live`: inserts, and updates and deletes of live
/// uids, of uids inserted earlier in the batch, of uids the batch already
/// deleted or named, and of unknown uids.
std::vector<RowMutation> RandomBatch(Rng* rng, const std::vector<uint64_t>& live,
                                     uint64_t next_uid, size_t length) {
  std::vector<RowMutation> batch;
  std::vector<uint64_t> named = live;
  for (size_t i = 0; i < length; ++i) {
    const uint64_t kind = rng->UniformU64(3);
    if (kind == 0) {
      batch.push_back(RowMutation::Insert(Payload(rng)));
      named.push_back(next_uid++);
      continue;
    }
    uint64_t uid = 1000000 + rng->UniformU64(5);  // unknown
    if (!named.empty() && rng->UniformU64(8) != 0) uid = Pick(rng, named);
    if (kind == 1) {
      batch.push_back(RowMutation::Delete(uid));
    } else {
      batch.push_back(RowMutation::Update(uid, Payload(rng)));
    }
  }
  return batch;
}

void ExpectSameStatus(const Status& got, const Status& want) {
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
}

// ---------------------------------------------------------------------------
// ApplyMutations.

TEST(ApplyMutationsReferenceTest, RandomBatchesMatchTheCopyingApply) {
  Rng rng(2207);
  size_t applied = 0;
  size_t refused = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t rows = Pick(&rng, std::vector<size_t>{0, 1, 2, 5, 40});
    const DataTable table = MixedTable(rows, &rng);
    // Distinct uids in random order; now and then a repeated uid (the last
    // row holding it is the one a mutation reaches) or a next_uid that
    // collides with a live uid.
    std::vector<uint64_t> uids;
    for (size_t r = 0; r < rows; ++r) uids.push_back(3 * r + rng.UniformU64(3));
    for (size_t r = rows; r > 1; --r) std::swap(uids[r - 1], uids[rng.UniformU64(r)]);
    if (rows > 1 && rng.UniformU64(8) == 0) uids[0] = uids[rows - 1];
    uint64_t next_uid = 3 * rows + 3;
    if (rows > 0 && rng.UniformU64(8) == 0) next_uid = uids[rng.UniformU64(rows)];
    const std::vector<RowMutation> batch =
        RandomBatch(&rng, uids, next_uid, rng.UniformU64(13));

    DataTable got_table = table;
    std::vector<uint64_t> got_uids = uids;
    uint64_t got_next = next_uid;
    DataTable want_table = table;
    std::vector<uint64_t> want_uids = uids;
    uint64_t want_next = next_uid;
    auto got = ApplyMutations(batch, &got_table, &got_uids, &got_next);
    auto want = ReferenceApplyMutations(batch, &want_table, &want_uids, &want_next);
    ExpectSameStatus(got.status(), want.status());
    EXPECT_EQ(got_next, want_next);
    if (!got.ok() || !want.ok()) {
      ++refused;
      continue;
    }
    ++applied;
    EXPECT_TRUE(got_table == want_table);
    EXPECT_EQ(got_uids, want_uids);
    EXPECT_EQ(got->dirty_uids, want->dirty_uids);
    EXPECT_EQ(got->inserts, want->inserts);
    EXPECT_EQ(got->deletes, want->deletes);
    EXPECT_EQ(got->updates, want->updates);
  }
  // Both outcomes are exercised in volume.
  EXPECT_GT(applied, 500u);
  EXPECT_GT(refused, 500u);
}

TEST(ApplyMutationsReferenceTest, MismatchedUidVectorMatches) {
  DataTable got_table(MixedSchema());
  DataTable want_table(MixedSchema());
  std::vector<uint64_t> got_uids = {1};
  std::vector<uint64_t> want_uids = {1};
  uint64_t got_next = 2;
  uint64_t want_next = 2;
  ExpectSameStatus(ApplyMutations({}, &got_table, &got_uids, &got_next).status(),
                   ReferenceApplyMutations({}, &want_table, &want_uids, &want_next)
                       .status());
}

// ---------------------------------------------------------------------------
// Grouping (the k-gate).

void ExpectSameGrouping(const DataTable& table, const std::vector<size_t>& cols) {
  const EquivalenceClasses want = ReferenceGroupByColumns(table, cols);
  EXPECT_EQ(GroupByColumns(table, cols).classes, want.classes);
  std::vector<size_t> sizes;
  size_t unique = 0;
  for (const auto& cls : want.classes) {
    sizes.push_back(cls.size());
    if (cls.size() == 1) ++unique;
  }
  EXPECT_EQ(ClassSizes(table, cols), sizes);
  EXPECT_EQ(AnonymityLevel(table, cols), want.MinClassSize());
  for (size_t k = 0; k <= 3; ++k) {
    EXPECT_EQ(IsKAnonymous(table, k, cols), want.MinClassSize() >= k) << "k=" << k;
  }
  const double fraction =
      table.num_rows() == 0 ? 0.0
                            : static_cast<double>(unique) /
                                  static_cast<double>(table.num_rows());
  EXPECT_EQ(UniquenessFraction(table, cols), fraction);
}

TEST(GroupingReferenceTest, RandomTablesMatchTheOrderedMapGrouping) {
  // NaN stays out of the pools: under a std::map it breaks the strict weak
  // order, and GroupByColumns gives it singleton classes on purpose
  // (EquivalenceTest.NanCellsFormSingletonClasses).
  const std::vector<std::vector<size_t>> col_sets = {
      {}, {0}, {1}, {2}, {3}, {0, 1}, {1, 3}, {2, 0}, {3, 3}, {0, 1, 2, 3}};
  Rng rng(4409);
  for (size_t rows : {0u, 1u, 2u, 3u, 7u, 64u, 300u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const DataTable table = MixedTable(rows, &rng);
      for (const auto& cols : col_sets) {
        SCOPED_TRACE("rows=" + std::to_string(rows) + " trial=" +
                     std::to_string(trial) + " cols=" + std::to_string(cols.size()));
        ExpectSameGrouping(table, cols);
      }
    }
  }
  const DataTable census = MakeCensus(2000, 3);
  ExpectSameGrouping(census, census.schema().QuasiIdentifierIndices());
  ExpectSameGrouping(census, {0, 3});
}

// ---------------------------------------------------------------------------
// IncrementalMdav.

void ExpectSameMaintenance(const Result<IncrementalMdavResult>& got,
                           const Result<IncrementalMdavResult>& want) {
  ExpectSameStatus(got.status(), want.status());
  if (!got.ok() || !want.ok()) return;
  EXPECT_EQ(got->group_of_row, want->group_of_row);
  EXPECT_EQ(got->num_groups, want->num_groups);
  EXPECT_EQ(got->rows_reclustered, want->rows_reclustered);
  EXPECT_EQ(got->groups_kept, want->groups_kept);
  EXPECT_EQ(got->min_group_size, want->min_group_size);
  EXPECT_TRUE(got->protected_table == want->protected_table);
  EXPECT_EQ(TableChecksum(got->protected_table),
            TableChecksum(want->protected_table));
}

struct FlipRun {
  size_t flips = 0;
  size_t absorbed = 0;  // flips whose residual pool joined clean groups
};

/// Bootstraps `base` through both maintainers, then runs random flips
/// (updates, inserts and deletes drawn from `payloads`), comparing every
/// maintenance pass.
FlipRun RunFlips(const DataTable& base, const DataTable& payloads,
                 const std::vector<size_t>& cols, size_t k, size_t flips,
                 Rng* rng) {
  FlipRun run;
  DataTable table = base;
  std::vector<uint64_t> uids(base.num_rows());
  for (size_t i = 0; i < uids.size(); ++i) uids[i] = i;
  uint64_t next_uid = uids.size();
  auto got = IncrementalMdav(table, uids, cols, k, {}, {});
  ExpectSameMaintenance(got, ReferenceIncrementalMdav(table, uids, cols, k, {}, {}));
  if (!got.ok()) return run;
  std::vector<size_t> group_of_row = got->group_of_row;
  for (size_t flip = 0; flip < flips; ++flip) {
    SCOPED_TRACE("flip " + std::to_string(flip));
    std::unordered_map<uint64_t, size_t> prev;
    for (size_t i = 0; i < uids.size(); ++i) prev[uids[i]] = group_of_row[i];
    std::vector<RowMutation> batch;
    std::set<uint64_t> used;
    const size_t length = 1 + rng->UniformU64(4);
    for (size_t i = 0; i < length; ++i) {
      const uint64_t kind = rng->UniformU64(3);
      const std::vector<Value>& payload =
          payloads.row(rng->UniformU64(payloads.num_rows()));
      if (kind == 0 || uids.size() <= used.size() + k) {
        batch.push_back(RowMutation::Insert(payload));
        continue;
      }
      uint64_t uid = 0;
      do {
        uid = uids[rng->UniformU64(uids.size())];
      } while (!used.insert(uid).second);
      batch.push_back(kind == 1 ? RowMutation::Delete(uid)
                                : RowMutation::Update(uid, payload));
    }
    auto applied = ApplyMutations(batch, &table, &uids, &next_uid);
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
    if (!applied.ok()) return run;
    auto next = IncrementalMdav(table, uids, cols, k, prev, applied->dirty_uids);
    ExpectSameMaintenance(
        next, ReferenceIncrementalMdav(table, uids, cols, k, prev, applied->dirty_uids));
    if (!next.ok()) return run;
    ++run.flips;
    if (next->rows_reclustered > 0 && next->rows_reclustered < k &&
        next->groups_kept > 0) {
      ++run.absorbed;
    }
    group_of_row = next->group_of_row;
  }
  return run;
}

TEST(IncrementalMdavReferenceTest, RandomFlipsMatchTheMemberListMaintainer) {
  Rng rng(6121);
  const DataTable trial_payloads = MakeClinicalTrial(64, 99);
  const DataTable census_payloads = MakeCensus(64, 98);
  size_t flips = 0;
  size_t absorbed = 0;
  for (size_t k : {1u, 2u, 3u, 5u}) {
    for (size_t n : {1u, 3u, 10u, 60u, 150u}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
      const FlipRun trial =
          RunFlips(MakeClinicalTrial(n, 7 + n), trial_payloads, {0, 1}, k, 12, &rng);
      const DataTable census = MakeCensus(n, 11 + n);
      const std::vector<size_t> cols = {*census.schema().IndexOf("age"),
                                        *census.schema().IndexOf("education")};
      const FlipRun census_run = RunFlips(census, census_payloads, cols, k, 12, &rng);
      // A real-valued column keeps its centroids unrounded, so the order in
      // which a group's members are summed shows in the masked bits.
      const std::vector<size_t> real_cols = {*census.schema().IndexOf("income"),
                                             *census.schema().IndexOf("age")};
      const FlipRun real_run =
          RunFlips(census, census_payloads, real_cols, k, 12, &rng);
      flips += trial.flips + census_run.flips + real_run.flips;
      absorbed += trial.absorbed + census_run.absorbed + real_run.absorbed;
    }
  }
  EXPECT_GT(flips, 600u);
  EXPECT_GT(absorbed, 30u);  // the residual (< k) absorption path ran
}

TEST(IncrementalMdavReferenceTest, BootstrapAndFailuresMatch) {
  const DataTable trial = MakeClinicalTrial(40, 5);
  std::vector<uint64_t> uids(40);
  for (size_t i = 0; i < uids.size(); ++i) uids[i] = 100 + i;
  const std::vector<size_t> cols = {0, 1};
  // Empty-map bootstrap, also with k above the row count (one degenerate
  // group) and with a single column.
  for (size_t k : {1u, 4u, 41u}) {
    ExpectSameMaintenance(IncrementalMdav(trial, uids, cols, k, {}, {}),
                          ReferenceIncrementalMdav(trial, uids, cols, k, {}, {}));
  }
  ExpectSameMaintenance(IncrementalMdav(trial, uids, {1}, 3, {}, {}),
                        ReferenceIncrementalMdav(trial, uids, {1}, 3, {}, {}));
  // Argument errors.
  ExpectSameMaintenance(IncrementalMdav(trial, uids, cols, 0, {}, {}),
                        ReferenceIncrementalMdav(trial, uids, cols, 0, {}, {}));
  ExpectSameMaintenance(IncrementalMdav(trial, uids, {}, 3, {}, {}),
                        ReferenceIncrementalMdav(trial, uids, {}, 3, {}, {}));
  const std::vector<uint64_t> short_uids(39, 0);
  ExpectSameMaintenance(IncrementalMdav(trial, short_uids, cols, 3, {}, {}),
                        ReferenceIncrementalMdav(trial, short_uids, cols, 3, {}, {}));
  const DataTable empty(PatientSchema());
  ExpectSameMaintenance(IncrementalMdav(empty, {}, cols, 3, {}, {}),
                        ReferenceIncrementalMdav(empty, {}, cols, 3, {}, {}));
  // Non-numeric cells: a categorical column, and nulls in two columns where
  // the later column holds the earlier row — the first cell in row order
  // is the one the error names.
  ExpectSameMaintenance(IncrementalMdav(trial, uids, {0, 3}, 3, {}, {}),
                        ReferenceIncrementalMdav(trial, uids, {0, 3}, 3, {}, {}));
  DataTable holes = trial;
  ASSERT_TRUE(holes.Set(9, 0, Value()).ok());
  ASSERT_TRUE(holes.Set(4, 1, Value()).ok());
  ExpectSameMaintenance(IncrementalMdav(holes, uids, cols, 3, {}, {}),
                        ReferenceIncrementalMdav(holes, uids, cols, 3, {}, {}));
}

TEST(IncrementalMdavReferenceTest, PreviousGroupIdPastTheRowCountIsRefused) {
  const DataTable trial = MakeClinicalTrial(12, 5);
  std::vector<uint64_t> uids(12);
  std::unordered_map<uint64_t, size_t> prev;
  for (size_t i = 0; i < uids.size(); ++i) {
    uids[i] = i;
    prev[i] = i / 3;
  }
  ASSERT_TRUE(IncrementalMdav(trial, uids, {0, 1}, 3, prev, {}).ok());
  prev[7] = 12;  // 12 previous rows cannot hold a 13th group
  EXPECT_EQ(IncrementalMdav(trial, uids, {0, 1}, 3, prev, {}).status().code(),
            StatusCode::kInvalidArgument);
  // Also when only a deleted (dirty) uid carries the id.
  prev[7] = 2;
  prev[99] = 40;
  EXPECT_EQ(IncrementalMdav(trial, uids, {0, 1}, 3, prev, {99}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Replica render.

double FromBits(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::vector<Value> RenderCases() {
  std::vector<Value> values = {
      Value(), Value(""), Value("plain"), Value("a|b"), Value(0), Value(-1),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()), Value(0.0), Value(-0.0),
      Value(std::numeric_limits<double>::infinity()),
      Value(-std::numeric_limits<double>::infinity()),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(-std::numeric_limits<double>::quiet_NaN()),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(-std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<double>::min()),
      Value(std::numeric_limits<double>::max()),
      Value(std::numeric_limits<double>::lowest()),
      Value(std::numeric_limits<double>::epsilon()), Value(1e16), Value(-1e16),
      Value(1e-16), Value(-1e-16), Value(1e15), Value(1e17), Value(9999999999.5),
      Value(1234567890.0), Value(12345678901.0), Value(0.0001), Value(0.00001),
      Value(0.1), Value(1.0 / 3.0), Value(2.5), Value(100.0)};
  Rng rng(8803);
  for (int i = 0; i < 20000; ++i) {
    values.emplace_back(FromBits(rng.NextU64()));  // every exponent
    // Subnormals: a zero exponent field.
    values.emplace_back(FromBits(rng.NextU64() & 0x800FFFFFFFFFFFFFull));
    // Decimal-looking values at 9 to 11 significant digits, where %.10g
    // rounds, and near powers of ten.
    const double scale = std::pow(10.0, static_cast<double>(rng.UniformInt(-20, 20)));
    values.emplace_back(
        static_cast<double>(rng.UniformInt(-99999999999, 99999999999)) * scale);
    values.emplace_back(static_cast<int64_t>(rng.NextU64()));
  }
  return values;
}

TEST(RenderReferenceTest, ValuesMatchPrintf) {
  for (const Value& v : RenderCases()) {
    const std::string want = ReferenceDisplayString(v);
    ASSERT_EQ(v.ToDisplayString(), want);
    std::string appended = "prefix|";
    v.AppendDisplayString(&appended);
    ASSERT_EQ(appended, "prefix|" + want);
  }
}

TEST(RenderReferenceTest, SnapshotRecordsMatchPerRowRendering) {
  Rng rng(9907);
  for (size_t rows : {0u, 1u, 2u, 17u, 300u}) {
    const DataTable table = MixedTable(rows, &rng);
    EXPECT_EQ(SnapshotRecords(table), ReferenceSnapshotRecords(table)) << rows;
  }
  // Every cell renders empty: the records keep their one-byte floor.
  Schema one({{"s", AttributeType::kCategorical, AttributeRole::kQuasiIdentifier}});
  auto blank = DataTable::FromRows(one, {{Value()}, {Value("")}});
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(SnapshotRecords(*blank), ReferenceSnapshotRecords(*blank));
  // Real-valued cells from every part of the double range.
  Schema reals({{"x", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
                {"y", AttributeType::kReal, AttributeRole::kConfidential}});
  DataTable wide(reals);
  const std::vector<Value> cases = RenderCases();
  for (size_t i = 0; i + 1 < 4000; i += 2) {
    if (!cases[i].is_numeric() && !cases[i].is_null()) continue;
    if (!cases[i + 1].is_numeric() && !cases[i + 1].is_null()) continue;
    ASSERT_TRUE(wide.AppendRow({cases[i], cases[i + 1]}).ok());
  }
  EXPECT_EQ(SnapshotRecords(wide), ReferenceSnapshotRecords(wide));
  const DataTable census = MakeCensus(500, 17);
  EXPECT_EQ(SnapshotRecords(census), ReferenceSnapshotRecords(census));
}

}  // namespace
}  // namespace tripriv
