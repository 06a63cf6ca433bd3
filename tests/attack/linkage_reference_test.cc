// The flat linkage core against the core it replaced.
//
// RunRecordLinkageAttack, RunAttributeDisclosureAttack and
// DistanceLinkageAttack read both tables into row-major standardized
// buffers and, in blocked mode, gather candidates from a CSR cell index
// under an exact cell key and scan only the tie band of each probe's
// candidates (NearestTiesInBand). The reference kept here is the
// vector-of-vectors core that preceded them (StandardizeJointly,
// NearestTies, MaskedGrid and LinkRows, which sorted every probe's
// candidates), changed in one place only: the grid keys a cell by its
// exact bin tuple, where the old FNV-1a fold of the bins aliased
// out-of-range cells near a border onto occupied in-range cells. Every
// outcome field, the rendered JSON, and the code and message of every
// refusal must match the reference exactly, at 0/1/2/8 threads.
//
// RunLinkageAttacks, the one-pass call, must equal the two standalone
// calls run in sequence: outcomes, JSON, the first refusal and an attached
// metrics export. The band itself is checked against the ascending scan
// over the sorted candidates on lattices of near-ties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "attack/equivocation.h"
#include "attack/linkage.h"
#include "obs/export.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "sdc/microaggregation.h"
#include "sdc/mondrian.h"
#include "sdc/noise.h"
#include "sdc/risk.h"
#include "stats/descriptive.h"
#include "table/data_table.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace attack {
namespace {

// --- The reference: the replaced core, with an exact cell key ----------

using Matrix = std::vector<std::vector<double>>;

void RefStandardizeJointly(Matrix* a, Matrix* b) {
  if (a->empty()) return;
  const size_t d = (*a)[0].size();
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> col(a->size());
    for (size_t i = 0; i < a->size(); ++i) col[i] = (*a)[i][j];
    const double mean = Mean(col);
    const double sd = col.size() >= 2 ? SampleStddev(col) : 0.0;
    const double scale = sd > 0.0 ? 1.0 / sd : 1.0;
    for (auto& r : *a) r[j] = (r[j] - mean) * scale;
    for (auto& r : *b) r[j] = (r[j] - mean) * scale;
  }
}

std::vector<size_t> RefNearestTies(const std::vector<double>& probe,
                                   const Matrix& rel,
                                   const std::vector<size_t>& candidates) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<size_t> ties;
  for (size_t j : candidates) {
    const double d = SquaredDistance(probe, rel[j]);
    if (d < best - 1e-12) {
      best = d;
      ties.assign(1, j);
    } else if (std::fabs(d - best) <= 1e-12) {
      ties.push_back(j);
    }
  }
  return ties;
}

/// The replaced MaskedGrid, keyed by the exact bin tuple.
class RefGrid {
 public:
  RefGrid(const Matrix& rel, size_t bins)
      : bins_(bins), dims_(rel.empty() ? 0 : rel[0].size()) {
    lo_.assign(dims_, std::numeric_limits<double>::infinity());
    cell_.assign(dims_, 1.0);
    std::vector<double> hi(dims_, -std::numeric_limits<double>::infinity());
    for (const auto& r : rel) {
      for (size_t j = 0; j < dims_; ++j) {
        lo_[j] = std::min(lo_[j], r[j]);
        hi[j] = std::max(hi[j], r[j]);
      }
    }
    for (size_t j = 0; j < dims_; ++j) {
      const double span = hi[j] - lo_[j];
      cell_[j] = span > 0.0 ? span / static_cast<double>(bins_) : 1.0;
    }
    for (size_t i = 0; i < rel.size(); ++i) cells_[BinsOf(rel[i])].push_back(i);
  }

  std::vector<size_t> Gather(const std::vector<double>& probe,
                             size_t radius) const {
    const std::vector<int64_t> center = BinsOf(probe);
    std::vector<size_t> out;
    std::vector<int64_t> offset(dims_, -static_cast<int64_t>(radius));
    const int64_t r = static_cast<int64_t>(radius);
    while (true) {
      std::vector<int64_t> cell(dims_);
      for (size_t j = 0; j < dims_; ++j) cell[j] = center[j] + offset[j];
      const auto it = cells_.find(cell);
      if (it != cells_.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
      size_t j = 0;
      for (; j < dims_; ++j) {
        if (offset[j] < r) {
          ++offset[j];
          break;
        }
        offset[j] = -r;
      }
      if (j == dims_) break;
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<int64_t> BinsOf(const std::vector<double>& v) const {
    std::vector<int64_t> bins(dims_);
    for (size_t j = 0; j < dims_; ++j) {
      int64_t b =
          static_cast<int64_t>(std::floor((v[j] - lo_[j]) / cell_[j]));
      if (b < 0) b = 0;
      if (b >= static_cast<int64_t>(bins_)) b = static_cast<int64_t>(bins_) - 1;
      bins[j] = b;
    }
    return bins;
  }

  size_t bins_;
  size_t dims_;
  std::vector<double> lo_;
  std::vector<double> cell_;
  std::map<std::vector<int64_t>, std::vector<size_t>> cells_;
};

struct RefLinked {
  double credit = 0.0;
  size_t tie_count = 0;
  double predicted = 0.0;
};

std::vector<RefLinked> RefLinkRows(const Matrix& ext, const Matrix& rel,
                                   const std::vector<double>& masked_conf,
                                   const LinkageConfig& config) {
  std::vector<RefLinked> out(ext.size());
  std::unique_ptr<RefGrid> grid;
  std::vector<size_t> all_rows(rel.size());
  std::iota(all_rows.begin(), all_rows.end(), size_t{0});
  if (config.block_bins > 0) {
    grid = std::make_unique<RefGrid>(rel, config.block_bins);
  }
  for (size_t i = 0; i < ext.size(); ++i) {
    std::vector<size_t> ties;
    if (grid != nullptr) {
      for (size_t radius = 0; radius <= config.max_radius; ++radius) {
        const std::vector<size_t> candidates = grid->Gather(ext[i], radius);
        if (!candidates.empty()) {
          ties = RefNearestTies(ext[i], rel, candidates);
          break;
        }
      }
    } else {
      ties = RefNearestTies(ext[i], rel, all_rows);
    }
    out[i].tie_count = ties.size();
    for (size_t j : ties) {
      if (j == i) {
        out[i].credit = 1.0 / static_cast<double>(ties.size());
        break;
      }
    }
    if (!masked_conf.empty() && !ties.empty()) {
      double sum = 0.0;
      for (size_t j : ties) sum += masked_conf[j];
      out[i].predicted = sum / static_cast<double>(ties.size());
    }
  }
  return out;
}

std::vector<size_t> RefQiCols(const DataTable& original,
                              const LinkageConfig& config) {
  return config.qi_cols.empty() ? original.schema().QuasiIdentifierIndices()
                                : config.qi_cols;
}

Status RefValidate(const DataTable& original, const DataTable& masked,
                   const std::vector<size_t>& qi_cols) {
  if (original.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument(
        "linkage attack requires aligned original and masked tables");
  }
  if (qi_cols.empty()) {
    return Status::InvalidArgument("no quasi-identifier columns given");
  }
  return Status::OK();
}

Result<AttackOutcome> RefRecordLinkage(const DataTable& original,
                                       const DataTable& masked,
                                       const LinkageConfig& config) {
  const std::vector<size_t> qi_cols = RefQiCols(original, config);
  TRIPRIV_RETURN_IF_ERROR(RefValidate(original, masked, qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto ext, original.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto rel, masked.NumericMatrix(qi_cols));
  RefStandardizeJointly(&ext, &rel);
  const std::vector<RefLinked> rows = RefLinkRows(ext, rel, {}, config);

  AttackOutcome outcome;
  outcome.attack = "record_linkage";
  outcome.dimension = Dimension::kRespondent;
  outcome.trials = rows.size();
  outcome.records_total = rows.size();
  std::vector<size_t> tie_counts;
  for (const RefLinked& r : rows) {
    outcome.successes += r.credit;
    tie_counts.push_back(r.tie_count > 0 ? r.tie_count : rows.size());
  }
  outcome.records_recovered = outcome.successes;
  outcome.equivocation_bits = MeanCandidateBits(tie_counts);
  outcome.prior_bits = UniformBits(rows.size());
  outcome.note = config.block_bins == 0
                     ? "exact"
                     : "blocked bins=" + std::to_string(config.block_bins);
  return outcome;
}

Result<AttackOutcome> RefAttributeDisclosure(
    const DataTable& original, const DataTable& masked,
    const AttributeDisclosureConfig& config) {
  const std::vector<size_t> qi_cols = RefQiCols(original, config.linkage);
  TRIPRIV_RETURN_IF_ERROR(RefValidate(original, masked, qi_cols));
  if (config.window_percent < 0.0 || config.window_percent > 100.0) {
    return Status::InvalidArgument("window must be in [0, 100] percent");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto ext, original.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto rel, masked.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto true_conf,
                           original.NumericColumn(config.confidential_col));
  TRIPRIV_ASSIGN_OR_RETURN(auto masked_conf,
                           masked.NumericColumn(config.confidential_col));
  RefStandardizeJointly(&ext, &rel);
  const std::vector<RefLinked> rows =
      RefLinkRows(ext, rel, masked_conf, config.linkage);

  const double range = true_conf.empty()
                           ? 0.0
                           : *std::max_element(true_conf.begin(),
                                               true_conf.end()) -
                                 *std::min_element(true_conf.begin(),
                                                   true_conf.end());
  const double window =
      config.window_percent / 100.0 * (range > 0.0 ? range : 1.0);
  AttackOutcome outcome;
  outcome.attack = "attribute_disclosure";
  outcome.dimension = Dimension::kRespondent;
  outcome.trials = rows.size();
  outcome.records_total = rows.size();
  std::vector<size_t> tie_counts;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].tie_count > 0 &&
        std::fabs(rows[i].predicted - true_conf[i]) <= window) {
      outcome.successes += 1.0;
    }
    tie_counts.push_back(rows[i].tie_count > 0 ? rows[i].tie_count
                                               : rows.size());
  }
  outcome.records_recovered = outcome.successes;
  outcome.equivocation_bits = MeanCandidateBits(tie_counts);
  outcome.prior_bits = UniformBits(rows.size());
  outcome.note = "window=" + FormatFixed(config.window_percent) + "%";
  return outcome;
}

Result<LinkageResult> RefDistanceLinkage(const DataTable& original,
                                         const DataTable& masked,
                                         const std::vector<size_t>& qi_cols) {
  if (original.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument(
        "record linkage requires aligned original and masked tables");
  }
  if (qi_cols.empty()) {
    return Status::InvalidArgument("no quasi-identifier columns given");
  }
  TRIPRIV_ASSIGN_OR_RETURN(auto ext, original.NumericMatrix(qi_cols));
  TRIPRIV_ASSIGN_OR_RETURN(auto rel, masked.NumericMatrix(qi_cols));
  RefStandardizeJointly(&ext, &rel);
  std::vector<size_t> all_rows(rel.size());
  std::iota(all_rows.begin(), all_rows.end(), size_t{0});
  LinkageResult result;
  result.total = original.num_rows();
  double expected_correct = 0.0;
  for (size_t i = 0; i < ext.size(); ++i) {
    const std::vector<size_t> ties = RefNearestTies(ext[i], rel, all_rows);
    for (size_t j : ties) {
      if (j == i) {
        expected_correct += 1.0 / static_cast<double>(ties.size());
        break;
      }
    }
  }
  result.expected_correct = expected_correct;
  result.correct = static_cast<size_t>(std::llround(expected_correct));
  result.correct_fraction =
      result.total == 0 ? 0.0
                        : expected_correct / static_cast<double>(result.total);
  return result;
}

// --- Comparison ---------------------------------------------------------

void ExpectSameStatus(const Status& got, const Status& want,
                      const std::string& where) {
  EXPECT_EQ(got.code(), want.code()) << where;
  EXPECT_EQ(got.message(), want.message()) << where;
}

void ExpectSameOutcome(const Result<AttackOutcome>& got,
                       const Result<AttackOutcome>& want,
                       const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  if (!want.ok()) {
    ExpectSameStatus(got.status(), want.status(), where);
    return;
  }
  EXPECT_EQ(got->attack, want->attack) << where;
  EXPECT_EQ(got->dimension, want->dimension) << where;
  EXPECT_EQ(got->trials, want->trials) << where;
  EXPECT_EQ(got->successes, want->successes) << where;
  EXPECT_EQ(got->records_recovered, want->records_recovered) << where;
  EXPECT_EQ(got->records_total, want->records_total) << where;
  EXPECT_EQ(got->equivocation_bits, want->equivocation_bits) << where;
  EXPECT_EQ(got->prior_bits, want->prior_bits) << where;
  EXPECT_EQ(got->note, want->note) << where;
  EXPECT_EQ(OutcomeToJson(*got), OutcomeToJson(*want)) << where;
}

void ExpectSameResult(const Result<LinkageResult>& got,
                      const Result<LinkageResult>& want,
                      const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok()) << where;
  if (!want.ok()) {
    ExpectSameStatus(got.status(), want.status(), where);
    return;
  }
  EXPECT_EQ(got->expected_correct, want->expected_correct) << where;
  EXPECT_EQ(got->correct, want->correct) << where;
  EXPECT_EQ(got->total, want->total) << where;
  EXPECT_EQ(got->correct_fraction, want->correct_fraction) << where;
}

/// Pools for 0/1/2/8 threads (nullptr = serial).
class ThreadCounts {
 public:
  ThreadCounts() {
    for (size_t t : {1, 2, 8}) {
      pools_.push_back(std::make_unique<ThreadPool>(t));
    }
  }
  std::vector<ThreadPool*> pools() const {
    std::vector<ThreadPool*> out = {nullptr};
    for (const auto& p : pools_) out.push_back(p.get());
    return out;
  }

 private:
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

std::string Threads(const ThreadPool* pool) {
  return std::to_string(pool == nullptr ? 0 : pool->num_threads()) +
         " threads";
}

/// An attack-metrics bundle on its own registry.
struct AttachedMetrics {
  AttachedMetrics() : bundle(*obs::AttackMetrics::Create(&registry)) {}
  std::string Export() const {
    return obs::ToPrometheusText(registry.Snapshot());
  }
  obs::MetricsRegistry registry;
  obs::AttackMetrics bundle;
};

/// RunLinkageAttacks against RunRecordLinkageAttack followed by
/// RunAttributeDisclosureAttack: the same outcomes, the first refusal of
/// the sequence, and the same metrics export (every input the linkage
/// refuses, the disclosure refuses too, so it publishes nothing after a
/// linkage refusal). The standalone results are returned for comparison
/// with the reference.
void ExpectOnePassMatchesTwoCalls(const DataTable& original,
                                  const DataTable& masked,
                                  const AttributeDisclosureConfig& disclosure,
                                  ThreadPool* pool, const std::string& where,
                                  Result<AttackOutcome>* link,
                                  Result<AttackOutcome>* disc) {
  AttachedMetrics two_calls;
  AttackContext ctx;
  ctx.pool = pool;
  ctx.metrics = &two_calls.bundle;
  *link = RunRecordLinkageAttack(original, masked, disclosure.linkage, ctx);
  *disc = RunAttributeDisclosureAttack(original, masked, disclosure, ctx);
  if (!link->ok()) {
    ASSERT_FALSE(disc->ok()) << where;
  }

  AttachedMetrics one_pass;
  ctx.metrics = &one_pass.bundle;
  const Result<LinkageAttacks> both =
      RunLinkageAttacks(original, masked, disclosure, ctx);
  const Status& first_refusal = !link->ok() ? link->status() : disc->status();
  if (!first_refusal.ok()) {
    ASSERT_FALSE(both.ok()) << where;
    ExpectSameStatus(both.status(), first_refusal, where + " one pass");
  } else {
    ASSERT_TRUE(both.ok()) << where << ": " << both.status().ToString();
    ExpectSameOutcome(both->record_linkage, *link,
                      where + " one pass record linkage");
    ExpectSameOutcome(both->attribute_disclosure, *disc,
                      where + " one pass attribute disclosure");
  }
  EXPECT_EQ(one_pass.Export(), two_calls.Export()) << where;
}

/// Runs all three linkages and the one-pass call on (original, masked)
/// against the reference at every thread count. DistanceLinkageAttack runs
/// in exact mode only.
void ExpectMatchesReference(const DataTable& original, const DataTable& masked,
                            const LinkageConfig& linkage, size_t conf_col,
                            double window_percent, const ThreadCounts& threads,
                            const std::string& where) {
  AttributeDisclosureConfig disclosure;
  disclosure.linkage = linkage;
  disclosure.confidential_col = conf_col;
  disclosure.window_percent = window_percent;
  const Result<AttackOutcome> want_link =
      RefRecordLinkage(original, masked, linkage);
  const Result<AttackOutcome> want_disc =
      RefAttributeDisclosure(original, masked, disclosure);
  for (ThreadPool* pool : threads.pools()) {
    const std::string at = where + " @ " + Threads(pool);
    Result<AttackOutcome> link = Status::Internal("not run");
    Result<AttackOutcome> disc = Status::Internal("not run");
    ExpectOnePassMatchesTwoCalls(original, masked, disclosure, pool, at,
                                 &link, &disc);
    ExpectSameOutcome(link, want_link, at + " record linkage");
    ExpectSameOutcome(disc, want_disc, at + " attribute disclosure");
  }
  if (linkage.block_bins == 0) {
    const std::vector<size_t> qis = RefQiCols(original, linkage);
    ExpectSameResult(DistanceLinkageAttack(original, masked, qis),
                     RefDistanceLinkage(original, masked, qis),
                     where + " DistanceLinkageAttack");
  }
}

// --- Random inputs ------------------------------------------------------

enum class ColumnShape { kConstant, kSmallInts, kGridInts, kReals, kOutliers };

enum class Release { kVerbatim, kMdav, kNoise, kMondrian, kShuffled };

const char* ReleaseName(Release release) {
  switch (release) {
    case Release::kVerbatim: return "verbatim";
    case Release::kMdav: return "mdav";
    case Release::kNoise: return "noise";
    case Release::kMondrian: return "mondrian";
    case Release::kShuffled: return "shuffled";
  }
  return "?";
}

constexpr size_t kBlockBins[] = {0, 1, 2, 3, 7, 24, 64};

/// d numeric quasi-identifiers q0..q{d-1} (integer-valued shapes are
/// kInteger columns) plus a real confidential column `conf`, the last.
DataTable RandomTable(Rng* rng, size_t n, size_t d) {
  std::vector<Attribute> attrs;
  std::vector<ColumnShape> shapes;
  for (size_t j = 0; j < d; ++j) {
    const auto shape = static_cast<ColumnShape>(rng->UniformU64(5));
    shapes.push_back(shape);
    const bool ints =
        shape == ColumnShape::kSmallInts || shape == ColumnShape::kGridInts;
    attrs.push_back({"q" + std::to_string(j),
                     ints ? AttributeType::kInteger : AttributeType::kReal,
                     AttributeRole::kQuasiIdentifier});
  }
  attrs.push_back(
      {"conf", AttributeType::kReal, AttributeRole::kConfidential});
  DataTable table((Schema(attrs)));
  const double constant = rng->UniformDouble(-5.0, 5.0);
  const int64_t grid_top = static_cast<int64_t>(rng->UniformU64(64)) + 1;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> cells;
    for (size_t j = 0; j < d; ++j) {
      switch (shapes[j]) {
        case ColumnShape::kConstant:
          cells.emplace_back(constant);
          break;
        case ColumnShape::kSmallInts:
          cells.emplace_back(rng->UniformInt(0, 3));
          break;
        case ColumnShape::kGridInts:
          cells.emplace_back(rng->UniformInt(0, grid_top));
          break;
        case ColumnShape::kReals:
          cells.emplace_back(rng->Normal(10.0, 3.0));
          break;
        case ColumnShape::kOutliers:
          cells.emplace_back(rng->UniformU64(50) == 0
                                 ? rng->UniformDouble(-1e3, 1e3)
                                 : rng->UniformDouble(0.0, 1.0));
          break;
      }
    }
    cells.emplace_back(rng->UniformDouble(0.0, 100.0));
    TRIPRIV_CHECK(table.AppendRow(std::move(cells)).ok());
  }
  return table;
}

DataTable MakeRelease(const DataTable& original, Release release,
                      const std::vector<size_t>& qis, Rng* rng) {
  const size_t n = original.num_rows();
  switch (release) {
    case Release::kVerbatim:
      return original;
    case Release::kMdav: {
      const size_t k = 1 + rng->UniformU64(std::min<size_t>(5, n));
      auto r = MdavMicroaggregate(original, k, qis, nullptr);
      TRIPRIV_CHECK(r.ok()) << r.status().ToString();
      return r->table;
    }
    case Release::kNoise: {
      auto r = AddUncorrelatedNoise(original, rng->UniformDouble(0.05, 1.0),
                                    qis, rng->NextU64());
      TRIPRIV_CHECK(r.ok()) << r.status().ToString();
      return *r;
    }
    case Release::kMondrian: {
      const size_t k = 1 + rng->UniformU64(std::min<size_t>(6, n));
      auto r = MondrianAnonymize(original, k);
      TRIPRIV_CHECK(r.ok()) << r.status().ToString();
      return r->table;
    }
    case Release::kShuffled: {
      std::vector<size_t> perm(n);
      std::iota(perm.begin(), perm.end(), size_t{0});
      rng->Shuffle(&perm);
      return original.SelectRows(perm);
    }
  }
  return original;
}

/// Reference Gather lookups a probe can cost when every radius is empty;
/// sizes are capped so the map-keyed reference stays cheap.
size_t WorstCaseLookups(size_t d, size_t max_radius) {
  size_t total = 0;
  for (size_t r = 0; r <= max_radius; ++r) {
    size_t box = 1;
    for (size_t j = 0; j < d; ++j) box *= 2 * r + 1;
    total += box;
  }
  return total;
}

/// `cases` random (table, release, config) draws for one release kind.
void RunRandomCases(Release release, uint64_t seed, size_t cases) {
  const ThreadCounts threads;
  Rng rng(seed);
  for (size_t c = 0; c < cases; ++c) {
    const size_t d = 1 + rng.UniformU64(5);
    LinkageConfig config;
    config.block_bins = kBlockBins[rng.UniformU64(std::size(kBlockBins))];
    config.max_radius = rng.UniformU64(4);
    // Rows: mostly small, sometimes up to 2000; exact mode and wide
    // neighbourhoods are the reference's quadratic and exponential cases.
    const double u = rng.UniformDouble();
    size_t n = static_cast<size_t>(2000.0 * u * u * u);
    if (c % 10 == 0) n = rng.UniformU64(3);
    const size_t cap =
        config.block_bins == 0
            ? 1200
            : std::max<size_t>(
                  50, 3000000 / WorstCaseLookups(d, config.max_radius));
    n = std::min(n, cap);
    const bool needs_rows =
        release == Release::kMdav || release == Release::kMondrian;
    if (needs_rows && n == 0) n = 1;
    if (release == Release::kNoise && n < 2) n = 2;

    const DataTable original = RandomTable(&rng, n, d);
    std::vector<size_t> qis(d);
    std::iota(qis.begin(), qis.end(), size_t{0});
    const DataTable masked = MakeRelease(original, release, qis, &rng);
    // Half the draws name the columns, half resolve the schema's QIs.
    if (rng.UniformU64(2) == 0) config.qi_cols = qis;
    const double windows[] = {0.0, 0.5, 5.0, 20.0, 100.0};
    const double window = windows[rng.UniformU64(std::size(windows))];
    const std::string where =
        std::string(ReleaseName(release)) + " case " + std::to_string(c) +
        " (n=" + std::to_string(n) + ", d=" + std::to_string(d) +
        ", bins=" + std::to_string(config.block_bins) +
        ", radius=" + std::to_string(config.max_radius) + ")";
    ExpectMatchesReference(original, masked, config, d, window, threads,
                           where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LinkageReferenceTest, VerbatimReleases) {
  RunRandomCases(Release::kVerbatim, 101, 60);
}

TEST(LinkageReferenceTest, MdavReleases) {
  RunRandomCases(Release::kMdav, 202, 60);
}

TEST(LinkageReferenceTest, NoiseReleases) {
  RunRandomCases(Release::kNoise, 303, 60);
}

TEST(LinkageReferenceTest, MondrianReleases) {
  RunRandomCases(Release::kMondrian, 404, 60);
}

TEST(LinkageReferenceTest, ShuffledReleases) {
  RunRandomCases(Release::kShuffled, 505, 60);
}

// --- Crafted inputs -----------------------------------------------------

Schema RealSchema(size_t d) {
  std::vector<Attribute> attrs;
  for (size_t j = 0; j < d; ++j) {
    attrs.push_back({"q" + std::to_string(j), AttributeType::kReal,
                     AttributeRole::kQuasiIdentifier});
  }
  attrs.push_back(
      {"conf", AttributeType::kReal, AttributeRole::kConfidential});
  return Schema(attrs);
}

DataTable RealTable(size_t d, const std::vector<std::vector<double>>& rows) {
  DataTable table(RealSchema(d));
  for (const auto& r : rows) {
    std::vector<Value> cells(r.begin(), r.end());
    TRIPRIV_CHECK(table.AppendRow(std::move(cells)).ok());
  }
  return table;
}

// Every border of a 2-D grid: probes sit on, beyond and just inside each
// edge and corner of the release's range, and the release leaves most
// border cells empty, so neighbourhoods are clipped on one or two sides.
TEST(LinkageReferenceTest, ProbesAtEveryGridBorder) {
  const ThreadCounts threads;
  std::vector<std::vector<double>> original_rows;
  std::vector<std::vector<double>> masked_rows;
  const double edges[] = {-30.0, 0.0, 0.25, 5.0, 9.75, 10.0, 40.0};
  size_t i = 0;
  for (double x : edges) {
    for (double y : edges) {
      original_rows.push_back({x, y, static_cast<double>(i % 7)});
      // The release is a shrunken copy: border probes find their own cell
      // empty and widen toward the interior.
      masked_rows.push_back({2.0 + 0.6 * std::clamp(x, 0.0, 10.0),
                             2.0 + 0.6 * std::clamp(y, 0.0, 10.0),
                             static_cast<double>((i * 3) % 7)});
      ++i;
    }
  }
  // Pin the release's range to [0, 10]^2 with two far corners.
  original_rows.push_back({0.0, 0.0, 1.0});
  masked_rows.push_back({0.0, 0.0, 1.0});
  original_rows.push_back({10.0, 10.0, 2.0});
  masked_rows.push_back({10.0, 10.0, 2.0});
  const DataTable original = RealTable(2, original_rows);
  const DataTable masked = RealTable(2, masked_rows);
  for (size_t bins : kBlockBins) {
    for (size_t radius = 0; radius <= 3; ++radius) {
      LinkageConfig config;
      config.block_bins = bins;
      config.max_radius = radius;
      ExpectMatchesReference(original, masked, config, 2, 10.0, threads,
                             "border bins=" + std::to_string(bins) +
                                 " radius=" + std::to_string(radius));
    }
  }
}

// Regression: the old cell key folded `bin + 1` into FNV-1a word by word,
// so at 24 bins the out-of-range cell (-2, -2) of a radius-2 walk hashed to
// the occupied cell (6, 6). Row 0's whole radius-2 neighbourhood is empty,
// so it must be unlinkable (log2(4) = 2 bits), not linked to row 3.
TEST(LinkageReferenceTest, OutOfRangeCellsAliasNothing) {
  const DataTable original = RealTable(
      2, {{0.5, 0.5, 1.0}, {0.0, 99.0, 2.0}, {99.0, 0.0, 3.0},
          {27.0, 27.0, 4.0}});
  const DataTable masked = RealTable(
      2, {{50.0, 50.0, 1.0}, {0.0, 99.0, 2.0}, {99.0, 0.0, 3.0},
          {27.0, 27.0, 4.0}});
  LinkageConfig config;
  config.block_bins = 24;
  config.max_radius = 2;
  AttackContext ctx;
  auto outcome = RunRecordLinkageAttack(original, masked, config, ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->successes, 3.0);
  EXPECT_EQ(outcome->equivocation_bits, 0.5);
  ExpectMatchesReference(original, masked, config, 2, 5.0, ThreadCounts(),
                         "alias regression");
}

// Four rows tie for probe 0 from four cells that the neighbourhood walk
// meets in the reverse of row order. Their masked confidential values,
// 1e16, -1e16, 1 and 0, sum to 1 in row order and to 0 in any order that
// adds the 1 before the two large values cancel, so the tie-set mean —
// and with it whether row 0's value is disclosed within the window —
// pins both the ascending candidate order and the row-order sum.
TEST(LinkageReferenceTest, TieSetIsScannedAndSummedInRowOrder) {
  // Symmetric under swapping the two columns, so both standardize alike.
  const DataTable original = RealTable(
      2, {{0.0, 0.0, 0.0}, {1.0, 0.0, 1.0}, {-1.0, 0.0, 0.0},
          {0.0, -1.0, 0.0}, {0.0, 1.0, 0.0}});
  const DataTable masked = RealTable(
      2, {{0.0, 1.0, 1e16}, {1.0, 0.0, -1e16}, {-1.0, 0.0, 1.0},
          {0.0, -1.0, 0.0}, {1.0, 1.0, 0.0}});
  AttributeDisclosureConfig config;
  config.linkage.block_bins = 3;
  config.linkage.max_radius = 1;
  config.confidential_col = 2;
  config.window_percent = 10.0;
  AttackContext ctx;
  auto outcome = RunAttributeDisclosureAttack(original, masked, config, ctx);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // Probe 0 ties with rows 0..3: mean 0.25 against a truth of 0, outside
  // the 0.1 window. Of the rows that link alone, only row 3 reads its own
  // value (0). Any other scan or sum order gives probe 0 a mean of 0.
  EXPECT_EQ(outcome->successes, 1.0);
  EXPECT_EQ(outcome->equivocation_bits, 0.4);
  ExpectMatchesReference(original, masked, config.linkage, 2, 10.0,
                         ThreadCounts(), "tie order");
}

// Duplicate rows, constant columns and values on cell boundaries: integer
// points on a grid whose cells are exactly one unit wide.
TEST(LinkageReferenceTest, DuplicatesConstantsAndCellBoundaries) {
  const ThreadCounts threads;
  std::vector<std::vector<double>> rows;
  for (int x = 0; x <= 6; ++x) {
    for (int y = 0; y <= 6; y += 2) {
      for (int copy = 0; copy < 1 + (x + y) % 3; ++copy) {
        rows.push_back({static_cast<double>(x), static_cast<double>(y), 4.0,
                        static_cast<double>(x * 7 + y)});
      }
    }
  }
  std::vector<std::vector<double>> shifted = rows;
  for (auto& r : shifted) r[0] = std::min(6.0, r[0] + 1.0);
  const DataTable original = RealTable(3, rows);
  for (const DataTable& masked : {original, RealTable(3, shifted)}) {
    for (size_t bins : {size_t{0}, size_t{1}, size_t{3}, size_t{6},
                        size_t{7}, size_t{12}}) {
      for (size_t radius = 0; radius <= 2; ++radius) {
        LinkageConfig config;
        config.block_bins = bins;
        config.max_radius = radius;
        ExpectMatchesReference(original, masked, config, 3, 5.0, threads,
                               "boundaries bins=" + std::to_string(bins) +
                                   " radius=" + std::to_string(radius));
      }
    }
  }
}

// --- Refusals -----------------------------------------------------------

TEST(LinkageReferenceTest, MisalignedTablesAndMissingQisRefusedAsBefore) {
  Rng rng(9);
  const DataTable original = RandomTable(&rng, 20, 2);
  const DataTable longer = RandomTable(&rng, 21, 2);
  for (size_t bins : {size_t{0}, size_t{24}}) {
    LinkageConfig config;
    config.block_bins = bins;
    ExpectMatchesReference(original, longer, config, 2, 5.0, ThreadCounts(),
                           "misaligned bins=" + std::to_string(bins));
  }
  ExpectSameResult(DistanceLinkageAttack(original, longer),
                   RefDistanceLinkage(original, longer, {0, 1}),
                   "misaligned DistanceLinkageAttack");
  ExpectSameResult(DistanceLinkageAttack(original, original, {}),
                   RefDistanceLinkage(original, original, {}),
                   "no QIs DistanceLinkageAttack");

  // A schema without quasi-identifiers resolves to no linkage columns.
  DataTable bare(Schema({{"x", AttributeType::kReal,
                          AttributeRole::kNonConfidential},
                         {"conf", AttributeType::kReal,
                          AttributeRole::kConfidential}}));
  TRIPRIV_CHECK(bare.AppendRow({1.0, 2.0}).ok());
  ExpectMatchesReference(bare, bare, LinkageConfig{}, 1, 5.0, ThreadCounts(),
                         "no QIs");

  AttributeDisclosureConfig disclosure;
  disclosure.confidential_col = 2;
  for (double window : {-1.0, 100.5}) {
    disclosure.window_percent = window;
    AttackContext ctx;
    ExpectSameOutcome(
        RunAttributeDisclosureAttack(original, original, disclosure, ctx),
        RefAttributeDisclosure(original, original, disclosure),
        "window " + std::to_string(window));
  }
}

TEST(LinkageReferenceTest, NonNumericCellsRefusedAsBefore) {
  // A categorical QI fails at its first row; nulls fail wherever they
  // sit, and the refusal names the first in row-major order, the
  // original's before the release's.
  std::vector<Attribute> attrs = {
      {"q0", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
      {"q1", AttributeType::kInteger, AttributeRole::kQuasiIdentifier},
      {"q2", AttributeType::kReal, AttributeRole::kQuasiIdentifier},
      {"label", AttributeType::kCategorical, AttributeRole::kQuasiIdentifier},
      {"conf", AttributeType::kReal, AttributeRole::kConfidential}};
  Rng rng(31);
  auto table = [&](const std::vector<std::pair<size_t, size_t>>& nulls) {
    DataTable t((Schema(attrs)));
    for (size_t r = 0; r < 12; ++r) {
      std::vector<Value> cells = {rng.UniformDouble(), rng.UniformInt(0, 9),
                                  rng.UniformDouble(), Value("a"),
                                  rng.UniformDouble()};
      for (const auto& [nr, nc] : nulls) {
        if (nr == r) cells[nc] = Value::Null();
      }
      TRIPRIV_CHECK(t.AppendRow(std::move(cells)).ok());
    }
    return t;
  };
  const DataTable clean = table({});
  const DataTable late_q1_early_q2 = table({{7, 1}, {3, 2}});
  const DataTable conf_null = table({{5, 4}});
  const DataTable q0_null = table({{9, 0}});
  const std::vector<size_t> numeric = {0, 1, 2};
  struct Pair {
    const DataTable* original;
    const DataTable* masked;
    std::vector<size_t> qis;
    const char* name;
  };
  const std::vector<Pair> pairs = {
      {&clean, &clean, {0, 3}, "categorical QI"},
      {&late_q1_early_q2, &clean, numeric, "nulls in the original"},
      {&clean, &late_q1_early_q2, numeric, "nulls in the release"},
      {&q0_null, &late_q1_early_q2, numeric, "nulls in both"},
      {&conf_null, &clean, numeric, "null confidential (original)"},
      {&clean, &conf_null, numeric, "null confidential (release)"},
  };
  for (const Pair& p : pairs) {
    for (size_t bins : {size_t{0}, size_t{7}}) {
      LinkageConfig config;
      config.qi_cols = p.qis;
      config.block_bins = bins;
      ExpectMatchesReference(*p.original, *p.masked, config, 4, 5.0,
                             ThreadCounts(),
                             std::string(p.name) + " bins=" +
                                 std::to_string(bins));
    }
    ExpectSameResult(DistanceLinkageAttack(*p.original, *p.masked, p.qis),
                     RefDistanceLinkage(*p.original, *p.masked, p.qis),
                     std::string(p.name) + " DistanceLinkageAttack");
  }
}

// The cell key packs bins^|qi_cols| cells into a signed 64-bit word; a
// grid that does not fit is refused before any work, and one that just
// fits runs and agrees with the reference.
TEST(LinkageReferenceTest, GridTooLargeForTheCellKeyIsRefused) {
  Rng rng(77);
  const DataTable five = RandomTable(&rng, 40, 5);
  AttackContext ctx;
  LinkageConfig config;
  config.block_bins = size_t{1} << 13;  // 2^65 cells
  auto link = RunRecordLinkageAttack(five, five, config, ctx);
  ASSERT_FALSE(link.ok());
  EXPECT_EQ(link.status().code(), StatusCode::kInvalidArgument);
  AttributeDisclosureConfig disclosure;
  disclosure.linkage = config;
  disclosure.confidential_col = 5;
  auto disc = RunAttributeDisclosureAttack(five, five, disclosure, ctx);
  ASSERT_FALSE(disc.ok());
  EXPECT_EQ(disc.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disc.status().message(), link.status().message());
  // Refused before the tables are read: the confidential column named as
  // a sixth QI would read fine, and 2^11 bins over six columns is 2^66.
  config.qi_cols = {0, 1, 2, 3, 4, 5};
  config.block_bins = size_t{1} << 11;
  EXPECT_EQ(RunRecordLinkageAttack(five, five, config, ctx).status().message(),
            link.status().message());

  // 2^31 bins over two columns is 2^62 cells: it fits.
  const DataTable two = RandomTable(&rng, 300, 2);
  LinkageConfig fits;
  fits.block_bins = size_t{1} << 31;
  fits.max_radius = 1;
  ExpectMatchesReference(two, MakeRelease(two, Release::kNoise, {0, 1}, &rng),
                         fits, 2, 5.0, ThreadCounts(), "2^62 cells");
}

// Every input of RunLinkageAttacks made bad in turn, then two at once:
// the one pass refuses what the two calls would refuse first, and
// publishes the linkage outcome before a refusal only the disclosure
// makes. Out-of-range columns are refused before any column is read.
TEST(LinkageReferenceTest, OnePassRefusesWhatTheSequenceRefuses) {
  Rng rng(41);
  const DataTable original = RandomTable(&rng, 30, 3);  // q0 q1 q2 conf
  const DataTable longer = RandomTable(&rng, 31, 3);
  const DataTable narrow = original.Project({0, 1, 2});  // no conf column
  const DataTable qis_only = original.Project({0, 1});   // q2 gone too
  const DataTable bare = original.Project({3});  // no quasi-identifier
  std::vector<Attribute> attrs = original.schema().attributes();
  attrs[1] = {"q1", AttributeType::kCategorical,
              AttributeRole::kQuasiIdentifier};
  attrs[3] = {"conf", AttributeType::kCategorical,
              AttributeRole::kConfidential};
  DataTable labels((Schema(attrs)));
  for (size_t r = 0; r < original.num_rows(); ++r) {
    TRIPRIV_CHECK(labels
                      .AppendRow({original.at(r, 0), Value("x"),
                                  original.at(r, 2), Value("y")})
                      .ok());
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();

  struct Case {
    const char* name;
    const DataTable* original;
    const DataTable* masked;
    std::vector<size_t> qis;
    size_t block_bins;
    size_t conf_col;
    double window;
  };
  const std::vector<size_t> all = {0, 1, 2};
  const std::vector<Case> cases = {
      {"valid", &original, &original, all, 7, 3, 5.0},
      {"misaligned", &original, &longer, all, 7, 3, 5.0},
      {"no QIs", &bare, &bare, {}, 0, 0, 5.0},
      {"grid overflow", &original, &original, all, size_t{1} << 22, 3, 5.0},
      {"QI past both widths", &original, &original, {0, 99}, 7, 3, 5.0},
      {"QI past the release", &original, &qis_only, all, 7, 3, 5.0},
      {"schema QIs past the release", &original, &qis_only, {}, 0, 3, 5.0},
      {"non-numeric QI (original)", &labels, &original, all, 7, 0, 5.0},
      {"non-numeric QI (release)", &original, &labels, all, 0, 0, 5.0},
      {"confidential past both widths", &original, &original, all, 7, 42,
       5.0},
      {"confidential past the release", &original, &narrow, all, 7, 3, 5.0},
      {"NaN window", &original, &original, all, 7, 3, nan},
      {"negative window", &original, &original, all, 0, 3, -1.0},
      {"window over 100", &original, &original, all, 7, 3, 100.5},
      {"non-numeric confidential (original)", &labels, &original, {0, 2}, 7,
       3, 5.0},
      {"non-numeric confidential (release)", &original, &labels, {0, 2}, 0,
       3, 5.0},
      {"NaN window and non-numeric QI", &original, &labels, all, 7, 3, nan},
      {"NaN window and confidential past both", &original, &original, all, 7,
       42, nan},
      {"QI and confidential past both", &original, &original, {99}, 7, 42,
       5.0},
  };
  const ThreadCounts threads;
  for (const Case& c : cases) {
    AttributeDisclosureConfig disclosure;
    disclosure.linkage.qi_cols = c.qis;
    disclosure.linkage.block_bins = c.block_bins;
    disclosure.confidential_col = c.conf_col;
    disclosure.window_percent = c.window;
    for (ThreadPool* pool : threads.pools()) {
      Result<AttackOutcome> link = Status::Internal("not run");
      Result<AttackOutcome> disc = Status::Internal("not run");
      ExpectOnePassMatchesTwoCalls(*c.original, *c.masked, disclosure, pool,
                                   std::string(c.name) + " @ " +
                                       Threads(pool),
                                   &link, &disc);
      EXPECT_EQ(disc.ok(), std::string(c.name) == "valid") << c.name;
    }
  }
}

// --- The tie band -------------------------------------------------------

/// One lattice step: coordinates are integer multiples of 2^-20, so every
/// squared distance from the origin below 2^12 is an exact multiple of
/// 2^-40 (about 0.91e-12), and neighbours on a chain of squared norms
/// 0, 1, 2, ... all sit within the 1e-12 tie epsilon of each other.
constexpr double kStep = 0x1p-20;

/// LinkagePoints in 4 dimensions with every probe at the origin and
/// `released[j]` (already scaled) as candidate row j.
LinkagePoints LatticePoints(const std::vector<std::vector<double>>& released) {
  LinkagePoints points;
  points.dims = 4;
  points.rows = released.size();
  points.external.assign(points.rows * points.dims, 0.0);
  for (const std::vector<double>& x : released) {
    TRIPRIV_CHECK(x.size() == 4);
    points.released.insert(points.released.end(), x.begin(), x.end());
  }
  return points;
}

/// A lattice point whose squared norm is `units` * 2^-40 (Lagrange: every
/// integer is a sum of four squares; found by search for small `units`).
std::vector<double> PointAtNorm(int64_t units) {
  for (int64_t a = 0; a * a <= units; ++a) {
    for (int64_t b = 0; a * a + b * b <= units; ++b) {
      for (int64_t c = 0; a * a + b * b + c * c <= units; ++c) {
        const int64_t rest = units - a * a - b * b - c * c;
        const int64_t d = static_cast<int64_t>(std::llround(std::sqrt(
            static_cast<double>(rest))));
        if (d * d == rest) {
          return {a * kStep, b * kStep, c * kStep, d * kStep};
        }
      }
    }
  }
  TRIPRIV_CHECK(false) << "no four-square split of " << units;
  return {};
}

/// NearestTiesInBand over `order` against the ascending scan over the
/// sorted full list (the reference's RefNearestTies).
void ExpectBandMatchesSortedScan(const LinkagePoints& points,
                                 const std::vector<size_t>& order,
                                 TieBandScratch* scratch,
                                 const std::string& where) {
  Matrix rel(points.rows, std::vector<double>(points.dims));
  for (size_t j = 0; j < points.rows; ++j) {
    for (size_t c = 0; c < points.dims; ++c) {
      rel[j][c] = points.candidate(j)[c];
    }
  }
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<size_t> want = RefNearestTies(
      std::vector<double>(points.probe(0), points.probe(0) + points.dims),
      rel, sorted);
  std::vector<size_t> got = {12345};  // cleared by the call
  NearestTiesInBand(points, points.probe(0), order, scratch, &got);
  EXPECT_EQ(got, want) << where;
}

/// Every permutation of rows 0..n-1 as the gather order.
void ExpectEveryOrderMatches(const std::vector<std::vector<double>>& released,
                             const std::string& where) {
  const LinkagePoints points = LatticePoints(released);
  std::vector<size_t> order(points.rows);
  std::iota(order.begin(), order.end(), size_t{0});
  TieBandScratch scratch;
  do {
    ExpectBandMatchesSortedScan(points, order, &scratch, where);
    if (::testing::Test::HasFailure()) return;
  } while (std::next_permutation(order.begin(), order.end()));
}

std::vector<std::vector<double>> AtNorms(const std::vector<int64_t>& units) {
  std::vector<std::vector<double>> out;
  for (int64_t u : units) out.push_back(PointAtNorm(u));
  return out;
}

TEST(TieBandTest, ChainOfNearTiesMatchesTheAscendingScan) {
  // Squared distances 4, 3, 2, 1, 0 (units of 2^-40) on rows 0-4: each row
  // is within 1e-12 of the previous one, so the ascending scan first ties
  // rows 0 and 1, restarts at row 2, ties row 3, and ends with {4} once row
  // 4 beats row 2 by more than 1e-12. A band of the minimum plus 3e-12
  // drops row 0 and ends with {3, 4}.
  const auto released = AtNorms({4, 3, 2, 1, 0});
  const LinkagePoints points = LatticePoints(released);
  std::vector<size_t> ties;
  NearestTies(points, points.probe(0), {0, 1, 2, 3, 4}, &ties);
  EXPECT_EQ(ties, std::vector<size_t>({4}));
  ExpectEveryOrderMatches(released, "chain 4..0");
  ExpectEveryOrderMatches(AtNorms({0, 1, 2, 3, 4}), "chain 0..4");
  ExpectEveryOrderMatches(AtNorms({2, 0, 4, 1, 3, 6, 5}), "chain mixed");
  ExpectEveryOrderMatches(AtNorms({9, 8, 7, 5, 4, 3}), "chain from 3");
  ExpectEveryOrderMatches(AtNorms({3, 3, 2, 2, 8, 1, 1}), "chain pairs");
}

TEST(TieBandTest, DuplicatesAndGapsMatchTheAscendingScan) {
  ExpectEveryOrderMatches(AtNorms({5, 5, 5, 5, 5}), "five duplicates");
  ExpectEveryOrderMatches(AtNorms({7, 2, 7, 2, 30, 2}), "duplicates + gap");
  ExpectEveryOrderMatches(AtNorms({40, 6, 50, 6, 7}), "duplicate pair");
  ExpectEveryOrderMatches(AtNorms({100, 104, 108, 112}), "no near ties");
  ExpectEveryOrderMatches(AtNorms({0, 0, 5, 5, 1}), "zero duplicates");
  ExpectEveryOrderMatches(AtNorms({17}), "one candidate");
  // No candidates at all.
  const LinkagePoints points = LatticePoints(AtNorms({1}));
  TieBandScratch scratch;
  std::vector<size_t> ties = {1};
  NearestTiesInBand(points, points.probe(0), {}, &scratch, &ties);
  EXPECT_TRUE(ties.empty());
}

TEST(TieBandTest, NanAndInfiniteCoordinatesMatchTheAscendingScan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> at_nan = {nan, 0.0, 0.0, 0.0};
  const std::vector<double> at_inf = {inf, 0.0, 0.0, 0.0};
  const std::vector<double> at_minus_inf = {0.0, -inf, kStep, 0.0};
  const std::vector<double> two_inf = {inf, -inf, 0.0, 0.0};
  auto with = [](std::vector<std::vector<double>> rows,
                 const std::vector<std::vector<double>>& extra) {
    rows.insert(rows.end(), extra.begin(), extra.end());
    return rows;
  };
  ExpectEveryOrderMatches({at_nan, at_nan, at_nan}, "all NaN");
  ExpectEveryOrderMatches({at_inf, at_minus_inf, two_inf}, "all infinite");
  ExpectEveryOrderMatches({at_nan, at_inf, at_nan, two_inf}, "NaN + inf");
  ExpectEveryOrderMatches(with(AtNorms({3, 2, 1}), {at_nan, at_inf}),
                          "chain + NaN + inf");
  ExpectEveryOrderMatches(with(AtNorms({6, 6}), {at_minus_inf, at_nan}),
                          "pair + -inf + NaN");
  ExpectEveryOrderMatches(
      with(AtNorms({4, 3, 2}), {at_nan, at_nan, at_inf, at_minus_inf}),
      "chain + two NaN + two inf");
}

TEST(TieBandTest, LargeOffsetsWhereOneUlpExceedsTheEpsilon) {
  // Candidates near 10^6 from a probe at the origin: squared distances near
  // 10^12, whose ulp (2^-13) is far above 1e-12, so ties are exact equals
  // after rounding and a run of distances one ulp apart chains through the
  // band's relative term (2^-50 * u, about 7 ulps here).
  Rng rng(17);
  auto offset_point = [&](int64_t spread) {
    return std::vector<double>{
        1e6 + static_cast<double>(rng.UniformInt(0, 2)) * kStep,
        static_cast<double>(rng.UniformInt(0, spread)) * kStep,
        static_cast<double>(rng.UniformInt(0, spread)) * kStep,
        static_cast<double>(rng.UniformInt(0, spread)) * kStep};
  };
  for (int64_t spread : {int64_t{0}, int64_t{3}, int64_t{4000},
                         int64_t{20000}, int64_t{60000}}) {
    for (size_t trial = 0; trial < 20; ++trial) {
      std::vector<std::vector<double>> released;
      for (size_t j = 0; j < 6; ++j) released.push_back(offset_point(spread));
      ExpectEveryOrderMatches(released, "offset 1e6, spread " +
                                            std::to_string(spread));
      if (HasFailure()) return;
    }
  }
}

TEST(TieBandTest, RandomLatticesMatchTheAscendingScanInShuffledOrder) {
  // Large candidate sets on small lattices (dense near-ties and exact
  // duplicates), with the odd NaN, infinite or far-offset candidate, in
  // random gather orders.
  Rng rng(23);
  TieBandScratch scratch;
  for (size_t trial = 0; trial < 300; ++trial) {
    const size_t m = 1 + rng.UniformU64(200);
    const int64_t top = 1 + static_cast<int64_t>(rng.UniformU64(6));
    std::vector<std::vector<double>> released;
    for (size_t j = 0; j < m; ++j) {
      std::vector<double> x(4);
      for (double& v : x) {
        v = static_cast<double>(rng.UniformInt(0, top)) * kStep;
      }
      const uint64_t odd = rng.UniformU64(40);
      if (odd == 0) x[rng.UniformU64(4)] = std::nan("");
      if (odd == 1) x[rng.UniformU64(4)] = -HUGE_VAL;
      if (odd == 2) x[0] += 1e6;
      released.push_back(std::move(x));
    }
    const LinkagePoints points = LatticePoints(released);
    std::vector<size_t> order(m);
    std::iota(order.begin(), order.end(), size_t{0});
    for (size_t shuffle = 0; shuffle < 8; ++shuffle) {
      rng.Shuffle(&order);
      // A strict subset too: blocked gathers never hold every row.
      const size_t keep = 1 + rng.UniformU64(m);
      const std::vector<size_t> subset(order.begin(), order.begin() + keep);
      ExpectBandMatchesSortedScan(points, order, &scratch,
                                  "random lattice " + std::to_string(trial));
      ExpectBandMatchesSortedScan(points, subset, &scratch,
                                  "random subset " + std::to_string(trial));
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace attack
}  // namespace tripriv
