// Ablation F: the utility cost of stacking privacy dimensions —
// the paper's closing research question ("the impact on data utility of
// offering the three dimensions of privacy ... should be investigated").
//
// Four deployments of the same 500-record trial dataset:
//   0 dims: publish original, serve plaintext queries
//   1 dim (respondent): k-anonymize (Section 6 recipe, microaggregation)
//   2 dims (respondent+owner): k-anonymize all attributes (generic PPDM)
//   3 dims (respondent+owner+user): 2-dim release + PIR for queries
// For each: the three empirical privacy scores, information loss, query
// answer error on a fixed statistical workload, and query latency class.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "attack/scoreboard.h"
#include "core/advisor.h"
#include "pir/aggregate.h"
#include "querydb/engine.h"
#include "sdc/information_loss.h"
#include "sdc/microaggregation.h"
#include "sdc/risk.h"
#include "table/datasets.h"

namespace tripriv {
namespace {

/// Average relative error of a fixed aggregate workload evaluated on
/// `release` versus the original.
double WorkloadError(const DataTable& original, const DataTable& release) {
  const std::vector<std::string> workload = {
      "SELECT AVG(blood_pressure) FROM t WHERE age >= 60",
      "SELECT COUNT(*) FROM t WHERE weight > 90",
      "SELECT AVG(cholesterol) FROM t WHERE height < 170",
      "SELECT SUM(blood_pressure) FROM t WHERE age < 40",
  };
  double err = 0.0;
  size_t counted = 0;
  for (const auto& sql : workload) {
    auto query = ParseQuery(sql);
    if (!query.ok()) continue;
    auto truth = ExecuteQuery(original, *query);
    auto masked = ExecuteQuery(release, *query);
    if (!truth.ok() || !masked.ok() || truth->value == 0.0) continue;
    err += std::fabs(masked->value - truth->value) / std::fabs(truth->value);
    ++counted;
  }
  return counted > 0 ? err / static_cast<double>(counted) : 0.0;
}

}  // namespace
}  // namespace tripriv

int main() {
  using namespace tripriv;
  std::printf("=== TriPriv ablation F: utility cost of 0/1/2/3 privacy "
              "dimensions (Section 6) ===\n");
  const DataTable data = MakeExtendedTrial(500, 29);
  const size_t k = 5;

  // Deployment releases.
  const DataTable original = data;
  auto resp_only = ApplySection6Recipe(data, k);  // QIs microaggregated
  if (!resp_only.ok()) return 1;
  // respondent + owner: also mask the confidential numeric attribute.
  std::vector<size_t> all_numeric;
  for (size_t c = 0; c < data.num_columns(); ++c) {
    if (data.schema().attribute(c).type != AttributeType::kCategorical) {
      all_numeric.push_back(c);
    }
  }
  auto resp_owner = MdavMicroaggregate(data, k, all_numeric);
  if (!resp_owner.ok()) return 1;

  struct Deployment {
    const char* name;
    const DataTable* release;
    bool pir;
  } deployments[] = {
      {"0 dims: original + plaintext queries", &original, false},
      {"1 dim : k-anon QIs (Section 6 recipe)", &resp_only->release, false},
      {"2 dims: k-anon all numeric attributes", &resp_owner->table, false},
      {"3 dims: 2-dim release + PIR queries", &resp_owner->table, true},
  };

  std::printf("\n%-40s  %6s  %6s  %6s  %8s  %10s  %12s\n", "deployment",
              "resp", "owner", "user", "IL1s", "query err", "query cost");
  for (const auto& dep : deployments) {
    // Empirical scores via the linkage and owner-recovery attacks of the
    // Table 2 scoreboard.
    auto linkage = DistanceLinkageAttack(data, *dep.release);
    if (!linkage.ok()) return 1;
    auto recovery =
        attack::RunDatasetRecoveryAttack(data, *dep.release, 2.0, {});
    if (!recovery.ok()) return 1;
    const double resp_score = 1.0 - linkage->correct_fraction;
    const double owner_score = recovery->protection_score();
    const double user_score = dep.pir ? 1.0 : 0.0;  // PIR hides predicates

    auto loss = MeasureInformationLoss(data, *dep.release, all_numeric);
    if (!loss.ok()) return 1;
    const double query_err = WorkloadError(data, *dep.release);

    // Query cost class: time one COUNT through the deployment's channel.
    double millis = 0.0;
    {
      const auto start = std::chrono::steady_clock::now();
      if (dep.pir) {
        std::vector<GridAxis> grid{{"age", 25, 85, 2},
                                   {"height", 140, 205, 2}};
        auto server = PrivateAggregateServer::Build(*dep.release, grid);
        auto client = PrivateAggregateClient::Create(256, 37);
        if (server.ok() && client.ok()) {
          auto count = client->Count(
              *server, Predicate::Compare("age", CompareOp::kGe, Value(61)));
          if (!count.ok()) return 1;
        }
      } else {
        auto query = ParseQuery("SELECT COUNT(*) FROM t WHERE age >= 61");
        if (query.ok()) {
          auto answer = ExecuteQuery(*dep.release, *query);
          if (!answer.ok()) return 1;
        }
      }
      millis = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    }
    std::printf("%-40s  %6.2f  %6.2f  %6.2f  %8.3f  %9.1f%%  %9.1f ms\n",
                dep.name, resp_score, owner_score, user_score, loss->il1s,
                100.0 * query_err, millis);
  }
  std::printf("\npaper's shape: each added dimension costs utility (IL1s, "
              "workload error) and/or\nlatency, but the Section 6 recipe "
              "keeps aggregate answers usable while covering\nall three "
              "dimensions — 'privacy for everyone' at a bounded penalty.\n");
  return 0;
}
