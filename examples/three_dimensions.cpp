// The full framework, end to end: pick technologies per required privacy
// dimension, deploy the Section 6 recipe, and verify all three dimensions
// empirically with the attack-measured Table 2 scoreboard.
//
// Build & run:  ./build/examples/three_dimensions

#include <cstdio>

#include "attack/scoreboard.h"
#include "core/advisor.h"
#include "pir/aggregate.h"
#include "sdc/anonymity.h"
#include "table/datasets.h"

using namespace tripriv;

int main() {
  // 1. Ask the advisor what to deploy for each requirement profile.
  std::printf("--- Section 6 advisor\n");
  struct Case {
    const char* label;
    PrivacyRequirements req;
  } cases[] = {
      {"user only (public search engine)", {false, false, true}},
      {"owner only (joint market analysis)", {false, true, false}},
      {"respondent only (census release)", {true, false, false}},
      {"respondent + owner", {true, true, false}},
      {"respondent + user", {true, false, true}},
      {"all three (healthcare registry)", {true, true, true}},
  };
  for (const auto& c : cases) {
    auto rec = RecommendTechnology(c.req);
    if (!rec.ok()) continue;
    std::printf("%-38s -> %s\n", c.label,
                TechnologyClassToString(rec->technology));
  }
  // The one forbidden composition, stated by Section 4:
  auto forbidden = ComposeWithPir(TechnologyClass::kCryptoPpdm);
  std::printf("crypto PPDM + PIR? %s\n\n", forbidden.status().message().c_str());

  // 2. Deploy the recipe for "all three" on a concrete registry.
  std::printf("--- deploying the Section 6 recipe (k-anonymize + PIR)\n");
  const DataTable registry = MakeExtendedTrial(400, 123);
  auto deployment = ApplySection6Recipe(registry, 5);
  if (!deployment.ok()) return 1;
  std::printf("release is %zu-anonymous on {age, height, weight, "
              "cholesterol}\n",
              deployment->anonymity_level);

  // Serve a user query through the PIR layer.
  std::vector<GridAxis> grid{{"age", 25, 85, 2}, {"weight", 40, 160, 4}};
  auto server = PrivateAggregateServer::Build(deployment->release, grid);
  auto client = PrivateAggregateClient::Create(256, 5);
  if (!server.ok() || !client.ok()) return 1;
  Predicate question = Predicate::And(
      Predicate::Compare("age", CompareOp::kGe, Value(61)),
      Predicate::Compare("weight", CompareOp::kGt, Value(92)));
  auto avg = client->Average(*server, "blood_pressure", question);
  if (avg.ok()) {
    std::printf("private query: AVG(blood_pressure | age>=61, weight>92) = "
                "%.1f mmHg — the registry saw ciphertexts only.\n\n",
                *avg);
  }

  // 3. Verify every Table 2 row empirically on this registry.
  std::printf("--- empirical Table 2 on this registry\n");
  auto board = attack::RunEmpiricalTable2(registry,
                                          attack::ClinicalTable2Config(11), {});
  if (!board.ok()) return 1;
  std::printf("%s", board->RenderText().c_str());
  const attack::ScoreboardRow& deployed =
      board->row(TechnologyClass::kGenericNonCryptoPpdmPlusPir);
  std::printf("\nthe deployed class (generic non-crypto PPDM + PIR) scores:\n");
  std::printf("  respondent %.2f, owner %.2f, user %.2f — all three "
              "dimensions simultaneously.\n",
              deployed.cells[0].score(), deployed.cells[1].score(),
              deployed.cells[2].score());
  return 0;
}
