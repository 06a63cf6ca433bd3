// Private search: user privacy with PIR — and the Section 3 cautionary
// tale about running it over non-anonymized data.
//
// Build & run:  ./build/examples/private_search
//
// A medical registry serves queries. Users do not want the registry to
// learn what they search for (the paper's AOL-scandal motivation). This
// example exercises the whole user-privacy stack:
//   * 2-server XOR PIR record retrieval (the d = 1 hypercube scheme),
//   * keyword PIR lookup by patient id,
//   * single-server computational PIR,
//   * private aggregate COUNT/AVG queries — first reproducing the
//     Section 3 re-identification attack on raw data, then the fix.

#include <cstdio>
#include <string>

#include "pir/aggregate.h"
#include "pir/cpir.h"
#include "pir/it_pir.h"
#include "pir/keyword_pir.h"
#include "pir/recursive_pir.h"
#include "sdc/microaggregation.h"
#include "table/datasets.h"

using namespace tripriv;

int main() {
  Rng rng(2024);

  // --- Record retrieval with 2-server PIR.
  std::printf("--- 2-server XOR PIR over the trial registry\n");
  const DataTable registry = MakeClinicalTrial(64, 7);
  std::vector<std::vector<uint8_t>> records;
  for (size_t r = 0; r < registry.num_rows(); ++r) {
    std::string text;
    for (size_t c = 0; c < registry.num_columns(); ++c) {
      text += registry.at(r, c).ToDisplayString() + "|";
    }
    text.resize(48, ' ');
    records.emplace_back(text.begin(), text.end());
  }
  auto server_a = XorPirServer::Create(records);
  auto server_b = XorPirServer::Create(records);
  auto geometry = HypercubeGeometry::Balanced(records.size(), 1);
  if (!server_a.ok() || !server_b.ok() || !geometry.ok()) return 1;
  PirStats stats;
  auto record = RecursivePirRead({&*server_a, &*server_b}, *geometry, 17, &rng,
                                 /*pool=*/nullptr, &stats);
  if (!record.ok()) return 1;
  std::printf("retrieved record 17: %s\n",
              std::string(record->begin(), record->end()).c_str());
  std::printf("cost: %zu bits up, %zu bits down; each server saw only a "
              "uniformly random bitmap.\n\n",
              stats.upload_bits, stats.download_bits);

  // --- Keyword PIR: look up by patient id.
  std::printf("--- keyword PIR: lookup by patient id\n");
  std::vector<std::pair<uint64_t, uint64_t>> index;
  for (uint64_t r = 0; r < registry.num_rows(); ++r) {
    index.emplace_back(1000 + r * 3, r);  // patient id -> record position
  }
  auto store = KeywordPirStore::Create(index);
  if (!store.ok()) return 1;
  stats.Reset();  // PirStats accumulates; count the lookup on its own
  auto pos = store->Lookup(1051, &rng, &stats);
  if (!pos.ok()) return 1;
  if (pos->has_value()) {
    std::printf("patient 1051 is record %llu (found via %zu-bit private "
                "binary search)\n\n",
                static_cast<unsigned long long>(**pos), stats.upload_bits);
  }

  // --- Single-server computational PIR.
  std::printf("--- single-server computational PIR (Paillier)\n");
  std::vector<uint64_t> bp_column;
  for (size_t r = 0; r < registry.num_rows(); ++r) {
    bp_column.push_back(static_cast<uint64_t>(registry.at(r, 2).AsInt()));
  }
  auto cpir_server = CpirServer::Create(bp_column);
  auto cpir_client = CpirClient::Create(256, 11);
  if (!cpir_server.ok() || !cpir_client.ok()) return 1;
  auto value = cpir_client->Read(&*cpir_server, 17);
  if (!value.ok()) return 1;
  std::printf("blood pressure of record 17: %llu (server computed on "
              "ciphertexts; %zu ciphertexts up, %zu down)\n\n",
              static_cast<unsigned long long>(*value),
              cpir_client->last_upload_ciphertexts(),
              cpir_client->last_download_ciphertexts());

  // --- The Section 3 attack and its remedy.
  std::printf("--- Section 3: PIR on raw data lets a user re-identify a "
              "respondent\n");
  const std::vector<GridAxis> grid{{"height", 140, 205, 1},
                                   {"weight", 40, 160, 1}};
  const Predicate isolating = Predicate::And(
      Predicate::Compare("height", CompareOp::kLt, Value(165)),
      Predicate::Compare("weight", CompareOp::kGt, Value(105)));
  auto agg_server = PrivateAggregateServer::Build(PaperDataset2(), grid);
  auto agg_client = PrivateAggregateClient::Create(256, 13);
  if (!agg_server.ok() || !agg_client.ok()) return 1;
  auto count = agg_client->Count(*agg_server, isolating);
  auto avg = agg_client->Average(*agg_server, "blood_pressure", isolating);
  if (count.ok() && avg.ok()) {
    std::printf("COUNT(height<165 AND weight>105) = %llu; AVG(blood_pressure) "
                "= %.0f\n",
                static_cast<unsigned long long>(*count), *avg);
    std::printf("-> one short, heavy respondent is identified with blood "
                "pressure %.0f — an insurer\n   could reject Mr./Mrs. X's "
                "life insurance (the paper's exact scenario).\n",
                *avg);
  }
  std::printf("\n--- remedy: 3-anonymize before serving PIR (Section 6)\n");
  auto masked = MdavMicroaggregate(PaperDataset2(), 3);
  if (!masked.ok()) return 1;
  auto safe_server = PrivateAggregateServer::Build(masked->table, grid);
  if (!safe_server.ok()) return 1;
  auto safe_count = agg_client->Count(*safe_server, isolating);
  if (safe_count.ok()) {
    std::printf("same query on the anonymized registry: COUNT = %llu "
                "(no isolation possible).\n",
                static_cast<unsigned long long>(*safe_count));
  }
  return 0;
}
