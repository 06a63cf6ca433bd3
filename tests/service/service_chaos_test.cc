// Chaos suite for the query service (ISSUE: robustness). Seed-deterministic
// workloads run against seed-deterministic adversity — backend drops,
// crashes mid-answer, WAL short writes and sync failures, torn log tails,
// load bursts — and four invariants must hold in every run:
//
//   1. every outcome is a protected answer, a DP-degraded answer, or a
//      TYPED refusal — never an unprotected value, never a CHECK-abort;
//   2. faults only turn answers into refusals: whatever a faulty run
//      answers, the healthy run over the same workload answered too, and a
//      healthy policy refusal is refused in every faulty run;
//   3. audit safety of acknowledged answers: every pair of answered query
//      sets has an empty or >= t symmetric difference, and sizes stay in
//      [t, n - t], even across crashes, restarts, and WAL faults;
//   4. monotone recovery: after any crash + restart, the recovered audit
//      state and epsilon spend cover every answer a client ever saw.
//
// Run on its own with `ctest -L chaos`.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <vector>

#include "service/query_service.h"
#include "table/datasets.h"
#include "util/checksum.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tripriv {
namespace {

constexpr size_t kTableRows = 48;
constexpr size_t kMinSetSize = 3;

DataTable ChaosTable() { return MakeClinicalTrial(kTableRows, 5); }

// Seed-deterministic COUNT/SUM threshold queries. COUNT and SUM never fail
// semantically (SUM over an empty selection is 0), so in a fault-free run
// "answered" coincides exactly with "policy admitted" — the property the
// subset invariant below leans on. AVG is deliberately absent: it errors on
// empty selections, which would let a degraded DP path "answer" a query the
// healthy run refused for non-policy reasons.
std::vector<StatQuery> MakeWorkload(size_t n, uint64_t seed) {
  Rng rng(seed);
  const struct {
    const char* attr;
    int64_t lo;
    int64_t hi;
  } dims[] = {{"height", 150, 195},
              {"weight", 45, 115},
              {"blood_pressure", 135, 185}};
  std::vector<StatQuery> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    StatQuery query;
    query.table = "trial";
    if (rng.Bernoulli(0.5)) {
      query.fn = AggregateFn::kSum;
      query.attribute = "blood_pressure";
    }
    const auto& dim = dims[rng.UniformU64(3)];
    const int64_t threshold =
        dim.lo + static_cast<int64_t>(
                     rng.UniformU64(static_cast<uint64_t>(dim.hi - dim.lo)));
    query.where = Predicate::Compare(
        dim.attr, rng.Bernoulli(0.5) ? CompareOp::kLt : CompareOp::kGe,
        Value(threshold));
    queries.push_back(std::move(query));
  }
  return queries;
}

QueryServiceConfig BaseConfig() {
  QueryServiceConfig config;
  config.protection.mode = ProtectionMode::kAudit;
  config.protection.min_query_set_size = kMinSetSize;
  config.degrade_epsilon = 0.5;
  config.epsilon_budget = 64.0;
  // Generous queue: overload is exercised by its own test below.
  config.admission.capacity = 1024;
  config.admission.service_ticks = 1;
  return config;
}

std::vector<size_t> QuerySet(const DataTable& table, const StatQuery& query) {
  auto rows = query.where.MatchingRows(table);
  TRIPRIV_CHECK(rows.ok());
  return *rows;
}

bool Answered(const ServiceAnswer& outcome) {
  return outcome.tier != AnswerTier::kRefused;
}

// Invariant 1: a refusal carries a real status; an answer carries none.
void ExpectTyped(const ServiceAnswer& outcome, size_t index) {
  if (Answered(outcome)) {
    EXPECT_TRUE(outcome.refusal.ok()) << "query " << index;
    EXPECT_FALSE(outcome.answer.refused) << "query " << index;
  } else {
    EXPECT_FALSE(outcome.refusal.ok())
        << "query " << index << ": untyped refusal";
  }
}

// Invariant 3 over the query sets of all acknowledged answers.
void ExpectPairwiseAuditSafe(const std::vector<std::vector<size_t>>& sets) {
  for (const auto& set : sets) {
    EXPECT_GE(set.size(), kMinSetSize);
    EXPECT_LE(set.size(), kTableRows - kMinSetSize);
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = i + 1; j < sets.size(); ++j) {
      std::vector<size_t> sym_diff;
      std::set_symmetric_difference(sets[i].begin(), sets[i].end(),
                                    sets[j].begin(), sets[j].end(),
                                    std::back_inserter(sym_diff));
      EXPECT_TRUE(sym_diff.empty() || sym_diff.size() >= kMinSetSize)
          << "answered sets " << i << " and " << j << " differ in "
          << sym_diff.size() << " records — an audit-rule violation";
    }
  }
}

// Runs `workload` to completion, restarting the service (after dropping
// unsynced bytes from `crash_device`) whenever a fault plan crashes it.
struct RunResult {
  std::vector<ServiceAnswer> outcomes;
  size_t crashes = 0;
  ServiceStats total_stats;  ///< summed over every incarnation
  double final_epsilon_spent = 0.0;
  std::vector<std::vector<size_t>> final_answered_sets;
};

void Accumulate(const ServiceStats& stats, ServiceStats* total) {
  total->received += stats.received;
  total->protected_answers += stats.protected_answers;
  total->dp_answers += stats.dp_answers;
  total->refusals += stats.refusals;
  total->policy_refusals += stats.policy_refusals;
  total->shed += stats.shed;
  total->degraded_attempts += stats.degraded_attempts;
  total->wal_append_failures += stats.wal_append_failures;
}

RunResult RunWithRestarts(const DataTable& table,
                          const QueryServiceConfig& config, WalIo* io,
                          MemWalIo* crash_device,
                          const std::vector<StatQuery>& workload) {
  RunResult result;
  auto service = QueryService::Create(table, config, io);
  TRIPRIV_CHECK(service.ok()) << service.status().ToString();
  for (const auto& query : workload) {
    if (service->crashed()) {
      ++result.crashes;
      Accumulate(service->stats(), &result.total_stats);
      crash_device->SimulateCrash();
      service = QueryService::Create(table, config, io);
      TRIPRIV_CHECK(service.ok()) << service.status().ToString();
    }
    result.outcomes.push_back(service->Submit(query));
  }
  Accumulate(service->stats(), &result.total_stats);
  result.final_epsilon_spent = service->epsilon_spent();
  result.final_answered_sets = service->audit_policy().answered_sets();
  return result;
}

TEST(ServiceChaosTest, EveryOutcomeIsTypedUnderBackendFaults) {
  const DataTable table = ChaosTable();
  const auto workload = MakeWorkload(60, 21);
  QueryServiceConfig config = BaseConfig();
  config.faults.backend_fault_rate = 0.4;
  config.faults.dp_fault_rate = 0.3;
  MemWalIo io;
  auto result = RunWithRestarts(table, config, &io, &io, workload);

  ASSERT_EQ(result.outcomes.size(), workload.size());
  for (size_t i = 0; i < result.outcomes.size(); ++i) {
    ExpectTyped(result.outcomes[i], i);
  }
  // The fault rates actually exercised both ladder rungs.
  EXPECT_GT(result.total_stats.degraded_attempts, 0u);
  EXPECT_GT(result.total_stats.dp_answers, 0u);
  // The stats ledger balances: every request is answered or refused.
  EXPECT_EQ(result.total_stats.received,
            result.total_stats.protected_answers +
                result.total_stats.dp_answers + result.total_stats.refusals);
}

TEST(ServiceChaosTest, FaultsOnlyTurnAnswersIntoRefusals) {
  const DataTable table = ChaosTable();
  const auto workload = MakeWorkload(60, 22);
  const QueryServiceConfig healthy_config = BaseConfig();
  MemWalIo healthy_io;
  const auto healthy =
      RunWithRestarts(table, healthy_config, &healthy_io, &healthy_io,
                      workload);
  ASSERT_EQ(healthy.crashes, 0u);

  QueryServiceConfig faulty_config = BaseConfig();
  faulty_config.faults.backend_fault_rate = 0.5;
  faulty_config.faults.dp_fault_rate = 0.4;
  MemWalIo faulty_io;
  const auto faulty =
      RunWithRestarts(table, faulty_config, &faulty_io, &faulty_io, workload);

  for (size_t i = 0; i < workload.size(); ++i) {
    if (Answered(faulty.outcomes[i])) {
      // Invariant 2: a faulty answer implies a healthy answer. The policy
      // stage runs before any fault can strike, so its verdict is
      // identical in both runs.
      EXPECT_TRUE(Answered(healthy.outcomes[i]))
          << "query " << i << " answered under faults but refused healthy";
    }
    if (faulty.outcomes[i].tier == AnswerTier::kProtected) {
      // Exact answers are exact regardless of the faults around them.
      EXPECT_EQ(faulty.outcomes[i].answer.value,
                healthy.outcomes[i].answer.value)
          << "query " << i;
    }
    if (!Answered(healthy.outcomes[i]) &&
        healthy.outcomes[i].refusal.code() == StatusCode::kPermissionDenied) {
      // A healthy policy refusal stays refused no matter what breaks.
      EXPECT_FALSE(Answered(faulty.outcomes[i])) << "query " << i;
    }
  }
}

TEST(ServiceChaosTest, ChaosIsSeedDeterministic) {
  const DataTable table = ChaosTable();
  const auto workload = MakeWorkload(40, 23);
  QueryServiceConfig config = BaseConfig();
  config.faults.backend_fault_rate = 0.3;
  config.faults.crash_mid_answer_rate = 0.1;

  auto run = [&] {
    MemWalIo io;
    return RunWithRestarts(table, config, &io, &io, workload);
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_EQ(first.outcomes[i].tier, second.outcomes[i].tier) << i;
    EXPECT_EQ(first.outcomes[i].refusal.code(),
              second.outcomes[i].refusal.code())
        << i;
    EXPECT_EQ(first.outcomes[i].answer.value, second.outcomes[i].answer.value)
        << i;
  }
  EXPECT_EQ(first.crashes, second.crashes);
  EXPECT_EQ(first.final_epsilon_spent, second.final_epsilon_spent);
}

TEST(ServiceChaosTest, CrashRecoveryIsMonotone) {
  const DataTable table = ChaosTable();
  const auto workload = MakeWorkload(80, 24);
  QueryServiceConfig config = BaseConfig();
  config.faults.crash_mid_answer_rate = 0.15;
  config.faults.backend_fault_rate = 0.2;
  MemWalIo io;
  const auto result = RunWithRestarts(table, config, &io, &io, workload);
  ASSERT_GT(result.crashes, 0u) << "the chaos plan never crashed: tune seeds";

  // Invariant 4a: every acknowledged answer's admit decision is durable —
  // it survives every crash into the final recovered log.
  auto recovered = AuditWal::Recover(&io);
  ASSERT_TRUE(recovered.ok());
  std::vector<uint64_t> durable_admits;
  for (const auto& record : recovered->records) {
    if (record.type == WalRecordType::kDecision &&
        record.decision == WalDecision::kAdmitted) {
      durable_admits.push_back(record.query_id);
    }
  }
  std::vector<std::vector<size_t>> acked_sets;
  size_t acked_dp = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!Answered(result.outcomes[i])) continue;
    EXPECT_NE(std::find(durable_admits.begin(), durable_admits.end(),
                        result.outcomes[i].query_id),
              durable_admits.end())
        << "acked query " << i << " (id " << result.outcomes[i].query_id
        << ") has no durable admit record";
    acked_sets.push_back(QuerySet(table, workload[i]));
    if (result.outcomes[i].tier == AnswerTier::kDpDegraded) ++acked_dp;
  }

  // Invariant 4b: the final audit state covers every acked answer...
  for (const auto& set : acked_sets) {
    EXPECT_NE(std::find(result.final_answered_sets.begin(),
                        result.final_answered_sets.end(), set),
              result.final_answered_sets.end());
  }
  // ...and the recovered epsilon spend covers every acked DP answer.
  EXPECT_GE(result.final_epsilon_spent,
            config.degrade_epsilon * static_cast<double>(acked_dp) - 1e-9);
  EXPECT_LE(result.final_epsilon_spent, config.epsilon_budget + 1e-9);

  // Invariant 3 held across all the restarts.
  ExpectPairwiseAuditSafe(acked_sets);
}

TEST(ServiceChaosTest, WalFaultsNeverLeakUnauditedAnswers) {
  const DataTable table = ChaosTable();
  const auto workload = MakeWorkload(80, 25);
  QueryServiceConfig config = BaseConfig();
  config.faults.crash_mid_answer_rate = 0.08;
  MemWalIo device;
  WalFaultPlan wal_faults;
  wal_faults.short_write_rate = 0.25;
  wal_faults.sync_fail_rate = 0.15;
  FaultyWalIo io(&device, wal_faults);
  const auto result = RunWithRestarts(table, config, &io, &device, workload);

  for (size_t i = 0; i < result.outcomes.size(); ++i) {
    ExpectTyped(result.outcomes[i], i);
  }
  // The I/O fault plan actually bit, and each bite forced a refusal.
  EXPECT_GT(result.total_stats.wal_append_failures, 0u);

  // Ack-after-commit: even under short writes and failed syncs, every
  // acknowledged answer has a durable admit record on the raw device.
  auto recovered = AuditWal::Recover(&device);
  ASSERT_TRUE(recovered.ok());
  std::vector<uint64_t> durable_admits;
  for (const auto& record : recovered->records) {
    if (record.type == WalRecordType::kDecision &&
        record.decision == WalDecision::kAdmitted) {
      durable_admits.push_back(record.query_id);
    }
  }
  std::vector<std::vector<size_t>> acked_sets;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!Answered(result.outcomes[i])) continue;
    EXPECT_NE(std::find(durable_admits.begin(), durable_admits.end(),
                        result.outcomes[i].query_id),
              durable_admits.end())
        << "acked query " << i << " not durable despite ack-after-commit";
    acked_sets.push_back(QuerySet(table, workload[i]));
  }
  ExpectPairwiseAuditSafe(acked_sets);
  EXPECT_LE(result.final_epsilon_spent, config.epsilon_budget + 1e-9);
}

TEST(ServiceChaosTest, CorruptUnsyncedTailIsDiscardedOnRecovery) {
  const DataTable table = ChaosTable();
  const auto workload = MakeWorkload(30, 26);
  const QueryServiceConfig config = BaseConfig();
  MemWalIo io;
  const auto before = RunWithRestarts(table, config, &io, &io, workload);
  std::vector<std::vector<size_t>> acked_sets;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (Answered(before.outcomes[i])) {
      acked_sets.push_back(QuerySet(table, workload[i]));
    }
  }
  ASSERT_FALSE(acked_sets.empty());

  // Power loss mid-append: a torn frame (valid-looking header, truncated
  // payload) lands after the last durable record, and bit-rot flips a byte
  // in it for good measure. Only this unsynced suffix is damaged — acked
  // records are durable by ack-after-commit.
  const size_t durable_bytes = io.size();
  auto appended = io.Append({0x40, 0x00, 0x00, 0x00, 0xAB, 0xCD, 0xEF});
  ASSERT_TRUE(appended.ok());
  io.CorruptByte(io.size() - 1);

  // Recovery truncates exactly the torn tail and keeps every acked record.
  auto recovered = AuditWal::Recover(&io);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(io.size(), durable_bytes);

  // The restarted service still refuses overlaps with the old answers:
  // re-submitting an acked query minus one record must be refused.
  auto service = QueryService::Create(table, config, &io);
  ASSERT_TRUE(service.ok());
  for (const auto& set : acked_sets) {
    EXPECT_NE(std::find(service->audit_policy().answered_sets().begin(),
                        service->audit_policy().answered_sets().end(), set),
              service->audit_policy().answered_sets().end());
  }
  const auto more = MakeWorkload(30, 27);
  std::vector<std::vector<size_t>> all_acked = acked_sets;
  for (const auto& query : more) {
    if (Answered(service->Submit(query))) {
      all_acked.push_back(QuerySet(table, query));
    }
  }
  ExpectPairwiseAuditSafe(all_acked);
}

TEST(ServiceChaosTest, OverloadBurstShedsTypedAndRecovers) {
  const DataTable table = ChaosTable();
  QueryServiceConfig config = BaseConfig();
  config.admission.capacity = 2;
  config.admission.service_ticks = 512;
  MemWalIo io;
  auto service = QueryService::Create(table, config, &io);
  ASSERT_TRUE(service.ok());

  // One mid-size query repeated: identical query sets have an empty
  // symmetric difference, so the policy admits every repetition and the
  // only refusals can come from load shedding.
  StatQuery query;
  query.table = "trial";
  query.where = Predicate::Compare("height", CompareOp::kLt, Value(172));

  size_t answered = 0;
  size_t shed = 0;
  for (int i = 0; i < 12; ++i) {
    const ServiceAnswer outcome = service->Submit(query);
    if (Answered(outcome)) {
      ++answered;
    } else {
      EXPECT_EQ(outcome.refusal.code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(outcome.refusal.transient());
      ++shed;
    }
  }
  EXPECT_EQ(answered, 2u);  // the queue held exactly `capacity` requests
  EXPECT_EQ(shed, 10u);
  EXPECT_EQ(service->stats().shed, 10u);

  // Monotone recovery of availability: once the queue drains with
  // simulated time, the same client is served again.
  service->sim_clock()->Advance(2 * 512);
  EXPECT_TRUE(Answered(service->Submit(query)));
}

// Request-by-request transcript of a ladder run, hashed with FNV-1a: each
// request contributes its outcome, status code and the clock after it.
class Transcript {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Add(const Status& status, uint64_t tick) {
    Add(static_cast<uint64_t>(status.code()));
    Add(tick);
  }
  uint64_t Digest() const { return Fnv1a64(bytes_.data(), bytes_.size()); }

 private:
  std::vector<uint8_t> bytes_;
};

// The three retry ladders (primary query path, private aggregate count,
// failover PIR read) under faults and tight deadlines, pinned to constants:
// rng order, simulated ticks, answers and counters must not move unless a
// change means them to. Request deadlines are tight only while the primary
// breaker is closed, and open_ticks exceeds any one ladder's backoff, so no
// half-open probe ever runs out of time here (an abandoned probe is
// QueryServiceTest.DeadlineDuringHalfOpenProbeDoesNotWedgeBreaker's case).
TEST(ServiceChaosTest, RetryLadderTranscriptsArePinned) {
  {  // Primary ladder: backend faults, every 7th request on a 1-5 tick budget.
    QueryServiceConfig config = BaseConfig();
    config.protection.mode = ProtectionMode::kQuerySetSize;
    config.faults.backend_fault_rate = 0.35;
    config.faults.dp_fault_rate = 0.1;
    config.faults.seed = 17;
    // After a trip its ladder charges at most one backoff (<= 4 ticks, under
    // open_ticks) before the breaker refuses or the ladder gives up.
    config.retry.max_attempts = 3;
    config.breaker.failure_threshold = 3;
    config.breaker.open_ticks = 20;
    config.breaker.open_jitter_ticks = 8;
    MemWalIo io;
    auto service = QueryService::Create(ChaosTable(), config, &io);
    ASSERT_TRUE(service.ok());
    SimClock* clock = service->sim_clock();
    Rng gaps(5);
    Transcript transcript;
    const std::vector<StatQuery> workload = MakeWorkload(150, 31);
    for (size_t i = 0; i < workload.size(); ++i) {
      clock->Advance(gaps.UniformU64(13));
      const bool tight = i % 7 == 0 && service->primary_breaker().state() ==
                                           BreakerState::kClosed;
      const ServiceAnswer outcome =
          tight ? service->Submit(workload[i],
                                  Deadline::After(*clock, 1 + i % 5))
                : service->Submit(workload[i]);
      transcript.Add(static_cast<uint64_t>(outcome.tier));
      transcript.Add(std::bit_cast<uint64_t>(outcome.answer.value));
      transcript.Add(outcome.refusal, clock->now());
    }
    const ServiceStats& stats = service->stats();
    EXPECT_EQ(clock->now(), 963u);
    EXPECT_EQ(stats.protected_answers, 79u);
    EXPECT_EQ(stats.dp_answers, 8u);
    EXPECT_EQ(stats.refusals, 63u);
    EXPECT_EQ(stats.policy_refusals, 57u);
    EXPECT_EQ(stats.degraded_attempts, 9u);
    EXPECT_EQ(service->primary_breaker().times_opened(), 3u);
    EXPECT_EQ(service->primary_breaker().rejected(), 7u);
    EXPECT_EQ(service->primary_breaker().half_open_probes(), 5u);
    EXPECT_EQ(service->dp_breaker().times_opened(), 0u);
    EXPECT_EQ(service->dp_breaker().rejected(), 0u);
    EXPECT_EQ(io.size(), 24756u);
    EXPECT_EQ(service->epsilon_spent(), 4.0);
    EXPECT_EQ(transcript.Digest(), 10382626388131453284ull);
  }

  {  // Aggregate ladder: replica faults over 3 replicas of a 182-cell grid.
    QueryServiceConfig config = BaseConfig();
    config.faults.aggregate_fault_rate = 0.6;
    config.faults.seed = 23;
    config.retry.max_attempts = 2;
    MemWalIo io;
    auto service = QueryService::Create(PaperDataset2(), config, &io);
    ASSERT_TRUE(service.ok());
    const std::vector<GridAxis> grid = {{"height", 140, 209, 5},
                                        {"weight", 40, 169, 10}};
    std::vector<PrivateAggregateServer> replicas;
    for (int r = 0; r < 3; ++r) {
      auto replica = PrivateAggregateServer::Build(PaperDataset2(), grid);
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      replicas.push_back(std::move(replica).value());
    }
    auto client = PrivateAggregateClient::Create(192, 3);
    ASSERT_TRUE(client.ok());
    Rng server_rng(21);
    service->AttachAggregateBackends({&replicas[0], &replicas[1], &replicas[2]},
                                     &*client, &server_rng);
    SimClock* clock = service->sim_clock();
    Transcript transcript;
    for (int i = 0; i < 12; ++i) {
      const Predicate predicate =
          i % 2 == 0 ? Predicate::Compare("height", CompareOp::kLt,
                                          Value(int64_t{150 + 5 * i}))
                     : Predicate::Compare("weight", CompareOp::kGe,
                                          Value(int64_t{50 + 10 * (i % 8)}));
      const Deadline deadline =
          i % 3 == 2 ? Deadline::After(*clock, 1) : Deadline();
      auto count = service->PrivateDpCount(predicate, deadline);
      transcript.Add(count.ok() ? static_cast<uint64_t>(*count) : 0);
      transcript.Add(count.status(), clock->now());
      clock->Advance(3);
    }
    EXPECT_EQ(clock->now(), 51u);
    EXPECT_EQ(service->stats().dp_answers, 9u);
    EXPECT_EQ(io.size(), 414u);
    EXPECT_EQ(service->epsilon_spent(), 4.5);
    EXPECT_EQ(transcript.Digest(), 7943069387888833643ull);
  }

  // Failover ladder at d = 1/2/3 over 3 groups: group 0 has a crashed
  // member, groups 1 and 2 a lying one. 32 KiB per replica, so the 2-thread
  // batch shards every sweep.
  std::vector<std::vector<uint8_t>> records(1024, std::vector<uint8_t>(24));
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = 0; j < records[i].size(); ++j) {
      records[i][j] = static_cast<uint8_t>(i * 31 + j);
    }
  }
  ThreadPool pool(2);
  const struct {
    size_t d;
    size_t failovers;
    size_t corrupt;
    uint64_t bytes_xored;
    uint64_t upload_bits;
    uint64_t tick;
    uint64_t digest;
  } kPinned[] = {
      {1, 80, 41, 4501536, 149056, 128, 120904730595144353ull},
      {2, 74, 35, 4340448, 33536, 135, 13564892577044384540ull},
      {3, 71, 33, 4387104, 38645, 89, 9265776998089224617ull},
  };
  for (const auto& pinned : kPinned) {
    RetryPolicy retry;
    retry.max_attempts = 4;
    SimClock clock;
    auto client = FailoverPirClient::BuildRecursive(records, 3, pinned.d,
                                                    retry, &clock, 41);
    ASSERT_TRUE(client.ok());
    const size_t gs = client->group_size();
    client->InjectFault(1, PirServerFault{.crashed = true});
    client->InjectFault(gs + gs - 1, PirServerFault{.corrupt_rate = 0.4});
    client->InjectFault(2 * gs, PirServerFault{.corrupt_rate = 0.15});
    Rng picks(pinned.d);
    Transcript transcript;
    auto add_read = [&](const Result<std::vector<uint8_t>>& read) {
      transcript.Add(read.ok() ? Fnv1a64(read->data(), read->size()) : 0);
      transcript.Add(read.status(), clock.now());
    };
    for (size_t i = 0; i < 60; ++i) {
      const Deadline deadline =
          i % 7 == 0 ? Deadline::After(clock, 1 + i % 5) : Deadline();
      add_read(client->Read(picks.UniformU64(records.size()), deadline));
    }
    std::vector<size_t> indices(40);
    for (size_t& index : indices) index = picks.UniformU64(records.size());
    for (const auto& read : client->ReadBatch(indices, Deadline(), &pool)) {
      add_read(read);
    }
    EXPECT_EQ(client->failovers(), pinned.failovers) << "d=" << pinned.d;
    EXPECT_EQ(client->corrupt_answers_detected(), pinned.corrupt)
        << "d=" << pinned.d;
    EXPECT_EQ(client->total_bytes_xored(), pinned.bytes_xored)
        << "d=" << pinned.d;
    EXPECT_EQ(client->sessions().total_upload_bits(), pinned.upload_bits)
        << "d=" << pinned.d;
    EXPECT_EQ(clock.now(), pinned.tick) << "d=" << pinned.d;
    EXPECT_EQ(transcript.Digest(), pinned.digest) << "d=" << pinned.d;
  }
}

}  // namespace
}  // namespace tripriv
