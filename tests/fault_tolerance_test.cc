// Probe lifecycle resilience: deadlines, cooperative cancellation, output
// budgets, deterministic fault injection, transparent retry, and the
// per-agent circuit breaker. The invariants here are the robustness
// contract of the paper's agent-first interface: an oversized or unlucky
// probe degrades into a partial or approximate answer (grounding the agent
// either way) instead of hanging, crashing, or poisoning shared state —
// and batch results stay byte-identical to fault-free serial execution for
// every probe that ultimately succeeds, at any thread count.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace agentfirst {
namespace {

/// Disarms the global fault registry around every test, so a failing test
/// cannot leak armed faults into its neighbors.
class FaultToleranceTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    FaultRegistry::Global().Disable();
    FaultRegistry::Global().ClearArmed();
  }
  void TearDown() override {
    FaultRegistry::Global().Disable();
    FaultRegistry::Global().ClearArmed();
  }

  /// Engine + catalog with one `big` table of `rows` rows, inserted in
  /// chunks so the SQL stays parseable.
  void BuildBig(size_t rows) {
    engine_ = std::make_unique<Engine>(&catalog_);
    auto run = [&](const std::string& sql) {
      auto r = engine_->ExecuteSql(sql);
      ASSERT_TRUE(r.ok()) << sql.substr(0, 80) << " -> " << r.status().ToString();
    };
    run("CREATE TABLE big (id BIGINT, grp BIGINT, amount DOUBLE)");
    size_t inserted = 0;
    while (inserted < rows) {
      std::string insert = "INSERT INTO big VALUES ";
      for (size_t i = 0; i < 512 && inserted < rows; ++i, ++inserted) {
        if (i > 0) insert += ",";
        insert += "(" + std::to_string(inserted) + "," +
                  std::to_string(inserted % 17) + "," +
                  std::to_string((inserted * 31) % 1000) + ".0)";
      }
      run(insert);
    }
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

// ---------------------------------------------------------------------------
// Deadlines: partial results, never hangs
// ---------------------------------------------------------------------------

TEST_P(FaultToleranceTest, OversizedJoinTruncatesAtDeadline) {
  const size_t threads = GetParam();
  BuildBig(4096);
  // 4096 x 4096 = ~16.8M nested-loop pairs: far more work than 50ms.
  ExecOptions options;
  options.num_threads = threads;
  options.limits.DeadlineMillis(50.0);
  auto start = std::chrono::steady_clock::now();
  auto result =
      engine_->ExecuteSql("SELECT * FROM big a CROSS JOIN big b", options);
  auto elapsed = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  AF_ASSERT_OK_RESULT(result);
  EXPECT_TRUE((*result)->truncated);
  EXPECT_EQ((*result)->interrupt, StatusCode::kDeadlineExceeded);
  // Partial: some prefix of the cross product, strictly less than all of it.
  EXPECT_LT((*result)->NumRows(), 4096u * 4096u);
  // "Within one morsel of the deadline": the generous bound still rules out
  // having computed the full cross product (seconds of work).
  EXPECT_LT(elapsed, 5000.0) << "deadline did not stop the join";
}

TEST_P(FaultToleranceTest, ExpiredDeadlineShortCircuitsParallelPlan) {
  const size_t threads = GetParam();
  BuildBig(8192);
  ExecOptions options;
  options.num_threads = threads;
  options.limits.DeadlineMillis(0.0);  // expires immediately
  auto result = engine_->ExecuteSql(
      "SELECT a.id, b.amount FROM big a JOIN big b ON a.id = b.id", options);
  AF_ASSERT_OK_RESULT(result);
  EXPECT_TRUE((*result)->truncated);
  EXPECT_EQ((*result)->interrupt, StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*result)->NumRows(), 0u);
}

TEST_P(FaultToleranceTest, UnconstrainedExecutionIsUnchanged) {
  const size_t threads = GetParam();
  BuildBig(4096);
  ExecOptions options;
  options.num_threads = threads;
  auto result = engine_->ExecuteSql(
      "SELECT grp, count(*) FROM big GROUP BY grp ORDER BY grp", options);
  AF_ASSERT_OK_RESULT(result);
  EXPECT_FALSE((*result)->truncated);
  EXPECT_EQ((*result)->interrupt, StatusCode::kOk);
  EXPECT_EQ((*result)->NumRows(), 17u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation: an error, not a partial answer
// ---------------------------------------------------------------------------

TEST_P(FaultToleranceTest, CancelledTokenFailsPlanWithkCancelled) {
  const size_t threads = GetParam();
  BuildBig(4096);
  CancellationSource source;
  source.RequestCancel();
  ExecOptions options;
  options.num_threads = threads;
  options.cancel = source.token();
  auto result = engine_->ExecuteSql("SELECT * FROM big", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_P(FaultToleranceTest, MidFlightCancellationStopsOversizedJoin) {
  const size_t threads = GetParam();
  BuildBig(4096);
  CancellationSource source;
  ExecOptions options;
  options.num_threads = threads;
  options.cancel = source.token();
  // Cancel from a second thread shortly after the join starts. The canceller
  // must live outside the pool under test or it could be starved by the very
  // join it is supposed to interrupt. aflint:allow(raw-thread)
  std::thread canceller([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.RequestCancel();
  });
  auto start = std::chrono::steady_clock::now();
  auto result =
      engine_->ExecuteSql("SELECT * FROM big a CROSS JOIN big b", options);
  auto elapsed = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(elapsed, 5000.0);
}

// ---------------------------------------------------------------------------
// Output budgets
// ---------------------------------------------------------------------------

TEST_P(FaultToleranceTest, RowBudgetTruncatesWithResourceExhausted) {
  const size_t threads = GetParam();
  BuildBig(8192);
  ExecOptions options;
  options.num_threads = threads;
  options.limits.MaxRows(1000);
  auto result = engine_->ExecuteSql("SELECT id FROM big", options);
  AF_ASSERT_OK_RESULT(result);
  EXPECT_TRUE((*result)->truncated);
  EXPECT_EQ((*result)->interrupt, StatusCode::kResourceExhausted);
  EXPECT_LT((*result)->NumRows(), 8192u);
  EXPECT_GT((*result)->NumRows(), 0u);
}

TEST_P(FaultToleranceTest, ByteBudgetTruncatesWithResourceExhausted) {
  const size_t threads = GetParam();
  BuildBig(8192);
  ExecOptions options;
  options.num_threads = threads;
  options.limits.MaxBytes(16 * 1024);
  auto result = engine_->ExecuteSql("SELECT * FROM big", options);
  AF_ASSERT_OK_RESULT(result);
  EXPECT_TRUE((*result)->truncated);
  EXPECT_EQ((*result)->interrupt, StatusCode::kResourceExhausted);
  EXPECT_LT((*result)->NumRows(), 8192u);
}

// ---------------------------------------------------------------------------
// Injected morsel faults: clean errors, engine stays usable
// ---------------------------------------------------------------------------

TEST_P(FaultToleranceTest, InjectedScanFaultFailsPlanCleanly) {
  const size_t threads = GetParam();
  BuildBig(4096);
  FaultRegistry::Global().Enable(/*seed=*/11);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 1.0;
  spec.max_fires = 1;
  FaultRegistry::Global().Arm("exec.scan.begin", spec);

  ExecOptions options;
  options.num_threads = threads;
  auto failed = engine_->ExecuteSql("SELECT id FROM big", options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(IsRetryable(failed.status()));

  // The fault healed (max_fires=1): the same engine answers correctly.
  auto healed = engine_->ExecuteSql("SELECT id FROM big", options);
  AF_ASSERT_OK_RESULT(healed);
  EXPECT_EQ((*healed)->NumRows(), 4096u);
  EXPECT_FALSE((*healed)->truncated);
}

// Each batch operator's morsel fault site fires at every thread count, one
// included, and fails the plan with kAborted; disarmed, the same engine
// answers in full. Engine::ExecuteSql runs no rewrite rules, so the WHERE
// stays a Filter node above the scan.
TEST_P(FaultToleranceTest, InjectedMorselFaultAbortsEachBatchOperator) {
  BuildBig(8192);
  const std::pair<const char*, const char*> cases[] = {
      {"exec.scan.morsel", "SELECT id FROM big WHERE id >= 0"},
      {"exec.filter.morsel", "SELECT id FROM big WHERE id >= 0"},
      {"exec.project.morsel", "SELECT id + 1 FROM big"},
      {"exec.join.probe.morsel",
       "SELECT a.id FROM big a JOIN big b ON a.id = b.id"},
  };
  FaultRegistry::Global().Enable(/*seed=*/13);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 1.0;
  spec.max_fires = 1;
  ExecOptions options;
  options.num_threads = GetParam();
  for (const auto& [site, sql] : cases) {
    SCOPED_TRACE(site);
    FaultRegistry::Global().Arm(site, spec);
    auto failed = engine_->ExecuteSql(sql, options);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kAborted);
    FaultRegistry::Global().ClearArmed();
    auto healed = engine_->ExecuteSql(sql, options);
    AF_ASSERT_OK_RESULT(healed);
    EXPECT_EQ((*healed)->NumRows(), 8192u);
  }
}

TEST_P(FaultToleranceTest, LatencyFaultDelaysButCompletes) {
  const size_t threads = GetParam();
  BuildBig(4096);
  FaultRegistry::Global().Enable(/*seed=*/17);
  FaultSpec spec;
  spec.kind = FaultKind::kLatency;
  spec.latency_ms = 5;
  spec.probability = 1.0;
  spec.max_fires = 2;
  FaultRegistry::Global().Arm("exec.scan.begin", spec);

  ExecOptions options;
  options.num_threads = threads;
  auto result = engine_->ExecuteSql("SELECT count(*) FROM big", options);
  AF_ASSERT_OK_RESULT(result);
  EXPECT_EQ((*result)->rows[0][0].int_value(), 4096);
}

INSTANTIATE_TEST_SUITE_P(Threads, FaultToleranceTest,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Probe layer: partial answers, degradation, retry, breaker, cancellation
// ---------------------------------------------------------------------------

class ProbeResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Global().Disable();
    FaultRegistry::Global().ClearArmed();
  }
  void TearDown() override {
    FaultRegistry::Global().Disable();
    FaultRegistry::Global().ClearArmed();
  }

  std::unique_ptr<AgentFirstSystem> BuildSystem(
      AgentFirstSystem::Options options = {}, size_t rows = 4096) {
    auto system = std::make_unique<AgentFirstSystem>(options);
    auto run = [&](const std::string& sql) {
      auto r = system->ExecuteSql(sql);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    };
    run("CREATE TABLE big (id BIGINT, grp BIGINT, amount DOUBLE)");
    size_t inserted = 0;
    while (inserted < rows) {
      std::string insert = "INSERT INTO big VALUES ";
      for (size_t i = 0; i < 512 && inserted < rows; ++i, ++inserted) {
        if (i > 0) insert += ",";
        insert += "(" + std::to_string(inserted) + "," +
                  std::to_string(inserted % 17) + "," +
                  std::to_string((inserted * 31) % 1000) + ".0)";
      }
      run(insert);
    }
    return system;
  }
};

TEST_F(ProbeResilienceTest, DeadlineYieldsPartialAnswerNotHang) {
  auto system = BuildSystem();
  Probe probe;
  probe.agent_id = "deadline-agent";
  probe.queries = {"SELECT * FROM big a CROSS JOIN big b"};
  probe.brief.phase = ProbePhase::kValidation;  // exact: no AQP degrade
  probe.brief.limits.DeadlineMillis(50.0);
  auto response = system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(response);
  const QueryAnswer& answer = response->answers[0];
  EXPECT_TRUE(answer.truncated);
  EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_NE(answer.result, nullptr);
  EXPECT_LT(answer.result->NumRows(), 4096u * 4096u);
}

TEST_F(ProbeResilienceTest, TruncatedAnswersAreNeverReusedFromCachesOrMemory) {
  auto system = BuildSystem();
  Probe slow;
  slow.agent_id = "cache-agent";
  slow.queries = {"SELECT grp, count(*) FROM big GROUP BY grp ORDER BY grp"};
  slow.brief.phase = ProbePhase::kValidation;
  slow.brief.limits.DeadlineMillis(0.001);  // expires before the first morsel
  auto first = system->HandleProbe(slow);
  AF_ASSERT_OK_RESULT(first);
  ASSERT_TRUE(first->answers[0].truncated);

  // The same query without a deadline must produce the full 17 groups: a
  // cached or remembered partial answer would return fewer.
  Probe full = slow;
  full.brief.limits.deadline.reset();  // no deadline at all
  auto second = system->HandleProbe(full);
  AF_ASSERT_OK_RESULT(second);
  const QueryAnswer& answer = second->answers[0];
  ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  EXPECT_FALSE(answer.truncated);
  EXPECT_FALSE(answer.from_memory);
  ASSERT_NE(answer.result, nullptr);
  EXPECT_EQ(answer.result->NumRows(), 17u);
}

TEST_F(ProbeResilienceTest, ResultRowBudgetTruncatesAnswer) {
  auto system = BuildSystem();
  Probe probe;
  probe.queries = {"SELECT id FROM big"};
  probe.brief.phase = ProbePhase::kValidation;
  probe.brief.limits.MaxRows(500);
  auto response = system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(response);
  const QueryAnswer& answer = response->answers[0];
  EXPECT_TRUE(answer.truncated);
  EXPECT_EQ(answer.status.code(), StatusCode::kResourceExhausted);
  ASSERT_NE(answer.result, nullptr);
  EXPECT_LT(answer.result->NumRows(), 4096u);
}

TEST_F(ProbeResilienceTest, ExploratoryProbeDegradesToSamplingOnDeadline) {
  AgentFirstSystem::Options options;
  // Keep the first attempt exact (so the deadline can truncate it), leaving
  // the AQP path to the degrade retry. The 1% sample turns the 16.8M-pair
  // join into ~1.7k pairs, so the retry beats its fresh deadline even under
  // a sanitizer's slowdown, while the exact attempt can never finish in time.
  options.optimizer.exploration_cost_threshold = 1e15;
  options.optimizer.exploration_sample_rate = 0.01;
  auto system = BuildSystem(options);
  Probe probe;
  probe.agent_id = "explorer";
  probe.queries = {"SELECT count(*) FROM big a CROSS JOIN big b"};
  probe.brief.phase = ProbePhase::kStatExploration;
  probe.brief.limits.DeadlineMillis(150.0);
  auto response = system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(response);
  const QueryAnswer& answer = response->answers[0];
  // The exact attempt truncates; the degrade retry samples both scans and
  // finishes well inside a fresh deadline.
  ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
  EXPECT_FALSE(answer.truncated);
  EXPECT_TRUE(answer.approximate);
  ASSERT_NE(answer.result, nullptr);
  EXPECT_EQ(system->optimizer()->metrics().queries_degraded, 1u);
}

TEST_F(ProbeResilienceTest, TransientFaultsAreRetriedTransparently) {
  auto baseline_system = BuildSystem();
  Probe probe;
  probe.agent_id = "retry-agent";
  probe.queries = {"SELECT grp, count(*) FROM big GROUP BY grp ORDER BY grp",
                   "SELECT count(*) FROM big WHERE amount > 500"};
  probe.brief.phase = ProbePhase::kValidation;
  auto baseline = baseline_system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(baseline);

  // Fresh identical system, with the first two probe-level execution
  // attempts failing transiently (then the fault heals).
  auto faulty_system = BuildSystem();
  FaultRegistry::Global().Enable(/*seed=*/23);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 1.0;
  spec.code = StatusCode::kAborted;
  spec.max_fires = 2;
  FaultRegistry::Global().Arm("core.probe.query", spec);
  auto retried = faulty_system->HandleProbe(probe);
  FaultRegistry::Global().Disable();
  AF_ASSERT_OK_RESULT(retried);

  EXPECT_GT(retried->total_retries, 0u);
  ASSERT_EQ(retried->answers.size(), baseline->answers.size());
  for (size_t q = 0; q < retried->answers.size(); ++q) {
    const QueryAnswer& a = baseline->answers[q];
    const QueryAnswer& b = retried->answers[q];
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    ASSERT_NE(a.result, nullptr);
    ASSERT_NE(b.result, nullptr);
    ASSERT_EQ(a.result->NumRows(), b.result->NumRows()) << "query " << q;
    for (size_t r = 0; r < a.result->rows.size(); ++r) {
      for (size_t c = 0; c < a.result->rows[r].size(); ++c) {
        EXPECT_TRUE(a.result->rows[r][c] == b.result->rows[r][c])
            << "query " << q << " row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(faulty_system->optimizer()->metrics().query_retries,
            retried->total_retries);
}

TEST_F(ProbeResilienceTest, TenPercentFaultBatchCompletesByteIdentical) {
  // The acceptance bar: a probe batch under ~10% transient faults completes
  // every admissible probe via retry, with results byte-identical to a
  // fault-free run. Thread sweep covers the batch execution paths.
  std::vector<Probe> probes;
  for (int p = 0; p < 6; ++p) {
    Probe probe;
    probe.id = 1000 + p;
    probe.agent_id = "batch-agent-" + std::to_string(p % 2);
    probe.queries = {
        "SELECT grp, count(*) FROM big WHERE grp >= " + std::to_string(p) +
            " GROUP BY grp ORDER BY grp",
        "SELECT count(*) FROM big WHERE id > " + std::to_string(p * 100)};
    probe.brief.phase = ProbePhase::kValidation;
    probes.push_back(probe);
  }

  auto baseline_system = BuildSystem();
  auto baseline = baseline_system->HandleProbeBatch(probes);
  AF_ASSERT_OK_RESULT(baseline);

  for (size_t batch_par : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    AgentFirstSystem::Options options;
    options.optimizer.batch_parallelism = batch_par;
    // Generous retry budget: with p=0.1 per attempt, a query failing 6
    // straight attempts is a ~1e-6 event per query.
    options.optimizer.max_query_retries = 5;
    options.optimizer.retry_backoff_ms = 0.1;
    auto system = BuildSystem(options);
    FaultRegistry::Global().Enable(/*seed=*/2026);
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.probability = 0.1;
    spec.code = StatusCode::kAborted;
    FaultRegistry::Global().Arm("core.probe.query", spec);
    auto faulty = system->HandleProbeBatch(probes);
    FaultRegistry::Global().Disable();
    FaultRegistry::Global().ClearArmed();
    AF_ASSERT_OK_RESULT(faulty);

    ASSERT_EQ(faulty->size(), baseline->size());
    for (size_t p = 0; p < faulty->size(); ++p) {
      for (size_t q = 0; q < (*faulty)[p].answers.size(); ++q) {
        const QueryAnswer& a = (*baseline)[p].answers[q];
        const QueryAnswer& b = (*faulty)[p].answers[q];
        ASSERT_TRUE(b.status.ok())
            << "batch_par=" << batch_par << " probe " << p << " query " << q
            << ": " << b.status.ToString();
        ASSERT_NE(b.result, nullptr);
        ASSERT_EQ(a.result->NumRows(), b.result->NumRows());
        for (size_t r = 0; r < a.result->rows.size(); ++r) {
          for (size_t c = 0; c < a.result->rows[r].size(); ++c) {
            ASSERT_TRUE(a.result->rows[r][c] == b.result->rows[r][c])
                << "batch_par=" << batch_par << " probe " << p << " query "
                << q << " row " << r;
          }
        }
      }
    }
  }
}

TEST_F(ProbeResilienceTest, CircuitBreakerShedsThenRecovers) {
  AgentFirstSystem::Options options;
  options.optimizer.breaker_failure_threshold = 3;
  options.optimizer.breaker_cooldown_ms = 60.0;
  options.optimizer.max_query_retries = 0;  // every fault is a visible failure
  auto system = BuildSystem(options, /*rows=*/512);

  Probe probe;
  probe.agent_id = "flaky-agent";
  probe.queries = {"SELECT count(*) FROM big"};
  probe.brief.phase = ProbePhase::kValidation;

  // Three consecutive failures open the breaker.
  FaultRegistry::Global().Enable(/*seed=*/5);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 1.0;
  FaultRegistry::Global().Arm("core.probe.query", spec);
  for (int k = 0; k < 3; ++k) {
    auto r = system->HandleProbe(probe);
    AF_ASSERT_OK_RESULT(r);
    EXPECT_FALSE(r->shed);
    EXPECT_EQ(r->answers[0].status.code(), StatusCode::kAborted);
  }
  FaultRegistry::Global().Disable();
  FaultRegistry::Global().ClearArmed();

  // Breaker open: the next probe is shed without executing anything.
  auto shed = system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(shed);
  EXPECT_TRUE(shed->shed);
  EXPECT_TRUE(shed->answers[0].skipped);
  EXPECT_EQ(system->optimizer()->metrics().probes_shed, 1u);

  // Another agent is unaffected (the breaker is per-agent).
  Probe other = probe;
  other.agent_id = "healthy-agent";
  auto ok = system->HandleProbe(other);
  AF_ASSERT_OK_RESULT(ok);
  EXPECT_FALSE(ok->shed);
  EXPECT_TRUE(ok->answers[0].status.ok());

  // After the cooldown, the half-open trial succeeds and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  auto recovered = system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(recovered);
  EXPECT_FALSE(recovered->shed);
  ASSERT_TRUE(recovered->answers[0].status.ok());
  EXPECT_EQ(recovered->answers[0].result->rows[0][0].int_value(), 512);
}

TEST_F(ProbeResilienceTest, CancelAllProbesThenReset) {
  auto system = BuildSystem({}, /*rows=*/4096);
  system->CancelAllProbes();
  Probe probe;
  probe.queries = {"SELECT count(*) FROM big"};
  probe.brief.phase = ProbePhase::kValidation;
  auto cancelled = system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(cancelled);
  EXPECT_EQ(cancelled->answers[0].status.code(), StatusCode::kCancelled);

  system->ResetProbeCancellation();
  auto revived = system->HandleProbe(probe);
  AF_ASSERT_OK_RESULT(revived);
  ASSERT_TRUE(revived->answers[0].status.ok())
      << revived->answers[0].status.ToString();
  EXPECT_EQ(revived->answers[0].result->rows[0][0].int_value(), 4096);
}

// ---------------------------------------------------------------------------
// ExecCache under concurrency: byte budget holds, hits stay correct
// ---------------------------------------------------------------------------

TEST(ExecCacheStressTest, ConcurrentPutGetHoldsByteBudget) {
  constexpr size_t kCapacity = 64 * 1024;
  ExecCache cache(kCapacity);

  // Values big enough that the byte budget (not the key count) binds.
  auto make_result = [](uint64_t key) {
    auto rs = std::make_shared<ResultSet>();
    for (int r = 0; r < 16; ++r) {
      Row row;
      row.push_back(Value::Int(static_cast<int64_t>(key)));
      row.push_back(
          Value::String(std::string(64, static_cast<char>('a' + key % 26))));
      rs->rows.push_back(std::move(row));
    }
    return rs;
  };

  ThreadPool pool(4);
  std::atomic<size_t> budget_violations{0};
  std::atomic<size_t> wrong_values{0};
  pool.ParallelFor(
      0, 2000,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          // Spread keys over all 16 shards (shard = top byte of the key).
          uint64_t key = (static_cast<uint64_t>(i % 64) << 56) | (i % 128);
          if (ResultSetPtr hit = cache.Get(key); hit != nullptr) {
            if (hit->rows.empty() ||
                hit->rows[0][0].int_value() != static_cast<int64_t>(key)) {
              wrong_values.fetch_add(1);
            }
          } else {
            cache.Put(key, make_result(key));
          }
          if (cache.bytes() > kCapacity + 4096) budget_violations.fetch_add(1);
        }
      },
      /*grain=*/16);

  EXPECT_EQ(wrong_values.load(), 0u);
  // Transient overshoot of one in-flight entry is tolerated above; the
  // steady-state budget must hold exactly.
  EXPECT_EQ(budget_violations.load(), 0u);
  EXPECT_LE(cache.bytes(), kCapacity);
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
}

}  // namespace
}  // namespace agentfirst
