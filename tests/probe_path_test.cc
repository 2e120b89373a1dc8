// The vectorized engine on the probe path. Probes run with the probe
// optimizer's defaults — the MQO result cache installed, tracing on — and
// AQP probes sample their scans; none of that may push a batch-convertible
// plan back onto the row path, and none of it may change an answer:
//
//   - default-option probes return answers byte-identical to the row path
//     while `af.exec.vec.plans` counts their executions;
//   - a traced vectorized plan records the row path's `op:<kind>` spans
//     (names, post-order, row counts), and an arena-exhaustion rerun leaves
//     exactly one span per operator;
//   - the result cache holds vectorized results at the sub-tree root only,
//     and never a truncated one; the analytic workload's query shapes, sorts
//     and limits included, are each one sub-tree;
//   - sampled scans draw the row path's Bernoulli stream, so sampled
//     answers, their `approximate` / `sample_rate` metadata, and the scaled
//     COUNT and SUM are byte-identical at every thread count.

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/fault_injection.h"
#include "core/probe_builder.h"
#include "core/system.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace agentfirst {
namespace {

using testing_util::BuildBigDb;
using testing_util::ExactlyEqual;

obs::Counter* VecPlans() {
  return obs::MetricsRegistry::Default().GetCounter("af.exec.vec.plans");
}

obs::Counter* VecFallbacks() {
  return obs::MetricsRegistry::Default().GetCounter(
      "af.exec.vec.fallback_nodes");
}

/// The (name, rows) pairs of the `op:*` spans under `span`, in order.
std::vector<std::pair<std::string, std::string>> OpSpans(
    const obs::TraceSpan& span) {
  std::vector<std::pair<std::string, std::string>> ops;
  for (const auto& child : span.children) {
    if (child->name.rfind("op:", 0) == 0) {
      ops.emplace_back(child->name, child->FindNote("rows"));
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// (a) Default-option probes.
// ---------------------------------------------------------------------------

class DefaultProbePathTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DefaultProbePathTest, ProbesRunVectorizedWithRowPathAnswers) {
  AgentFirstSystem::Options options;
  // Memory off so every query executes; MQO, tracing, AQP and steering keep
  // their defaults.
  options.optimizer.enable_memory = false;
  options.optimizer.batch_parallelism = GetParam();
  AgentFirstSystem system(options);
  BuildBigDb(system.engine());

  const std::vector<std::string> queries = {
      "SELECT id, v FROM big WHERE v > 250.0 AND id < 4000",
      "SELECT count(*), sum(id), avg(v) FROM big WHERE n IS NOT NULL",
      "SELECT big.id, dim.label FROM big JOIN dim ON big.n = dim.k "
      "WHERE big.id < 300",
      "SELECT name, count(*), sum(id) FROM big GROUP BY name ORDER BY name",
  };
  std::vector<Probe> probes;
  for (size_t q = 0; q < queries.size(); ++q) {
    probes.push_back(ProbeBuilder("agent" + std::to_string(q))
                         .Query(queries[q])
                         .Brief("verify the final numbers exactly")
                         .Build());
  }

  uint64_t executed_before = system.optimizer()->metrics().queries_executed;
  uint64_t plans_before = VecPlans()->value();
  auto responses = system.HandleProbeBatch(probes);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), queries.size());
  uint64_t executed =
      system.optimizer()->metrics().queries_executed - executed_before;
  EXPECT_EQ(executed, queries.size());
  EXPECT_GE(VecPlans()->value() - plans_before, executed);

  ExecOptions row;
  row.vectorized = false;
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryAnswer& answer = (*responses)[q].answers[0];
    ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
    ASSERT_NE(answer.result, nullptr) << queries[q];
    auto expect = system.engine()->ExecuteSql(queries[q], row);
    AF_ASSERT_OK_RESULT(expect);
    EXPECT_TRUE(ExactlyEqual(**expect, *answer.result))
        << queries[q] << " batch_parallelism=" << GetParam();
    // The trace observed the path that ran: operator spans are present.
    EXPECT_NE((*responses)[q].trace.Find("op:Scan"), nullptr) << queries[q];
  }
}

INSTANTIATE_TEST_SUITE_P(BatchParallelism, DefaultProbePathTest,
                         ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// (b) Operator spans from the vectorized engine.
// ---------------------------------------------------------------------------

class ProbePathExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&catalog_);
    BuildBigDb(engine_.get());
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ProbePathExecTest, VectorizedSpansMatchTheRowPath) {
  for (const std::string& sql : {
           std::string("SELECT id, v FROM big WHERE v > 250.0 AND id < 4000"),
           std::string("SELECT big.id, dim.label FROM big JOIN dim "
                       "ON big.n = dim.k WHERE big.id < 300"),
           std::string("SELECT name, count(*), sum(v) FROM big "
                       "WHERE id % 3 <> 1 GROUP BY name ORDER BY name"),
           std::string("SELECT name, sum(v) AS total FROM big WHERE id % 3 <> 1 "
                       "GROUP BY name ORDER BY total DESC, name LIMIT 3"),
           std::string("SELECT id FROM big WHERE v > 100.0 LIMIT 20 OFFSET 5"),
       }) {
    obs::TraceSpan row_trace;
    ExecOptions row;
    row.vectorized = false;
    row.trace = &row_trace;
    AF_ASSERT_OK_RESULT(engine_->ExecuteSql(sql, row));

    obs::TraceSpan vec_trace;
    ExecOptions vec;
    vec.trace = &vec_trace;
    uint64_t plans_before = VecPlans()->value();
    AF_ASSERT_OK_RESULT(engine_->ExecuteSql(sql, vec));
    EXPECT_GT(VecPlans()->value(), plans_before) << sql;

    auto row_ops = OpSpans(row_trace);
    ASSERT_FALSE(row_ops.empty()) << sql;
    EXPECT_EQ(OpSpans(vec_trace), row_ops) << sql;
    if (sql.find("ORDER BY") != std::string::npos) {
      EXPECT_NE(vec_trace.Find("op:Sort"), nullptr) << sql;
    }
    if (sql.find("LIMIT") != std::string::npos) {
      EXPECT_NE(vec_trace.Find("op:Limit"), nullptr) << sql;
    }
    for (const auto& child : vec_trace.children) {
      EXPECT_GE(child->duration_ms, 0.0) << sql << " " << child->name;
    }
  }
}

TEST_F(ProbePathExecTest, ArenaFallbackLeavesOneSpanPerOperator) {
  // The scan fits a 1 KiB budget (zero-copy batches need no arena), so the
  // vectorized attempt records its span before the aggregate runs out of
  // arena; the row-path rerun must replace that span, not add to it.
  const std::string sql = "SELECT n, count(*) FROM big GROUP BY n";
  obs::TraceSpan row_trace;
  ExecOptions row;
  row.vectorized = false;
  row.limits.MaxBytes(1024);
  row.trace = &row_trace;
  AF_ASSERT_OK_RESULT(engine_->ExecuteSql(sql, row));

  obs::TraceSpan vec_trace;
  ExecOptions vec;
  vec.limits.MaxBytes(1024);
  vec.trace = &vec_trace;
  uint64_t fallbacks_before = VecFallbacks()->value();
  auto r = engine_->ExecuteSql(sql, vec);
  AF_ASSERT_OK_RESULT(r);
  EXPECT_TRUE((*r)->truncated);
  EXPECT_GT(VecFallbacks()->value(), fallbacks_before);

  std::vector<std::string> row_names, vec_names;
  for (const auto& [name, rows] : OpSpans(row_trace)) row_names.push_back(name);
  for (const auto& [name, rows] : OpSpans(vec_trace)) vec_names.push_back(name);
  EXPECT_EQ(vec_names, row_names);
}

// ---------------------------------------------------------------------------
// (c) The result cache at vectorized sub-tree roots.
// ---------------------------------------------------------------------------

TEST_F(ProbePathExecTest, CacheHoldsVectorizedRootResults) {
  ExecCache cache;
  ExecOptions options;
  options.cache = &cache;
  const std::string sql = "SELECT name, count(*) FROM big GROUP BY name";

  uint64_t plans_before = VecPlans()->value();
  auto first = engine_->ExecuteSql(sql, options);
  AF_ASSERT_OK_RESULT(first);
  EXPECT_EQ(VecPlans()->value(), plans_before + 1);
  // One entry: the sub-tree root. Interior operators never materialize.
  EXPECT_EQ(cache.size(), 1u);

  uint64_t hits_before = cache.hits();
  obs::TraceSpan trace;
  options.trace = &trace;
  auto second = engine_->ExecuteSql(sql, options);
  AF_ASSERT_OK_RESULT(second);
  EXPECT_EQ(cache.hits(), hits_before + 1);
  EXPECT_EQ(VecPlans()->value(), plans_before + 1);  // served, not re-run
  EXPECT_EQ(first->get(), second->get());
  ASSERT_EQ(trace.children.size(), 1u);
  EXPECT_EQ(trace.children[0]->FindNote("cached"), "true");
}

TEST(ProbePathCacheTest, AnalyticShapesRunAsOneCachedRoot) {
  // The perfbench `analytic` workload's four query shapes over a small copy
  // of its tables: each runs as one vectorized sub-tree, sorts and limits
  // included, so the cache holds only the answer itself.
  Catalog catalog;
  Engine engine(&catalog);
  auto run = [&](const std::string& sql) {
    auto r = engine.ExecuteSql(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  run("CREATE TABLE customers (cust_id BIGINT, segment VARCHAR, "
      "country VARCHAR)");
  run("CREATE TABLE orders (id BIGINT, cust BIGINT, region VARCHAR, "
      "day BIGINT, qty BIGINT, price DOUBLE, amount DOUBLE)");
  const char* segments[] = {"consumer", "smb", "enterprise", "public"};
  const char* regions[] = {"north", "south", "east", "west", "coast"};
  std::string customers = "INSERT INTO customers VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) customers += ",";
    customers += "(" + std::to_string(i) + ",'" + segments[i % 4] +
                 "','country_" + std::to_string(i % 20) + "')";
  }
  run(customers);
  for (int chunk = 0; chunk < 4; ++chunk) {
    std::string orders = "INSERT INTO orders VALUES ";
    for (int i = 0; i < 1000; ++i) {
      int id = chunk * 1000 + i;
      int qty = 1 + (id * 7) % 50;
      int price = 1 + (id * 13) % 500;
      if (i > 0) orders += ",";
      orders += "(" + std::to_string(id) + "," + std::to_string((id * 31) % 200) +
                ",'" + regions[id % 5] + "'," + std::to_string(1 + id % 365) +
                "," + std::to_string(qty) + "," + std::to_string(price) + ".0," +
                std::to_string(qty * price) + ".0)";
    }
    run(orders);
  }
  for (const std::string& sql : {
           std::string("SELECT count(*), sum(amount), avg(price) FROM orders "
                       "WHERE day BETWEEN 40 AND 90 AND qty >= 12"),
           std::string("SELECT region, count(*), sum(amount) FROM orders "
                       "WHERE price > 120 GROUP BY region ORDER BY region"),
           std::string("SELECT c.segment, count(*), sum(o.amount) FROM orders o "
                       "JOIN customers c ON o.cust = c.cust_id WHERE o.day < 200 "
                       "AND o.qty > 10 GROUP BY c.segment ORDER BY c.segment"),
           std::string("SELECT cust, sum(amount) AS total FROM orders WHERE "
                       "day > 30 AND price < 400 GROUP BY cust "
                       "ORDER BY total DESC, cust LIMIT 10"),
       }) {
    ExecCache cache;
    ExecOptions options;
    options.cache = &cache;
    uint64_t plans_before = VecPlans()->value();
    uint64_t fallbacks_before = VecFallbacks()->value();
    auto got = engine.ExecuteSql(sql, options);
    AF_ASSERT_OK_RESULT(got);
    EXPECT_EQ(cache.size(), 1u) << sql;
    EXPECT_EQ(VecPlans()->value(), plans_before + 1) << sql;
    EXPECT_EQ(VecFallbacks()->value(), fallbacks_before) << sql;
    ExecOptions row;
    row.vectorized = false;
    auto expect = engine.ExecuteSql(sql, row);
    AF_ASSERT_OK_RESULT(expect);
    EXPECT_TRUE(ExactlyEqual(**expect, **got)) << sql;
  }
}

TEST_F(ProbePathExecTest, TruncatedResultsAreNeverCached) {
  ExecCache cache;
  ExecOptions options;
  options.cache = &cache;
  options.limits.DeadlineMillis(1e-6);  // expired before the first operator
  auto r = engine_->ExecuteSql("SELECT name, count(*) FROM big GROUP BY name",
                               options);
  AF_ASSERT_OK_RESULT(r);
  EXPECT_TRUE((*r)->truncated);
  EXPECT_EQ((*r)->interrupt, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ProbePathExecTest, CachePutFaultOnlySkipsCaching) {
  FaultRegistry::Global().Enable(/*seed=*/3);
  FaultSpec spec;
  spec.probability = 1.0;
  FaultRegistry::Global().Arm("exec.cache.put", spec);
  ExecCache cache;
  ExecOptions options;
  options.cache = &cache;
  const std::string sql = "SELECT name, sum(v) FROM big GROUP BY name";
  auto r = engine_->ExecuteSql(sql, options);
  FaultRegistry::Global().Disable();
  FaultRegistry::Global().ClearArmed();
  AF_ASSERT_OK_RESULT(r);
  EXPECT_EQ(cache.size(), 0u);
  ExecOptions plain;
  auto expect = engine_->ExecuteSql(sql, plain);
  AF_ASSERT_OK_RESULT(expect);
  EXPECT_TRUE(ExactlyEqual(**expect, **r));
}

// ---------------------------------------------------------------------------
// (d) Sampled scans.
// ---------------------------------------------------------------------------

class SampledScanParityTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&catalog_);
    BuildBigDb(engine_.get());
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(SampledScanParityTest, SampledAnswersMatchTheRowPath) {
  for (const std::string& sql : {
           std::string("SELECT count(*), count(n), sum(id), sum(v), avg(v), "
                       "min(id), max(name) FROM big"),
           std::string("SELECT name, count(*), sum(n) FROM big "
                       "WHERE id % 3 <> 1 GROUP BY name"),
           std::string("SELECT id, v FROM big WHERE v > 500.0"),
           std::string("SELECT big.id, dim.label FROM big JOIN dim "
                       "ON big.n = dim.k"),
           std::string("SELECT flag, count(*) FROM big GROUP BY flag "
                       "ORDER BY flag"),
       }) {
    for (double rate : {0.05, 0.3}) {
      ExecOptions row;
      row.vectorized = false;
      row.sample_rate = rate;
      row.sample_seed = 1234;
      ExecOptions vec = row;
      vec.vectorized = true;
      vec.num_threads = GetParam();
      auto expect = engine_->ExecuteSql(sql, row);
      AF_ASSERT_OK_RESULT(expect);
      uint64_t plans_before = VecPlans()->value();
      auto got = engine_->ExecuteSql(sql, vec);
      AF_ASSERT_OK_RESULT(got);
      EXPECT_GT(VecPlans()->value(), plans_before) << sql;
      EXPECT_TRUE((*got)->approximate) << sql;
      EXPECT_EQ((*got)->sample_rate, rate) << sql;
      EXPECT_TRUE(ExactlyEqual(**expect, **got))
          << sql << " rate=" << rate << " threads=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SampledScanParityTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace agentfirst
