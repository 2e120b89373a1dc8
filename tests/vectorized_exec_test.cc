// Parity and determinism contract of the vectorized batch engine: for every
// batch-convertible plan, `options.vectorized = true` must produce a
// ResultSet byte-identical to the row path — same values, same order, same
// truncation metadata — at every thread count. Edge coverage (NULLs, empty
// inputs, division by zero, NaN sort keys, LIMIT windows) rides on the same
// harness: whatever the row path answers is the specification.
//
// Working memory is the one place the paths differ internally: the
// vectorized engine allocates its batch buffers from a per-query arena
// capped by `limits.max_bytes`, and exhausting that cap is a typed
// kResourceExhausted error at the vectorized layer (there is no meaningful
// partial answer for scratch memory). The executor catches exactly that
// error and retries the subtree on the row path, so at the engine surface
// `max_bytes` always keeps its documented meaning — an output budget that
// truncates, never a hard failure.

#include <cmath>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace agentfirst {
namespace {

using testing_util::BuildBigDb;
using testing_util::BuildPeopleDb;
using testing_util::ExactlyEqual;

class VectorizedParityTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&catalog_);
    BuildBigDb(engine_.get());
    BuildPeopleDb(engine_.get());
    auto run = [&](const std::string& sql) {
      auto r = engine_->ExecuteSql(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    };
    run("CREATE TABLE nums (x BIGINT, d DOUBLE)");
    run("INSERT INTO nums VALUES (9007199254740993, 1.5), "
        "(9007199254740992, 1.5), (NULL, 0.5), (-3, NULL), "
        "(9007199254740992, -2.0), (7, 1.5)");
    // SQL has no NaN literal, so the NaN rows are appended directly.
    auto fp = catalog_.CreateTable(
        "fp", Schema({ColumnDef("id", DataType::kInt64),
                      ColumnDef("d", DataType::kFloat64)}));
    ASSERT_TRUE(fp.ok());
    const double nan = std::nan("");
    const std::vector<Value> ds = {
        Value::Double(3.0), Value::Double(nan),   Value::Double(1.0),
        Value::Null(),      Value::Double(2.0),   Value::Double(nan),
        Value::Double(0.5), Value::Double(-1.0),  Value::Double(2.0),
        Value::Null(),      Value::Double(nan),   Value::Double(-0.0)};
    for (size_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE((*fp)->AppendRow({Value::Int(static_cast<int64_t>(i)), ds[i]}).ok());
    }
  }

  /// Runs `sql` through the row path (serial: the specification) and the
  /// vectorized path at the parameterized thread count; both must agree
  /// byte-for-byte.
  void ExpectParity(const std::string& sql) {
    ExecOptions row;
    row.vectorized = false;
    row.num_threads = 1;
    ExecOptions vec;
    vec.vectorized = true;
    vec.num_threads = GetParam();
    auto r = engine_->ExecuteSql(sql, row);
    auto v = engine_->ExecuteSql(sql, vec);
    AF_ASSERT_OK_RESULT(r);
    AF_ASSERT_OK_RESULT(v);
    EXPECT_TRUE(ExactlyEqual(**r, **v))
        << sql << " with num_threads=" << GetParam();
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(VectorizedParityTest, ScanAndFilter) {
  ExpectParity("SELECT * FROM big");
  ExpectParity("SELECT id, v FROM big WHERE v > 250.0 AND id < 4000");
  ExpectParity("SELECT id FROM big WHERE id % 7 = 3");
  ExpectParity("SELECT id FROM big WHERE id BETWEEN 100 AND 200");
  ExpectParity("SELECT id FROM big WHERE id NOT BETWEEN 50 AND 4950");
  ExpectParity("SELECT name FROM big WHERE name >= 'g3' AND name < 'g5'");
  ExpectParity("SELECT id FROM big WHERE flag");
  ExpectParity("SELECT id FROM big WHERE NOT flag AND v <> 0.25");
  ExpectParity("SELECT id FROM big WHERE id < 0");            // empty result
  ExpectParity("SELECT * FROM void");                         // empty table
  ExpectParity("SELECT * FROM void WHERE x > 0 AND y < 1.5");
}

TEST_P(VectorizedParityTest, NullSemantics) {
  ExpectParity("SELECT id, n FROM big WHERE n IS NULL");
  ExpectParity("SELECT id, n FROM big WHERE n IS NOT NULL AND n > 5");
  // Comparisons against NULL are NULL, filtered out; Kleene OR/AND keep a
  // row only when the whole predicate is definitely true.
  ExpectParity("SELECT id FROM big WHERE n > 3 OR flag");
  ExpectParity("SELECT id FROM big WHERE n > 3 AND flag");
  ExpectParity("SELECT n + 1, n * 2, n IS NULL FROM big WHERE id < 100");
}

TEST_P(VectorizedParityTest, ProjectionArithmetic) {
  ExpectParity("SELECT id + 1, id - 2, id * 3, v / 4.0 FROM big WHERE id < 500");
  // Integer division promotes to double; division/modulo by zero is NULL.
  ExpectParity("SELECT id / 2, id / 0, id % 0, v / 0.0 FROM big WHERE id < 64");
  ExpectParity("SELECT -id, -v, id % 11 FROM big WHERE v > 900.0");
  ExpectParity("SELECT (id + 7) * (id % 5) - 3 FROM big WHERE id < 2049");
  ExpectParity("SELECT id > 10, v <= 500.0, name = 'g2' FROM big WHERE id < 40");
}

TEST_P(VectorizedParityTest, Aggregates) {
  ExpectParity("SELECT count(*) FROM big");
  ExpectParity("SELECT count(n), sum(id), sum(v), avg(v) FROM big");
  ExpectParity("SELECT min(id), max(id), min(v), max(v), min(name), max(name)"
               " FROM big");
  ExpectParity("SELECT count(*) FROM big WHERE id > 4999");  // empty input
  ExpectParity("SELECT sum(x), avg(y), count(x) FROM void");
}

TEST_P(VectorizedParityTest, GroupBy) {
  ExpectParity("SELECT name, count(*), sum(v) FROM big GROUP BY name");
  // NULL is a group of its own; group order is first-appearance order.
  ExpectParity("SELECT n, count(*) FROM big GROUP BY n");
  ExpectParity("SELECT flag, n, avg(v), min(id) FROM big GROUP BY flag, n");
  ExpectParity("SELECT name, max(n) FROM big WHERE id % 2 = 0 GROUP BY name");
}

TEST_P(VectorizedParityTest, Joins) {
  ExpectParity("SELECT big.id, dim.label FROM big JOIN dim ON big.n = dim.k "
               "WHERE big.id < 300");
  // Duplicate build keys fan out; NULL keys never match.
  ExpectParity("SELECT big.id, dim.label FROM big LEFT JOIN dim "
               "ON big.n = dim.k WHERE big.id < 300");
  ExpectParity("SELECT people.name, orders.item FROM people JOIN orders "
               "ON people.id = orders.person_id");
  ExpectParity("SELECT people.name, orders.amount FROM people LEFT JOIN orders "
               "ON people.id = orders.person_id");
  ExpectParity("SELECT big.id FROM big JOIN void ON big.id = void.x");
}

TEST_P(VectorizedParityTest, OrderBy) {
  // Multi-key, mixed directions; every key has ties the next one breaks.
  ExpectParity("SELECT id, name, v FROM big ORDER BY name DESC, v, id");
  ExpectParity("SELECT id, v FROM big WHERE v > 500.0 ORDER BY v, id");
  // NULL keys sort lowest: first ascending, last descending.
  ExpectParity("SELECT id, n FROM big ORDER BY n, id");
  ExpectParity("SELECT id, n FROM big ORDER BY n DESC, id DESC");
  // Ties the keys leave keep their input order (a stable sort).
  ExpectParity("SELECT id, n FROM big ORDER BY n");
  ExpectParity("SELECT flag, id FROM big WHERE id < 300 ORDER BY flag DESC");
  // BIGINT keys compare exactly (2^53 and 2^53 + 1 share a DOUBLE image);
  // DOUBLE and computed keys by value.
  ExpectParity("SELECT x, d FROM nums ORDER BY x DESC");
  ExpectParity("SELECT x, d FROM nums ORDER BY d, x");
  ExpectParity("SELECT id, v FROM big ORDER BY id % 13, v DESC, id");
  ExpectParity("SELECT id FROM big WHERE id < 400 ORDER BY (id % 7) * 1.5, id");
  // NaN compares equal to every value, so only the same stable sort over
  // the same comparisons reproduces the row path's order.
  ExpectParity("SELECT id FROM fp ORDER BY d");
  ExpectParity("SELECT id FROM fp ORDER BY d DESC, id");
  ExpectParity("SELECT id FROM fp ORDER BY d LIMIT 3");
  ExpectParity("SELECT id FROM fp ORDER BY d DESC LIMIT 4 OFFSET 1");
  // Sorts over aggregates and joins, the probe workloads' shapes.
  ExpectParity("SELECT name, sum(v) AS s FROM big GROUP BY name ORDER BY s DESC");
  ExpectParity("SELECT name, count(*) FROM big GROUP BY name ORDER BY name");
  ExpectParity("SELECT big.id, dim.label FROM big JOIN dim ON big.n = dim.k "
               "WHERE big.id < 300 ORDER BY dim.label, big.id DESC");
  ExpectParity("SELECT * FROM void ORDER BY y");
}

TEST_P(VectorizedParityTest, LimitAndOffset) {
  ExpectParity("SELECT id FROM big LIMIT 0");
  ExpectParity("SELECT id FROM big LIMIT 10");
  ExpectParity("SELECT id, v FROM big LIMIT 1500 OFFSET 700");  // spans batches
  ExpectParity("SELECT id FROM big LIMIT 10 OFFSET 4995");      // runs off the end
  ExpectParity("SELECT id FROM big LIMIT 10 OFFSET 6000");      // starts past it
  ExpectParity("SELECT id FROM big LIMIT 9000");
  ExpectParity("SELECT id FROM big WHERE id % 7 = 3 LIMIT 50 OFFSET 100");
  ExpectParity("SELECT count(*) FROM big LIMIT 1");
  // LIMIT over ORDER BY keeps the stable sort's first rows, ties included,
  // at any offset.
  ExpectParity("SELECT id, n FROM big ORDER BY n LIMIT 25");
  ExpectParity("SELECT id, v FROM big WHERE v > 500.0 ORDER BY v, id LIMIT 20");
  ExpectParity("SELECT id, flag FROM big ORDER BY flag LIMIT 7 OFFSET 3");
  ExpectParity("SELECT id, n FROM big ORDER BY n DESC LIMIT 0");
  ExpectParity("SELECT id, n FROM big ORDER BY n DESC, name LIMIT 40 OFFSET 990");
  ExpectParity("SELECT id FROM big ORDER BY v LIMIT 5000");
  ExpectParity("SELECT id FROM big ORDER BY v DESC LIMIT 6000 OFFSET 4990");
  ExpectParity("SELECT name, count(*) AS c, sum(v) AS total FROM big "
               "GROUP BY name ORDER BY total DESC, name LIMIT 3");
}

TEST_P(VectorizedParityTest, MixedRowAndVectorizedOperators) {
  // DISTINCT / LIKE stay on the row path; their children re-gate, so these
  // plans cross the batch->row boundary mid-tree.
  ExpectParity("SELECT DISTINCT name FROM big WHERE id < 1000");
  ExpectParity("SELECT name FROM big WHERE name LIKE 'g%' AND id < 30");
  ExpectParity("SELECT count(DISTINCT name) FROM big");
}

INSTANTIATE_TEST_SUITE_P(Threads, VectorizedParityTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(VectorizedExecTest, ThreadCountsAreByteIdenticalOnTheVecPath) {
  Catalog catalog;
  Engine engine(&catalog);
  BuildBigDb(&engine);
  const std::string sql =
      "SELECT name, count(*), sum(v) FROM big WHERE id % 3 <> 1 GROUP BY name";
  ExecOptions serial;
  serial.num_threads = 1;
  auto base = engine.ExecuteSql(sql, serial);
  AF_ASSERT_OK_RESULT(base);
  for (size_t threads : {2u, 4u, 8u}) {
    ExecOptions options;
    options.num_threads = threads;
    auto r = engine.ExecuteSql(sql, options);
    AF_ASSERT_OK_RESULT(r);
    EXPECT_TRUE(ExactlyEqual(**base, **r)) << "threads=" << threads;
  }
}

TEST(VectorizedExecTest, ArenaExhaustionFallsBackToRowPathTruncation) {
  Catalog catalog;
  Engine engine(&catalog);
  BuildBigDb(&engine);
  auto& reg = obs::MetricsRegistry::Default();
  obs::Counter* fallbacks = reg.GetCounter("af.exec.vec.fallback_nodes");
  uint64_t fallbacks_before = fallbacks->value();

  // A budget below the arena's minimum block size: the vectorized engine
  // cannot even allocate its first selection vector. That exhaustion is a
  // typed error internally, but the executor must catch it and rerun the
  // subtree row-at-a-time — callers who set max_bytes get the documented
  // contract (a truncated partial result), never a hard failure.
  ExecOptions vec;
  vec.limits.MaxBytes(1024);
  auto r = engine.ExecuteSql("SELECT id FROM big WHERE id % 7 = 3", vec);
  AF_ASSERT_OK_RESULT(r);
  EXPECT_TRUE((*r)->truncated);
  EXPECT_EQ((*r)->interrupt, StatusCode::kResourceExhausted);
  EXPECT_LT((*r)->rows.size(), 715u);  // 715 ids in [0,5000) are ≡3 (mod 7)
  // Whatever partial survives must still honor the predicate.
  for (const Row& row : (*r)->rows) {
    ASSERT_EQ(row[0].int_value() % 7, 3);
  }
  EXPECT_GT(fallbacks->value(), fallbacks_before);

  // The same query under the same budget with vectorization off truncates
  // directly — one `max_bytes` knob, one observable behavior.
  ExecOptions row_opts;
  row_opts.vectorized = false;
  row_opts.limits.MaxBytes(1024);
  auto rr = engine.ExecuteSql("SELECT id FROM big WHERE id % 7 = 3", row_opts);
  AF_ASSERT_OK_RESULT(rr);
  EXPECT_TRUE((*rr)->truncated);
  EXPECT_EQ((*rr)->interrupt, StatusCode::kResourceExhausted);
}

TEST(VectorizedExecTest, MidPlanTripNeverLeaksUnfilteredRows) {
  Catalog catalog;
  Engine engine(&catalog);
  BuildBigDb(&engine);
  // Sweep deadlines from "trips immediately" to "finishes comfortably" so
  // some runs soft-trip mid-plan at every thread count. Wherever the trip
  // lands, a truncated filter result may only contain rows that passed the
  // predicate (regression: parallel morsels left unclaimed by a mid-loop
  // trip used to keep their full input selection).
  for (double ms : {0.01, 0.05, 0.2, 1.0, 5.0, 50.0}) {
    for (size_t threads : {1u, 4u, 8u}) {
      ExecOptions options;
      options.num_threads = threads;
      options.limits.DeadlineMillis(ms);
      auto r = engine.ExecuteSql("SELECT id FROM big WHERE id % 7 = 3", options);
      AF_ASSERT_OK_RESULT(r);
      for (const Row& row : (*r)->rows) {
        ASSERT_EQ(row[0].int_value() % 7, 3)
            << "deadline=" << ms << "ms threads=" << threads;
      }
    }
  }
}

TEST(VectorizedExecTest, IntSumOverflowWrapsIdenticallyOnBothPaths) {
  Catalog catalog;
  Engine engine(&catalog);
  auto run = [&](const std::string& sql) {
    auto r = engine.ExecuteSql(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  run("CREATE TABLE huge (x BIGINT)");
  // (2^63-1) + (2^63-1) + 2 + 1 wraps to 1 in two's complement. Both paths
  // accumulate unsigned (signed overflow is UB) and must agree on the wrap.
  run("INSERT INTO huge VALUES (9223372036854775807), (9223372036854775807), "
      "(2), (1)");
  ExecOptions row;
  row.vectorized = false;
  auto rr = engine.ExecuteSql("SELECT sum(x) FROM huge", row);
  auto vr = engine.ExecuteSql("SELECT sum(x) FROM huge");
  AF_ASSERT_OK_RESULT(rr);
  AF_ASSERT_OK_RESULT(vr);
  EXPECT_TRUE(ExactlyEqual(**rr, **vr));
  ASSERT_EQ((*vr)->rows.size(), 1u);
  EXPECT_EQ((*vr)->rows[0][0].int_value(), 1);
}

TEST(VectorizedExecTest, OutputBudgetsTruncateLikeTheRowPath) {
  Catalog catalog;
  Engine engine(&catalog);
  BuildBigDb(&engine);
  // Unfiltered scans use no arena scratch, so max_bytes acts purely as the
  // output cap, same as the row path: a well-formed truncated result.
  for (bool vectorized : {true, false}) {
    ExecOptions options;
    options.vectorized = vectorized;
    options.limits.MaxBytes(16 * 1024);
    auto r = engine.ExecuteSql("SELECT * FROM big", options);
    AF_ASSERT_OK_RESULT(r);
    EXPECT_TRUE((*r)->truncated) << "vectorized=" << vectorized;
    EXPECT_EQ((*r)->interrupt, StatusCode::kResourceExhausted);
    EXPECT_GT((*r)->rows.size(), 0u);
    EXPECT_LT((*r)->rows.size(), 5000u);
  }
  // max_rows truncates at batch granularity: at least the cap, not wildly
  // more than one extra batch per worker.
  ExecOptions options;
  options.limits.MaxRows(1000);
  auto r = engine.ExecuteSql("SELECT id FROM big", options);
  AF_ASSERT_OK_RESULT(r);
  EXPECT_TRUE((*r)->truncated);
  EXPECT_GE((*r)->rows.size(), 1000u);
  EXPECT_LT((*r)->rows.size(), 5000u);
}

TEST(VectorizedExecTest, VecPlanAndFallbackMetricsMove) {
  Catalog catalog;
  Engine engine(&catalog);
  BuildBigDb(&engine);
  auto& reg = obs::MetricsRegistry::Default();
  obs::Counter* plans = reg.GetCounter("af.exec.vec.plans");
  obs::Counter* fallbacks = reg.GetCounter("af.exec.vec.fallback_nodes");

  uint64_t plans_before = plans->value();
  auto r = engine.ExecuteSql("SELECT id FROM big WHERE id < 10");
  AF_ASSERT_OK_RESULT(r);
  EXPECT_GT(plans->value(), plans_before);

  uint64_t fallbacks_before = fallbacks->value();
  auto f = engine.ExecuteSql("SELECT name FROM big WHERE name LIKE 'g1%'");
  AF_ASSERT_OK_RESULT(f);
  EXPECT_GT(fallbacks->value(), fallbacks_before);
}

}  // namespace
}  // namespace agentfirst
