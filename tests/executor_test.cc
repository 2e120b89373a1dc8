#include "exec/executor.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace agentfirst {
namespace {

using testing_util::PeopleDbTest;

class ExecutorTest : public PeopleDbTest {};

TEST_F(ExecutorTest, SelectConstantNoFrom) {
  auto rs = Run("SELECT 1 + 2 AS three");
  ASSERT_NE(rs, nullptr);
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->rows[0][0].int_value(), 3);
  EXPECT_EQ(rs->schema.column(0).name, "three");
}

TEST_F(ExecutorTest, FullScan) {
  auto rs = Run("SELECT * FROM people");
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->NumRows(), 5u);
  EXPECT_EQ(rs->schema.NumColumns(), 4u);
}

TEST_F(ExecutorTest, FilterComparisons) {
  EXPECT_EQ(Run("SELECT name FROM people WHERE age > 30")->NumRows(), 2u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE age >= 28")->NumRows(), 3u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE age < 20")->NumRows(), 1u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE age = 34")->NumRows(), 1u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE age <> 34")->NumRows(), 3u);
}

TEST_F(ExecutorTest, NullNeverMatchesComparison) {
  // erin has NULL age: excluded from both a predicate and its negation.
  auto pos = Run("SELECT name FROM people WHERE age > 0");
  auto neg = Run("SELECT name FROM people WHERE NOT (age > 0)");
  EXPECT_EQ(pos->NumRows() + neg->NumRows(), 4u);
}

TEST_F(ExecutorTest, IsNullPredicates) {
  EXPECT_EQ(Run("SELECT name FROM people WHERE age IS NULL")->NumRows(), 1u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE age IS NOT NULL")->NumRows(), 4u);
}

TEST_F(ExecutorTest, LikeAndInAndBetween) {
  EXPECT_EQ(Run("SELECT name FROM people WHERE city LIKE 'berk%'")->NumRows(), 3u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE name LIKE '_ob'")->NumRows(), 1u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE city IN ('oakland','seattle')")
                ->NumRows(), 2u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE age BETWEEN 20 AND 35")->NumRows(), 2u);
  EXPECT_EQ(Run("SELECT name FROM people WHERE age NOT BETWEEN 20 AND 35")->NumRows(), 2u);
}

TEST_F(ExecutorTest, ProjectionExpressions) {
  auto rs = Run("SELECT age * 2, upper(name) FROM people WHERE id = 1");
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->rows[0][0].int_value(), 68);
  EXPECT_EQ(rs->rows[0][1].string_value(), "ALICE");
}

TEST_F(ExecutorTest, InnerJoin) {
  auto rs = Run(
      "SELECT name, amount FROM people JOIN orders ON people.id = orders.person_id");
  // Orders 100,101 (alice), 102 (bob), 103 (carol); 104 dangles.
  EXPECT_EQ(rs->NumRows(), 4u);
}

TEST_F(ExecutorTest, LeftJoinPadsWithNulls) {
  auto rs = Run(
      "SELECT name, amount FROM people LEFT JOIN orders ON people.id = orders.person_id "
      "ORDER BY name");
  // alice x2, bob, carol, dan(null), erin(null).
  ASSERT_EQ(rs->NumRows(), 6u);
  // dan and erin rows have NULL amount.
  size_t nulls = 0;
  for (const Row& r : rs->rows) {
    if (r[1].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 2u);
}

TEST_F(ExecutorTest, CrossJoinCardinality) {
  auto rs = Run("SELECT people.id FROM people CROSS JOIN orders");
  EXPECT_EQ(rs->NumRows(), 25u);
}

TEST_F(ExecutorTest, NonEquiJoin) {
  auto rs = Run(
      "SELECT name, order_id FROM people JOIN orders ON people.age < orders.amount");
  // Pairs where age < amount: alice(34)<99, bob(28)<99, carol(41)<99, dan(19)<25,99
  // and erin's NULL age matches nothing.
  EXPECT_EQ(rs->NumRows(), 5u);
}

TEST_F(ExecutorTest, JoinResidualPredicate) {
  auto rs = Run(
      "SELECT name FROM people JOIN orders ON people.id = orders.person_id "
      "AND orders.amount > 20");
  EXPECT_EQ(rs->NumRows(), 2u);  // order 100 (25.0) and 103 (99.0)
}

TEST_F(ExecutorTest, GlobalAggregates) {
  auto rs = Run("SELECT count(*), count(age), sum(age), avg(age), min(age), max(age) "
                "FROM people");
  ASSERT_EQ(rs->NumRows(), 1u);
  const Row& r = rs->rows[0];
  EXPECT_EQ(r[0].int_value(), 5);        // count(*) counts NULL rows
  EXPECT_EQ(r[1].int_value(), 4);        // count(age) skips NULL
  EXPECT_EQ(r[2].int_value(), 122);      // 34+28+41+19
  EXPECT_DOUBLE_EQ(r[3].double_value(), 122.0 / 4);
  EXPECT_EQ(r[4].int_value(), 19);
  EXPECT_EQ(r[5].int_value(), 41);
}

TEST_F(ExecutorTest, GlobalAggregateOnEmptyInput) {
  auto rs = Run("SELECT count(*), sum(age) FROM people WHERE age > 1000");
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->rows[0][0].int_value(), 0);
  EXPECT_TRUE(rs->rows[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  auto rs = Run(
      "SELECT city, count(*) AS n FROM people GROUP BY city HAVING count(*) > 1 "
      "ORDER BY n DESC");
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->rows[0][0].string_value(), "berkeley");
  EXPECT_EQ(rs->rows[0][1].int_value(), 3);
}

TEST_F(ExecutorTest, GroupByNullKeyFormsOneGroup) {
  Run("INSERT INTO people VALUES (7,'gabe',NULL,'austin')");
  auto rs = Run("SELECT age, count(*) FROM people GROUP BY age ORDER BY count(*) DESC");
  // erin and gabe share the NULL-age group.
  bool found_null_group = false;
  for (const Row& r : rs->rows) {
    if (r[0].is_null()) {
      EXPECT_EQ(r[1].int_value(), 2);
      found_null_group = true;
    }
  }
  EXPECT_TRUE(found_null_group);
}

TEST_F(ExecutorTest, CountDistinct) {
  auto rs = Run("SELECT count(DISTINCT city) FROM people");
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->rows[0][0].int_value(), 3);
}

TEST_F(ExecutorTest, SelectDistinct) {
  auto rs = Run("SELECT DISTINCT city FROM people");
  EXPECT_EQ(rs->NumRows(), 3u);
}

TEST_F(ExecutorTest, OrderByMultipleKeys) {
  auto rs = Run("SELECT name, city FROM people ORDER BY city ASC, name DESC");
  ASSERT_EQ(rs->NumRows(), 5u);
  EXPECT_EQ(rs->rows[0][1].string_value(), "berkeley");
  EXPECT_EQ(rs->rows[0][0].string_value(), "erin");  // desc within berkeley
}

TEST_F(ExecutorTest, OrderByNullsFirst) {
  auto rs = Run("SELECT age FROM people ORDER BY age");
  ASSERT_EQ(rs->NumRows(), 5u);
  EXPECT_TRUE(rs->rows[0][0].is_null());
  EXPECT_EQ(rs->rows[1][0].int_value(), 19);
}

TEST_F(ExecutorTest, OrderByMixedDirectionsWithNullsIsStable) {
  Run("INSERT INTO people VALUES (6,'fay',NULL,'oakland'), (7,'gus',28,NULL),"
      "(8,'hal',28,'oakland')");
  // NULL ranks lowest: last under DESC, first under ASC. Full ties (bob and
  // hal) keep their input order.
  auto rs = Run("SELECT id, age, city FROM people ORDER BY age DESC, city ASC");
  ASSERT_EQ(rs->NumRows(), 8u);
  std::vector<int64_t> ids;
  for (const Row& row : rs->rows) ids.push_back(row[0].int_value());
  EXPECT_EQ(ids, (std::vector<int64_t>{3, 1, 7, 2, 8, 4, 5, 6}));
}

TEST_F(ExecutorTest, LimitOffset) {
  auto rs = Run("SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 2");
  ASSERT_EQ(rs->NumRows(), 2u);
  EXPECT_EQ(rs->rows[0][0].int_value(), 3);
  EXPECT_EQ(rs->rows[1][0].int_value(), 4);
}

TEST_F(ExecutorTest, LimitBeyondEnd) {
  EXPECT_EQ(Run("SELECT id FROM people LIMIT 100")->NumRows(), 5u);
  EXPECT_EQ(Run("SELECT id FROM people LIMIT 5 OFFSET 100")->NumRows(), 0u);
}

TEST_F(ExecutorTest, DerivedTable) {
  auto rs = Run(
      "SELECT s.city, s.n FROM (SELECT city, count(*) AS n FROM people GROUP BY "
      "city) AS s WHERE s.n > 1");
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->rows[0][0].string_value(), "berkeley");
}

TEST_F(ExecutorTest, InfoSchemaQueries) {
  auto rs = Run("SELECT table_name FROM information_schema.tables ORDER BY table_name");
  ASSERT_EQ(rs->NumRows(), 2u);
  EXPECT_EQ(rs->rows[0][0].string_value(), "orders");
  auto cols = Run("SELECT count(*) FROM information_schema.columns WHERE "
                  "table_name = 'people'");
  EXPECT_EQ(cols->rows[0][0].int_value(), 4);
}

TEST_F(ExecutorTest, CaseExpression) {
  auto rs = Run(
      "SELECT name, CASE WHEN age >= 30 THEN 'senior' WHEN age >= 20 THEN 'mid' "
      "ELSE 'junior' END AS band FROM people WHERE age IS NOT NULL ORDER BY id");
  ASSERT_EQ(rs->NumRows(), 4u);
  EXPECT_EQ(rs->rows[0][1].string_value(), "senior");  // alice 34
  EXPECT_EQ(rs->rows[1][1].string_value(), "mid");     // bob 28
  EXPECT_EQ(rs->rows[3][1].string_value(), "junior");  // dan 19
}

TEST_F(ExecutorTest, UpdateAndDelete) {
  auto upd = Run("UPDATE people SET age = 20 WHERE name = 'dan'");
  EXPECT_EQ(upd->rows[0][0].int_value(), 1);
  EXPECT_EQ(Run("SELECT age FROM people WHERE name = 'dan'")->rows[0][0].int_value(), 20);

  auto del = Run("DELETE FROM orders WHERE amount < 10");
  EXPECT_EQ(del->rows[0][0].int_value(), 2);  // 7.5 and 5.0
  EXPECT_EQ(Run("SELECT count(*) FROM orders")->rows[0][0].int_value(), 3);
}

TEST_F(ExecutorTest, InsertWithColumnSubset) {
  Run("INSERT INTO people (id, name) VALUES (10, 'zoe')");
  auto rs = Run("SELECT age, city FROM people WHERE id = 10");
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_TRUE(rs->rows[0][0].is_null());
  EXPECT_TRUE(rs->rows[0][1].is_null());
}

TEST_F(ExecutorTest, SamplingScanApproximates) {
  // Insert many rows, then sample.
  for (int i = 0; i < 20; ++i) {
    Run("INSERT INTO orders VALUES (" + std::to_string(200 + i) + ", 1, 10.0, 'bulk')");
  }
  ExecOptions options;
  options.sample_rate = 0.5;
  auto r = engine_->ExecuteSql("SELECT count(*) FROM orders", options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->approximate);
  // Scaled count should be within a loose band of the true 25.
  int64_t est = (*r)->rows[0][0].int_value();
  EXPECT_GT(est, 5);
  EXPECT_LT(est, 60);
}

TEST_F(ExecutorTest, CacheSharesIdenticalSubplans) {
  ExecCache cache;
  ExecOptions options;
  options.cache = &cache;
  auto r1 = engine_->ExecuteSql("SELECT count(*) FROM people WHERE age > 20", options);
  ASSERT_TRUE(r1.ok());
  uint64_t misses_after_first = cache.misses();
  auto r2 = engine_->ExecuteSql("SELECT count(*) FROM people WHERE age > 20", options);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), misses_after_first);  // second run all hits
  EXPECT_EQ((*r1)->rows[0][0].int_value(), (*r2)->rows[0][0].int_value());
}

TEST_F(ExecutorTest, CacheInvalidatedByWrites) {
  ExecCache cache;
  ExecOptions options;
  options.cache = &cache;
  auto r1 = engine_->ExecuteSql("SELECT count(*) FROM people", options);
  ASSERT_TRUE(r1.ok());
  Run("INSERT INTO people VALUES (11,'yan',30,'austin')");
  auto r2 = engine_->ExecuteSql("SELECT count(*) FROM people", options);
  ASSERT_TRUE(r2.ok());
  // Data version changed -> new fingerprint -> fresh result.
  EXPECT_EQ((*r2)->rows[0][0].int_value(), (*r1)->rows[0][0].int_value() + 1);
}

TEST_F(ExecutorTest, ResultToStringRendersTable) {
  auto rs = Run("SELECT id, name FROM people ORDER BY id LIMIT 2");
  std::string text = rs->ToString();
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_NE(text.find("alice"), std::string::npos);
  EXPECT_NE(text.find("bob"), std::string::npos);
}

}  // namespace
}  // namespace agentfirst
