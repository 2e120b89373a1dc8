#ifndef AGENTFIRST_TESTS_TEST_UTIL_H_
#define AGENTFIRST_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/engine.h"
#include "gtest/gtest.h"

namespace agentfirst {
namespace testing_util {

/// Asserts a Result is OK and yields its value.
#define AF_ASSERT_OK(expr)                                     \
  do {                                                         \
    auto _st = (expr);                                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

#define AF_ASSERT_OK_RESULT(result) \
  ASSERT_TRUE((result).ok()) << (result).status().ToString()

#define AF_EXPECT_OK_RESULT(result) \
  EXPECT_TRUE((result).ok()) << (result).status().ToString()

/// Builds the small, fully known test database used across suites:
///
///   people(id BIGINT, name VARCHAR, age BIGINT, city VARCHAR)
///     (1,'alice',34,'berkeley'), (2,'bob',28,'oakland'),
///     (3,'carol',41,'berkeley'), (4,'dan',19,'seattle'),
///     (5,'erin',NULL,'berkeley')
///
///   orders(order_id BIGINT, person_id BIGINT, amount DOUBLE, item VARCHAR)
///     (100,1,25.0,'coffee beans'), (101,1,7.5,'mug'),
///     (102,2,12.0,'coffee beans'), (103,3,99.0,'espresso machine'),
///     (104,9,5.0,'tea')                       -- dangling person_id
inline void BuildPeopleDb(Engine* engine) {
  auto run = [&](const std::string& sql) {
    auto r = engine->ExecuteSql(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  run("CREATE TABLE people (id BIGINT, name VARCHAR, age BIGINT, city VARCHAR)");
  run("INSERT INTO people VALUES (1,'alice',34,'berkeley'), (2,'bob',28,'oakland'),"
      "(3,'carol',41,'berkeley'), (4,'dan',19,'seattle'), (5,'erin',NULL,'berkeley')");
  run("CREATE TABLE orders (order_id BIGINT, person_id BIGINT, amount DOUBLE,"
      " item VARCHAR)");
  run("INSERT INTO orders VALUES (100,1,25.0,'coffee beans'), (101,1,7.5,'mug'),"
      "(102,2,12.0,'coffee beans'), (103,3,99.0,'espresso machine'), (104,9,5.0,'tea')");
}

/// 5000 rows over 5 segments, all four scalar types plus a NULL-bearing
/// column, with enough value skew to make filters selective and groups
/// uneven. Plus a small dimension table for joins (including keys that miss
/// and duplicate build rows).
inline void BuildBigDb(Engine* engine) {
  auto run = [&](const std::string& sql) {
    auto r = engine->ExecuteSql(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  run("CREATE TABLE big (id BIGINT, v DOUBLE, name VARCHAR, flag BOOLEAN, "
      "n BIGINT)");
  for (int chunk = 0; chunk < 10; ++chunk) {
    std::string insert = "INSERT INTO big VALUES ";
    for (int i = 0; i < 500; ++i) {
      int id = chunk * 500 + i;
      if (i > 0) insert += ",";
      insert += "(" + std::to_string(id) + "," +
                std::to_string((id * 37) % 1000) + ".25,'g" +
                std::to_string(id % 7) + "'," +
                (id % 3 == 0 ? "TRUE" : "FALSE") + "," +
                (id % 5 == 0 ? "NULL" : std::to_string(id % 11)) + ")";
    }
    run(insert);
  }
  run("CREATE TABLE dim (k BIGINT, label VARCHAR)");
  run("INSERT INTO dim VALUES (0,'zero'), (1,'one'), (2,'two'), (3,'three'),"
      "(4,'four'), (2,'dos'), (99,'unreachable'), (NULL,'nokey')");
  run("CREATE TABLE void (x BIGINT, y DOUBLE)");
}

/// Byte-level result equality: same rows in the same order, same value
/// types, and the same truncation and sampling metadata. The contract
/// between the row path and the vectorized engine.
inline ::testing::AssertionResult ExactlyEqual(const ResultSet& a,
                                               const ResultSet& b) {
  if (a.rows.size() != b.rows.size()) {
    return ::testing::AssertionFailure()
           << "row count " << a.rows.size() << " vs " << b.rows.size();
  }
  if (a.truncated != b.truncated || a.interrupt != b.interrupt) {
    return ::testing::AssertionFailure() << "truncation metadata differs";
  }
  if (a.approximate != b.approximate || a.sample_rate != b.sample_rate) {
    return ::testing::AssertionFailure() << "sampling metadata differs";
  }
  if (a.schema.NumColumns() != b.schema.NumColumns()) {
    return ::testing::AssertionFailure() << "schema width differs";
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) {
      return ::testing::AssertionFailure() << "row " << r << " width differs";
    }
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!(a.rows[r][c] == b.rows[r][c])) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << c << ": "
               << a.rows[r][c].ToString() << " vs " << b.rows[r][c].ToString();
      }
      if (a.rows[r][c].type() != b.rows[r][c].type()) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << c << " type differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Catalog + engine fixture with the people/orders database loaded.
class PeopleDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&catalog_);
    BuildPeopleDb(engine_.get());
  }

  /// Runs SQL, asserting success.
  ResultSetPtr Run(const std::string& sql) {
    auto r = engine_->ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  Catalog catalog_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace testing_util
}  // namespace agentfirst

#endif  // AGENTFIRST_TESTS_TEST_UTIL_H_
