#include "catalog/catalog.h"

#include <thread>
#include <vector>

#include "catalog/info_schema.h"
#include "catalog/stats.h"
#include "gtest/gtest.h"

namespace agentfirst {
namespace {

Schema SimpleSchema(const std::string& table) {
  return Schema({ColumnDef("id", DataType::kInt64, false, table),
                 ColumnDef("v", DataType::kFloat64, true, table),
                 ColumnDef("s", DataType::kString, true, table)});
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  auto t = catalog.CreateTable("t1", SimpleSchema("t1"));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.HasTable("t1"));
  EXPECT_TRUE(catalog.GetTable("t1").ok());
  EXPECT_FALSE(catalog.GetTable("nope").ok());
  ASSERT_TRUE(catalog.DropTable("t1").ok());
  EXPECT_FALSE(catalog.HasTable("t1"));
  EXPECT_FALSE(catalog.DropTable("t1").ok());
}

TEST(CatalogTest, DuplicateCreateFails) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", SimpleSchema("t")).ok());
  EXPECT_FALSE(catalog.CreateTable("t", SimpleSchema("t")).ok());
}

TEST(CatalogTest, SchemaVersionBumpsOnDdl) {
  Catalog catalog;
  uint64_t v0 = catalog.schema_version();
  ASSERT_TRUE(catalog.CreateTable("a", SimpleSchema("a")).ok());
  uint64_t v1 = catalog.schema_version();
  EXPECT_GT(v1, v0);
  ASSERT_TRUE(catalog.DropTable("a").ok());
  EXPECT_GT(catalog.schema_version(), v1);
}

TEST(CatalogTest, ListTablesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("zeta", SimpleSchema("zeta")).ok());
  ASSERT_TRUE(catalog.CreateTable("alpha", SimpleSchema("alpha")).ok());
  auto names = catalog.ListTables();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = catalog_.CreateTable("t", SimpleSchema("t"));
    ASSERT_TRUE(t.ok());
    table_ = *t;
    // 100 rows: id 0..99, v = id * 0.5, s cycles over 4 values, v NULL
    // every 10th row.
    for (int i = 0; i < 100; ++i) {
      Value v = (i % 10 == 0) ? Value::Null() : Value::Double(i * 0.5);
      std::string s = "cat" + std::to_string(i % 4);
      ASSERT_TRUE(table_->AppendRow({Value::Int(i), v, Value::String(s)}).ok());
    }
  }

  Catalog catalog_;
  TablePtr table_;
};

TEST_F(StatsTest, BasicCounts) {
  auto stats = catalog_.GetStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)->row_count, 100u);
  ASSERT_EQ((*stats)->columns.size(), 3u);
  const ColumnStats& id = (*stats)->columns[0];
  EXPECT_EQ(id.null_count, 0u);
  EXPECT_EQ(id.distinct_count, 100u);
  EXPECT_EQ(id.min.int_value(), 0);
  EXPECT_EQ(id.max.int_value(), 99);
  const ColumnStats& v = (*stats)->columns[1];
  EXPECT_EQ(v.null_count, 10u);
  const ColumnStats& s = (*stats)->columns[2];
  EXPECT_EQ(s.distinct_count, 4u);
}

TEST_F(StatsTest, TopValues) {
  auto stats = catalog_.GetStats("t");
  ASSERT_TRUE(stats.ok());
  const ColumnStats& s = (*stats)->columns[2];
  ASSERT_EQ(s.top_values.size(), 4u);
  EXPECT_EQ(s.top_values[0].second, 25u);  // each of 4 values appears 25x
}

TEST_F(StatsTest, EqualitySelectivity) {
  auto stats = catalog_.GetStats("t");
  ASSERT_TRUE(stats.ok());
  const ColumnStats& s = (*stats)->columns[2];
  EXPECT_NEAR(s.EqualitySelectivity(Value::String("cat1")), 0.25, 1e-9);
  // Unknown value: uniformity assumption over NDV.
  double unknown = s.EqualitySelectivity(Value::String("nope"));
  EXPECT_GT(unknown, 0.0);
  EXPECT_LE(unknown, 0.3);
}

TEST_F(StatsTest, RangeSelectivity) {
  auto stats = catalog_.GetStats("t");
  ASSERT_TRUE(stats.ok());
  const ColumnStats& id = (*stats)->columns[0];
  double below_half = id.RangeSelectivity("<", Value::Int(50));
  EXPECT_NEAR(below_half, 0.5, 0.1);
  EXPECT_NEAR(id.RangeSelectivity(">", Value::Int(50)), 0.5, 0.1);
  EXPECT_NEAR(id.RangeSelectivity("<", Value::Int(1000)), 1.0, 0.05);
  EXPECT_NEAR(id.RangeSelectivity(">", Value::Int(1000)), 0.0, 0.05);
}

TEST_F(StatsTest, SampleIsBounded) {
  auto stats = catalog_.GetStats("t");
  ASSERT_TRUE(stats.ok());
  for (const ColumnStats& cs : (*stats)->columns) {
    EXPECT_LE(cs.sample.size(), ColumnStats::kSampleSize);
  }
}

TEST_F(StatsTest, CacheInvalidatedByWrites) {
  auto s1 = catalog_.GetStats("t");
  ASSERT_TRUE(s1.ok());
  uint64_t count1 = (*s1)->row_count;
  ASSERT_TRUE(table_->AppendRow({Value::Int(100), Value::Double(1.0),
                                 Value::String("cat0")}).ok());
  auto s2 = catalog_.GetStats("t");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ((*s2)->row_count, count1 + 1);
}

// Concurrent sessions reach GetStats from cost estimation and steering at
// the same time. Eight threads ask for two tables' stats together, first on
// an empty cache (every thread races to compute) and then on cached hits;
// each table's stats must be computed once and read consistently. Under
// TSan it also checks that the cache's lookups and inserts synchronize.
TEST(CatalogTest, ConcurrentGetStatsComputesEachTableOnce) {
  Catalog catalog;
  for (const char* name : {"a", "b"}) {
    auto t = catalog.CreateTable(name, SimpleSchema(name));
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE((*t)->AppendRow({Value::Int(i), Value::Double(i * 0.5),
                                   Value::String("s" + std::to_string(i % 7))})
                      .ok());
    }
  }
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 20;
  // seen[t][r] = the stats thread t got in round r; table = (t + r) % 2.
  std::vector<std::vector<std::shared_ptr<const TableStats>>> seen(
      kThreads, std::vector<std::shared_ptr<const TableStats>>(kRounds));
  // Dedicated threads, not the shared pool: all eight must overlap.
  // aflint:allow(raw-thread)
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t r = 0; r < kRounds; ++r) {
        auto stats = catalog.GetStats((t + r) % 2 == 0 ? "a" : "b");
        if (!stats.ok()) return;
        seen[t][r] = *stats;
      }
    });
  }
  for (auto& th : threads) th.join();
  const TableStats* first[2] = {nullptr, nullptr};
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t r = 0; r < kRounds; ++r) {
      const auto& stats = seen[t][r];
      ASSERT_NE(stats, nullptr) << "thread " << t << " round " << r;
      EXPECT_EQ(stats->row_count, 2000u);
      ASSERT_EQ(stats->columns.size(), 3u);
      EXPECT_EQ(stats->columns[2].distinct_count, 7u);
      const TableStats*& table_first = first[(t + r) % 2];
      if (table_first == nullptr) table_first = stats.get();
      EXPECT_EQ(stats.get(), table_first) << "stats computed more than once";
    }
  }
  EXPECT_NE(first[0], first[1]);
}

TEST(InfoSchemaTest, TablesView) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t1", SimpleSchema("t1")).ok());
  ASSERT_TRUE(catalog.CreateTable("t2", SimpleSchema("t2")).ok());
  auto view = BuildInfoSchemaTable(catalog, kInfoSchemaTables);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->NumRows(), 2u);
  EXPECT_EQ((*view)->GetRow(0)->at(0).string_value(), "t1");
  EXPECT_EQ((*view)->GetRow(0)->at(2).int_value(), 3);  // num_columns
}

TEST(InfoSchemaTest, ColumnsView) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t1", SimpleSchema("t1")).ok());
  auto view = BuildInfoSchemaTable(catalog, kInfoSchemaColumns);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->NumRows(), 3u);
  EXPECT_EQ((*view)->GetRow(0)->at(1).string_value(), "id");
  EXPECT_EQ((*view)->GetRow(0)->at(2).string_value(), "BIGINT");
}

TEST(InfoSchemaTest, UnknownViewRejected) {
  Catalog catalog;
  EXPECT_FALSE(BuildInfoSchemaTable(catalog, "information_schema.bogus").ok());
  EXPECT_TRUE(IsInfoSchemaTable(kInfoSchemaTables));
  EXPECT_TRUE(IsInfoSchemaTable(kInfoSchemaColumns));
  EXPECT_FALSE(IsInfoSchemaTable("tables"));
}

}  // namespace
}  // namespace agentfirst
