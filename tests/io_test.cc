// Tests for CSV import/export, branch diffs, and probe dry runs.

#include <cstdio>
#include <fstream>

#include "core/system.h"
#include "gtest/gtest.h"
#include "catalog/csv.h"
#include "test_util.h"
#include "txn/branch_manager.h"

namespace agentfirst {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// CSV line parsing
// ---------------------------------------------------------------------------

TEST(CsvLineTest, SimpleFields) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvLineTest, QuotedFieldsWithCommasAndQuotes) {
  auto fields = ParseCsvLine("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[0], "a,b");
  EXPECT_EQ((*fields)[1], "say \"hi\"");
  EXPECT_EQ((*fields)[2], "plain");
}

TEST(CsvLineTest, EmptyFieldsAndQuotedEmpty) {
  std::vector<bool> quoted;
  auto fields = ParseCsvLine("a,,\"\"", &quoted);
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[1], "");
  EXPECT_FALSE(quoted[1]);  // NULL
  EXPECT_EQ((*fields)[2], "");
  EXPECT_TRUE(quoted[2]);   // empty string
}

TEST(CsvLineTest, UnterminatedQuoteRejected) {
  EXPECT_FALSE(ParseCsvLine("\"oops").ok());
}

// ---------------------------------------------------------------------------
// CSV round trip
// ---------------------------------------------------------------------------

class CsvTest : public testing_util::PeopleDbTest {};

TEST_F(CsvTest, ExportImportRoundTrip) {
  auto table = catalog_.GetTable("people");
  ASSERT_TRUE(table.ok());
  std::string path = TempPath("people.csv");
  ASSERT_TRUE(ExportCsv(**table, path).ok());

  Catalog fresh;
  auto imported = ImportCsv(&fresh, "people", (*table)->schema(), path);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ((*imported)->NumRows(), (*table)->NumRows());
  for (size_t r = 0; r < (*table)->NumRows(); ++r) {
    Row a = *(*table)->GetRow(r);
    Row b = *(*imported)->GetRow(r);
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      bool both_null = a[c].is_null() && b[c].is_null();
      EXPECT_TRUE(both_null || a[c].Equals(b[c]))
          << "row " << r << " col " << c << ": " << a[c].ToString() << " vs "
          << b[c].ToString();
    }
  }
  std::remove(path.c_str());
}

TEST_F(CsvTest, NullsRoundTrip) {
  // erin has a NULL age.
  auto table = catalog_.GetTable("people");
  std::string path = TempPath("people_nulls.csv");
  ASSERT_TRUE(ExportCsv(**table, path).ok());
  Catalog fresh;
  auto imported = ImportCsv(&fresh, "p2", (*table)->schema(), path);
  ASSERT_TRUE(imported.ok());
  size_t nulls = 0;
  for (size_t r = 0; r < (*imported)->NumRows(); ++r) {
    if ((*(*imported)->GetRow(r))[2].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 1u);
  std::remove(path.c_str());
}

TEST_F(CsvTest, SpecialCharactersSurvive) {
  Catalog c;
  Schema schema({ColumnDef("s", DataType::kString, true, "t")});
  auto t = *c.CreateTable("t", schema);
  ASSERT_TRUE(t->AppendRow({Value::String("has,comma")}).ok());
  ASSERT_TRUE(t->AppendRow({Value::String("has \"quote\"")}).ok());
  ASSERT_TRUE(t->AppendRow({Value::String("")}).ok());  // empty, not NULL
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  std::string path = TempPath("special.csv");
  ASSERT_TRUE(ExportCsv(*t, path).ok());
  Catalog fresh;
  auto imported = ImportCsv(&fresh, "t", schema, path);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ((*(*imported)->GetRow(0))[0].string_value(), "has,comma");
  EXPECT_EQ((*(*imported)->GetRow(1))[0].string_value(), "has \"quote\"");
  EXPECT_EQ((*(*imported)->GetRow(2))[0].string_value(), "");
  EXPECT_TRUE((*(*imported)->GetRow(3))[0].is_null());
  std::remove(path.c_str());
}

TEST_F(CsvTest, HeaderMismatchRejected) {
  auto table = catalog_.GetTable("people");
  std::string path = TempPath("people_hdr.csv");
  ASSERT_TRUE(ExportCsv(**table, path).ok());
  Catalog fresh;
  Schema wrong({ColumnDef("nope", DataType::kInt64, true, "x")});
  EXPECT_FALSE(ImportCsv(&fresh, "x", wrong, path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, BadTypedFieldRejected) {
  std::string path = TempPath("bad.csv");
  {
    std::ofstream out(path);
    out << "n\nnot_a_number\n";
  }
  Catalog fresh;
  Schema schema({ColumnDef("n", DataType::kInt64, true, "x")});
  auto r = ImportCsv(&fresh, "x", schema, path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, MalformedRowsReportOneBasedLineNumbers) {
  Schema schema({ColumnDef("n", DataType::kInt64, true, "x"),
                 ColumnDef("s", DataType::kString, true, "x")});
  struct Case {
    const char* body;           // after the "n,s" header
    const char* expect_in_msg;  // substring the error must carry
    StatusCode code;
  };
  const Case cases[] = {
      // Row 3 (header is line 1) has too few fields.
      {"1,a\n2\n3,c\n", "line 3", StatusCode::kInvalidArgument},
      // Row 2 has an unterminated quote.
      {"1,\"oops\n", "line 2", StatusCode::kInvalidArgument},
      // Row 4 has a non-numeric BIGINT.
      {"1,a\n2,b\nx,c\n", "line 4", StatusCode::kInvalidArgument},
      // Row 2 overflows int64.
      {"99999999999999999999999,a\n", "line 2", StatusCode::kOutOfRange},
  };
  for (const Case& c : cases) {
    std::string path = TempPath("malformed.csv");
    {
      std::ofstream out(path);
      out << "n,s\n" << c.body;
    }
    Catalog fresh;
    auto r = ImportCsv(&fresh, "x", schema, path);
    ASSERT_FALSE(r.ok()) << c.body;
    EXPECT_EQ(r.status().code(), c.code) << r.status().ToString();
    EXPECT_NE(r.status().message().find(c.expect_in_msg), std::string::npos)
        << "message '" << r.status().message() << "' should name "
        << c.expect_in_msg;
    // A failed import never leaves a half-filled table behind.
    EXPECT_FALSE(fresh.GetTable("x").ok());
    std::remove(path.c_str());
  }
}

TEST_F(CsvTest, UnterminatedQuoteInHeaderNamesLineOne) {
  std::string path = TempPath("badhdr.csv");
  {
    std::ofstream out(path);
    out << "\"n\n1\n";
  }
  Catalog fresh;
  Schema schema({ColumnDef("n", DataType::kInt64, true, "x")});
  auto r = ImportCsv(&fresh, "x", schema, path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos)
      << r.status().message();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Branch diff
// ---------------------------------------------------------------------------

TEST(BranchDiffTest, ReportsChangedCellsAndAppends) {
  Table table("t", Schema({ColumnDef("a", DataType::kInt64, true, "t"),
                           ColumnDef("b", DataType::kString, true, "t")}));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.AppendRow({Value::Int(i), Value::String("x")}).ok());
  }
  BranchManager manager;
  ASSERT_TRUE(manager.ImportTable(table).ok());
  auto b = *manager.Fork(BranchManager::kMainBranch);
  ASSERT_TRUE(manager.Write(b, "t", 2, 0, Value::Int(99)).ok());
  ASSERT_TRUE(manager.Write(b, "t", 2, 0, Value::Int(2)).ok());  // reverted!
  ASSERT_TRUE(manager.Write(b, "t", 3, 1, Value::String("y")).ok());
  ASSERT_TRUE(manager.Append(b, "t", {Value::Int(100), Value::String("new")}).ok());

  auto deltas = manager.Diff(b);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 2u);  // reverted cell is not a delta
  const auto& changed = (*deltas)[0];
  EXPECT_FALSE(changed.appended);
  EXPECT_EQ(changed.row, 3u);
  EXPECT_EQ(changed.col, 1u);
  EXPECT_EQ(changed.base.string_value(), "x");
  EXPECT_EQ(changed.current.string_value(), "y");
  EXPECT_TRUE((*deltas)[1].appended);
  EXPECT_EQ((*deltas)[1].row, 5u);
}

TEST(BranchDiffTest, CleanBranchHasEmptyDiff) {
  Table table("t", Schema({ColumnDef("a", DataType::kInt64, true, "t")}));
  ASSERT_TRUE(table.AppendRow({Value::Int(1)}).ok());
  BranchManager manager;
  ASSERT_TRUE(manager.ImportTable(table).ok());
  auto b = *manager.Fork(BranchManager::kMainBranch);
  auto deltas = manager.Diff(b);
  ASSERT_TRUE(deltas.ok());
  EXPECT_TRUE(deltas->empty());
  EXPECT_FALSE(manager.Diff(777).ok());
}

// ---------------------------------------------------------------------------
// Probe dry runs
// ---------------------------------------------------------------------------

TEST(DryRunTest, EstimatesWithoutExecuting) {
  AgentFirstSystem db;
  testing_util::BuildPeopleDb(db.engine());
  Probe probe;
  probe.dry_run = true;
  probe.queries = {"SELECT count(*) FROM people",
                   "SELECT * FROM people CROSS JOIN orders"};
  auto r = db.HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->answers.size(), 2u);
  for (const QueryAnswer& a : r->answers) {
    EXPECT_TRUE(a.skipped);
    EXPECT_EQ(a.result, nullptr);
    EXPECT_GT(a.estimated_cost, 0.0);
    EXPECT_FALSE(a.plan_text.empty());
  }
  // Cross join estimate dwarfs the count.
  EXPECT_GT(r->answers[1].estimated_cost, r->answers[0].estimated_cost);
  // Nothing executed, nothing remembered.
  EXPECT_EQ(db.optimizer()->metrics().queries_executed, 0u);
}

TEST(DryRunTest, BindErrorsStillReported) {
  AgentFirstSystem db;
  testing_util::BuildPeopleDb(db.engine());
  Probe probe;
  probe.dry_run = true;
  probe.queries = {"SELECT nope FROM people"};
  auto r = db.HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->answers[0].status.ok());
}

}  // namespace
}  // namespace agentfirst
