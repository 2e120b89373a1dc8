#include "core/probe.h"

#include "core/brief_interpreter.h"
#include "workload/minibird.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace agentfirst {
namespace {

// ---------------------------------------------------------------------------
// Brief interpreter
// ---------------------------------------------------------------------------

TEST(BriefInterpreterTest, DetectsPhases) {
  BriefInterpreter interp;
  Brief b;
  b.text = "exploring the schema to find where sales live";
  EXPECT_EQ(interp.Interpret(b).phase, ProbePhase::kMetadataExploration);
  b.text = "need the distinct values and distribution of the state column";
  EXPECT_EQ(interp.Interpret(b).phase, ProbePhase::kStatExploration);
  b.text = "verify the final answer exactly";
  EXPECT_EQ(interp.Interpret(b).phase, ProbePhase::kValidation);
  b.text = "attempting a candidate solution for the task";
  EXPECT_EQ(interp.Interpret(b).phase, ProbePhase::kSolutionFormulation);
  b.text = "completely unrelated text";
  EXPECT_EQ(interp.Interpret(b).phase, ProbePhase::kUnspecified);
}

TEST(BriefInterpreterTest, ExplicitPhaseWins) {
  BriefInterpreter interp;
  Brief b;
  b.text = "exploring the schema";
  b.phase = ProbePhase::kValidation;
  EXPECT_EQ(interp.Interpret(b).phase, ProbePhase::kValidation);
}

TEST(BriefInterpreterTest, DetectsAccuracy) {
  BriefInterpreter interp;
  Brief b;
  b.text = "a rough estimate is fine";
  EXPECT_NEAR(interp.Interpret(b).max_relative_error.value(), 0.10, 1e-9);
  b.text = "ballpark / order of magnitude";
  EXPECT_NEAR(interp.Interpret(b).max_relative_error.value(), 0.25, 1e-9);
  b.text = "I need the exact number";
  EXPECT_DOUBLE_EQ(interp.Interpret(b).max_relative_error.value(), 0.0);
}

TEST(BriefInterpreterTest, DetectsPriorityAndKofN) {
  BriefInterpreter interp;
  Brief b;
  b.text = "urgent: blocking the analysis";
  EXPECT_EQ(interp.Interpret(b).priority, 2);
  b = Brief{};
  b.text = "low priority, whenever you get to it";
  EXPECT_EQ(interp.Interpret(b).priority, -1);
  b = Brief{};
  b.text = "any one of these queries is enough, pick any";
  EXPECT_EQ(interp.Interpret(b).k_of_n, 1u);
}

TEST(BriefInterpreterTest, GoalKeywordsDropStopwords) {
  BriefInterpreter interp;
  Brief b;
  b.text = "We are looking for the total coffee revenue in Berkeley";
  auto keywords = interp.GoalKeywords(b);
  EXPECT_NE(std::find(keywords.begin(), keywords.end(), "coffee"), keywords.end());
  EXPECT_NE(std::find(keywords.begin(), keywords.end(), "revenue"), keywords.end());
  EXPECT_EQ(std::find(keywords.begin(), keywords.end(), "the"), keywords.end());
}

// ---------------------------------------------------------------------------
// Probe handling end-to-end on a small system
// ---------------------------------------------------------------------------

class ProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<AgentFirstSystem>();
    testing_util::BuildPeopleDb(system_->engine());
  }

  ProbeResponse Handle(Probe probe) {
    auto r = system_->HandleProbe(probe);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : ProbeResponse{};
  }

  std::unique_ptr<AgentFirstSystem> system_;
};

TEST_F(ProbeTest, SingleQueryProbeAnswered) {
  Probe probe;
  probe.queries = {"SELECT count(*) FROM people"};
  probe.brief.text = "verify exactly";
  ProbeResponse r = Handle(probe);
  ASSERT_EQ(r.answers.size(), 1u);
  ASSERT_TRUE(r.answers[0].status.ok());
  EXPECT_EQ(r.answers[0].result->rows[0][0].int_value(), 5);
  EXPECT_FALSE(r.answers[0].approximate);
}

TEST_F(ProbeTest, BindErrorReportedPerQuery) {
  Probe probe;
  probe.queries = {"SELECT nope FROM people", "SELECT count(*) FROM people"};
  ProbeResponse r = Handle(probe);
  ASSERT_EQ(r.answers.size(), 2u);
  EXPECT_FALSE(r.answers[0].status.ok());
  EXPECT_TRUE(r.answers[1].status.ok());
}

TEST_F(ProbeTest, MemoryShortCircuitsRepeatedProbes) {
  Probe probe;
  probe.agent_id = "a1";
  probe.queries = {"SELECT count(*) FROM people WHERE age > 20"};
  probe.brief.text = "verify exactly";
  ProbeResponse first = Handle(probe);
  ASSERT_TRUE(first.answers[0].status.ok());
  EXPECT_FALSE(first.answers[0].from_memory);
  ProbeResponse second = Handle(probe);
  ASSERT_TRUE(second.answers[0].status.ok());
  EXPECT_TRUE(second.answers[0].from_memory);
  EXPECT_TRUE(ResultsEquivalent(*first.answers[0].result, *second.answers[0].result));
}

TEST_F(ProbeTest, MemoryInvalidatedByWrites) {
  Probe probe;
  probe.queries = {"SELECT count(*) FROM people"};
  probe.brief.text = "verify exactly";
  ProbeResponse first = Handle(probe);
  ASSERT_TRUE(system_->ExecuteSql("INSERT INTO people VALUES (9,'zed',20,'austin')").ok());
  ProbeResponse second = Handle(probe);
  ASSERT_TRUE(second.answers[0].status.ok());
  EXPECT_FALSE(second.answers[0].from_memory);
  EXPECT_EQ(second.answers[0].result->rows[0][0].int_value(),
            first.answers[0].result->rows[0][0].int_value() + 1);
}

// A re-created table must not restart at a data version its predecessor
// had: the answer cache keys on (name, version) and would serve the dropped
// table's answer.
TEST_F(ProbeTest, RecreatedTableMissesTheAnswerCache) {
  ASSERT_TRUE(system_->ExecuteSql("CREATE TABLE t (x BIGINT)").ok());
  ASSERT_TRUE(system_->ExecuteSql("INSERT INTO t VALUES (1)").ok());
  Probe probe;
  probe.queries = {"SELECT sum(x) FROM t"};
  probe.brief.text = "verify exactly";
  ProbeResponse first = Handle(probe);
  ASSERT_TRUE(first.answers[0].status.ok());
  EXPECT_EQ(first.answers[0].result->rows[0][0].int_value(), 1);
  ASSERT_TRUE(system_->ExecuteSql("DROP TABLE t").ok());
  ASSERT_TRUE(system_->ExecuteSql("CREATE TABLE t (x BIGINT)").ok());
  ASSERT_TRUE(system_->ExecuteSql("INSERT INTO t VALUES (1000)").ok());
  ProbeResponse second = Handle(probe);
  ASSERT_TRUE(second.answers[0].status.ok());
  EXPECT_FALSE(second.answers[0].from_memory);
  EXPECT_EQ(second.answers[0].result->rows[0][0].int_value(), 1000);
}

// information_schema views are rebuilt at every bind, and the answer cache
// keys on a view's data version. A write must move that version even when
// it leaves the view's row count alone, and an unchanged catalog must keep
// it so the answer is still reused.
TEST_F(ProbeTest, InfoSchemaAnswersFollowWrites) {
  ASSERT_TRUE(system_->ExecuteSql("CREATE TABLE t (x BIGINT)").ok());
  ASSERT_TRUE(system_->ExecuteSql("INSERT INTO t VALUES (1)").ok());
  // The first column of the view's row for table t, or -1 when absent.
  auto value_for_t = [](const ProbeResponse& r) -> int64_t {
    const QueryAnswer& a = r.answers[0];
    if (!a.status.ok()) return -1;
    for (const Row& row : a.result->rows) {
      if (row[1].string_value() == "t") return row[0].int_value();
    }
    return -1;
  };
  Probe tables;
  tables.queries = {
      "SELECT num_rows, table_name FROM information_schema.tables"};
  tables.brief.text = "verify exactly";
  EXPECT_EQ(value_for_t(Handle(tables)), 1);
  ASSERT_TRUE(system_->ExecuteSql("INSERT INTO t VALUES (2)").ok());
  ProbeResponse after_write = Handle(tables);
  EXPECT_EQ(value_for_t(after_write), 2);
  EXPECT_FALSE(after_write.answers[0].from_memory);
  ProbeResponse unchanged = Handle(tables);
  EXPECT_EQ(value_for_t(unchanged), 2);
  EXPECT_TRUE(unchanged.answers[0].from_memory);

  Probe stats;
  stats.queries = {
      "SELECT num_distinct, table_name FROM information_schema.column_stats"};
  stats.brief.text = "verify exactly";
  EXPECT_EQ(value_for_t(Handle(stats)), 2);
  ASSERT_TRUE(system_->ExecuteSql("INSERT INTO t VALUES (3)").ok());
  ProbeResponse new_value = Handle(stats);
  EXPECT_EQ(value_for_t(new_value), 3);
  EXPECT_FALSE(new_value.answers[0].from_memory);
}

TEST_F(ProbeTest, KofNSatisficingSkipsQueries) {
  Probe probe;
  probe.queries = {"SELECT count(*) FROM people WHERE city = 'berkeley'",
                   "SELECT count(*) FROM people WHERE city = 'oakland'",
                   "SELECT count(*) FROM people WHERE city = 'seattle'"};
  probe.brief.k_of_n = 1;
  ProbeResponse r = Handle(probe);
  size_t answered = 0;
  size_t skipped = 0;
  for (const QueryAnswer& a : r.answers) {
    if (a.skipped) ++skipped;
    else if (a.status.ok()) ++answered;
  }
  EXPECT_EQ(answered, 1u);
  EXPECT_EQ(skipped, 2u);
}

TEST_F(ProbeTest, TerminationCriterionStopsEarly) {
  Probe probe;
  probe.queries = {"SELECT * FROM people", "SELECT * FROM orders"};
  probe.brief.enough_rows_total = 3;
  ProbeResponse r = Handle(probe);
  ASSERT_EQ(r.answers.size(), 2u);
  EXPECT_TRUE(r.answers[0].status.ok());
  EXPECT_TRUE(r.answers[1].skipped);
}

TEST_F(ProbeTest, WhyEmptyHintForBadEncoding) {
  Probe probe;
  probe.queries = {"SELECT count(*), min(age) FROM people WHERE city = 'BRK'"};
  probe.brief.text = "attempting part of the query";
  ProbeResponse r = Handle(probe);
  // count(*) = 0 means the result row exists; force an empty row set instead.
  Probe probe2;
  probe2.queries = {"SELECT name FROM people WHERE city = 'BRK'"};
  probe2.brief.text = "attempting part of the query";
  ProbeResponse r2 = Handle(probe2);
  bool found = false;
  for (const Hint& h : r2.hints) {
    if (h.kind == HintKind::kWhyEmptyResult) {
      found = true;
      EXPECT_NE(h.text.find("berkeley"), std::string::npos)
          << "hint should surface actual values: " << h.text;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ProbeTest, JoinSuggestionHint) {
  Probe probe;
  probe.queries = {"SELECT count(*) FROM orders"};
  probe.brief.text = "exploring order data";
  ProbeResponse r = Handle(probe);
  bool found = false;
  for (const Hint& h : r.hints) {
    if (h.kind == HintKind::kJoinSuggestion &&
        h.text.find("people") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ProbeTest, SemanticDiscoveryBeyondSql) {
  Probe probe;
  probe.semantic_search_phrase = "coffee products";
  probe.semantic_top_k = 5;
  ProbeResponse r = Handle(probe);
  ASSERT_FALSE(r.discoveries.empty());
  // The value 'coffee beans' in orders.item should surface.
  bool found_value = false;
  for (const SemanticMatch& m : r.discoveries) {
    if (m.kind == SemanticMatch::Kind::kValue && m.text == "coffee beans") {
      found_value = true;
    }
  }
  EXPECT_TRUE(found_value);
}

TEST_F(ProbeTest, ExploratoryProbeOverBigTableIsApproximate) {
  // Enlarge the table so the optimizer chooses to sample.
  for (int i = 0; i < 30000; ++i) {
    ASSERT_TRUE(system_->ExecuteSql(
        "INSERT INTO people VALUES (" + std::to_string(100 + i) +
        ",'p',30,'austin')").ok());
  }
  Probe probe;
  probe.queries = {"SELECT count(*) FROM people"};
  probe.brief.text = "exploring: just getting a sense of the data size";
  ProbeResponse r = Handle(probe);
  ASSERT_TRUE(r.answers[0].status.ok());
  EXPECT_TRUE(r.answers[0].approximate);
  EXPECT_LT(r.answers[0].sample_rate, 1.0);
  double est = r.answers[0].result->rows[0][0].AsDouble();
  EXPECT_NEAR(est, 30005.0, 30005.0 * 0.25);
}

TEST_F(ProbeTest, ValidationPhaseIsExactEvenWhenBig) {
  for (int i = 0; i < 30000; ++i) {
    ASSERT_TRUE(system_->ExecuteSql(
        "INSERT INTO people VALUES (" + std::to_string(100 + i) +
        ",'p',30,'austin')").ok());
  }
  Probe probe;
  probe.queries = {"SELECT count(*) FROM people"};
  probe.brief.text = "verify the final answer exactly";
  ProbeResponse r = Handle(probe);
  ASSERT_TRUE(r.answers[0].status.ok());
  EXPECT_FALSE(r.answers[0].approximate);
  EXPECT_EQ(r.answers[0].result->rows[0][0].int_value(), 30005);
}

TEST_F(ProbeTest, MetricsAccumulate) {
  Probe probe;
  probe.queries = {"SELECT count(*) FROM people"};
  Handle(probe);
  Handle(probe);
  const ProbeOptimizer::Metrics& m = system_->optimizer()->metrics();
  EXPECT_EQ(m.probes, 2u);
  EXPECT_EQ(m.queries_submitted, 2u);
  EXPECT_GE(m.queries_executed + m.queries_from_memory, 2u);
}

TEST_F(ProbeTest, ResponseToStringMentionsHintsAndAnswers) {
  Probe probe;
  probe.queries = {"SELECT name FROM people WHERE city = 'BRK'"};
  probe.brief.text = "attempting part of the query";
  ProbeResponse r = Handle(probe);
  std::string text = r.ToString();
  EXPECT_NE(text.find("query 0"), std::string::npos);
}

TEST_F(ProbeTest, ProbeIdsAssignedMonotonically) {
  Probe probe;
  probe.queries = {"SELECT 1"};
  ProbeResponse r1 = Handle(probe);
  ProbeResponse r2 = Handle(probe);
  EXPECT_GT(r2.probe_id, r1.probe_id);
}

}  // namespace
}  // namespace agentfirst
