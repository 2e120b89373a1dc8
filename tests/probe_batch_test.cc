// Tests for the probe batch API (admission control by priority/phase) and
// the materialization advisor.

#include "core/system.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace agentfirst {
namespace {

class ProbeBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    system_ = std::make_unique<AgentFirstSystem>();
    testing_util::BuildPeopleDb(system_->engine());
  }
  std::unique_ptr<AgentFirstSystem> system_;
};

TEST_F(ProbeBatchTest, ResponsesReturnInSubmissionOrder) {
  std::vector<Probe> probes;
  for (int i = 0; i < 3; ++i) {
    Probe p;
    p.queries = {"SELECT count(*) FROM people WHERE id > " + std::to_string(i)};
    probes.push_back(p);
  }
  auto responses = system_->HandleProbeBatch(probes);
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE((*responses)[i].answers[0].status.ok());
    EXPECT_EQ((*responses)[i].answers[0].result->rows[0][0].int_value(),
              static_cast<int64_t>(5 - i));
  }
}

TEST_F(ProbeBatchTest, PriorityOrderDrivesExecution) {
  // The low-priority probe and high-priority probe issue the same query;
  // whichever runs first pays the execution, the second hits memory. With
  // correct admission control the high-priority (urgent) one executes.
  Probe low;
  low.agent_id = "low";
  low.queries = {"SELECT count(*) FROM people"};
  low.brief.text = "low priority, whenever";
  Probe high;
  high.agent_id = "high";
  high.queries = {"SELECT count(*) FROM people"};
  high.brief.text = "urgent: blocking";
  auto responses = system_->HandleProbeBatch({low, high});
  ASSERT_TRUE(responses.ok());
  // Submission order preserved in the output...
  EXPECT_TRUE((*responses)[0].answers[0].from_memory);   // low ran second
  EXPECT_FALSE((*responses)[1].answers[0].from_memory);  // high ran first
}

TEST_F(ProbeBatchTest, PhaseRankBreaksTies) {
  Probe explore;
  explore.agent_id = "e";
  explore.queries = {"SELECT count(*) FROM orders"};
  explore.brief.text = "exploring the schema";
  Probe validate;
  validate.agent_id = "v";
  validate.queries = {"SELECT count(*) FROM orders"};
  validate.brief.text = "verify the final answer exactly";
  auto responses = system_->HandleProbeBatch({explore, validate});
  ASSERT_TRUE(responses.ok());
  // Validation outranks exploration, so the explorer sees a memory hit.
  EXPECT_TRUE((*responses)[0].answers[0].from_memory);
  EXPECT_FALSE((*responses)[1].answers[0].from_memory);
}

TEST_F(ProbeBatchTest, UnspecifiedPhaseOutranksExploration) {
  // The batch orders phases as server admission does: a probe of unknown
  // intent runs before statistics exploration, so the explorer reuses its
  // answer.
  Probe explore;
  explore.agent_id = "e";
  explore.queries = {"SELECT count(*) FROM orders"};
  explore.brief.phase = ProbePhase::kStatExploration;
  Probe unspecified;
  unspecified.agent_id = "u";
  unspecified.queries = {"SELECT count(*) FROM orders"};
  auto responses = system_->HandleProbeBatch({explore, unspecified});
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE((*responses)[0].answers[0].from_memory);
  EXPECT_FALSE((*responses)[1].answers[0].from_memory);
}

TEST_F(ProbeBatchTest, CrossProbeSharingViaMemory) {
  std::vector<Probe> probes;
  for (int i = 0; i < 8; ++i) {
    Probe p;
    p.agent_id = "agent" + std::to_string(i);
    p.queries = {"SELECT city, count(*) FROM people GROUP BY city"};
    p.brief.text = "verify exactly";
    probes.push_back(p);
  }
  auto responses = system_->HandleProbeBatch(probes);
  ASSERT_TRUE(responses.ok());
  size_t from_memory = 0;
  for (const auto& r : *responses) {
    if (r.answers[0].from_memory) ++from_memory;
  }
  EXPECT_EQ(from_memory, 7u);  // only the first executes
}

TEST_F(ProbeBatchTest, MaterializationAdvisorFiresOnRecurrence) {
  // The same join recurs across probes with *different* tops, so the memory
  // store cannot short-circuit the whole query; the advisor must notice the
  // shared join sub-plan.
  const char* variants[] = {
      "SELECT count(*) FROM people JOIN orders ON people.id = orders.person_id",
      "SELECT max(amount) FROM people JOIN orders ON people.id = orders.person_id",
      "SELECT min(amount) FROM people JOIN orders ON people.id = orders.person_id",
      "SELECT sum(amount) FROM people JOIN orders ON people.id = orders.person_id",
  };
  bool saw_materialization_hint = false;
  for (const char* sql : variants) {
    Probe p;
    p.queries = {sql};
    auto r = system_->HandleProbe(p);
    ASSERT_TRUE(r.ok());
    for (const Hint& h : r->hints) {
      if (h.kind == HintKind::kSchemaGuidance &&
          h.text.find("materialized") != std::string::npos) {
        saw_materialization_hint = true;
      }
    }
  }
  EXPECT_TRUE(saw_materialization_hint);
  EXPECT_GE(system_->optimizer()->metrics().materialization_suggestions, 1u);
}

TEST_F(ProbeBatchTest, SubsumptionPrunesCoveredQueries) {
  // During exploration, a query that appears as a sub-plan of another query
  // in the same probe is skipped, and the skip reason points at the cover.
  Probe probe;
  probe.brief.text = "exploring the people data";
  probe.queries = {
      "SELECT * FROM people",                       // covered by the join below
      "SELECT * FROM people JOIN orders ON people.id = orders.person_id",
  };
  auto r = system_->HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->answers[0].skipped);
  EXPECT_NE(r->answers[0].skip_reason.find("subsumed"), std::string::npos)
      << r->answers[0].skip_reason;
  EXPECT_FALSE(r->answers[1].skipped);
}

TEST_F(ProbeBatchTest, IdenticalQueriesInProbeRunOnce) {
  Probe probe;
  probe.brief.text = "exploring";
  probe.queries = {"SELECT count(*) FROM people", "SELECT count(*) FROM people"};
  auto r = system_->HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->answers[0].skipped);
  EXPECT_TRUE(r->answers[1].skipped);
}

TEST_F(ProbeBatchTest, SubsumptionDisabledOutsideExploration) {
  Probe probe;
  probe.brief.text = "verify the final answers exactly";
  probe.queries = {
      "SELECT * FROM people",
      "SELECT * FROM people JOIN orders ON people.id = orders.person_id",
  };
  auto r = system_->HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->answers[0].skipped);
  EXPECT_FALSE(r->answers[1].skipped);
}

TEST_F(ProbeBatchTest, QueryBranchSeesHypotheticalWorld) {
  ASSERT_TRUE(system_->EnableBranching("people").ok());
  auto b = *system_->branches()->Fork(BranchManager::kMainBranch);
  ASSERT_TRUE(system_->branches()
                  ->Write(b, "people", 0, 2, Value::Int(100))
                  .ok());  // alice's age
  auto in_branch = system_->QueryBranch(b, "SELECT max(age) FROM people");
  ASSERT_TRUE(in_branch.ok()) << in_branch.status().ToString();
  EXPECT_EQ((*in_branch)->rows[0][0].int_value(), 100);
  // The main catalog is unaffected.
  auto main_view = system_->ExecuteSql("SELECT max(age) FROM people");
  ASSERT_TRUE(main_view.ok());
  EXPECT_EQ((*main_view)->rows[0][0].int_value(), 41);
  // Unknown branch errors.
  EXPECT_FALSE(system_->QueryBranch(999, "SELECT 1").ok());
}

TEST_F(ProbeBatchTest, QueryBranchSupportsJoinsOverBranchTables) {
  ASSERT_TRUE(system_->EnableBranching("people").ok());
  ASSERT_TRUE(system_->EnableBranching("orders").ok());
  auto b = *system_->branches()->Fork(BranchManager::kMainBranch);
  // Repoint the dangling order (person_id 9) at dan (id 4).
  ASSERT_TRUE(system_->branches()->Write(b, "orders", 4, 1, Value::Int(4)).ok());
  auto r = system_->QueryBranch(
      b, "SELECT count(*) FROM people JOIN orders ON people.id = orders.person_id");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->rows[0][0].int_value(), 5);  // was 4 on main
}

TEST_F(ProbeBatchTest, StopWhenTerminationFunction) {
  Probe probe;
  probe.queries = {"SELECT name FROM people WHERE city = 'berkeley'",
                   "SELECT name FROM people WHERE city = 'oakland'",
                   "SELECT name FROM people WHERE city = 'seattle'"};
  // Agent-defined criterion: stop once any answer has >= 2 rows.
  probe.brief.stop_when = [](const ResultSet& rs) { return rs.rows.size() >= 2; };
  auto r = system_->HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->answers[0].skipped);  // berkeley: 3 rows -> fires
  EXPECT_TRUE(r->answers[1].skipped);
  EXPECT_TRUE(r->answers[2].skipped);
  EXPECT_NE(r->answers[1].skip_reason.find("stop_when"), std::string::npos);
}

TEST_F(ProbeBatchTest, StopWhenNotFiringRunsEverything) {
  Probe probe;
  probe.queries = {"SELECT name FROM people WHERE city = 'oakland'",
                   "SELECT name FROM people WHERE city = 'seattle'"};
  probe.brief.stop_when = [](const ResultSet& rs) { return rs.rows.size() >= 99; };
  auto r = system_->HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->answers[0].skipped);
  EXPECT_FALSE(r->answers[1].skipped);
}

TEST_F(ProbeBatchTest, CostBudgetShedsExpensiveQueries) {
  // Bulk up orders so the cross join dwarfs the cheap count.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(system_->ExecuteSql("INSERT INTO orders VALUES (" +
                                    std::to_string(1000 + i) +
                                    ", 1, 1.0, 'bulk')").ok());
  }
  Probe probe;
  probe.brief.text = "exploring order volume";
  probe.brief.limits.CostBudget(2000.0);  // rows-touched budget
  probe.queries = {
      "SELECT count(*) FROM orders",
      "SELECT count(*) FROM orders o1 CROSS JOIN orders o2",  // way over budget
  };
  auto r = system_->HandleProbe(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->answers[0].skipped);
  EXPECT_TRUE(r->answers[1].skipped);
  EXPECT_NE(r->answers[1].skip_reason.find("budget"), std::string::npos)
      << r->answers[1].skip_reason;
}

TEST_F(ProbeBatchTest, InvestHeuristicTurnsRecurringWorkExact) {
  // Grow the table so exploratory probes sample.
  std::string insert = "INSERT INTO people VALUES ";
  for (int i = 0; i < 30000; ++i) {
    if (i > 0) insert += ",";
    insert += "(" + std::to_string(100 + i) + ",'p',30,'austin')";
  }
  ASSERT_TRUE(system_->ExecuteSql(insert).ok());

  Probe probe;
  probe.brief.text = "exploring: just getting a sense of the data size";
  probe.queries = {"SELECT count(*) FROM people"};
  // First two asks are approximate; by the third (invest threshold), the
  // system answers exactly so the memory store holds a reusable answer.
  auto r1 = system_->HandleProbe(probe);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->answers[0].approximate);
  auto r2 = system_->HandleProbe(probe);
  ASSERT_TRUE(r2.ok());  // served from memory (approximate artifact)
  auto r3 = system_->HandleProbe(probe);
  ASSERT_TRUE(r3.ok());
  // Issue with a *different projection* so memory misses but the core
  // relation has recurred enough to invest.
  Probe variant;
  variant.brief.text = "exploring: just getting a sense of the data size";
  variant.queries = {"SELECT count(*), max(age) FROM people"};
  auto r4 = system_->HandleProbe(variant);
  ASSERT_TRUE(r4.ok());
  ASSERT_TRUE(r4->answers[0].status.ok());
  EXPECT_FALSE(r4->answers[0].approximate)
      << "recurring relation should be answered exactly (invest heuristic)";
  EXPECT_EQ(r4->answers[0].result->rows[0][0].int_value(), 30005);
}

TEST_F(ProbeBatchTest, CrossTurnVariantDropped) {
  // Turn 1: an agent explores a relation. Turn 2: the same agent asks a
  // projection variant over the same relation -- no new information, so the
  // system drops it and names the covering query.
  Probe first;
  first.agent_id = "repeat-agent";
  first.brief.text = "exploring the people data";
  first.queries = {"SELECT name, age FROM people"};
  ASSERT_TRUE(system_->HandleProbe(first).ok());

  Probe variant;
  variant.agent_id = "repeat-agent";
  variant.brief.text = "exploring the people data";
  variant.queries = {"SELECT city FROM people"};
  auto r = system_->HandleProbe(variant);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->answers[0].skipped);
  EXPECT_NE(r->answers[0].skip_reason.find("earlier probe"), std::string::npos)
      << r->answers[0].skip_reason;

  // A different agent asking the same variant gets a real answer.
  Probe other;
  other.agent_id = "someone-else";
  other.brief.text = "exploring the people data";
  other.queries = {"SELECT city FROM people"};
  auto r2 = system_->HandleProbe(other);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->answers[0].skipped);

  // Validation-phase re-asks are never dropped.
  Probe validate;
  validate.agent_id = "repeat-agent";
  validate.brief.text = "verify exactly";
  validate.queries = {"SELECT city FROM people"};
  auto r3 = system_->HandleProbe(validate);
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(r3->answers[0].skipped);
}

TEST_F(ProbeBatchTest, EmptyBatchIsFine) {
  auto responses = system_->HandleProbeBatch({});
  ASSERT_TRUE(responses.ok());
  EXPECT_TRUE(responses->empty());
}

}  // namespace
}  // namespace agentfirst
