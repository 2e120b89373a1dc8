// A fleet of simulated field agents working a MiniBird task suite through
// the batch probe API: dry-run cost estimation, priority-aware admission
// control, cross-agent sharing through the answer cache, and the system's
// accounting of how much speculative work it absorbed.
//
//   ./build/examples/agent_fleet

#include <cstdio>

#include "agents/ensemble.h"
#include "agents/sim_agent.h"
#include "core/probe_builder.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "workload/minibird.h"

using namespace agentfirst;

int main() {
  MiniBirdOptions options;
  options.num_databases = 1;  // retail domain
  options.rows_per_fact_table = 20000;
  options.rows_per_dim_table = 64;
  options.seed = 7;
  auto suite = GenerateMiniBird(options);
  AgentFirstSystem* db = suite[0].system.get();

  std::printf("database: %s (%zu tables)\n\n", suite[0].name.c_str(),
              db->catalog()->NumTables());

  // --- 1. Dry run: ask for cost estimates before committing to work ------
  Probe dry =
      ProbeBuilder("planner")
          .DryRun()
          .Query("SELECT count(*) FROM sales")
          .Query("SELECT st.state, sum(s.revenue) FROM sales s JOIN stores st "
                 "ON s.store_id = st.store_id GROUP BY st.state")
          .Query("SELECT s1.sale_id FROM sales s1 CROSS JOIN sales s2 "
                 "LIMIT 10")  // ouch
          .Build();
  auto estimates = db->HandleProbe(dry);
  if (!estimates.ok()) return 1;
  std::printf("dry-run cost estimates (nothing executed):\n");
  for (size_t i = 0; i < estimates->answers.size(); ++i) {
    const QueryAnswer& a = estimates->answers[i];
    std::printf("  q%zu: est. cost %.0f rows-touched, est. output %.0f rows\n",
                i, a.estimated_cost, a.estimated_rows);
  }
  std::printf("  -> the agent drops q2 (the accidental cross join) before it "
              "ever runs.\n\n");

  // --- 2. A prioritized probe batch from several agents ------------------
  std::vector<Probe> batch;
  batch.push_back(
      ProbeBuilder("explorer-1")
          .Query("SELECT table_name, num_rows FROM information_schema.tables")
          .Query("SELECT column_name, num_distinct, most_common_value FROM "
                 "information_schema.column_stats WHERE table_name = 'sales'")
          .Brief("low priority background exploration of the sales schema")
          .Build());
  batch.push_back(
      ProbeBuilder("validator")
          .Query("SELECT count(*) FROM sales WHERE year = 2025")
          .Brief("urgent: verify the final 2025 sales count exactly")
          .Build());
  batch.push_back(
      ProbeBuilder("explorer-2")
          .Query("SELECT count(*) FROM sales WHERE year = 2025")  // duplicate!
          .Brief("exploring sales volume")
          .Build());
  auto responses = db->HandleProbeBatch(batch);
  if (!responses.ok()) return 1;
  std::printf("probe batch of %zu probes answered; admission control ran the "
              "urgent validation first:\n", batch.size());
  std::printf("  validator from_memory=%s, explorer-2 (duplicate query) "
              "from_memory=%s\n\n",
              (*responses)[1].answers[0].from_memory ? "yes" : "no",
              (*responses)[2].answers[0].from_memory ? "yes" : "no");

  // --- 3. Let simulated agents loose on the real tasks -------------------
  size_t solved = 0;
  size_t episodes = 0;
  for (const TaskSpec& task : suite[0].tasks) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      EpisodeOptions eo;
      eo.seed = seed;
      EpisodeResult r = RunEpisode(db, task, StrongAgentProfile(), eo);
      ++episodes;
      if (r.solved) ++solved;
    }
  }
  std::printf("agent fleet: %zu/%zu episodes solved their task\n", solved,
              episodes);

  const ProbeOptimizer::Metrics& m = db->optimizer()->metrics();
  std::printf("\nsystem accounting across the whole session:\n");
  std::printf("  probes handled:        %llu\n",
              static_cast<unsigned long long>(m.probes));
  std::printf("  queries executed:      %llu\n",
              static_cast<unsigned long long>(m.queries_executed));
  std::printf("  served from memory:    %llu\n",
              static_cast<unsigned long long>(m.queries_from_memory));
  std::printf("  approximated:          %llu\n",
              static_cast<unsigned long long>(m.queries_approximate));
  std::printf("  skipped (satisficing): %llu\n",
              static_cast<unsigned long long>(m.queries_skipped));
  std::printf("  sub-plan cache hits:   %llu\n",
              static_cast<unsigned long long>(obs::MetricsRegistry::Default()
                                                  .GetCounter("af.exec.cache.hits")
                                                  ->value()));
  std::printf("  memory artifacts:      %zu\n", db->memory()->size());
  return 0;
}
