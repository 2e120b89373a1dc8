// Sec. 5 end-to-end: the satisficing probe optimizer vs. an
// execute-everything-exactly baseline, on a batch of heterogeneous probes
// (exploration + formulation + a k-of-n satisficing probe) over a sizable
// database. Reports wall time, executed cost, and skipped work.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/system.h"
#include "workload/minibird.h"

namespace agentfirst {
namespace {

std::vector<Probe> BuildProbeBatch() {
  std::vector<Probe> probes;
  {
    Probe p;
    p.agent_id = "explorer";
    p.queries = {"SELECT table_name, num_rows FROM information_schema.tables",
                 "SELECT count(*) FROM sales",
                 "SELECT count(*) FROM stores"};
    p.brief.text = "exploring: getting a sense of where sales data lives";
    probes.push_back(p);
  }
  {
    Probe p;
    p.agent_id = "explorer";
    p.queries = {"SELECT year, count(*), sum(revenue) FROM sales GROUP BY year"};
    p.brief.text = "rough estimate is fine: statistics on sales per year";
    probes.push_back(p);
  }
  {
    Probe p;
    p.agent_id = "field1";
    p.queries = {
        "SELECT count(*) FROM sales WHERE year = 2024",
        "SELECT count(*) FROM sales WHERE year = 2025",
        "SELECT count(*) FROM sales WHERE month = 1",
        "SELECT count(*) FROM sales WHERE month = 6"};
    p.brief.text = "exploring; any one of these is enough, pick any";
    probes.push_back(p);
  }
  {
    Probe p;
    p.agent_id = "field2";
    p.queries = {
        "SELECT st.state, sum(s.revenue) AS total FROM sales s JOIN stores st "
        "ON s.store_id = st.store_id GROUP BY st.state ORDER BY total DESC "
        "LIMIT 3"};
    p.brief.text = "attempting the entire query; validate exactly";
    probes.push_back(p);
  }
  // Redundant re-asks from other field agents (the paper's army).
  for (int a = 0; a < 6; ++a) {
    Probe p;
    p.agent_id = "field_extra_" + std::to_string(a);
    p.queries = {"SELECT count(*) FROM sales WHERE year = 2024",
                 "SELECT year, count(*), sum(revenue) FROM sales GROUP BY year"};
    p.brief.text = "exploring sales volume per year";
    probes.push_back(p);
  }
  return probes;
}

struct Outcome {
  double millis = 0;
  double executed_cost = 0;
  double skipped_cost = 0;
  uint64_t executed = 0;
  uint64_t skipped = 0;
  uint64_t from_memory = 0;
  uint64_t approximate = 0;
};

Outcome RunConfig(bool agent_first) {
  MiniBirdOptions options;
  options.num_databases = 1;  // retail
  options.rows_per_fact_table = 60000;
  options.rows_per_dim_table = 64;
  options.seed = 4242;
  if (!agent_first) {
    // Baseline: classical database behavior -- every query runs exactly,
    // nothing is skipped, shared, remembered, or steered.
    auto& opt = options.system_options.optimizer;
    opt.enable_aqp = false;
    opt.enable_memory = false;
    opt.enable_mqo = false;
    opt.enable_semantic_pruning = false;
    opt.enable_satisficing = false;
    opt.enable_steering = false;
  }
  auto suite = GenerateMiniBird(options);
  AgentFirstSystem* system = suite[0].system.get();

  auto probes = BuildProbeBatch();
  auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < 3; ++round) {  // agents iterate over turns
    for (const Probe& p : probes) {
      auto r = system->HandleProbe(p);
      if (!r.ok()) std::fprintf(stderr, "probe failed: %s\n", r.status().ToString().c_str());
    }
  }
  auto end = std::chrono::steady_clock::now();

  const ProbeOptimizer::Metrics& m = system->optimizer()->metrics();
  Outcome out;
  out.millis = std::chrono::duration<double, std::milli>(end - start).count();
  out.executed_cost = m.executed_cost;
  out.skipped_cost = m.skipped_cost;
  out.executed = m.queries_executed;
  out.skipped = m.queries_skipped;
  out.from_memory = m.queries_from_memory;
  out.approximate = m.queries_approximate;
  return out;
}

void Run() {
  std::printf("=== Probe optimizer end-to-end: satisfice vs execute-all ===\n\n");
  Outcome baseline = RunConfig(false);
  Outcome agent_first = RunConfig(true);

  std::vector<std::vector<std::string>> rows = {
      {"wall time (ms)", bench::Num(baseline.millis, 1),
       bench::Num(agent_first.millis, 1)},
      {"queries executed exactly",
       std::to_string(baseline.executed - baseline.approximate),
       std::to_string(agent_first.executed - agent_first.approximate)},
      {"queries approximated", std::to_string(baseline.approximate),
       std::to_string(agent_first.approximate)},
      {"queries skipped (satisficed)", std::to_string(baseline.skipped),
       std::to_string(agent_first.skipped)},
      {"queries served from memory", std::to_string(baseline.from_memory),
       std::to_string(agent_first.from_memory)},
      {"executed cost (rows touched)", bench::Num(baseline.executed_cost, 0),
       bench::Num(agent_first.executed_cost, 0)},
      {"cost avoided", bench::Num(baseline.skipped_cost, 0),
       bench::Num(agent_first.skipped_cost, 0)},
  };
  bench::PrintTable({"metric", "execute-all baseline", "agent-first"}, rows);
  double speedup = agent_first.millis > 0 ? baseline.millis / agent_first.millis : 0;
  std::printf("\nwall-clock speedup of the agent-first configuration: %.1fx\n",
              speedup);
}

}  // namespace
}  // namespace agentfirst

int main() {
  agentfirst::Run();
  return 0;
}
