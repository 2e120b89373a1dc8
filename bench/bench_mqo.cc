// Sec. 5.2 ablation: multi-query (shared sub-plan) execution of a redundant
// probe batch vs. executing every query independently. The redundancy comes
// from 50 parallel attempts per task (the Figure 2 workload), so this bench
// quantifies how much of that measured redundancy one shared ExecCache, the
// way the probe optimizer runs its queries, turns into saved work.

#include <benchmark/benchmark.h>

#include "agents/attempts.h"
#include "exec/executor.h"
#include "opt/rules.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "workload/minibird.h"

namespace agentfirst {
namespace {

struct Workload {
  std::vector<MiniBirdDatabase> suite;
  std::vector<PlanPtr> plans;           // 50 attempts for one task (redundant)
  std::vector<PlanPtr> distinct_plans;  // 50 structurally distinct queries
};

Workload* BuildWorkload() {
  auto* w = new Workload();
  MiniBirdOptions options;
  options.num_databases = 1;
  options.rows_per_fact_table = 20000;
  options.rows_per_dim_table = 64;
  options.seed = 42;
  w->suite = GenerateMiniBird(options);
  auto& db = w->suite[0];
  Binder binder(db.system->catalog());
  const TaskSpec& task = db.tasks[0];
  for (const std::string& sql : GenerateAttempts(task, 50, 0.5, 7)) {
    auto parsed = ParseSelect(sql);
    if (!parsed.ok()) continue;
    auto plan = binder.BindSelect(**parsed);
    if (!plan.ok()) continue;
    w->plans.push_back(OptimizePlan(*plan));
  }
  // Low-redundancy batch: 50 queries over disjoint predicates; nothing to
  // share, so this isolates the cache's own overhead.
  for (int i = 0; i < 50; ++i) {
    std::string sql = "SELECT count(*), sum(revenue) FROM sales WHERE month = " +
                      std::to_string(1 + i % 12) + " AND quantity > " +
                      std::to_string(i % 19);
    auto parsed = ParseSelect(sql);
    auto plan = binder.BindSelect(**parsed);
    if (plan.ok()) w->distinct_plans.push_back(OptimizePlan(*plan));
  }
  return w;
}

Workload* GetWorkload() {
  static Workload* w = BuildWorkload();
  return w;
}

void BM_IndependentExecution(benchmark::State& state) {
  Workload* w = GetWorkload();
  for (auto _ : state) {
    for (const PlanPtr& plan : w->plans) {
      auto r = ExecutePlan(*plan);
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w->plans.size()));
}
BENCHMARK(BM_IndependentExecution)->Unit(benchmark::kMillisecond);

/// Executes `plans` in order through `cache`, so identical sub-plans across
/// the batch (and across calls with the same cache) run once.
void RunThroughCache(const std::vector<PlanPtr>& plans, ExecCache* cache) {
  ExecOptions options;
  options.cache = cache;
  for (const PlanPtr& plan : plans) {
    auto r = ExecutePlan(*plan, options);
    benchmark::DoNotOptimize(r);
  }
}

void BM_SharedBatchExecution(benchmark::State& state) {
  Workload* w = GetWorkload();
  for (auto _ : state) {
    ExecCache cache;  // fresh cache each iteration: fair comparison
    RunThroughCache(w->plans, &cache);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w->plans.size()));
}
BENCHMARK(BM_SharedBatchExecution)->Unit(benchmark::kMillisecond);

// Low-redundancy batch: with nothing to share, this is the cache's cost
// (the redundant batch above is the opposite regime, where one computation
// feeds all 50 probes).
void BM_DistinctBatchSerial(benchmark::State& state) {
  Workload* w = GetWorkload();
  for (auto _ : state) {
    ExecCache cache;
    RunThroughCache(w->distinct_plans, &cache);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w->distinct_plans.size()));
}
BENCHMARK(BM_DistinctBatchSerial)->Unit(benchmark::kMillisecond);

void BM_SharedBatchWarmCache(benchmark::State& state) {
  Workload* w = GetWorkload();
  ExecCache cache;
  RunThroughCache(w->plans, &cache);  // warm
  for (auto _ : state) {
    RunThroughCache(w->plans, &cache);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w->plans.size()));
}
BENCHMARK(BM_SharedBatchWarmCache)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace agentfirst

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Report the cold batch's cache traffic once, outside timing.
  using namespace agentfirst;
  auto* w = GetWorkload();
  ExecCache cache;
  RunThroughCache(w->plans, &cache);
  std::printf("\ncold 50-attempt batch through one cache: %llu hits, %llu "
              "misses, %zu cached results\n",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()), cache.size());
  return 0;
}
