// Morsel-driven parallel execution bench: operator throughput (scan,
// hash-join probe, aggregate) and probe-batch throughput at 1/2/4/8
// threads on the vectorized batch engine, reporting the scaling curve over
// the serial baseline. The row-at-a-time path (options.vectorized = false)
// is always serial, so it is measured at 1 thread only, for the serial
// vec/row speedup.
//
//   build/bench/bench_parallel_exec [--quick] [BENCH_parallel.json]
//
// With a path argument, the measured curves are also written there as JSON
// (the perf trajectory later PRs regress against). Scaling factors are only
// meaningful on a multi-core host; the tool records the visible CPU count
// alongside the numbers.
//
// --quick is the CI smoke mode (tools/check.sh): a smaller fact table,
// single-threaded, asserting the vectorized path is at least as fast as the
// row path on every plan workload, and that the probe batch (MQO cache and
// tracing on, as the probe optimizer ships) runs every executed query on
// the vectorized engine: `af.exec.vec.plans` rises by at least the number
// of executed queries and `af.exec.vec.fallback_nodes` does not move (exit
// 1 otherwise).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/system.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "opt/rules.h"
#include "plan/binder.h"
#include "sql/parser.h"

namespace agentfirst {
namespace {

constexpr size_t kFactRows = 1000000;
constexpr size_t kQuickFactRows = 200000;
constexpr size_t kDimRows = 1000;
constexpr int kRepetitions = 3;
const std::vector<size_t> kThreadCounts = {1, 2, 4, 8};

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Fixture {
  Catalog catalog;
  size_t fact_rows;

  explicit Fixture(size_t rows) : fact_rows(rows) {
    Rng rng(20260805);
    auto dim = *catalog.CreateTable(
        "dim", Schema({ColumnDef("id", DataType::kInt64, false, "dim"),
                       ColumnDef("label", DataType::kString, true, "dim")}));
    for (size_t i = 0; i < kDimRows; ++i) {
      (void)dim->AppendRow({Value::Int(static_cast<int64_t>(i)),
                            Value::String("label" + std::to_string(i % 97))});
    }
    auto fact = *catalog.CreateTable(
        "fact", Schema({ColumnDef("id", DataType::kInt64, false, "fact"),
                        ColumnDef("dim_id", DataType::kInt64, false, "fact"),
                        ColumnDef("v", DataType::kFloat64, false, "fact"),
                        ColumnDef("cat", DataType::kString, false, "fact")}));
    for (size_t i = 0; i < fact_rows; ++i) {
      (void)fact->AppendRow(
          {Value::Int(static_cast<int64_t>(i)),
           Value::Int(static_cast<int64_t>(rng.NextUint(kDimRows))),
           Value::Double(rng.NextDouble() * 100),
           Value::String("cat" + std::to_string(i % 16))});
    }
  }

  PlanPtr Plan(const std::string& sql) {
    Binder binder(&catalog);
    return OptimizePlan(*binder.BindSelect(**ParseSelect(sql)), &catalog);
  }
};

/// Best-of-k rows/s for one plan at one thread count, on a pool of exactly
/// `threads` workers so the sweep measures thread scaling, not default-pool
/// sizing. `vectorized` selects the execution path being measured.
double MeasurePlan(Fixture& fx, const std::string& sql, size_t threads,
                   bool vectorized) {
  PlanPtr plan = fx.Plan(sql);
  ThreadPool pool(threads);
  ExecOptions options;
  options.num_threads = threads;
  options.pool = &pool;
  options.vectorized = vectorized;
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto result = ExecutePlan(*plan, options);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   result.status().ToString().c_str());
      return 0.0;
    }
    best = std::max(best, static_cast<double>(fx.fact_rows) / Seconds(t0, t1));
  }
  return best;
}

/// Probe-batch throughput: a speculation batch of `kProbes` distinct probes
/// through the probe optimizer at a given batch_parallelism. Memory reuse
/// and sampling are disabled and the sub-plan cache dropped between reps so
/// every repetition pays full execution cost; the MQO cache and tracing
/// keep their defaults.
constexpr size_t kProbes = 16;

struct ProbeBatchRun {
  double probes_per_s = 0.0;
  /// Deltas over the timed repetitions: queries the optimizer executed,
  /// and the executor's vectorized-plan and row-fallback counters.
  uint64_t executed = 0;
  uint64_t vec_plans = 0;
  uint64_t fallback_nodes = 0;
};

ProbeBatchRun MeasureProbeBatch(size_t parallelism) {
  AgentFirstSystem::Options options;
  options.optimizer.enable_memory = false;
  options.optimizer.enable_aqp = false;
  options.optimizer.batch_parallelism = parallelism;
  options.optimizer.intra_query_threads = 1;
  AgentFirstSystem system(options);
  (void)system.ExecuteSql(
      "CREATE TABLE sales (id BIGINT, region VARCHAR, amount DOUBLE)");
  for (int chunk = 0; chunk < 50; ++chunk) {
    std::string insert = "INSERT INTO sales VALUES ";
    for (int i = 0; i < 1000; ++i) {
      int id = chunk * 1000 + i;
      if (i > 0) insert += ",";
      insert += "(" + std::to_string(id) + ",'r" + std::to_string(id % 11) +
                "'," + std::to_string((id * 37) % 1000) + ".0)";
    }
    (void)system.ExecuteSql(insert);
  }

  std::vector<Probe> probes;
  for (size_t p = 0; p < kProbes; ++p) {
    Probe probe;
    probe.agent_id = "agent" + std::to_string(p);
    probe.brief.text = "validate per-region revenue";
    probe.queries = {
        "SELECT count(*), sum(amount) FROM sales WHERE amount > " +
            std::to_string(p * 53 % 900),
        "SELECT region, count(*) FROM sales WHERE id > " +
            std::to_string(p * 1000) + " GROUP BY region",
    };
    probes.push_back(std::move(probe));
  }

  auto& reg = obs::MetricsRegistry::Default();
  obs::Counter* vec_plans = reg.GetCounter("af.exec.vec.plans");
  obs::Counter* fallbacks = reg.GetCounter("af.exec.vec.fallback_nodes");
  uint64_t executed_before = system.optimizer()->metrics().queries_executed;
  uint64_t plans_before = vec_plans->value();
  uint64_t fallbacks_before = fallbacks->value();
  ProbeBatchRun run;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    system.optimizer()->InvalidateCaches();
    auto t0 = std::chrono::steady_clock::now();
    auto responses = system.HandleProbeBatch(probes);
    auto t1 = std::chrono::steady_clock::now();
    if (!responses.ok() || responses->size() != kProbes) {
      std::fprintf(stderr, "probe batch failed\n");
      return {};
    }
    run.probes_per_s = std::max(run.probes_per_s,
                                static_cast<double>(kProbes) / Seconds(t0, t1));
  }
  run.executed =
      system.optimizer()->metrics().queries_executed - executed_before;
  run.vec_plans = vec_plans->value() - plans_before;
  run.fallback_nodes = fallbacks->value() - fallbacks_before;
  return run;
}

}  // namespace
}  // namespace agentfirst

int main(int argc, char** argv) {
  using namespace agentfirst;
  using bench::Num;

  bool quick = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  struct Workload {
    std::string key;
    std::string sql;  // empty = probe batch
  };
  std::vector<Workload> workloads = {
      {"scan_filter", "SELECT id, v FROM fact WHERE v > 99.0"},
      {"hash_join",
       "SELECT fact.id, dim.label FROM fact JOIN dim ON fact.dim_id = dim.id "
       "WHERE dim.label = 'label7'"},
      {"aggregate", "SELECT cat, count(*), sum(v) FROM fact GROUP BY cat"},
      {"probe_batch", ""},
  };
  std::vector<size_t> thread_counts = kThreadCounts;
  size_t fact_rows = kFactRows;
  if (quick) {
    thread_counts = {1};
    fact_rows = kQuickFactRows;
  }

  std::printf("building %zu-row fact table...\n", fact_rows);
  Fixture fx(fact_rows);

  // results_vec[w][t] = throughput (rows/s for plans, probes/s for the
  // batch) at thread_counts[t]; results_row[w][0] = the serial row path
  // (plans only: the probe path owns its own options).
  std::vector<std::vector<double>> results_vec(workloads.size());
  std::vector<std::vector<double>> results_row(workloads.size());
  ProbeBatchRun serial_batch;  // the probe batch at 1 thread
  for (size_t w = 0; w < workloads.size(); ++w) {
    bool per_probe = workloads[w].sql.empty();
    for (size_t threads : thread_counts) {
      double vec;
      if (per_probe) {
        ProbeBatchRun run = MeasureProbeBatch(threads);
        if (threads == 1) serial_batch = run;
        vec = run.probes_per_s;
      } else {
        vec = MeasurePlan(fx, workloads[w].sql, threads, /*vectorized=*/true);
      }
      results_vec[w].push_back(vec);
      std::printf("  %-12s threads=%zu  vec %.3g %s\n",
                  workloads[w].key.c_str(), threads, vec,
                  per_probe ? "probes/s" : "rows/s");
    }
    if (!per_probe) {
      double row = MeasurePlan(fx, workloads[w].sql, 1, /*vectorized=*/false);
      results_row[w].push_back(row);
      std::printf("  %-12s threads=1  row %.3g rows/s\n",
                  workloads[w].key.c_str(), row);
    }
  }

  std::vector<std::vector<std::string>> rows;
  for (size_t w = 0; w < workloads.size(); ++w) {
    bool per_probe = workloads[w].sql.empty();
    std::vector<std::string> row = {workloads[w].key};
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      row.push_back(per_probe ? Num(results_vec[w][t], 1)
                              : Num(results_vec[w][t] / 1e6, 3) + "M");
    }
    row.push_back(Num(results_vec[w].back() / results_vec[w].front(), 2) +
                  "x");
    row.push_back(per_probe ? "-"
                            : Num(results_vec[w][0] / results_row[w][0], 2) +
                                  "x");
    rows.push_back(std::move(row));
  }
  std::printf(
      "\nVectorized-path throughput (plans: M rows/s; probe_batch: "
      "probes/s), thread scaling, and serial vec/row speedup:\n");
  std::vector<std::string> header = {"workload"};
  for (size_t t : thread_counts) header.push_back(std::to_string(t) + "T");
  header.push_back("scale");
  header.push_back("vec/row");
  bench::PrintTable(header, rows);
  unsigned cpus = std::thread::hardware_concurrency();
  std::printf("\nvisible CPUs: %u%s\n", cpus,
              cpus < 4 ? "  (scaling curves need >= 4 cores to be meaningful)"
                       : "");

  if (quick) {
    // Smoke gate: vectorized execution must never lose to the row path on
    // its own home turf (it has a 4-8x margin in practice; equality means
    // the gate silently fell back to rows).
    bool ok = true;
    for (size_t w = 0; w < workloads.size(); ++w) {
      if (workloads[w].sql.empty()) continue;  // probe batch: gated below
      if (results_vec[w][0] < results_row[w][0]) {
        std::fprintf(stderr,
                     "FAIL: %s vectorized %.3g rows/s < row path %.3g rows/s\n",
                     workloads[w].key.c_str(), results_vec[w][0],
                     results_row[w][0]);
        ok = false;
      }
    }
    // Probe-path gate: every query the optimizer executed ran on the
    // vectorized engine, with no operator falling back to rows.
    std::printf("probe batch: %llu queries executed, %llu vectorized plans, "
                "%llu row fallbacks\n",
                static_cast<unsigned long long>(serial_batch.executed),
                static_cast<unsigned long long>(serial_batch.vec_plans),
                static_cast<unsigned long long>(serial_batch.fallback_nodes));
    if (serial_batch.executed == 0 ||
        serial_batch.vec_plans < serial_batch.executed ||
        serial_batch.fallback_nodes != 0) {
      std::fprintf(stderr,
                   "FAIL: the probe path fell back to the row path\n");
      ok = false;
    }
    std::printf("quick smoke: %s\n",
                ok ? "vec >= row on every workload, probes vectorized"
                   : "vectorized regression");
    if (!ok) return 1;
  }

  if (out_path != nullptr) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path);
      return 1;
    }
    // The probe batch has no row-path variant (the probe optimizer owns its
    // execution options), so the row-path section lists plan workloads only,
    // at 1 thread.
    auto dump = [&](const char* key,
                    const std::vector<std::vector<double>>& results,
                    bool plans_only, bool trailing_comma) {
      out << "  \"" << key << "\": {\n";
      const char* sep = "";
      for (size_t w = 0; w < workloads.size(); ++w) {
        if (plans_only && workloads[w].sql.empty()) continue;
        out << sep << "    \"" << workloads[w].key << "\": {";
        for (size_t t = 0; t < results[w].size(); ++t) {
          out << "\"" << thread_counts[t] << "\": " << Num(results[w][t], 1);
          if (t + 1 < results[w].size()) out << ", ";
        }
        out << "}";
        sep = ",\n";
      }
      out << "\n  }" << (trailing_comma ? "," : "") << "\n";
    };
    out << "{\n  \"bench\": \"bench_parallel_exec\",\n";
    out << "  \"visible_cpus\": " << cpus << ",\n";
    out << "  \"fact_rows\": " << fact_rows << ",\n";
    out << "  \"probes_per_batch\": " << kProbes << ",\n";
    out << "  \"units\": {\"plans\": \"rows_per_sec\", \"probe_batch\": "
           "\"probes_per_sec\"},\n";
    // "throughput" stays the headline (vectorized = the default path), so
    // the perf trajectory across PRs reads as one continuous series.
    dump("throughput", results_vec, /*plans_only=*/false,
         /*trailing_comma=*/true);
    dump("throughput_row_path", results_row, /*plans_only=*/true,
         /*trailing_comma=*/false);
    out << "}\n";
    std::printf("wrote %s\n", out_path);
  }
  return 0;
}
