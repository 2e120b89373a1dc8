// Telemetry overhead bench: the spine must be close to free.
//
//   build/bench/bench_obs [BENCH_obs.json]
//
// Exits 1 when either verdict below is FAIL (the JSON is still written).
//
// Four measurements:
//   1. Hook costs in isolation (ns/op): cached-pointer Counter::Add and
//      Histogram::Record (the enabled hot path — one relaxed atomic op),
//      a null-span SpanTimer (the disabled tracing path — one branch), and
//      a full registry GetCounter lookup (what the cached-pointer idiom
//      saves; never appears on a hot path).
//   2. Probe batch wall time with tracing enabled vs disabled: the
//      recorded per-probe span trees must cost only a small fraction of
//      real execution.
//   3. Same batch with the metrics registry hot (it is always on) — there
//      is no compile-out; the counters ARE the product, so their cost is
//      visible in every number above.
//   4. Trace render cost for one response (the EXPLAIN path agents read).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/probe_builder.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace agentfirst {
namespace {

constexpr int kRepetitions = 5;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Opaque null span: the compiler cannot prove the pointer null, so the
/// SpanTimer's disabled-path branch is actually executed and measured.
__attribute__((noinline)) obs::TraceSpan* NullSpan() { return nullptr; }

/// Best-of-k ns per iteration for `body` run `iters` times.
template <typename F>
double MeasureNs(size_t iters, F&& body) {
  double best = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) body(i);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, Seconds(t0, t1) * 1e9 / static_cast<double>(iters));
  }
  return best;
}

/// One system with the 50k-row sales table loaded, tracing on or off.
/// Memory and MQO are disabled so every repetition re-executes the same
/// work instead of hitting caches.
struct BatchFixture {
  AgentFirstSystem system;
  double best_seconds = 1e30;
  std::string one_trace;  // deterministic rendering of the first response

  static AgentFirstSystem::Options MakeOptions(bool tracing) {
    AgentFirstSystem::Options options;
    options.optimizer.enable_tracing = tracing;
    options.optimizer.enable_memory = false;
    options.optimizer.enable_mqo = false;
    return options;
  }

  explicit BatchFixture(bool tracing) : system(MakeOptions(tracing)) {
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
  }

  /// Times one 16-probe validation batch. Fresh agent ids and fresh
  /// predicate constants per repetition: the optimizer's cross-turn
  /// dropping remembers what each agent already asked, and the shared
  /// result cache would serve a byte-identical repeat plan without
  /// executing — either way a repeat batch would stop measuring real work.
  void RunOnce(int rep) {
    std::vector<Probe> probes;
    for (size_t p = 0; p < 16; ++p) {
      size_t salt = static_cast<size_t>(rep);
      probes.push_back(
          ProbeBuilder("agent" + std::to_string(p) + "r" + std::to_string(rep))
              .Query("SELECT count(*), sum(amount) FROM sales WHERE amount > " +
                     std::to_string((p * 53 + salt) % 900))
              .Query("SELECT region, count(*) FROM sales WHERE id > " +
                     std::to_string(p * 1000 + salt) + " GROUP BY region")
              .Brief("verify the final numbers exactly")
              .Build());
    }
    auto t0 = std::chrono::steady_clock::now();
    auto responses = system.HandleProbeBatch(probes);
    auto t1 = std::chrono::steady_clock::now();
    if (!responses.ok() || responses->empty()) {
      std::fprintf(stderr, "batch failed\n");
      return;
    }
    best_seconds = std::min(best_seconds, Seconds(t0, t1));
    one_trace = (*responses)[0].trace.Render(false);
  }
};

}  // namespace
}  // namespace agentfirst

int main(int argc, char** argv) {
  using namespace agentfirst;
  using bench::Num;

  // 1. Hook costs in isolation.
  constexpr size_t kIters = 50'000'000;
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench.counter");
  obs::Histogram* hist = registry.GetHistogram("bench.hist_us");
  double counter_ns = MeasureNs(kIters, [&](size_t) { counter->Increment(); });
  double hist_ns = MeasureNs(kIters / 5, [&](size_t i) { hist->Record(i); });
  double null_span_ns =
      MeasureNs(kIters, [&](size_t) { obs::SpanTimer t(NullSpan()); });
  double lookup_ns = MeasureNs(kIters / 50, [&](size_t) {
    registry.GetCounter("bench.counter")->Increment();
  });
  std::printf("hook costs (best of %d):\n", kRepetitions);
  bench::PrintTable(
      {"hook", "ns/op"},
      {{"Counter::Add (cached ptr)", Num(counter_ns, 2)},
       {"Histogram::Record", Num(hist_ns, 2)},
       {"SpanTimer(nullptr) [tracing off]", Num(null_span_ns, 2)},
       {"registry GetCounter lookup", Num(lookup_ns, 2)}});
  // Keep the counters observable so the adds cannot be elided.
  std::printf("  (checksum: counter=%llu hist=%llu)\n",
              static_cast<unsigned long long>(counter->value()),
              static_cast<unsigned long long>(hist->count()));

  // 2./3. Probe batch with tracing on vs off. Repetitions are interleaved
  // across the two fixtures so ambient noise (thermal, page cache) hits
  // both configurations symmetrically.
  std::printf("\n16-probe batch over 50k rows (best of %d):\n", kRepetitions);
  BatchFixture off(false);
  BatchFixture on(true);
  for (int rep = 0; rep < kRepetitions; ++rep) {
    off.RunOnce(rep);
    on.RunOnce(rep);
  }
  double overhead_pct =
      off.best_seconds > 0
          ? (on.best_seconds - off.best_seconds) / off.best_seconds * 100.0
          : 0.0;
  std::printf("  tracing off %.2f ms, on %.2f ms (%+.2f%%)\n",
              off.best_seconds * 1e3, on.best_seconds * 1e3, overhead_pct);

  // 4. Render cost for one span tree (the per-probe EXPLAIN agents read).
  double render_ns = 0.0;
  {
    // Re-render a representative tree many times.
    obs::TraceSpan root;
    root.name = "probe";
    for (int q = 0; q < 2; ++q) {
      obs::TraceSpan* qs = root.AddChild("query[" + std::to_string(q) + "]");
      qs->AddChild("plan")->AddNote("est_cost", "12345.0");
      obs::TraceSpan* ex = qs->AddChild("exec");
      for (const char* op : {"op:Scan", "op:Aggregate", "op:Project"}) {
        ex->AddChild(op)->AddNote("rows", "1000");
      }
    }
    obs::AssignSpanIds(&root, 42);
    size_t total = 0;
    render_ns = MeasureNs(20'000, [&](size_t) {
      total += root.Render(false).size();
    });
    std::printf("  trace render: %.0f ns per response (checksum %zu)\n",
                render_ns, total);
  }

  const bool hook_ok = null_span_ns <= 10.0;
  const bool tracing_ok = overhead_pct < 10.0;
  std::printf("\nverdicts: disabled-path hook %s (<=10ns target), "
              "tracing overhead %s (<10%% of batch)\n",
              hook_ok ? "PASS" : "FAIL", tracing_ok ? "PASS" : "FAIL");

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", argv[1]);
      return 1;
    }
    out << "{\n  \"bench\": \"bench_obs\",\n";
    out << "  \"counter_add_ns\": " << Num(counter_ns, 3) << ",\n";
    out << "  \"histogram_record_ns\": " << Num(hist_ns, 3) << ",\n";
    out << "  \"disabled_span_hook_ns\": " << Num(null_span_ns, 3) << ",\n";
    out << "  \"registry_lookup_ns\": " << Num(lookup_ns, 3) << ",\n";
    out << "  \"batch_ms\": {\"tracing_off\": "
        << Num(off.best_seconds * 1e3, 3)
        << ", \"tracing_on\": " << Num(on.best_seconds * 1e3, 3) << "},\n";
    out << "  \"tracing_overhead_pct\": " << Num(overhead_pct, 3) << ",\n";
    out << "  \"trace_render_ns\": " << Num(render_ns, 1) << "\n";
    out << "}\n";
    std::printf("wrote %s\n", argv[1]);
  }
  return hook_ok && tracing_ok ? 0 : 1;
}
