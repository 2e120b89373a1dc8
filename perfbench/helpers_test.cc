// Self-test of the benchmark's percentile, metric-name and span self-time
// helpers. Prints one line per failed check and exits non-zero if any
// failed.
//
//   .bench_build/perfbench_helpers_test

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

agentfirst::obs::TraceSpan* Child(agentfirst::obs::TraceSpan* parent,
                                  const std::string& name, double ms) {
  agentfirst::obs::TraceSpan* span = parent->AddChild(name);
  span->duration_ms = ms;
  return span;
}

/// A probe whose only timed spans are exec and its operators, recorded the
/// way the executor records them: flat, post-order, inclusive durations.
void CheckSelfTimes() {
  using perfbench::ServerTimes;
  agentfirst::obs::TraceSpan probe;
  probe.name = "probe";
  Child(&probe, "interpret", -1);
  agentfirst::obs::TraceSpan* query = Child(&probe, "query[0]", -1);
  Child(query, "plan", -1);
  agentfirst::obs::TraceSpan* exec = Child(query, "exec", 10);
  Child(exec, "op:Scan", 4)->AddNote("rows", "100");
  agentfirst::obs::TraceSpan* cached = Child(exec, "op:Filter", -1);
  cached->AddNote("cached", "true");
  Child(exec, "op:HashJoin", 8);
  Child(exec, "op:Aggregate", 9);
  Child(&probe, "finalize", -1);

  ServerTimes t;
  perfbench::AddServerTree(probe, &t);
  Check(t.trees == 1 && t.spans == 6 && t.untimed_spans == 5,
        "six non-operator spans, five untimed");
  Check(Near(t.op_self_us["Scan"], 4000), "scan self time is its duration");
  Check(Near(t.op_self_us["Filter"], 0), "a cache hit has no self time");
  Check(Near(t.op_self_us["HashJoin"], 4000),
        "join self time excludes the scan and the cached filter");
  Check(Near(t.op_self_us["Aggregate"], 1000),
        "aggregate self time excludes the join subtree");
  Check(Near(t.self_us["exec"], 1000), "exec self time excludes the plan root");
  Check(Near(t.attributed_us, 10000), "attributed time is exec's duration");
  Check(t.op_rows["Scan"] == 100, "scan rows summed from notes");
}

}  // namespace

int main() {
  using namespace perfbench;

  Check(Percentile({}, 50) == 0, "empty input percentile is 0");
  Check(Percentile({7}, 50) == 7 && Percentile({7}, 99) == 7,
        "single sample is every percentile");
  Check(Percentile(OneTo(10), 50) == 5, "median of 1..10 is 5 (nearest rank)");
  Check(Percentile(OneTo(11), 50) == 6, "median of 1..11 is 6");
  Check(Percentile(OneTo(1000), 99) == 990, "p99 of 1..1000 is 990");
  Check(Percentile(OneTo(1000), 100) == 1000, "p100 is the maximum");
  Check(Percentile({3, 1, 2}, 1) == 1, "p1 of three samples is the minimum");

  Check(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Check(SamplesBeyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  Check(SamplesBeyond(0, 99) == 0, "no samples, none beyond");
  Check(SamplesBeyond(100, 50) == 50, "100 samples leave 50 beyond p50");

  LatencySummary big = Summarize(OneTo(1000));
  Check(big.n == 1000 && big.p50 == 500 && big.p95 == 950 && big.p99 == 990 &&
            big.p99_supported,
        "1000 samples: p50 500, p95 950, p99 990, p99 supported");
  LatencySummary small = Summarize(OneTo(999));
  Check(small.n == 999 && !small.p99_supported,
        "999 samples do not support p99");

  Check(ValidMetricName("probe_p50_ms"), "plain name is valid");
  Check(ValidMetricName("exec.op.HashJoin_us"), "dotted name is valid");
  Check(ValidMetricName("9lives-x"), "may start with a digit");
  Check(!ValidMetricName(""), "empty name is invalid");
  Check(!ValidMetricName(".hidden"), "may not start with a dot");
  Check(!ValidMetricName("a b"), "no spaces");
  Check(!ValidMetricName("p99/ms"), "no slashes");
  Check(!ValidMetricName(std::string(65, 'a')), "at most 64 characters");

  CheckSelfTimes();

  if (failures == 0) std::printf("perfbench_helpers_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
