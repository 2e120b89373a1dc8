// Sec. 6.1 ablation: the agentic memory store. Replays a probe workload in
// which agents repeatedly need the same grounding, with the store enabled
// vs. disabled, and reports executed-query savings and hit rates. Then
// times each store operation on a full store of the default capacity.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "agents/sim_agent.h"
#include "bench_util.h"
#include "common/rng.h"
#include "memory/memory_store.h"
#include "workload/minibird.h"

namespace agentfirst {
namespace {

struct Outcome {
  uint64_t executed = 0;
  uint64_t from_memory = 0;
  uint64_t probes = 0;
  double millis = 0;
};

Outcome RunSuite(bool memory_enabled) {
  MiniBirdOptions options;
  options.num_databases = 3;
  options.rows_per_fact_table = 4000;
  options.rows_per_dim_table = 32;
  options.seed = 20260706;
  options.system_options.optimizer.enable_memory = memory_enabled;
  auto suite = GenerateMiniBird(options);

  auto start = std::chrono::steady_clock::now();
  // Each task attempted by 6 agents in sequence -- later agents re-ask for
  // grounding that earlier agents already established.
  Outcome out;
  for (auto& db : suite) {
    for (const TaskSpec& task : db.tasks) {
      for (uint64_t agent = 0; agent < 6; ++agent) {
        EpisodeOptions eo;
        eo.seed = 1000 + agent;
        (void)RunEpisode(db.system.get(), task, StrongAgentProfile(), eo);
      }
    }
    const ProbeOptimizer::Metrics& m = db.system->optimizer()->metrics();
    out.executed += m.queries_executed;
    out.from_memory += m.queries_from_memory;
    out.probes += m.probes;
  }
  auto end = std::chrono::steady_clock::now();
  out.millis = std::chrono::duration<double, std::milli>(end - start).count();
  return out;
}

/// A probe answer as the probe optimizer stores it: keyed by plan
/// fingerprint, owned by its agent, pinned to the table it read.
MemoryArtifact ProbeAnswer(uint64_t n) {
  MemoryArtifact a;
  a.kind = ArtifactKind::kProbeResult;
  a.key = "probe_result:" + std::to_string(n * 0x9e3779b97f4a7c15ULL);
  a.content = "SELECT region, count(*), sum(amount) FROM orders WHERE price > " +
              std::to_string(n % 450) + " GROUP BY region ORDER BY region";
  a.table_deps = {"orders"};
  a.owner = "analyst-" + std::to_string(n % 3);
  return a;
}

/// Median over five rounds of the mean microseconds one call of `op` takes
/// (`op` gets the call's index).
double MicrosPerOp(size_t calls, const std::function<void(size_t)>& op) {
  std::vector<double> rounds;
  size_t next = 0;
  for (int r = 0; r < 5; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < calls; ++i) op(next++);
    rounds.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     static_cast<double>(calls));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

/// Per-operation latency on a store filled to its default capacity, the
/// state a long-running server reaches.
void RunOperationLatency() {
  std::printf("\n=== per-operation latency, full store ===\n");
  Catalog catalog;
  auto table = catalog.CreateTable(
      "orders", Schema({ColumnDef("id", DataType::kInt64)}));
  if (!table.ok()) return;
  AgenticMemoryStore store(&catalog, AgenticMemoryStore::Options());
  const size_t capacity = AgenticMemoryStore::Options().capacity;
  uint64_t next = 0;
  for (; next < capacity; ++next) store.Put(ProbeAnswer(next));
  Rng rng(7);
  // Keys of live artifacts: the newest `capacity` answers.
  auto live = [&]() { return next - 1 - rng.NextUint(capacity / 2); };
  const size_t calls = 2000;
  double hit = MicrosPerOp(calls, [&](size_t) {
    MemoryArtifact a = ProbeAnswer(live());
    (void)store.GetExact(a.key, a.owner);
  });
  double miss = MicrosPerOp(calls, [&](size_t i) {
    (void)store.GetExact("probe_result:absent-" + std::to_string(i));
  });
  double supersede = MicrosPerOp(calls, [&](size_t) {
    store.Put(ProbeAnswer(live()));
  });
  double evict = MicrosPerOp(calls, [&](size_t) { store.Put(ProbeAnswer(next++)); });
  double search = MicrosPerOp(calls / 10, [&](size_t i) {
    (void)store.Search("orders region amount " + std::to_string(i), 5);
  });
  std::vector<std::vector<std::string>> rows = {
      {"GetExact, hit", bench::Num(hit, 2)},
      {"GetExact, miss", bench::Num(miss, 2)},
      {"Put, supersedes its key", bench::Num(supersede, 2)},
      {"Put, evicts the LRU", bench::Num(evict, 2)},
      {"Search, top 5", bench::Num(search, 2)},
  };
  bench::PrintTable({"operation (" + std::to_string(store.size()) + " artifacts)",
                     "us/op"},
                    rows);
}

void Run() {
  std::printf("=== Agentic memory store ablation (Sec. 6.1) ===\n");
  Outcome off = RunSuite(false);
  Outcome on = RunSuite(true);

  std::vector<std::vector<std::string>> rows = {
      {"probes handled", std::to_string(off.probes), std::to_string(on.probes)},
      {"queries executed", std::to_string(off.executed), std::to_string(on.executed)},
      {"served from memory", std::to_string(off.from_memory),
       std::to_string(on.from_memory)},
      {"wall time (ms)", bench::Num(off.millis, 1), bench::Num(on.millis, 1)},
  };
  bench::PrintTable({"metric", "memory OFF", "memory ON"}, rows);

  double saved = off.executed > 0
                     ? 1.0 - static_cast<double>(on.executed) / off.executed
                     : 0.0;
  std::printf("\nexecuted-query reduction with the memory store: %s\n",
              bench::Pct(saved).c_str());
  std::printf("(the store answers repeated grounding probes without touching "
              "base tables)\n");

  // Privacy ablation (paper Sec. 6.1): sharing artifacts across principals
  // boosts efficiency but raises privacy concerns. Measure the efficiency
  // cost of the private (per-agent) configuration.
  std::printf("\n=== privacy ablation: shared vs per-agent memory ===\n");
  Outcome shared;
  Outcome isolated;
  for (int mode = 0; mode < 2; ++mode) {
    MiniBirdOptions options;
    options.num_databases = 3;
    options.rows_per_fact_table = 4000;
    options.rows_per_dim_table = 32;
    options.seed = 20260706;
    options.system_options.memory.share_across_principals = mode == 0;
    auto suite = GenerateMiniBird(options);
    Outcome out;
    for (auto& db : suite) {
      for (const TaskSpec& task : db.tasks) {
        for (uint64_t agent = 0; agent < 6; ++agent) {
          EpisodeOptions eo;
          eo.seed = 1000 + agent;
          (void)RunEpisode(db.system.get(), task, StrongAgentProfile(), eo);
        }
      }
      const ProbeOptimizer::Metrics& m = db.system->optimizer()->metrics();
      out.executed += m.queries_executed;
      out.from_memory += m.queries_from_memory;
    }
    (mode == 0 ? shared : isolated) = out;
  }
  std::vector<std::vector<std::string>> privacy_rows = {
      {"queries executed", std::to_string(shared.executed),
       std::to_string(isolated.executed)},
      {"served from memory", std::to_string(shared.from_memory),
       std::to_string(isolated.from_memory)},
  };
  bench::PrintTable({"metric", "shared artifacts", "per-agent (private)"},
                    privacy_rows);
  std::printf("(privacy costs re-execution: each agent rebuilds grounding "
              "other agents already paid for)\n");
  RunOperationLatency();
}

}  // namespace
}  // namespace agentfirst

int main() {
  agentfirst::Run();
  return 0;
}
