#include "core/probe_optimizer.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <thread>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/admission.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/aqp.h"
#include "opt/cost_model.h"
#include "opt/rules.h"
#include "plan/binder.h"
#include "plan/fingerprint.h"
#include "sql/parser.h"

namespace agentfirst {

namespace {
/// Resolves the "0 = hardware concurrency" convention of the parallelism
/// options once, at construction.
ProbeOptimizer::Options NormalizeOptions(ProbeOptimizer::Options options) {
  size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (options.batch_parallelism == 0) options.batch_parallelism = hw;
  if (options.intra_query_threads == 0) options.intra_query_threads = hw;
  return options;
}

/// Seed of the retry backoff jitter.
constexpr uint64_t kRetrySeed = 0x5eed;

/// Deterministic backoff jitter in [0.5, 1.5): a pure function of
/// (probe, query, attempt), so concurrent retry storms decorrelate without
/// any shared RNG state and replays are reproducible.
double RetryJitter(uint64_t probe_id, size_t query, size_t attempt) {
  uint64_t h = Mix64(HashCombine(
      HashCombine(HashInt(kRetrySeed), HashInt(probe_id)),
      HashInt((query << 8) ^ attempt)));
  return 0.5 + static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// Semantic-discovery matches returned when the probe leaves
/// `semantic_top_k` unset (documented in core/probe.h).
constexpr size_t kDefaultSemanticTopK = 5;

/// Exploratory queries whose goal relevance falls below this are pruned
/// (Options::enable_semantic_pruning).
constexpr double kSemanticPruneThreshold = 0.05;

/// Tables remembered per agent for the sleeper agent's batching hints.
constexpr size_t kRecentTablesPerAgent = 8;

/// Process-wide probe-layer counters (af.probe.*): the registry mirror of
/// the per-optimizer Metrics snapshot, aggregated over every ProbeOptimizer
/// in the process. Resolved once; every update is one relaxed add.
struct ProbeCounters {
  obs::Counter* probes;
  obs::Counter* executed;
  obs::Counter* skipped;
  obs::Counter* from_memory;
  obs::Counter* retries;
  obs::Counter* truncated;
  obs::Counter* degraded;
  obs::Counter* shed;
};

ProbeCounters& Counters() {
  static ProbeCounters* c = [] {
    auto& reg = obs::MetricsRegistry::Default();
    auto* counters = new ProbeCounters();
    counters->probes = reg.GetCounter("af.probe.probes");
    counters->executed = reg.GetCounter("af.probe.queries_executed");
    counters->skipped = reg.GetCounter("af.probe.queries_skipped");
    counters->from_memory = reg.GetCounter("af.probe.queries_from_memory");
    counters->retries = reg.GetCounter("af.probe.retries");
    counters->truncated = reg.GetCounter("af.probe.truncated");
    counters->degraded = reg.GetCounter("af.probe.degraded");
    counters->shed = reg.GetCounter("af.probe.sheds");
    return counters;
  }();
  return *c;
}
}  // namespace

ProbeOptimizer::ProbeOptimizer(Catalog* catalog, AgenticMemoryStore* memory,
                               SemanticCatalogSearch* search, Options options)
    : catalog_(catalog),
      memory_(memory),
      search_(search),
      options_(NormalizeOptions(options)),
      sleeper_(catalog, memory, search) {}

namespace {
/// Strips the top projection/sort chain: the "core relation" whose
/// information content a query exposes.
const PlanNode* CoreOf(const PlanNode* node) {
  while ((node->kind == PlanKind::kProject || node->kind == PlanKind::kSort) &&
         !node->children.empty()) {
    node = node->children[0].get();
  }
  return node;
}

/// Strips everything down to the data-producing relation (scans, filters,
/// joins): what the invest heuristic counts as "the same work recurring".
const PlanNode* DataCoreOf(const PlanNode* node) {
  while ((node->kind == PlanKind::kProject || node->kind == PlanKind::kSort ||
          node->kind == PlanKind::kAggregate || node->kind == PlanKind::kLimit) &&
         !node->children.empty()) {
    node = node->children[0].get();
  }
  return node;
}
}  // namespace

double ProbeOptimizer::GoalRelevance(const PlanNode& plan, const Brief& brief) {
  if (brief.text.empty()) return 1.0;
  Embedding goal = EmbedText(brief.text);
  double best = 0.0;
  for (const std::string& table : ReferencedTables(plan)) {
    double s = CosineSimilarity(goal, EmbedText(table));
    best = std::max(best, s);
    auto t = catalog_->GetTable(table);
    if (t.ok()) {
      for (const ColumnDef& col : (*t)->schema().columns()) {
        best = std::max(best,
                        CosineSimilarity(goal, EmbedText(table + " " + col.name)));
      }
    }
  }
  return best;
}

void ProbeOptimizer::AdviseMaterialization(const PlanPtr& plan,
                                           std::vector<Hint>* hints) {
  if (options_.materialization_threshold == 0 || plan == nullptr) return;
  for (const SubplanInfo& sub : EnumerateSubplans(*plan)) {
    if (sub.node->kind != PlanKind::kHashJoin &&
        sub.node->kind != PlanKind::kAggregate) {
      continue;
    }
    auto& entry = subplan_recurrence_[sub.canonical_fingerprint];
    ++entry.first;
    if (!entry.second && entry.first >= options_.materialization_threshold) {
      entry.second = true;
      ++metrics_.materialization_suggestions;
      std::string tables;
      for (const std::string& t : ReferencedTables(*sub.node)) {
        if (!tables.empty()) tables += ", ";
        tables += t;
      }
      hints->push_back(Hint{
          HintKind::kSchemaGuidance,
          std::string("the ") + PlanKindName(sub.node->kind) + " over [" +
              tables + "] has recurred " + std::to_string(entry.first) +
              " times across probes; reuse one answer rather than re-run it "
              "(nothing pins it: any materialized copy in the shared "
              "sub-plan cache can be evicted)",
          0.45});
    }
  }
}

/// Per-probe state threaded through the three ProcessBatch phases. Prepare
/// fills everything up to the admission/pruning/approximation decisions,
/// Execute turns decisions into answers, Finalize adds steering + advisors.
struct ProbeOptimizer::ProbeTask {
  struct Prepared {
    std::string sql;
    PlanPtr plan;       // null on bind error
    Status bind_status;
    double cost = 0.0;
    double rows = 0.0;
    double relevance = 1.0;
    uint64_t core_fingerprint = 0;
  };

  const Probe* probe = nullptr;
  Brief brief;
  /// Effective resource limits: the brief's (aliases folded) merged over the
  /// optimizer's defaults — common/limits.h merge rule, applied once here.
  ResourceLimits limits;
  /// Root of the probe's span tree; name stays empty when tracing is
  /// disabled. Prepare adds interpret/admit, Execute adds the query[i]
  /// subtrees (task-local, so no synchronization even under batch
  /// parallelism), Finalize adds finalize, assigns the seeded ids, and moves
  /// the tree into the response.
  obs::TraceSpan trace;
  bool exploratory = false;
  bool wants_exact = false;
  std::vector<Prepared> prepared;
  // Decision vectors, all indexed like `prepared` (char over bool so
  // elements are addressable objects).
  std::vector<char> run;
  std::vector<size_t> subsumed_by;
  /// Covering SQL from an earlier turn (empty = not covered). A copy, not a
  /// pointer into answered_cores_: that map is mutex-guarded state and the
  /// parallel Execute phase must not hold references into it.
  std::vector<std::string> covered_by_turn;
  std::vector<char> over_budget;
  double sample_rate = 1.0;
  /// Set during Prepare when the agent's circuit breaker is open: Execute
  /// skips every query without touching the pool.
  bool shed = false;
  ProbeResponse response;
};

Result<std::vector<ProbeResponse>> ProbeOptimizer::ProcessBatch(
    const std::vector<Probe>& probes) {
  // Admission control: order by brief priority, then phase urgency in the
  // server's admission order.
  std::vector<size_t> order(probes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<Brief> interpreted;
  interpreted.reserve(probes.size());
  for (const Probe& p : probes) interpreted.push_back(interpreter_.Interpret(p.brief));
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (interpreted[a].priority != interpreted[b].priority) {
      return interpreted[a].priority > interpreted[b].priority;
    }
    return PhaseAdmissionPriority(interpreted[a].phase) >
           PhaseAdmissionPriority(interpreted[b].phase);
  });

  // Phase 1 (serial, admission order): parse/bind/cost + every admission,
  // pruning, and approximation decision. Keeping this serial keeps the
  // decisions — and therefore which queries run — independent of thread
  // count.
  std::vector<ProbeTask> tasks(probes.size());
  for (size_t idx : order) PrepareProbe(probes[idx], &tasks[idx]);

  // Phase 2: execute admitted queries, one task per probe on the shared
  // work-stealing pool (a 50-probe speculation batch saturates the machine);
  // at batch_parallelism 1 the loop runs inline, in admission order.
  // Intra-query morsels nest on the same pool. Shared optimizer state is
  // touched under state_mutex_ inside ExecuteProbe; plan execution itself
  // runs unlocked.
  ThreadPool::Default()->ParallelFor(
      0, order.size(),
      [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) ExecuteProbe(&tasks[order[k]]);
      },
      /*grain=*/1, options_.batch_parallelism);

  // Phase 3 (serial, admission order): steering, discovery, advisors —
  // these mutate cross-probe state (recent tables, recurrence counters,
  // auto-indexes) and must observe probes in admission order.
  for (size_t idx : order) FinalizeProbe(&tasks[idx]);

  std::vector<ProbeResponse> responses(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    responses[i] = std::move(tasks[i].response);
  }
  return responses;
}

Result<ProbeResponse> ProbeOptimizer::Process(const Probe& probe) {
  ProbeTask task;
  PrepareProbe(probe, &task);
  ExecuteProbe(&task);
  FinalizeProbe(&task);
  return std::move(task.response);
}

void ProbeOptimizer::PrepareProbe(const Probe& probe, ProbeTask* task) {
  {
    MutexLock lock(state_mutex_);
    ++metrics_.probes;
  }
  Counters().probes->Increment();
  task->probe = &probe;
  ProbeResponse& response = task->response;
  response.probe_id = probe.id;

  Brief& brief = task->brief;
  brief = interpreter_.Interpret(probe.brief);
  response.interpreted_phase = brief.phase;

  bool exploratory = brief.phase == ProbePhase::kMetadataExploration ||
                     brief.phase == ProbePhase::kStatExploration;
  bool wants_exact = brief.phase == ProbePhase::kValidation ||
                     brief.max_relative_error == 0.0;
  task->exploratory = exploratory;
  task->wants_exact = wants_exact;
  task->limits = brief.limits.MergedOver(options_.default_limits);

  if (options_.enable_tracing) {
    task->trace.name = "probe";
    task->trace.AddNote("id", std::to_string(probe.id));
    if (!probe.agent_id.empty()) task->trace.AddNote("agent", probe.agent_id);
    obs::TraceSpan* interpret = task->trace.AddChild("interpret");
    interpret->AddNote("phase", ProbePhaseName(brief.phase));
    if (brief.max_relative_error.has_value()) {
      interpret->AddNote("max_relative_error",
                         std::to_string(*brief.max_relative_error));
    }
    if (brief.priority != 0) {
      interpret->AddNote("priority", std::to_string(brief.priority));
    }
  }

  // Circuit breaker (serial phase, so the shed decision is independent of
  // batch thread count): while this agent's breaker is open, shed the whole
  // probe before spending any parse/bind/execute work on it. Past
  // `open_until` the next probe runs as a half-open trial; its outcome
  // (recorded in FinalizeProbe) closes or re-opens the breaker.
  if (options_.breaker_failure_threshold > 0 && !probe.agent_id.empty() &&
      !probe.dry_run) {
    MutexLock lock(state_mutex_);
    auto it = breakers_.find(probe.agent_id);
    if (it != breakers_.end() &&
        std::chrono::steady_clock::now() < it->second.open_until) {
      task->shed = true;
      response.shed = true;
      ++metrics_.probes_shed;
      Counters().shed->Increment();
    }
  }

  // 1. Parse + bind + (optionally) rewrite every query.
  using Prepared = ProbeTask::Prepared;
  std::vector<Prepared>& prepared = task->prepared;
  {
    MutexLock lock(state_mutex_);
    metrics_.queries_submitted += probe.queries.size();
  }

  for (const std::string& sql : probe.queries) {
    Prepared p;
    p.sql = sql;
    auto select = ParseSelect(sql);
    if (!select.ok()) {
      p.bind_status = select.status();
      prepared.push_back(std::move(p));
      continue;
    }
    Binder binder(catalog_);
    binder.set_subquery_evaluator(
        [](const PlanNode& subplan) -> Result<std::vector<Row>> {
          auto result = ExecutePlan(subplan);
          if (!result.ok()) return result.status();
          return (*result)->rows;
        });
    auto plan = binder.BindSelect(**select);
    if (!plan.ok()) {
      p.bind_status = plan.status();
      prepared.push_back(std::move(p));
      continue;
    }
    p.plan = OptimizePlan(*plan, catalog_);
    CostEstimate est = EstimatePlanCost(*p.plan, catalog_);
    p.cost = est.total_cost;
    p.rows = est.output_rows;
    p.core_fingerprint = CanonicalPlanFingerprint(*DataCoreOf(p.plan.get()));
    {
      MutexLock lock(state_mutex_);
      ++core_recurrence_[p.core_fingerprint];
    }
    if (options_.enable_semantic_pruning && exploratory) {
      p.relevance = GoalRelevance(*p.plan, brief);
    }
    prepared.push_back(std::move(p));
  }

  // 2. Decide what to execute.
  std::vector<char>& run = task->run;
  run.assign(prepared.size(), 1);
  for (size_t i = 0; i < prepared.size(); ++i) {
    if (prepared[i].plan == nullptr) run[i] = false;
  }
  // Semantic pruning: during exploration, drop queries unrelated to the goal.
  if (options_.enable_semantic_pruning && exploratory && !brief.text.empty()) {
    for (size_t i = 0; i < prepared.size(); ++i) {
      if (prepared[i].plan != nullptr &&
          prepared[i].relevance < kSemanticPruneThreshold) {
        run[i] = false;
      }
    }
  }
  // Subsumption pruning (paper Sec. 5.2.1): within one exploratory probe,
  // a query whose underlying relation (the plan beneath its root
  // projection/sort) appears as a sub-plan of another query in the same
  // probe adds no new information during exploration -- the larger query's
  // answer covers it. Only applied to exploratory briefs.
  std::vector<size_t>& subsumed_by = task->subsumed_by;
  subsumed_by.assign(prepared.size(), SIZE_MAX);
  if (options_.enable_satisficing && exploratory && prepared.size() > 1) {
    std::vector<uint64_t> roots(prepared.size(), 0);
    std::vector<std::vector<uint64_t>> subs(prepared.size());
    for (size_t i = 0; i < prepared.size(); ++i) {
      if (prepared[i].plan == nullptr) continue;
      roots[i] = CanonicalPlanFingerprint(*CoreOf(prepared[i].plan.get()));
      for (const SubplanInfo& s : EnumerateSubplans(*prepared[i].plan)) {
        subs[i].push_back(s.canonical_fingerprint);
      }
    }
    for (size_t i = 0; i < prepared.size(); ++i) {
      if (prepared[i].plan == nullptr || !run[i]) continue;
      for (size_t j = 0; j < prepared.size(); ++j) {
        if (i == j || prepared[j].plan == nullptr || !run[j]) continue;
        if (roots[i] == roots[j]) {
          // Semantically identical queries: keep the first occurrence.
          if (j < i) {
            run[i] = false;
            subsumed_by[i] = j;
            break;
          }
          continue;
        }
        bool contained = false;
        for (uint64_t s : subs[j]) {
          if (s == roots[i]) {
            contained = true;
            break;
          }
        }
        if (contained) {
          run[i] = false;
          subsumed_by[i] = j;
          break;
        }
      }
    }
  }

  // Cross-turn dropping (paper Sec. 5.2.2): if this agent already received
  // an answer over the same core relation in an earlier turn, an exploratory
  // re-ask adds no new information; skip it and point at the earlier query.
  std::vector<std::string>& covered_by_turn = task->covered_by_turn;
  covered_by_turn.assign(prepared.size(), std::string());
  if (options_.enable_satisficing && exploratory && !probe.agent_id.empty()) {
    MutexLock lock(state_mutex_);
    auto& answered = answered_cores_[probe.agent_id];
    for (size_t i = 0; i < prepared.size(); ++i) {
      if (!run[i] || prepared[i].plan == nullptr) continue;
      auto it = answered.find(prepared[i].core_fingerprint);
      // Identical full queries fall through to answer reuse, which can
      // return the actual cached rows; only *variants* are dropped here.
      if (it != answered.end() && it->second != prepared[i].sql) {
        run[i] = false;
        covered_by_turn[i] = it->second;
      }
    }
  }

  // Cost budget: during exploration, shed the least useful-per-cost queries
  // until the probe fits the declared computational budget.
  std::vector<char>& over_budget = task->over_budget;
  over_budget.assign(prepared.size(), 0);
  const std::optional<double> cost_budget = task->limits.cost_budget;
  if (options_.enable_satisficing && cost_budget.has_value() && exploratory) {
    double total = 0.0;
    std::vector<size_t> runnable;
    for (size_t i = 0; i < prepared.size(); ++i) {
      if (run[i] && prepared[i].plan != nullptr) {
        total += prepared[i].cost;
        runnable.push_back(i);
      }
    }
    std::sort(runnable.begin(), runnable.end(), [&](size_t a, size_t b) {
      double ua = prepared[a].relevance / (1.0 + prepared[a].cost);
      double ub = prepared[b].relevance / (1.0 + prepared[b].cost);
      return ua < ub;  // least useful-per-cost first (shed order)
    });
    for (size_t idx : runnable) {
      if (total <= *cost_budget) break;
      run[idx] = false;
      over_budget[idx] = true;
      total -= prepared[idx].cost;
    }
  }

  // k-of-n satisficing: keep the k most useful-per-cost runnable queries.
  if (options_.enable_satisficing && brief.k_of_n > 0) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < prepared.size(); ++i) {
      if (run[i] && prepared[i].plan != nullptr) candidates.push_back(i);
    }
    if (candidates.size() > brief.k_of_n) {
      std::sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
        double ua = prepared[a].relevance / (1.0 + prepared[a].cost);
        double ub = prepared[b].relevance / (1.0 + prepared[b].cost);
        return ua > ub;
      });
      for (size_t j = brief.k_of_n; j < candidates.size(); ++j) {
        run[candidates[j]] = false;
      }
    }
  }

  // 3. Pick the approximation level.
  double& sample_rate = task->sample_rate;
  sample_rate = 1.0;
  if (options_.enable_aqp && !wants_exact) {
    if (brief.max_relative_error > 0.0) {
      double max_rows = 1.0;
      for (const Prepared& p : prepared) {
        if (p.plan != nullptr) max_rows = std::max(max_rows, p.cost);
      }
      sample_rate = ChooseSampleRate(max_rows, *brief.max_relative_error);
      // Sampling only pays off when it skips real work.
      if (sample_rate > 0.9) sample_rate = 1.0;
    } else if (exploratory) {
      // Only approximate when the work is worth saving.
      double total_cost = 0.0;
      for (size_t i = 0; i < prepared.size(); ++i) {
        if (run[i]) total_cost += prepared[i].cost;
      }
      if (total_cost > options_.exploration_cost_threshold) {
        sample_rate = options_.exploration_sample_rate;
      }
    }
  }

  // Admission summary span: every decision above, machine-readable.
  if (options_.enable_tracing) {
    obs::TraceSpan* admit = task->trace.AddChild("admit");
    size_t admitted = 0;
    for (char r : run) {
      if (r != 0) ++admitted;
    }
    admit->AddNote("submitted", std::to_string(prepared.size()));
    admit->AddNote("admitted", std::to_string(task->shed ? 0 : admitted));
    if (task->shed) admit->AddNote("shed", "circuit breaker open");
    if (sample_rate < 1.0) {
      admit->AddNote("sample_rate", std::to_string(sample_rate));
    }
    if (task->limits.deadline.has_value()) {
      admit->AddNote("deadline_ms",
                     std::to_string(task->limits.deadline->count()));
    }
    if (cost_budget.has_value()) {
      admit->AddNote("cost_budget", std::to_string(*cost_budget));
    }
  }
}

void ProbeOptimizer::ExecuteProbe(ProbeTask* task) {
  const Probe& probe = *task->probe;
  const Brief& brief = task->brief;
  std::vector<ProbeTask::Prepared>& prepared = task->prepared;
  ProbeResponse& response = task->response;
  const std::vector<char>& run = task->run;
  const std::vector<size_t>& subsumed_by = task->subsumed_by;
  const std::vector<std::string>& covered_by_turn = task->covered_by_turn;
  const std::vector<char>& over_budget = task->over_budget;
  const bool wants_exact = task->wants_exact;
  const double sample_rate = task->sample_rate;
  // Span-tree root for this probe (nullptr = tracing disabled). Execute owns
  // the task exclusively during this phase, so appending query subtrees here
  // needs no synchronization even when probes run batch-parallel.
  obs::TraceSpan* root = options_.enable_tracing ? &task->trace : nullptr;

  // 4. Execute (answer reuse first, then execution through the shared
  // cache). This phase may run concurrently with other probes' Execute
  // phases: everything task-local is lock-free, every touch of shared
  // optimizer state (metrics, memory store, answered-cores map) takes
  // state_mutex_, and the mutex is never held across plan execution.
  size_t rows_produced_total = 0;
  bool termination_fired = false;
  response.answers.resize(prepared.size());

  // Breaker shed: answer every query with a skip, spending nothing.
  if (task->shed) {
    for (size_t i = 0; i < prepared.size(); ++i) {
      QueryAnswer& answer = response.answers[i];
      answer.sql = prepared[i].sql;
      answer.estimated_cost = prepared[i].cost;
      answer.estimated_rows = prepared[i].rows;
      answer.skipped = true;
      answer.skip_reason =
          "shed: circuit breaker open after repeated execution failures; "
          "retry after the cooldown";
      if (root != nullptr) {
        root->AddChild("query[" + std::to_string(i) + "]")
            ->AddNote("skip", answer.skip_reason);
      }
    }
    Counters().skipped->Add(prepared.size());
    MutexLock lock(state_mutex_);
    metrics_.queries_skipped += prepared.size();
    return;
  }

  // Effective limits for every query of this probe (brief overrides the
  // optimizer defaults; common/limits.h merge rule, applied in Prepare).
  // The deadline is relative and armed by the executor at the start of each
  // execution attempt, so retries get a fresh budget automatically.
  const ResourceLimits& limits = task->limits;
  for (size_t i = 0; i < prepared.size(); ++i) {
    QueryAnswer& answer = response.answers[i];
    answer.sql = prepared[i].sql;
    answer.estimated_cost = prepared[i].cost;
    answer.estimated_rows = prepared[i].rows;

    obs::TraceSpan* qspan =
        root != nullptr ? root->AddChild("query[" + std::to_string(i) + "]")
                        : nullptr;
    // Covers the whole iteration, so answer lookups, memory-store puts and
    // lock waits land in this span's self time.
    obs::SpanTimer qtimer(qspan);
    if (qspan != nullptr) {
      obs::TraceSpan* plan_span = qspan->AddChild("plan");
      if (prepared[i].plan == nullptr) {
        plan_span->AddNote("error", prepared[i].bind_status.message());
      } else {
        plan_span->AddNote("est_cost", std::to_string(prepared[i].cost));
        plan_span->AddNote("est_rows", std::to_string(prepared[i].rows));
      }
    }

    if (prepared[i].plan == nullptr) {
      answer.status = prepared[i].bind_status;
      continue;
    }
    response.total_estimated_cost += prepared[i].cost;
    // Dry run: report the plan and estimates without touching data.
    if (probe.dry_run) {
      answer.status = Status::OK();
      answer.skipped = true;
      answer.skip_reason = "dry run: plan and cost estimate only";
      answer.plan_text = prepared[i].plan->ToString();
      if (qspan != nullptr) qspan->AddNote("skip", answer.skip_reason);
      continue;
    }
    if (!run[i]) {
      answer.skipped = true;
      if (subsumed_by[i] != SIZE_MAX) {
        answer.skip_reason = "subsumed: query " + std::to_string(subsumed_by[i]) +
                             " computes this as a sub-plan";
      } else if (!covered_by_turn[i].empty()) {
        answer.skip_reason = "covered by your earlier probe: " + covered_by_turn[i];
      } else if (over_budget[i]) {
        answer.skip_reason = "shed: probe cost budget exhausted";
      } else if (prepared[i].relevance < kSemanticPruneThreshold) {
        answer.skip_reason = "pruned: not relevant to the stated goal";
      } else {
        answer.skip_reason = "satisficing: covered by the answered subset";
      }
      if (qspan != nullptr) qspan->AddNote("skip", answer.skip_reason);
      Counters().skipped->Increment();
      MutexLock lock(state_mutex_);
      ++metrics_.queries_skipped;
      metrics_.skipped_cost += prepared[i].cost;
      continue;
    }
    // Termination criteria: enough rows produced, or the agent-defined
    // stop_when function fired on an earlier result. Both are scoped to
    // this probe's own answer sequence, so they stay deterministic under
    // batch parallelism.
    if (options_.enable_satisficing &&
        (termination_fired ||
         (brief.enough_rows_total > 0 &&
          rows_produced_total >= brief.enough_rows_total))) {
      answer.skipped = true;
      answer.skip_reason = termination_fired
                               ? "termination criterion met: stop_when fired"
                               : "termination criterion met: enough rows produced";
      if (qspan != nullptr) qspan->AddNote("skip", answer.skip_reason);
      Counters().skipped->Increment();
      MutexLock lock(state_mutex_);
      ++metrics_.queries_skipped;
      metrics_.skipped_cost += prepared[i].cost;
      continue;
    }

    // Answer reuse: the shared cache's root entry for this plan holds an
    // earlier exact answer. The key embeds the tables' data versions and is
    // taken now, so a write since Prepare misses. An exact answer serves
    // every brief; truncated answers are never cached.
    const uint64_t root_key = PlanFingerprint(*prepared[i].plan);
    if (options_.enable_mqo && options_.enable_memory) {
      if (ResultSetPtr cached = cache_.Get(root_key); cached != nullptr) {
        answer.status = Status::OK();
        answer.result = std::move(cached);
        answer.from_memory = true;
        rows_produced_total += answer.result->rows.size();
        if (qspan != nullptr) {
          qspan->AddNote("from_memory", "true");
          qspan->AddNote("rows", std::to_string(answer.result->rows.size()));
        }
        Counters().from_memory->Increment();
        MutexLock lock(state_mutex_);
        ++metrics_.queries_from_memory;
        if (!probe.agent_id.empty()) {
          answered_cores_[probe.agent_id].emplace(prepared[i].core_fingerprint,
                                                  prepared[i].sql);
        }
        continue;
      }
    }

    // Invest heuristic: a relation asked about repeatedly deserves one exact
    // answer that future probes reuse, even if this brief tolerates error.
    // (The recurrence counters were bumped during the serial Prepare phase,
    // so this read is stable across the whole Execute phase.)
    double effective_rate = sample_rate;
    if (effective_rate < 1.0 && options_.invest_threshold > 0) {
      MutexLock lock(state_mutex_);
      auto it = core_recurrence_.find(prepared[i].core_fingerprint);
      if (it != core_recurrence_.end() &&
          it->second >= options_.invest_threshold) {
        effective_rate = 1.0;
      }
    }

    ExecOptions exec_options;
    exec_options.cache = options_.enable_mqo ? &cache_ : nullptr;
    exec_options.num_threads = options_.intra_query_threads;
    // A probe that arrived with its own token (a network session's
    // disconnect source) is governed by that token; everything else follows
    // the system-wide CancelAllProbes token.
    exec_options.cancel = probe.cancel.cancellable() ? probe.cancel : cancel_;
    exec_options.limits = limits;

    // One execution attempt at `rate`, recorded into `span` (operator child
    // spans plus wall time). The relative deadline in `limits` is armed
    // inside ExecutePlan, so each attempt gets a fresh budget — a retry
    // after a transient fault never inherits the time the failed attempt
    // burned. The fault point lets tests inject probe-level transient
    // faults without touching executor internals.
    auto attempt_once = [&](double rate,
                            obs::TraceSpan* span) -> Result<ResultSetPtr> {
      Status injected = AF_FAULT_STATUS("core.probe.query");
      if (!injected.ok()) return injected;
      ExecOptions eo = exec_options;
      eo.sample_rate = rate;
      eo.trace = span;
      obs::SpanTimer timer(span);
      if (rate < 1.0) {
        auto approx = ExecuteApproximate(*prepared[i].plan, rate, eo);
        if (!approx.ok()) return approx.status();
        answer.approximate = true;
        answer.sample_rate = approx->sample_rate;
        answer.relative_ci95 = approx->relative_ci95;
        return approx->result;
      }
      return ExecutePlan(*prepared[i].plan, eo);
    };

    // Transient-fault retry with seeded jittered exponential backoff.
    // Deliberate outcomes (deadline, budget, cancellation, bad SQL) are not
    // retryable — see IsRetryable.
    obs::TraceSpan* exec_span =
        qspan != nullptr ? qspan->AddChild("exec") : nullptr;
    Result<ResultSetPtr> exec_result = attempt_once(effective_rate, exec_span);
    size_t retries = 0;
    while (!exec_result.ok() && IsRetryable(exec_result.status()) &&
           retries < options_.max_query_retries) {
      ++retries;
      double jitter = RetryJitter(probe.id, i, retries);
      double delay_ms = options_.retry_backoff_ms *
                        static_cast<double>(1ull << (retries - 1)) * jitter;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
      obs::TraceSpan* retry_span = nullptr;
      if (qspan != nullptr) {
        retry_span = qspan->AddChild("retry[" + std::to_string(retries) + "]");
        retry_span->AddNote("after", exec_result.status().message());
        retry_span->AddNote("backoff_ms", std::to_string(delay_ms));
      }
      exec_result = attempt_once(effective_rate, retry_span);
    }
    answer.retries = static_cast<uint32_t>(retries);
    response.total_retries += retries;
    if (retries > 0) {
      Counters().retries->Add(retries);
      MutexLock lock(state_mutex_);
      metrics_.query_retries += retries;
    }
    if (!exec_result.ok()) {
      answer.status = exec_result.status();
      if (qspan != nullptr) {
        qspan->AddNote("error", answer.status.message());
      }
      continue;
    }
    answer.result = *exec_result;

    // Deadline/budget truncation becomes a partial-result answer: the rows
    // merged before the trip ship to the agent with a status explaining the
    // cut. Exploratory probes first degrade once to the AQP sampling path
    // (fresh deadline): a complete approximate answer grounds exploration
    // better than an exact prefix.
    if (answer.result->truncated) {
      bool degraded = false;
      if (answer.result->interrupt == StatusCode::kDeadlineExceeded &&
          options_.enable_aqp &&
          task->exploratory && !wants_exact && effective_rate >= 1.0) {
        obs::TraceSpan* degrade_span = nullptr;
        if (qspan != nullptr) {
          degrade_span = qspan->AddChild("degrade");
          degrade_span->AddNote(
              "reason",
              "deadline-truncated exact answer; re-running via AQP sampling");
        }
        auto retry = attempt_once(options_.exploration_sample_rate,
                                  degrade_span);
        if (retry.ok() && !(*retry)->truncated) {
          answer.result = *retry;
          degraded = true;
          Counters().degraded->Increment();
          MutexLock lock(state_mutex_);
          ++metrics_.queries_degraded;
        } else if (degrade_span != nullptr) {
          degrade_span->AddNote("outcome",
                                "degrade failed; keeping truncated prefix");
        }
      }
      if (!degraded) {
        answer.truncated = true;
        answer.status =
            answer.result->interrupt == StatusCode::kResourceExhausted
                ? Status::ResourceExhausted(
                      "answer truncated: output budget reached; partial rows "
                      "attached")
                : Status::DeadlineExceeded(
                      "answer truncated: deadline expired; partial rows "
                      "attached");
        if (qspan != nullptr) {
          qspan->AddNote("truncated", answer.status.message());
        }
        Counters().truncated->Increment();
        MutexLock lock(state_mutex_);
        ++metrics_.queries_truncated;
      }
    }
    if (!answer.truncated) answer.status = Status::OK();
    rows_produced_total += answer.result->rows.size();
    if (qspan != nullptr) {
      qspan->AddNote("rows", std::to_string(answer.result->rows.size()));
      if (answer.approximate) qspan->AddNote("approximate", "true");
    }
    Counters().executed->Increment();
    if (brief.stop_when && answer.result != nullptr &&
        brief.stop_when(*answer.result)) {
      termination_fired = true;
    }
    // Sampled execution touches roughly cost * rate rows.
    double effective_cost =
        prepared[i].cost * (answer.approximate ? answer.sample_rate : 1.0);
    response.total_executed_cost += effective_cost;
    {
      MutexLock lock(state_mutex_);
      if (answer.approximate) ++metrics_.queries_approximate;
      ++metrics_.queries_executed;
      metrics_.executed_cost += effective_cost;
      // A truncated answer does not cover its core relation: future re-asks
      // must be allowed to run to completion.
      if (!probe.agent_id.empty() && !answer.truncated) {
        answered_cores_[probe.agent_id].emplace(prepared[i].core_fingerprint,
                                                prepared[i].sql);
      }
    }

    // Record the answered query as a memory artifact: steering points later
    // probes at it, and its rows stay in the shared cache. A truncated answer
    // is not recorded, since a re-ask must run to completion.
    if (options_.enable_memory && memory_ != nullptr && !answer.truncated) {
      MemoryArtifact artifact;
      artifact.kind = ArtifactKind::kProbeResult;
      artifact.key = "probe_result:" + std::to_string(root_key);
      artifact.content = prepared[i].sql;
      artifact.table_deps = ReferencedTables(*prepared[i].plan);
      artifact.owner = probe.agent_id;
      MutexLock lock(state_mutex_);
      memory_->Put(std::move(artifact));
    }
  }
}

void ProbeOptimizer::FinalizeProbe(ProbeTask* task) {
  const Probe& probe = *task->probe;
  const Brief& brief = task->brief;
  ProbeResponse& response = task->response;
  std::chrono::steady_clock::time_point start;
  if (options_.enable_tracing) start = std::chrono::steady_clock::now();

  // Circuit-breaker outcome accounting (serial, admission order). Only
  // genuine execution failures count: truncation and cancellation are
  // deliberate outcomes, and parse/bind errors are the agent's SQL, not a
  // system fault. A success (including a memory hit) closes the breaker.
  if (options_.breaker_failure_threshold > 0 && !probe.agent_id.empty() &&
      !probe.dry_run && !task->shed) {
    MutexLock lock(state_mutex_);
    auto& breaker = breakers_[probe.agent_id];
    for (size_t i = 0; i < response.answers.size(); ++i) {
      const QueryAnswer& answer = response.answers[i];
      if (answer.skipped || task->prepared[i].plan == nullptr) continue;
      bool failed = !answer.status.ok() && !answer.truncated &&
                    answer.status.code() != StatusCode::kCancelled;
      if (!failed) {
        breaker.consecutive_failures = 0;
        continue;
      }
      if (++breaker.consecutive_failures >=
          options_.breaker_failure_threshold) {
        breaker.open_until =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(
                    options_.breaker_cooldown_ms));
      }
    }
  }
  std::vector<PlanPtr> plans_for_steering;
  plans_for_steering.reserve(task->prepared.size());
  for (const auto& p : task->prepared) plans_for_steering.push_back(p.plan);

  // 5. Semantic discovery (beyond-SQL probe).
  if (!probe.semantic_search_phrase.empty() && search_ != nullptr) {
    response.discoveries = search_->Search(
        probe.semantic_search_phrase,
        probe.semantic_top_k.value_or(kDefaultSemanticTopK));
  }

  // 6. Steering feedback. Finalize runs serially, so holding state_mutex_
  // across the sleeper analysis is uncontended; it keeps the reference into
  // recent_tables_ from outliving the lock.
  if (options_.enable_steering) {
    MutexLock lock(state_mutex_);
    auto& recent = recent_tables_[probe.agent_id];
    response.hints = sleeper_.Analyze(probe, brief, response.answers,
                                      plans_for_steering, recent);
    // Update the agent's recent-table history.
    for (const auto& p : plans_for_steering) {
      if (p == nullptr) continue;
      for (const std::string& t : ReferencedTables(*p)) {
        if (std::find(recent.begin(), recent.end(), t) == recent.end()) {
          recent.push_back(t);
        }
      }
    }
    while (recent.size() > kRecentTablesPerAgent) {
      recent.erase(recent.begin());
    }
  }

  // 7. Advisors: recurring sub-plans (materialization) and hot equality
  //    columns (adaptive indexing). Both require state_mutex_.
  {
    MutexLock lock(state_mutex_);
    for (const auto& p : plans_for_steering) {
      AdviseMaterialization(p, &response.hints);
      AdaptiveIndexing(p, &response.hints);
    }
  }

  // 8. Seal the span tree: summarize finalize-phase outputs, assign the
  // seeded-deterministic ids (a pure function of the tree shape and
  // (trace_seed, probe id) — never of scheduling), and hand the tree to the
  // agent via the response.
  if (options_.enable_tracing) {
    obs::TraceSpan* fin = task->trace.AddChild("finalize");
    fin->duration_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    fin->AddNote("hints", std::to_string(response.hints.size()));
    if (!response.discoveries.empty()) {
      fin->AddNote("discoveries", std::to_string(response.discoveries.size()));
    }
    obs::AssignSpanIds(&task->trace,
                       obs::MixSpanId(options_.trace_seed, probe.id));
    response.trace = std::move(task->trace);
  }
}

void ProbeOptimizer::AdaptiveIndexing(const PlanPtr& plan,
                                      std::vector<Hint>* hints) {
  if (options_.auto_index_threshold == 0 || plan == nullptr) return;
  // Collect equality conjuncts of every scan's pushed-down filter.
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    for (const auto& c : node.children) walk(*c);
    if (node.kind != PlanKind::kScan || node.table == nullptr ||
        node.scan_filter == nullptr) {
      return;
    }
    std::vector<BoundExprPtr> conjuncts = SplitConjuncts(node.scan_filter->Clone());
    for (const auto& conjunct : conjuncts) {
      if (conjunct->kind != BoundExprKind::kBinary ||
          conjunct->bin_op != BinaryOp::kEq) {
        continue;
      }
      const BoundExpr* col = nullptr;
      if (conjunct->children[0]->kind == BoundExprKind::kColumn &&
          conjunct->children[1]->kind == BoundExprKind::kLiteral) {
        col = conjunct->children[0].get();
      } else if (conjunct->children[1]->kind == BoundExprKind::kColumn &&
                 conjunct->children[0]->kind == BoundExprKind::kLiteral) {
        col = conjunct->children[1].get();
      }
      if (col == nullptr ||
          col->column_index >= node.table->schema().NumColumns()) {
        continue;
      }
      const std::string& column_name =
          node.table->schema().column(col->column_index).name;
      auto key = std::make_pair(node.table_name, column_name);
      size_t count = ++eq_predicate_counts_[key];
      if (count >= options_.auto_index_threshold &&
          !catalog_->HasIndex(node.table_name, column_name)) {
        if (catalog_->CreateIndex(node.table_name, column_name).ok()) {
          hints->push_back(Hint{
              HintKind::kSchemaGuidance,
              "equality probes against " + node.table_name + "." + column_name +
                  " recurred " + std::to_string(count) +
                  " times; an index was auto-created, so such lookups are now "
                  "cheap",
              0.5});
        }
      }
    }
  };
  walk(*plan);
}

}  // namespace agentfirst
