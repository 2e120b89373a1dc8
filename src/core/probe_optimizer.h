#ifndef AGENTFIRST_CORE_PROBE_OPTIMIZER_H_
#define AGENTFIRST_CORE_PROBE_OPTIMIZER_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/limits.h"
#include "common/thread_annotations.h"

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/brief_interpreter.h"
#include "core/probe.h"
#include "core/semantic_search.h"
#include "core/steering.h"
#include "exec/executor.h"
#include "memory/memory_store.h"

namespace agentfirst {

/// The satisficing probe optimizer (paper Sec. 5): decides *what* to execute
/// (admission control by phase, semantic pruning against the goal, k-of-n
/// satisficing, reuse of earlier exact answers) and *how* (approximation
/// level chosen from phase/accuracy, multi-query shared execution), then
/// invokes the sleeper agent for steering feedback.
class ProbeOptimizer {
 public:
  struct Options {
    /// Execute through the optimizer's shared sub-plan cache (`ExecCache`),
    /// the only place answers are reused across probes.
    bool enable_mqo = true;
    /// Sampling for exploratory phases. Also lets an exploratory probe whose
    /// exact answer came back truncated by the deadline retry once through
    /// sampling (validation-phase probes are never degraded).
    bool enable_aqp = true;
    /// Serve a repeated query's exact answer from the shared cache's root
    /// entry (reported `from_memory`; needs `enable_mqo`), and record each
    /// executed query as an artifact in the agentic memory store.
    bool enable_memory = true;
    bool enable_steering = true;     // sleeper-agent hints
    /// During exploration, prune queries whose goal relevance falls below
    /// a fixed threshold (only when the brief carries goal text).
    bool enable_semantic_pruning = true;
    /// Honor briefs' satisficing directives (k-of-n, termination criteria).
    /// Disabled by the classical-database baseline in the benches.
    bool enable_satisficing = true;
    /// Sampling rate used for exploratory probes when the brief gives no
    /// explicit accuracy and the estimated cost is above
    /// `exploration_cost_threshold`.
    double exploration_sample_rate = 0.05;
    double exploration_cost_threshold = 20000.0;
    /// Materialization advisor (paper Sec. 5.2.2): when a join/aggregate
    /// sub-plan recurs this many times across probes, a hint suggests the
    /// agent reuse one answer. The advisor pins nothing: any materialized
    /// copy sits in the LRU shared sub-plan cache (with MQO on) like every
    /// other result and may be evicted. 0 disables the advisor.
    size_t materialization_threshold = 3;
    /// Invest heuristic (paper Sec. 5.2.2): once the same underlying
    /// relation has been asked about this many times, answer exactly even
    /// when the brief would allow approximation -- the exact result enters
    /// the shared cache and pays itself back across future turns.
    /// 0 disables.
    size_t invest_threshold = 3;
    /// Adaptive indexing (paper Sec. 6: static tuning fails on dynamic
    /// agentic workloads, so the system tunes itself): after this many
    /// equality probes against the same column, a hash index is created
    /// automatically and announced via a hint. 0 disables.
    size_t auto_index_threshold = 4;
    /// Concurrent probe execution inside ProcessBatch: admitted probes run
    /// as tasks on the shared work-stealing pool while admission, pruning,
    /// steering, and advisor decisions stay serial in admission order.
    /// 1 = fully serial (identical to processing probes one by one, the
    /// default); 0 = hardware concurrency; N = at most N probes in flight.
    /// Note: with parallelism, which of two probes in one batch that ask the
    /// same query executes it and which reuses its answer is not
    /// deterministic.
    size_t batch_parallelism = 1;
    /// Intra-query morsel parallelism for executed probe queries
    /// (ExecOptions::num_threads); draws from the same pool.
    size_t intra_query_threads = 1;
    /// Default resource limits applied to every probe whose brief leaves the
    /// corresponding field unset (common/limits.h merge rule:
    /// `brief.limits.MergedOver(default_limits)` — the brief
    /// always wins field-by-field). Deadline expiry yields a truncated
    /// partial answer, never a hang: an oversized probe costs at most the
    /// deadline plus one morsel.
    ResourceLimits default_limits;
    /// Record a per-probe span tree (obs/trace.h) into
    /// ProbeResponse::trace: interpretation, admission, per-query
    /// plan/exec/retry/degrade spans with skip/truncate/shed reasons and
    /// per-operator cardinalities. Span structure and ids are deterministic
    /// under `trace_seed`; only durations are wall-clock.
    bool enable_tracing = true;
    uint64_t trace_seed = 0x0b5eed;
    /// Transparent retries per query on transient (IsRetryable) execution
    /// faults. 0 disables retry.
    size_t max_query_retries = 2;
    /// Base for the retry backoff; attempt k sleeps
    /// retry_backoff_ms * 2^(k-1) * jitter, with jitter in [0.5, 1.5)
    /// derived deterministically from (probe id, query, attempt) so
    /// concurrent retry storms decorrelate reproducibly.
    double retry_backoff_ms = 1.0;
    /// Per-agent circuit breaker: after this many consecutive failed
    /// executed queries, the agent's next probes are shed wholesale until
    /// the cooldown passes (0 disables the breaker). Sheds protect the
    /// shared pool from an agent stuck in a failing retry loop.
    size_t breaker_failure_threshold = 5;
    double breaker_cooldown_ms = 250.0;
  };

  struct Metrics {
    uint64_t probes = 0;
    uint64_t queries_submitted = 0;
    uint64_t queries_executed = 0;
    uint64_t queries_skipped = 0;
    uint64_t queries_from_memory = 0;
    uint64_t queries_approximate = 0;
    double executed_cost = 0.0;
    double skipped_cost = 0.0;  // estimated cost avoided by satisficing
    uint64_t materialization_suggestions = 0;
    uint64_t queries_truncated = 0;   // deadline or output-budget truncation
    uint64_t query_retries = 0;       // transparent transient-fault retries
    uint64_t queries_degraded = 0;    // deadline-truncated -> AQP retry
    uint64_t probes_shed = 0;         // shed by the circuit breaker
  };

  ProbeOptimizer(Catalog* catalog, AgenticMemoryStore* memory,
                 SemanticCatalogSearch* search)
      : ProbeOptimizer(catalog, memory, search, Options()) {}
  ProbeOptimizer(Catalog* catalog, AgenticMemoryStore* memory,
                 SemanticCatalogSearch* search, Options options);

  /// Answers a probe end-to-end. Per-query errors are reported inside the
  /// response; only catastrophic failures return a non-OK status.
  Result<ProbeResponse> Process(const Probe& probe);

  /// Answers a batch of concurrently submitted probes (paper Sec. 5.2.1):
  /// admission control orders them by brief priority, then by phase
  /// (PhaseAdmissionPriority, the server's admission order), and the shared
  /// sub-plan cache absorbs cross-probe redundancy.
  /// Responses are returned in the submission order.
  Result<std::vector<ProbeResponse>> ProcessBatch(const std::vector<Probe>& probes);

  /// Snapshot of the counters, taken under the state mutex (callers may race
  /// with an in-flight batch; a torn read would report impossible counts).
  Metrics metrics() const {
    MutexLock lock(state_mutex_);
    return metrics_;
  }
  void InvalidateCaches() { cache_.Clear(); }

  /// Installs the cooperative cancellation token consulted by every probe
  /// execution (the system facade points this at its CancelAllProbes
  /// source). Cancelled probes return kCancelled answers within one morsel.
  void SetCancellationToken(CancellationToken token) { cancel_ = std::move(token); }

 private:
  /// One probe's state as it moves through the three ProcessBatch phases:
  /// Prepare (serial: parse/bind/cost, admission + pruning decisions),
  /// Execute (parallelizable: runs the admitted queries; shared optimizer
  /// state is mutex-guarded, execution itself runs unlocked), Finalize
  /// (serial: steering, discovery, materialization/indexing advisors).
  struct ProbeTask;

  void PrepareProbe(const Probe& probe, ProbeTask* task);
  void ExecuteProbe(ProbeTask* task);
  void FinalizeProbe(ProbeTask* task);

  /// Per-agent circuit breaker state. Consulted during the serial Prepare
  /// phase (shed decision) and updated during the serial Finalize phase
  /// (outcome accounting), so breaker behavior is independent of the
  /// Execute phase's thread count.
  struct BreakerState {
    size_t consecutive_failures = 0;
    std::chrono::steady_clock::time_point open_until{};
  };

  double GoalRelevance(const PlanNode& plan, const Brief& brief);
  /// Tracks recurring expensive sub-plans; emits hints on recurrence.
  void AdviseMaterialization(const PlanPtr& plan, std::vector<Hint>* hints)
      AF_REQUIRES(state_mutex_);
  /// Tracks equality predicates per column; auto-creates hash indexes on hot
  /// columns and announces them.
  void AdaptiveIndexing(const PlanPtr& plan, std::vector<Hint>* hints)
      AF_REQUIRES(state_mutex_);

  Catalog* catalog_;
  AgenticMemoryStore* memory_;
  SemanticCatalogSearch* search_;
  Options options_;
  /// Guards all mutable optimizer state (metrics, recurrence maps, breaker
  /// and steering state). The serial Prepare/Finalize phases take it too —
  /// uncontended there, but it keeps every guarded access checkable by the
  /// clang thread-safety analysis instead of relying on phase discipline.
  /// Never held across plan execution.
  mutable Mutex state_mutex_;
  BriefInterpreter interpreter_;
  /// Shared sub-plan cache of every executed query (with MQO on); its root
  /// entries are the only reused answers. Internally synchronized.
  ExecCache cache_;
  SleeperAgent sleeper_;
  Metrics metrics_ AF_GUARDED_BY(state_mutex_);
  // Per-agent recently touched tables (batching suggestions).
  std::map<std::string, std::vector<std::string>> recent_tables_
      AF_GUARDED_BY(state_mutex_);
  // Materialization advisor state: canonical sub-plan fingerprint ->
  // (occurrences, already suggested).
  std::map<uint64_t, std::pair<size_t, bool>> subplan_recurrence_
      AF_GUARDED_BY(state_mutex_);
  // Invest heuristic state: canonical core-relation fingerprint -> times a
  // probe asked about that relation.
  std::map<uint64_t, size_t> core_recurrence_ AF_GUARDED_BY(state_mutex_);
  // Cross-turn dropping state (paper Sec. 5.2.2): per agent, the core
  // relations it has already received answers over, with the covering SQL.
  std::map<std::string, std::map<uint64_t, std::string>> answered_cores_
      AF_GUARDED_BY(state_mutex_);
  // Adaptive-indexing state: (table, column name) -> equality-probe count.
  std::map<std::pair<std::string, std::string>, size_t> eq_predicate_counts_
      AF_GUARDED_BY(state_mutex_);
  // Circuit-breaker state per agent id (Prepare/Finalize phases only).
  std::map<std::string, BreakerState> breakers_ AF_GUARDED_BY(state_mutex_);
  // Cooperative cancellation for all probe executions (see
  // SetCancellationToken); default token is non-cancellable.
  CancellationToken cancel_;
};

}  // namespace agentfirst

#endif  // AGENTFIRST_CORE_PROBE_OPTIMIZER_H_
