#ifndef AGENTFIRST_CORE_PROBE_H_
#define AGENTFIRST_CORE_PROBE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/limits.h"
#include "common/status.h"
#include "exec/result_set.h"
#include "obs/trace.h"

namespace agentfirst {

/// The phase of agentic speculation a probe belongs to (paper Sec. 2/4.1).
/// Phases drive admission control and the accuracy the optimizer targets.
enum class ProbePhase {
  kUnspecified,
  kMetadataExploration,  // schemas, samples, "what is where"
  kStatExploration,      // distinct values, aggregates over columns
  kSolutionFormulation,  // partial/complete attempts at the task
  kValidation,           // checking a candidate answer; wants exact results
};

const char* ProbePhaseName(ProbePhase phase);

/// The natural-language-ish side channel attached to a probe (paper Sec. 4.1
/// "briefs"): goals, phase, approximation tolerance, priorities. Structured
/// fields may be set directly by sophisticated agents; the brief interpreter
/// fills unset fields from `text`.
struct Brief {
  std::string text;  // free-form; interpreted by the in-database agent
  ProbePhase phase = ProbePhase::kUnspecified;
  /// Acceptable relative error for aggregate answers; unset = let the
  /// system decide from the phase (0.0 = demand exact).
  std::optional<double> max_relative_error;
  /// Relative priority across concurrently submitted probes (higher first).
  int priority = 0;
  /// Satisficing: only `k_of_n` of the probe's queries need full answers
  /// (0 = all). The system picks which, maximizing usefulness per cost.
  size_t k_of_n = 0;
  /// Early-termination criterion: stop answering further queries of this
  /// probe once this many rows have been produced in total (0 = off).
  size_t enough_rows_total = 0;
  /// Agent-defined termination function (paper Sec. 4.1): evaluated on each
  /// produced result; once it returns true, the probe's remaining queries
  /// are skipped. E.g. "stop once any answer shows the trend I expected".
  std::function<bool(const ResultSet&)> stop_when;
  /// Resource limits this probe volunteers to live within: per-query
  /// wall-clock deadline, per-answer row/byte caps, whole-probe cost budget
  /// (see common/limits.h for per-field semantics). Unset fields fall back
  /// to the optimizer's `default_limits` per the documented merge rule.
  /// Deadline expiry and output-cap trips yield *partial* answers flagged
  /// `truncated` — a partial answer is still grounding for the agent
  /// (paper Sec. 4.2); cost-budget exhaustion sheds the least
  /// useful-per-cost queries ("satisfice under available resources",
  /// paper Sec. 5.2).
  ResourceLimits limits;
};

/// A probe: one or more SQL queries plus a brief, and optionally a semantic
/// discovery request that goes beyond SQL (find tables/columns/values
/// semantically similar to a phrase, anywhere in the database).
struct Probe {
  uint64_t id = 0;
  std::string agent_id;  // issuing principal (memory-store scoping)
  std::vector<std::string> queries;
  Brief brief;

  std::string semantic_search_phrase;  // empty = no discovery
  /// How many semantic matches to return; unset = the system default (5).
  std::optional<size_t> semantic_top_k;

  /// Dry run (paper Sec. 4.2 cost feedback): plan and estimate every query
  /// but execute nothing. Answers carry estimated cost/cardinality and the
  /// plan text, letting the agent decide what is worth running.
  bool dry_run = false;

  /// Runtime-only cooperative cancellation for this specific probe — never
  /// serialized (src/net/wire.cc does not carry it). Transport layers attach
  /// it after decoding so that client disconnect stops the probe's execution
  /// within one morsel: the server session's CancellationSource cancels here
  /// when the agent hangs up, and the abandoned speculation stops consuming
  /// the executor. When set, it replaces the optimizer's system-wide token
  /// for this probe (the server cancels all sessions on Stop, so the global
  /// CancelAllProbes path and the per-session path cover the same ground).
  CancellationToken cancel;
};

/// Kinds of proactive grounding feedback (paper Sec. 4.2).
enum class HintKind {
  kRelatedTable,        // tables likely relevant to the goal
  kJoinSuggestion,      // joinable table + key columns
  kWhyEmptyResult,      // which predicate filtered everything out
  kCostWarning,         // estimated cost high; narrow or approximate
  kBatchingSuggestion,  // sequential probes could be batched
  kCachedAnswer,        // an existing memory artifact already answers this
  kEncodingNote,        // value-encoding grounding from memory
  kSchemaGuidance,      // general schema grounding
};

const char* HintKindName(HintKind kind);

struct Hint {
  HintKind kind;
  std::string text;
  double relevance = 0.0;
};

/// One semantic-discovery match.
struct SemanticMatch {
  enum class Kind { kTable, kColumn, kValue } kind;
  std::string table;
  std::string column;  // empty for table matches
  std::string text;    // the matched identifier/value
  double score = 0.0;
};

/// Per-query outcome within a probe response.
struct QueryAnswer {
  std::string sql;
  Status status;               // OK, or why this query failed
  ResultSetPtr result;         // null when failed or skipped
  bool skipped = false;        // satisficing decided not to run it
  std::string skip_reason;
  bool approximate = false;
  double sample_rate = 1.0;
  /// 95% CI half-width per output column (see opt/aqp.h); empty when exact.
  std::vector<std::optional<double>> relative_ci95;
  double estimated_cost = 0.0;
  double estimated_rows = 0.0;
  bool from_memory = false;    // an earlier probe's exact answer, reused
  std::string plan_text;       // filled for dry-run probes
  /// True when execution stopped at the deadline or an output budget:
  /// `result` holds the partial rows merged so far and `status` carries
  /// kDeadlineExceeded / kResourceExhausted explaining why.
  bool truncated = false;
  /// Transparent retries spent recovering this answer from transient
  /// (retryable) execution faults. 0 = first attempt succeeded.
  uint32_t retries = 0;
};

/// Everything the data system returns for a probe: answers plus the
/// steering side channel.
struct ProbeResponse {
  uint64_t probe_id = 0;
  std::vector<QueryAnswer> answers;
  std::vector<Hint> hints;
  std::vector<SemanticMatch> discoveries;
  ProbePhase interpreted_phase = ProbePhase::kUnspecified;
  double total_estimated_cost = 0.0;
  double total_executed_cost = 0.0;  // cost of what actually ran
  /// Sum of per-answer transparent retries (attempt accounting for agents).
  uint64_t total_retries = 0;
  /// True when the whole probe was shed by the per-agent circuit breaker
  /// (repeated execution failures; retry after the cooldown).
  bool shed = false;
  /// Per-probe span tree (paper Sec. 4.2 cost feedback as structured data):
  /// why each query was skipped/truncated/shed, what it cost, what each
  /// operator produced. Empty when the optimizer runs with tracing
  /// disabled. Span structure and ids are deterministic (see obs/trace.h);
  /// only durations are wall-clock.
  obs::TraceSpan trace;

  /// Renders answers + hints (and the trace, when present) for an agent's
  /// context window.
  std::string ToString(size_t max_rows_per_answer = 10) const;
};

}  // namespace agentfirst

#endif  // AGENTFIRST_CORE_PROBE_H_
