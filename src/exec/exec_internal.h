#ifndef AGENTFIRST_EXEC_EXEC_INTERNAL_H_
#define AGENTFIRST_EXEC_EXEC_INTERNAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "exec/result_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"
#include "storage/segment.h"
#include "types/value.h"

/// Shared internals of the row and vectorized execution paths. Everything
/// here is an implementation detail of src/exec/ — the public surface stays
/// executor.h. Both paths must agree on interrupt cadence, interrupt
/// semantics, and byte accounting, or the determinism contract (the serial
/// row path == the vectorized path at any thread count) breaks; keeping the
/// definitions in one header makes that agreement structural.
namespace agentfirst {
namespace exec_internal {

/// How often the row path's loops (always serial) re-check the interrupt
/// state: every kCheckInterval rows, one default-size storage segment, which
/// is the vectorized engine's morsel (one batch per segment), so "stops
/// within one morsel of the deadline" means the same on both paths.
constexpr size_t kCheckInterval = Segment::kDefaultCapacity;

/// Rough resident footprint of one row (shared by the cache estimate and the
/// executor's byte-budget accounting).
inline size_t ApproxRowBytes(const Row& row) {
  size_t total = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == DataType::kString) total += v.string_value().size();
  }
  return total;
}

/// Process-wide executor metrics (af.exec.*). Pointers are resolved once and
/// cached, so each hot-path update is a single relaxed atomic add.
struct ExecMetrics {
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_evictions;
  obs::Counter* cache_hit_bytes;
  obs::Counter* cache_evicted_bytes;
  obs::Counter* plans;
  obs::Histogram* plan_us;
  /// Vectorized-path counters: plans (sub-trees) executed vectorized,
  /// batches processed, and nodes that fell back to the row path because an
  /// operator or expression is not batch-convertible.
  obs::Counter* vec_plans;
  obs::Counter* vec_batches;
  obs::Counter* vec_fallbacks;
  /// Arena bytes reserved (block grants) and returned across all queries.
  obs::Counter* arena_bytes;
};

inline ExecMetrics& Metrics() {
  static ExecMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Default();
    auto* metrics = new ExecMetrics();
    metrics->cache_hits = reg.GetCounter("af.exec.cache.hits");
    metrics->cache_misses = reg.GetCounter("af.exec.cache.misses");
    metrics->cache_evictions = reg.GetCounter("af.exec.cache.evictions");
    metrics->cache_hit_bytes = reg.GetCounter("af.exec.cache.hit_bytes");
    metrics->cache_evicted_bytes = reg.GetCounter("af.exec.cache.evicted_bytes");
    metrics->plans = reg.GetCounter("af.exec.plans");
    metrics->plan_us = reg.GetHistogram("af.exec.plan_us");
    metrics->vec_plans = reg.GetCounter("af.exec.vec.plans");
    metrics->vec_batches = reg.GetCounter("af.exec.vec.batches");
    metrics->vec_fallbacks = reg.GetCounter("af.exec.vec.fallback_nodes");
    metrics->arena_bytes = reg.GetCounter("af.exec.arena.bytes");
    return metrics;
  }();
  return *m;
}

/// Per-plan-execution interrupt state, threaded through every operator.
/// Aggregates cancellation, deadline, output budgets, and morsel-level
/// injected faults into one tripwire that ParallelFor can observe. When
/// none of those are configured (the default), every check is a single
/// relaxed load — serial behavior and output are completely unchanged.
struct InterruptCtx {
  CancellationToken cancel;
  Deadline deadline;
  size_t max_rows;
  size_t max_bytes;
  /// Any of deadline / cancel / budgets configured?
  bool active;

  /// Once set, no further morsels are claimed anywhere in the plan.
  std::atomic<bool> stop{false};
  /// Hard stop (cancellation): the whole execution returns an error.
  std::atomic<bool> hard{false};
  /// First soft-trip reason (kDeadlineExceeded or kResourceExhausted).
  std::atomic<int> code{static_cast<int>(StatusCode::kOk)};
  /// First injected morsel-level fault (errors can't propagate out of
  /// ParallelFor bodies directly).
  Mutex fault_mutex;
  Status fault AF_GUARDED_BY(fault_mutex);
  std::atomic<bool> has_fault{false};

  /// Arms the relative `limits.deadline` against now (construction time ==
  /// ExecutePlan entry), so each execution — including each retry attempt —
  /// gets the full budget.
  explicit InterruptCtx(const ExecOptions& o)
      : cancel(o.cancel),
        deadline(o.limits.deadline
                     ? Deadline::AfterMillis(o.limits.deadline->count())
                     : Deadline()),
        max_rows(o.limits.max_rows.value_or(0)),
        max_bytes(o.limits.max_bytes.value_or(0)),
        active(o.cancel.cancellable() || o.limits.deadline.has_value() ||
               max_rows > 0 || max_bytes > 0) {}

  const std::atomic<bool>* stop_flag() const { return &stop; }

  void Trip(StatusCode c) {
    int expected = static_cast<int>(StatusCode::kOk);
    code.compare_exchange_strong(expected, static_cast<int>(c),
                                 std::memory_order_relaxed);
    stop.store(true, std::memory_order_relaxed);
  }

  void TripFault(Status s) {
    {
      MutexLock lock(fault_mutex);
      if (!has_fault.load(std::memory_order_relaxed)) {
        fault = std::move(s);
        has_fault.store(true, std::memory_order_relaxed);
      }
    }
    stop.store(true, std::memory_order_relaxed);
  }

  /// Morsel-boundary check. True = stop claiming work. Sets the trip state
  /// on the first detection so sibling morsels stop within one morsel too.
  bool Check() {
    if (stop.load(std::memory_order_relaxed)) return true;
    if (!active) return false;
    if (cancel.cancelled()) {
      hard.store(true, std::memory_order_relaxed);
      Trip(StatusCode::kCancelled);
      return true;
    }
    if (deadline.expired()) {
      Trip(StatusCode::kDeadlineExceeded);
      return true;
    }
    return false;
  }

  /// Clears a recorded fault — and the stop flag it raised — so the caller
  /// can retry the same subtree on another path (the vectorized engine's
  /// arena-exhaustion fallback). Genuine soft-trip state survives: when a
  /// deadline or output budget also tripped, `stop` stays set and the retry
  /// runs in drain mode; a hard cancellation is never cleared.
  void ClearFault() {
    MutexLock lock(fault_mutex);
    fault = Status::OK();
    has_fault.store(false, std::memory_order_relaxed);
    if (code.load(std::memory_order_relaxed) ==
            static_cast<int>(StatusCode::kOk) &&
        !hard.load(std::memory_order_relaxed)) {
      stop.store(false, std::memory_order_relaxed);
    }
  }

  /// Fault point usable inside parallel morsel bodies; returns true when an
  /// error was injected (and recorded) at `site`.
  bool FaultAt(const char* site) {
    if (!FaultRegistry::Global().enabled()) return false;
    Status s = FaultRegistry::Global().Hit(site);
    if (s.ok()) return false;
    TripFault(std::move(s));
    return true;
  }

  bool soft_stopped() const {
    return stop.load(std::memory_order_relaxed) &&
           !hard.load(std::memory_order_relaxed) &&
           !has_fault.load(std::memory_order_relaxed);
  }
  bool cancelled() const { return hard.load(std::memory_order_relaxed); }
  StatusCode trip_code() const {
    return static_cast<StatusCode>(code.load(std::memory_order_relaxed));
  }

  /// Propagated/injected error to return from the enclosing operator, if
  /// any: injected faults first, then cancellation. Truncation (deadline,
  /// budgets) is NOT an error — it yields a truncated OK result.
  Status TakeError() {
    if (has_fault.load(std::memory_order_relaxed)) {
      MutexLock lock(fault_mutex);
      return fault;
    }
    if (cancelled()) return Status::Cancelled("probe cancelled");
    return Status::OK();
  }
};

/// Marks `out` truncated when this execution soft-tripped (deadline or
/// budget) or its input was already partial.
inline void StampTruncation(const InterruptCtx& ctx, ResultSet* out) {
  if (ctx.soft_stopped()) {
    out->truncated = true;
    out->interrupt = ctx.trip_code();
  }
}

inline void CarryTruncation(const ResultSet& in, ResultSet* out) {
  if (in.truncated) {
    out->truncated = true;
    if (out->interrupt == StatusCode::kOk) out->interrupt = in.interrupt;
  }
}

/// Appends one operator's `op:<kind>` span under `trace` with its output
/// row count and its inclusive wall time since `start`. Both paths record
/// through this, so a traced plan has the same flat, post-order span shape
/// whichever engine ran each operator.
inline void AddOpSpan(obs::TraceSpan* trace, PlanKind kind,
                      std::chrono::steady_clock::time_point start, size_t rows,
                      bool truncated) {
  obs::TraceSpan* span = trace->AddChild(std::string("op:") + PlanKindName(kind));
  span->duration_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  span->AddNote("rows", std::to_string(rows));
  if (truncated) span->AddNote("truncated", "true");
}

/// Row-path budget tracker: the row-at-a-time counterpart of the
/// vectorized engine's per-batch accounting.
struct BudgetTracker {
  InterruptCtx& ctx;
  size_t rows = 0;
  size_t bytes = 0;

  explicit BudgetTracker(InterruptCtx& c) : ctx(c) {}

  /// Records one appended row; returns true when a budget tripped.
  bool Add(const Row& row) {
    if (ctx.max_rows == 0 && ctx.max_bytes == 0) return false;
    ++rows;
    if (ctx.max_bytes > 0) bytes += ApproxRowBytes(row);
    if ((ctx.max_rows > 0 && rows > ctx.max_rows) ||
        (ctx.max_bytes > 0 && bytes > ctx.max_bytes)) {
      ctx.Trip(StatusCode::kResourceExhausted);
      return true;
    }
    return false;
  }
};

}  // namespace exec_internal
}  // namespace agentfirst

#endif  // AGENTFIRST_EXEC_EXEC_INTERNAL_H_
