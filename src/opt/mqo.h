#ifndef AGENTFIRST_OPT_MQO_H_
#define AGENTFIRST_OPT_MQO_H_

#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "plan/logical_plan.h"

namespace agentfirst {

/// Sharing statistics for a batch (the measurable counterpart of the paper's
/// Figure 2 claim: redundancy across speculative queries is exploitable).
struct SharingStats {
  size_t total_operators = 0;     // sum of operator counts across plans
  size_t distinct_operators = 0;  // unique strict fingerprints
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  double SharingRatio() const {
    return total_operators == 0
               ? 0.0
               : 1.0 - static_cast<double>(distinct_operators) / total_operators;
  }
};

/// Multi-query executor: runs a batch of plans through one shared sub-plan
/// result cache, so structurally identical sub-plans across the batch (or
/// across repeated calls) execute once. This is the paper's Sec. 5.2
/// "efficient execution" component.
class BatchExecutor {
 public:
  explicit BatchExecutor(ExecOptions base_options = {})
      : base_options_(base_options) {}

  /// Executes all plans, sharing sub-plan results. Per-plan failures are
  /// reported individually (one bad probe never fails the batch).
  std::vector<Result<ResultSetPtr>> ExecuteBatch(
      const std::vector<PlanPtr>& plans);

  /// Like the above, but with caller-supplied execution options (deadline,
  /// cancellation, budgets, sampling) layered over this executor's cache.
  /// The cache field of `options` is overridden so the batch still shares
  /// sub-plan results. If `options.cancel` trips, plans not yet started
  /// return kCancelled immediately instead of executing — batch-level
  /// cancellation stops within one plan (and, inside a running plan, within
  /// one morsel).
  std::vector<Result<ResultSetPtr>> ExecuteBatch(
      const std::vector<PlanPtr>& plans, const ExecOptions& options);

  /// Like ExecuteBatch but runs the plans concurrently on the shared
  /// work-stealing pool (at most `num_threads` in flight), all sharing the
  /// same sub-plan cache — the paper's high-throughput setting: thousands of
  /// concurrent field-agent probes. Results are in submission order.
  std::vector<Result<ResultSetPtr>> ExecuteBatchParallel(
      const std::vector<PlanPtr>& plans, size_t num_threads);

  /// Parallel variant with caller-supplied options; same cache override and
  /// cancellation early-exit semantics as the serial overload.
  std::vector<Result<ResultSetPtr>> ExecuteBatchParallel(
      const std::vector<PlanPtr>& plans, size_t num_threads,
      const ExecOptions& options);

  /// Cumulative stats across all batches executed through this object.
  SharingStats stats() const;

  /// Drops cached results (e.g. after writes).
  void InvalidateCache() { cache_.Clear(); }

  ExecCache* cache() { return &cache_; }

 private:
  void RecordOperatorCounts(const std::vector<PlanPtr>& plans);

  ExecOptions base_options_;
  ExecCache cache_;
  // Per-instance sharing stats; af.mqo.* registry counters mirror the
  // process-wide totals (see mqo.cc).
  obs::Counter total_operators_;
  obs::Counter distinct_operators_;
};

}  // namespace agentfirst

#endif  // AGENTFIRST_OPT_MQO_H_
