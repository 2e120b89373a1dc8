#include "opt/mqo.h"

#include <unordered_set>

#include "common/thread_pool.h"
#include "plan/fingerprint.h"

namespace agentfirst {

namespace {
void CountOperators(const PlanNode& node, size_t* total,
                    std::unordered_set<uint64_t>* distinct) {
  ++*total;
  distinct->insert(PlanFingerprint(node));
  for (const auto& c : node.children) CountOperators(*c, total, distinct);
}
}  // namespace

void BatchExecutor::RecordOperatorCounts(const std::vector<PlanPtr>& plans) {
  std::unordered_set<uint64_t> distinct;
  size_t total = 0;
  for (const auto& p : plans) {
    if (p != nullptr) CountOperators(*p, &total, &distinct);
  }
  total_operators_.Add(total);
  distinct_operators_.Add(distinct.size());
  static obs::Counter* g_total =
      obs::MetricsRegistry::Default().GetCounter("af.mqo.operators_total");
  static obs::Counter* g_distinct =
      obs::MetricsRegistry::Default().GetCounter("af.mqo.operators_distinct");
  g_total->Add(total);
  g_distinct->Add(distinct.size());
}

std::vector<Result<ResultSetPtr>> BatchExecutor::ExecuteBatch(
    const std::vector<PlanPtr>& plans) {
  return ExecuteBatch(plans, base_options_);
}

std::vector<Result<ResultSetPtr>> BatchExecutor::ExecuteBatch(
    const std::vector<PlanPtr>& plans, const ExecOptions& caller_options) {
  RecordOperatorCounts(plans);

  ExecOptions options = caller_options;
  options.cache = &cache_;

  std::vector<Result<ResultSetPtr>> results;
  results.reserve(plans.size());
  for (const auto& p : plans) {
    if (p == nullptr) {
      results.emplace_back(Status::InvalidArgument("null plan in batch"));
      continue;
    }
    if (options.cancel.cancelled()) {
      results.emplace_back(Status::Cancelled("batch cancelled"));
      continue;
    }
    results.push_back(ExecutePlan(*p, options));
  }
  return results;
}

std::vector<Result<ResultSetPtr>> BatchExecutor::ExecuteBatchParallel(
    const std::vector<PlanPtr>& plans, size_t num_threads) {
  return ExecuteBatchParallel(plans, num_threads, base_options_);
}

std::vector<Result<ResultSetPtr>> BatchExecutor::ExecuteBatchParallel(
    const std::vector<PlanPtr>& plans, size_t num_threads,
    const ExecOptions& caller_options) {
  if (num_threads <= 1 || plans.size() <= 1) {
    return ExecuteBatch(plans, caller_options);
  }

  RecordOperatorCounts(plans);

  ExecOptions options = caller_options;
  options.cache = &cache_;

  std::vector<Result<ResultSetPtr>> results(
      plans.size(), Result<ResultSetPtr>(Status::Internal("not executed")));
  // Plans are tasks on the shared work-stealing pool, one plan per morsel,
  // capped at `num_threads` concurrent claimants. Intra-query morsels
  // (options.num_threads in base_options_) nest on the same pool, so batch-
  // and operator-level parallelism share one scheduler instead of
  // oversubscribing with ad-hoc threads.
  ThreadPool* pool =
      base_options_.pool != nullptr ? base_options_.pool : ThreadPool::Default();
  pool->ParallelFor(
      0, plans.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (plans[i] == nullptr) {
            results[i] = Status::InvalidArgument("null plan in batch");
            continue;
          }
          if (options.cancel.cancelled()) {
            results[i] = Status::Cancelled("batch cancelled");
            continue;
          }
          results[i] = ExecutePlan(*plans[i], options);
        }
      },
      /*grain=*/1, num_threads);
  return results;
}

SharingStats BatchExecutor::stats() const {
  SharingStats s;
  s.total_operators = total_operators_.value();
  s.distinct_operators = distinct_operators_.value();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  return s;
}

}  // namespace agentfirst
