#ifndef AGENTFIRST_EXEC_EXECUTOR_H_
#define AGENTFIRST_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/cancellation.h"
#include "common/limits.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/result_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/fingerprint.h"
#include "plan/logical_plan.h"

namespace agentfirst {

/// Shared materialized-result cache keyed by strict plan fingerprint (plus
/// the effective sampling rate). The probe optimizer executes every probe
/// query through one cache, so identical sub-plans run once and a repeated
/// query reuses its answer; scan fingerprints include the table data
/// version, so writes invalidate naturally.
///
/// Thread-safe and built for parallel batches: entries are spread over
/// mutex-striped shards (so concurrent executors don't serialize on one
/// lock) and each shard evicts least-recently-used entries against a byte
/// budget (so speculation storms can't grow the cache unboundedly).
class ExecCache {
 public:
  static constexpr size_t kDefaultCapacityBytes = 256ull << 20;  // 256 MiB

  explicit ExecCache(size_t capacity_bytes = kDefaultCapacityBytes);

  ResultSetPtr Get(uint64_t key);
  void Put(uint64_t key, ResultSetPtr result);
  void Clear();

  size_t size() const;
  /// Estimated resident bytes across all shards.
  size_t bytes() const;
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }

  void set_capacity_bytes(size_t capacity_bytes);

  /// Rough footprint of a materialized result (rows, values, string heap).
  static size_t ApproxResultBytes(const ResultSet& result);

 private:
  static constexpr size_t kNumShards = 16;

  struct Entry {
    ResultSetPtr result;
    size_t bytes = 0;
    std::list<uint64_t>::iterator lru_it;
  };
  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<uint64_t, Entry> entries AF_GUARDED_BY(mutex);
    std::list<uint64_t> lru AF_GUARDED_BY(mutex);  // front = most recently used
    size_t bytes AF_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(uint64_t key) { return shards_[(key >> 56) % kNumShards]; }
  void EvictOverBudgetLocked(Shard& shard) AF_REQUIRES(shard.mutex);

  Shard shards_[kNumShards];
  // Capacity is a configuration knob read at eviction time, not a counter.
  // aflint:allow(raw-counter)
  std::atomic<size_t> capacity_bytes_;
  // Per-instance stats (caches coexist: one per probe optimizer, plus any a
  // caller passes in ExecOptions). The process-wide totals additionally
  // flow into MetricsRegistry::Default() under af.exec.cache.* (see
  // executor.cc).
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

struct ExecOptions {
  /// Scan-level Bernoulli sampling rate in (0, 1]; 1.0 = exact. Over a
  /// sampled input, COUNT and SUM aggregates are scaled by 1/sample_rate
  /// (Horvitz-Thompson); DISTINCT aggregates and MIN/MAX/AVG are not.
  double sample_rate = 1.0;
  /// Seed for the sampler (deterministic given plan + seed).
  uint64_t sample_seed = 42;
  /// Optional shared sub-plan cache (multi-query optimization). Not owned.
  /// Looked up and filled at every row-path operator and at the root of
  /// every vectorized sub-tree (whose interior operators never materialize
  /// rows), keyed by plan fingerprint plus sampling rate and seed.
  /// Truncated results are never cached.
  ExecCache* cache = nullptr;
  /// The threads that the vectorized engine's one batch loop may use in its
  /// scan, filter, project and hash-join probe; 1 runs the loop inline on
  /// the caller. Each batch writes its own output slot, so results are
  /// byte-identical at every count. The row path ignores it and always runs
  /// serially: operators the engine cannot take (see vec::CanVectorize) and
  /// arena-exhaustion reruns get no intra-query parallelism.
  size_t num_threads = 1;
  /// Pool the batch loop runs on, at one thread too; nullptr =
  /// ThreadPool::Default(). Not owned.
  ThreadPool* pool = nullptr;
  /// Unified resource limits (common/limits.h) for this plan execution.
  /// `limits.deadline` is a *relative* wall-clock budget armed when
  /// ExecutePlan starts (so retries re-arm naturally); expiry stops within
  /// one morsel and returns a well-formed partial result with
  /// `truncated = true` and `interrupt = kDeadlineExceeded` — operators
  /// downstream of the trip drain their already-materialized inputs so
  /// partial rows survive to the root. `limits.max_rows` / `max_bytes` are
  /// per-operator output caps (bytes measured like
  /// ExecCache::ApproxResultBytes); exceeding one truncates with
  /// `interrupt = kResourceExhausted`. `limits.cost_budget` is an
  /// optimizer-layer concept and is ignored here.
  ResourceLimits limits;
  /// Cooperative cancellation (default: non-cancellable). Unlike a deadline,
  /// cancellation abandons the answer: ExecutePlan returns kCancelled with
  /// no result.
  CancellationToken cancel;
  /// When set, one `op:<kind>` child span is appended under this span per
  /// executed operator (flat, post-order) carrying its output rows, cache
  /// status, and inclusive wall time. Both engines record the same spans,
  /// so tracing never changes which engine runs. Not owned; must outlive
  /// the call. One plan execution per span — the recording is not
  /// synchronized at all across plans. nullptr (the default) disables
  /// tracing at the cost of one branch per operator.
  obs::TraceSpan* trace = nullptr;
  /// Run every batch-convertible sub-plan (vec::CanVectorize) through the
  /// vectorized engine (typed columnar kernels + per-query arena; see
  /// DESIGN.md "Vectorized execution & memory"), with or without a cache,
  /// a trace, or sampling. Results are byte-identical to the row path —
  /// this is purely a performance knob, kept toggleable so the parity tests
  /// can diff both paths.
  bool vectorized = true;
};

/// Executes a bound logical plan bottom-up, materializing each operator.
/// Never throws; malformed plans produce Status.
Result<ResultSetPtr> ExecutePlan(const PlanNode& plan,
                                 const ExecOptions& options = {});

}  // namespace agentfirst

#endif  // AGENTFIRST_EXEC_EXECUTOR_H_
