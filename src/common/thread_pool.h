#ifndef AGENTFIRST_COMMON_THREAD_POOL_H_
#define AGENTFIRST_COMMON_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.h"

namespace agentfirst {

/// Work-stealing thread pool: per-worker deques (owner pops LIFO from the
/// back, thieves steal FIFO from the front) plus a global injector queue for
/// tasks submitted from non-pool threads. This is the process-wide scheduler
/// behind morsel-driven operator parallelism (Leis et al., SIGMOD 2014),
/// probe batches, and concurrent probe answering — everything draws from
/// one pool so concurrent layers compose instead of oversubscribing.
///
/// Nesting is safe: a task running on a worker may Submit further tasks
/// (they land on that worker's own deque) and may call ParallelFor. A
/// ParallelFor caller always participates in the loop itself, so progress
/// never depends on a free worker and nested loops cannot deadlock.
class ThreadPool {
 public:
  /// `num_threads` = number of worker threads; 0 means
  /// std::thread::hardware_concurrency(). A pool with 0 effective workers is
  /// valid: Submit runs tasks inline and ParallelFor degenerates to serial.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Submits a callable for asynchronous execution; the returned future
  /// carries its result (or exception). Callable must be invocable with no
  /// arguments.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Push([task]() { (*task)(); });
    return future;
  }

  /// Morsel-driven parallel loop: invokes `body(morsel_begin, morsel_end)`
  /// over disjoint sub-ranges covering [begin, end). The caller participates
  /// (so this works with zero free workers), morsels are claimed dynamically
  /// from an atomic cursor (work stealing at morsel granularity), and the
  /// call returns only when every claimed morsel has finished. The first
  /// exception thrown by `body` aborts remaining morsels and is rethrown.
  ///
  /// `grain` is the morsel size in indices (0 = choose automatically).
  /// `max_threads` caps the number of threads touching the loop including
  /// the caller (0 = no cap beyond pool width). Morsel boundaries depend
  /// only on (begin, end, grain), never on scheduling, so any body that
  /// writes to per-morsel slots is deterministic.
  ///
  /// `cancel` (optional, not owned, must outlive the call) is a cooperative
  /// stop flag: once it reads true, no further morsels are claimed — already
  /// running morsels finish. Point it at a CancellationToken's flag to stop
  /// a parallel operator within one morsel of cancellation or deadline
  /// expiry. Cancellation is not an error at this layer: the loop returns
  /// normally having covered only a prefix-by-claim-order subset.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t, size_t)>& body,
                   size_t grain = 0, size_t max_threads = 0,
                   const std::atomic<bool>* cancel = nullptr);

  /// Process-wide default pool, sized from hardware_concurrency(). Created
  /// on first use; joined at process exit.
  static ThreadPool* Default();

 private:
  using Task = std::function<void()>;

  struct Worker {
    Mutex mutex;
    std::deque<Task> deque AF_GUARDED_BY(mutex);
  };

  struct ParallelForState {
    // Work-claim cursor, not a metric. aflint:allow(raw-counter)
    std::atomic<size_t> next{0};
    size_t end = 0;
    size_t grain = 1;
    /// Only dereferenced when a morsel was actually claimed; once the cursor
    /// passes `end` the pointed-to function may be gone, but by then no
    /// claimant can reach it.
    const std::function<void(size_t, size_t)>* body = nullptr;
    /// External cooperative stop flag (may be null; not owned).
    const std::atomic<bool>* cancel = nullptr;
    std::atomic<int> active{0};
    std::atomic<bool> abort{false};
    Mutex mutex;
    CondVar done_cv;
    std::exception_ptr exception AF_GUARDED_BY(mutex);
  };

  static void RunMorselLoop(ParallelForState* state);

  void Push(Task task);
  void WorkerLoop(size_t index);
  /// Pops one task: own deque (workers), then injector, then steal.
  bool PopTask(Task* out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  Mutex injector_mutex_;
  std::deque<Task> injector_ AF_GUARDED_BY(injector_mutex_);
  CondVar work_cv_;
  // Load-bearing wait-predicate state (queued anywhere, not yet claimed) —
  // the af.pool.queue_depth gauge mirrors it for observers.
  // aflint:allow(raw-counter)
  std::atomic<size_t> num_tasks_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace agentfirst

#endif  // AGENTFIRST_COMMON_THREAD_POOL_H_
