#ifndef AGENTFIRST_EXEC_VECTORIZED_H_
#define AGENTFIRST_EXEC_VECTORIZED_H_

#include "common/result.h"
#include "exec/exec_internal.h"
#include "exec/executor.h"

namespace agentfirst {
namespace vec {

/// True when the whole sub-plan rooted at `node` converts to typed batch
/// kernels: scans without index acceleration, filters/projections over
/// vectorizable expressions (see InferExprType), inner/left equi-joins
/// without residual predicates, non-DISTINCT aggregates over numeric or
/// string arguments, sorts on vectorizable keys, and limits. Union and
/// nested-loop joins stay on the row path (their children are re-gated
/// individually by ExecNode).
bool CanVectorize(const PlanNode& node);

/// Executes a CanVectorize() sub-plan end-to-end on columnar batches with a
/// per-query arena, materializing rows only at the root boundary. The result
/// is byte-identical to the row path: same values, same order, same
/// truncation semantics at morsel (= batch) granularity, the same sampled
/// rows and Horvitz-Thompson scaling under `options.sample_rate`, and the
/// same `op:<kind>` spans under `options.trace`. `ctx` is the same
/// interrupt context the row path threads through its operators, so
/// deadlines, cancellation, output budgets, and injected faults behave
/// uniformly across both paths. The arena is capped by
/// `options.limits.max_bytes`; exhausting it fails the plan with a typed
/// kResourceExhausted error (working memory, unlike the output budget, has
/// no meaningful partial answer). ExecNode treats that error as "this plan
/// does not fit the vectorized engine under this budget" and retries the
/// subtree on the row path, whose max_bytes contract is truncation — so the
/// hard error never escapes the executor.
Result<ResultSetPtr> ExecuteVectorized(const PlanNode& node,
                                       const ExecOptions& options,
                                       exec_internal::InterruptCtx& ctx);

}  // namespace vec
}  // namespace agentfirst

#endif  // AGENTFIRST_EXEC_VECTORIZED_H_
