#include "exec/vectorized.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/evaluator.h"
#include "exec/vec_batch.h"
#include "storage/buffer_pool.h"
#include "storage/segment.h"

namespace agentfirst {
namespace vec {
namespace {

using exec_internal::InterruptCtx;
using exec_internal::Metrics;
using exec_internal::StampTruncation;

/// Inputs smaller than this run serially; fan-out costs more than it saves.
constexpr size_t kMinParallelRows = 2048;

/// Threads for a batch loop over `num_rows` input rows.
size_t LoopThreads(const ExecOptions& options, size_t num_rows) {
  return options.num_threads > 1 && num_rows >= kMinParallelRows
             ? options.num_threads
             : 1;
}

ThreadPool* PoolFor(const ExecOptions& options) {
  return options.pool != nullptr ? options.pool : ThreadPool::Default();
}

// ---------------------------------------------------------------------------
// Static type flow. A node is vectorizable only when every operator and
// expression in its subtree resolves to one fixed physical type per column;
// the check runs over types alone, never data.
// ---------------------------------------------------------------------------

bool InferNodeTypes(const PlanNode& node, std::vector<DataType>* out);

bool InferScanTypes(const PlanNode& node, std::vector<DataType>* out) {
  // Virtual tables, index-accelerated scans, and typeless columns stay on
  // the row path.
  if (node.table == nullptr || node.index != nullptr) return false;
  std::vector<DataType> types;
  types.reserve(node.table->schema().NumColumns());
  for (const ColumnDef& col : node.table->schema().columns()) {
    if (col.type == DataType::kNull) return false;
    types.push_back(col.type);
  }
  if (node.scan_filter != nullptr && !CanVectorizeExpr(*node.scan_filter, types)) {
    return false;
  }
  *out = std::move(types);
  return true;
}

bool InferJoinTypes(const PlanNode& node, std::vector<DataType>* out) {
  if (node.join_type != JoinType::kInner && node.join_type != JoinType::kLeft) {
    return false;
  }
  if (node.predicate != nullptr || node.join_keys.empty()) return false;
  std::vector<DataType> lt, rt;
  if (!InferNodeTypes(*node.children[0], &lt) ||
      !InferNodeTypes(*node.children[1], &rt)) {
    return false;
  }
  for (const auto& [l, r] : node.join_keys) {
    auto a = InferExprType(*l, lt);
    auto b = InferExprType(*r, rt);
    if (!a || !b) return false;
    bool num = IsNumeric(*a) && IsNumeric(*b);
    bool str = *a == DataType::kString && *b == DataType::kString;
    if (!num && !str) return false;
  }
  out->assign(lt.begin(), lt.end());
  out->insert(out->end(), rt.begin(), rt.end());
  return true;
}

bool InferAggregateTypes(const PlanNode& node, std::vector<DataType>* out) {
  std::vector<DataType> ct;
  if (!InferNodeTypes(*node.children[0], &ct)) return false;
  std::vector<DataType> types;
  for (const auto& g : node.group_by) {
    auto t = InferExprType(*g, ct);
    if (!t || *t == DataType::kNull) return false;
    types.push_back(*t);
  }
  for (const AggregateExpr& agg : node.aggregates) {
    if (agg.distinct) return false;
    std::optional<DataType> at;
    if (agg.arg != nullptr) {
      at = InferExprType(*agg.arg, ct);
      if (!at) return false;
    }
    switch (agg.func) {
      case AggFunc::kCount:
        types.push_back(DataType::kInt64);
        break;
      case AggFunc::kSum:
        if (!at || !IsNumeric(*at)) return false;
        types.push_back(agg.output_type == DataType::kInt64 &&
                                *at == DataType::kInt64
                            ? DataType::kInt64
                            : DataType::kFloat64);
        break;
      case AggFunc::kAvg:
        if (!at || !IsNumeric(*at)) return false;
        types.push_back(DataType::kFloat64);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (!at || (!IsNumeric(*at) && *at != DataType::kString)) return false;
        types.push_back(*at);
        break;
    }
  }
  *out = std::move(types);
  return true;
}

bool InferNodeTypes(const PlanNode& node, std::vector<DataType>* out) {
  switch (node.kind) {
    case PlanKind::kScan:
      return InferScanTypes(node, out);
    case PlanKind::kFilter: {
      if (!InferNodeTypes(*node.children[0], out)) return false;
      return node.predicate != nullptr && CanVectorizeExpr(*node.predicate, *out);
    }
    case PlanKind::kProject: {
      std::vector<DataType> ct;
      if (!InferNodeTypes(*node.children[0], &ct)) return false;
      std::vector<DataType> types;
      for (const auto& e : node.project_exprs) {
        auto t = InferExprType(*e, ct);
        if (!t) return false;
        types.push_back(*t);
      }
      *out = std::move(types);
      return true;
    }
    case PlanKind::kHashJoin:
      return InferJoinTypes(node, out);
    case PlanKind::kAggregate:
      return InferAggregateTypes(node, out);
    case PlanKind::kSort: {
      if (!InferNodeTypes(*node.children[0], out)) return false;
      for (const SortKey& key : node.sort_keys) {
        if (!InferExprType(*key.expr, *out)) return false;
      }
      return true;
    }
    case PlanKind::kLimit:
      return InferNodeTypes(*node.children[0], out);
    default:
      return false;
  }
}

Status ArenaExhausted() {
  return Status::ResourceExhausted(
      "vectorized arena: working-memory budget exhausted");
}

struct VecExec {
  const ExecOptions& options;
  InterruptCtx& ctx;
  Arena* arena;
  /// Segment pins deposited by scans. Batches are zero-copy views into
  /// segment column storage, so every scanned segment must stay pinned until
  /// the batches are materialized to rows at the end of ExecuteVectorized —
  /// the pins live there and die after conversion. Operators run one at a
  /// time (ParallelFor fans out *within* one operator), so plain push_back
  /// after the scan's barrier is race-free.
  storage::PinnedSegments* pins;
};

/// Rough resident footprint of one batch once materialized as rows —
/// deliberately the same formula as exec_internal::ApproxRowBytes so the
/// vectorized path trips the byte budget at the same thresholds as the row
/// path (up to morsel granularity).
size_t BatchApproxBytes(const VecBatch& b) {
  size_t n = b.ActiveRows();
  size_t total = n * (sizeof(Row) + b.cols.size() * sizeof(Value));
  for (const VecColumn& c : b.cols) {
    if (c.type != DataType::kString) continue;
    for (size_t i = 0; i < n; ++i) {
      size_t row = b.RowAt(i);
      if (ValidAt(c, row)) total += StrAt(c, row).size();
    }
  }
  return total;
}

/// Per-batch output budget accounting shared by scan / filter / join: each
/// finished batch adds its rows and bytes to the operator's totals, and the
/// first total past a budget trips the plan, so a trip lands within one
/// morsel at any thread count. Counting a drained batch changes nothing:
/// the plan has already tripped, and its first trip reason sticks.
struct BatchBudget {
  InterruptCtx& ctx;
  // Budget tripwires local to one operator invocation, not metrics.
  // aflint:allow(raw-counter)
  std::atomic<size_t> rows{0};
  // aflint:allow(raw-counter)
  std::atomic<size_t> bytes{0};

  explicit BatchBudget(InterruptCtx& c) : ctx(c) {}

  void Count(const VecBatch& b) {
    if (ctx.max_rows > 0) {
      size_t n = b.ActiveRows();
      if (rows.fetch_add(n, std::memory_order_relaxed) + n > ctx.max_rows) {
        ctx.Trip(StatusCode::kResourceExhausted);
      }
    }
    if (ctx.max_bytes > 0) {
      size_t bb = BatchApproxBytes(b);
      if (bytes.fetch_add(bb, std::memory_order_relaxed) + bb > ctx.max_bytes) {
        ctx.Trip(StatusCode::kResourceExhausted);
      }
    }
  }
};

/// Zero-copy view of one stored column.
VecColumn ColView(const ColumnVector& col) {
  VecColumn c;
  c.type = col.type();
  c.valid = col.valid_data();
  switch (col.type()) {
    case DataType::kInt64: c.i64 = col.int_data(); break;
    case DataType::kFloat64: c.f64 = col.double_data(); break;
    case DataType::kBool: c.b8 = col.bool_data(); break;
    case DataType::kString: c.str_base = col.string_data(); break;
    default: break;  // kNull columns rejected by InferScanTypes
  }
  return c;
}

/// Selection vector meaning "no rows" for batches skipped after a trip
/// (distinguishes them from untouched batches with sel == nullptr).
constexpr uint32_t kNoRows[1] = {0};

/// The one batch loop behind the scan, filter, projection and join probe:
/// runs `body(i)` for every batch i in [0, n), one batch per morsel, on up
/// to `threads` threads; at one thread it runs inline, in batch order.
/// Before each batch it checks for interrupts and fires `fault_site`, at
/// every thread count; once the plan has tripped, no further batch is
/// claimed, so some may stay unvisited. A false from `body` (arena
/// exhaustion) trips the plan with ArenaExhausted(), which ExecUncached
/// answers by rerunning the sub-tree on the row path. A plan already
/// soft-stopped on entry drains instead: every batch runs, without checks,
/// because its input is a bounded partial the budget already paid for.
template <typename Body>
void ForEachBatch(VecExec& ex, size_t n, size_t threads, const char* fault_site,
                  Body body) {
  const bool draining = ex.ctx.soft_stopped();
  PoolFor(ex.options)->ParallelFor(
      0, n,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (!draining && (ex.ctx.Check() || ex.ctx.FaultAt(fault_site))) {
            return;
          }
          if (!body(i)) {
            ex.ctx.TripFault(ArenaExhausted());
            return;
          }
        }
      },
      /*grain=*/1, threads, draining ? nullptr : ex.ctx.stop_flag());
}

// ---------------------------------------------------------------------------
// Gather: copy chosen cells of source columns into fresh dense arrays. The
// join, the aggregate's group keys and the sort materialize through it.
// ---------------------------------------------------------------------------

// aflint:kernel-begin

/// One cell to gather; a null column gathers NULL (left-join padding).
struct GatherSource {
  const VecColumn* col = nullptr;
  size_t row = 0;
};

template <typename T, typename CellFn, typename Get>
T* GatherValues(size_t n, Arena* arena, const uint8_t* valid, CellFn cell,
                Get get) {
  T* data = arena->AllocateArrayOf<T>(n);
  if (data == nullptr) return nullptr;
  for (size_t i = 0; i < n; ++i) {
    data[i] = valid[i] != 0 ? get(cell(i)) : T{};
  }
  return data;
}

/// Fills a fresh dense column of `type` with `n` cells, cell `i` copied from
/// `cell(i)` (a GatherSource). False on arena exhaustion.
template <typename CellFn>
bool GatherCells(DataType type, size_t n, Arena* arena, VecColumn* out,
                 CellFn cell) {
  uint8_t* valid = arena->AllocateArrayOf<uint8_t>(n);
  if (valid == nullptr) return false;
  for (size_t i = 0; i < n; ++i) {
    GatherSource g = cell(i);
    valid[i] = g.col != nullptr && ValidAt(*g.col, g.row) ? 1 : 0;
  }
  out->type = type;
  out->valid = valid;
  switch (type) {
    case DataType::kInt64:
      out->i64 = GatherValues<int64_t>(
          n, arena, valid, cell, [](GatherSource g) { return g.col->i64[g.row]; });
      return out->i64 != nullptr;
    case DataType::kFloat64:
      out->f64 = GatherValues<double>(
          n, arena, valid, cell, [](GatherSource g) { return g.col->f64[g.row]; });
      return out->f64 != nullptr;
    case DataType::kBool:
      out->b8 = GatherValues<uint8_t>(
          n, arena, valid, cell, [](GatherSource g) { return g.col->b8[g.row]; });
      return out->b8 != nullptr;
    case DataType::kString:
      out->refs = GatherValues<StringRef>(
          n, arena, valid, cell, [](GatherSource g) {
            std::string_view s = StrAt(*g.col, g.row);
            return StringRef{s.data(), static_cast<uint32_t>(s.size())};
          });
      return out->refs != nullptr;
    default:
      std::memset(valid, 0, n);  // kNull output column: every cell NULL
      return true;
  }
}

// aflint:kernel-end

// ---------------------------------------------------------------------------
// Key hashing / equality for join build+probe and aggregation. Numeric keys
// hash through their double image so INT 1 and DOUBLE 1.0 land in the same
// bucket — the same width-insensitive behavior Value::Hash/Equals give the
// row path. Hash values themselves never surface in results, so they only
// need to be internally consistent.
// ---------------------------------------------------------------------------

constexpr uint64_t kNullKeyHash = 0x9ae16a3b2f90404fULL;

uint64_t CellHash(const VecColumn& c, size_t row) {
  if (!ValidAt(c, row)) return kNullKeyHash;
  switch (c.type) {
    case DataType::kInt64:
      return HashDouble(static_cast<double>(c.i64[row]));
    case DataType::kFloat64:
      return HashDouble(c.f64[row]);
    case DataType::kBool:
      return HashInt(c.b8[row] != 0 ? 1 : 0);
    case DataType::kString:
      return HashString(StrAt(c, row));
    default:
      return kNullKeyHash;
  }
}

/// Hashes the key columns of every active row of `b` in one pass per key
/// column; `(*hashes)[i]` belongs to active row i.
void HashKeys(const std::vector<VecColumn>& keys, const VecBatch& b,
              std::vector<uint64_t>* hashes) {
  const size_t n = b.ActiveRows();
  hashes->assign(n, kFnvOffsetBasis);
  uint64_t* h = hashes->data();
  for (const VecColumn& c : keys) {
    for (size_t i = 0; i < n; ++i) h[i] = HashCombine(h[i], CellHash(c, b.RowAt(i)));
  }
}

/// Open-addressing slots mapping a 64-bit key hash to a dense entry id:
/// linear probing over a power-of-two array kept at most half full. Callers
/// give equal hashes their meaning: the join keeps one slot per distinct
/// hash, heading a chain of build rows; the aggregate keeps one slot per
/// group, so groups whose keys collide sit in neighbouring slots.
struct FlatTable {
  static constexpr uint32_t kEmpty = UINT32_MAX;

  std::vector<uint64_t> hashes;
  std::vector<uint32_t> ids;
  size_t mask = 0;
  size_t used = 0;

  explicit FlatTable(size_t expected) {
    size_t slots = 16;
    while (slots < 2 * expected) slots <<= 1;
    hashes.assign(slots, 0);
    ids.assign(slots, kEmpty);
    mask = slots - 1;
  }

  size_t Home(uint64_t hash) const { return hash & mask; }
  size_t Next(size_t slot) const { return (slot + 1) & mask; }

  /// The slot holding `hash`, or the empty slot that ends its probe run.
  size_t Find(uint64_t hash) const {
    size_t s = Home(hash);
    while (ids[s] != kEmpty && hashes[s] != hash) s = Next(s);
    return s;
  }

  /// Fills empty slot `slot`. Slot positions are void afterwards: the table
  /// doubles once it passes half full.
  void Claim(size_t slot, uint64_t hash, uint32_t id) {
    hashes[slot] = hash;
    ids[slot] = id;
    if (2 * ++used <= ids.size()) return;
    FlatTable bigger(used);
    for (size_t s = 0; s < ids.size(); ++s) {
      if (ids[s] == kEmpty) continue;
      size_t t = bigger.Home(hashes[s]);
      while (bigger.ids[t] != kEmpty) t = bigger.Next(t);
      bigger.hashes[t] = hashes[s];
      bigger.ids[t] = ids[s];
    }
    bigger.used = used;
    *this = std::move(bigger);
  }
};

/// Width-insensitive cell equality between two columns of (possibly
/// different) numeric types, or identical non-numeric types. `nulls_equal`
/// selects grouping semantics (NULL == NULL) over join semantics.
bool CellEquals(const VecColumn& a, size_t ar, const VecColumn& b, size_t br,
                bool nulls_equal) {
  bool an = !ValidAt(a, ar);
  bool bn = !ValidAt(b, br);
  if (an || bn) return nulls_equal && an && bn;
  if (a.type == DataType::kInt64 && b.type == DataType::kInt64) {
    return a.i64[ar] == b.i64[br];
  }
  if (IsNumeric(a.type) && IsNumeric(b.type)) {
    double av = a.type == DataType::kInt64 ? static_cast<double>(a.i64[ar])
                                           : a.f64[ar];
    double bv = b.type == DataType::kInt64 ? static_cast<double>(b.i64[br])
                                           : b.f64[br];
    return av == bv;
  }
  switch (a.type) {
    case DataType::kBool:
      return (a.b8[ar] != 0) == (b.b8[br] != 0);
    case DataType::kString:
      return StrAt(a, ar) == StrAt(b, br);
    default:
      return false;
  }
}

bool AnyNullKey(const std::vector<VecColumn>& keys, size_t row) {
  for (const VecColumn& c : keys) {
    if (!ValidAt(c, row)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

Status ExecVecNode(const PlanNode& node, VecExec& ex, VecResult* out);

Status ExecVecScan(const PlanNode& node, VecExec& ex, VecResult* out) {
  AF_FAULT_POINT("exec.scan.begin");
  const Table& table = *node.table;
  out->types.clear();
  for (const ColumnDef& col : table.schema().columns()) {
    out->types.push_back(col.type);
  }
  // A scan reached after the plan already tripped produces no new data.
  if (ex.ctx.Check()) return ex.ctx.TakeError();
  const double rate = ex.options.sample_rate;
  const bool sampling = rate < 1.0;
  if (sampling) {
    out->approximate = true;
    out->sample_rate = rate;
  }
  // The row path's sampler, draw for draw: seeded per table so scans in one
  // plan decorrelate, one Bernoulli draw per stored row in segment order,
  // taken before the filter. The stream runs across segment boundaries, so
  // sampled scans run on one thread.
  Rng rng(ex.options.sample_seed ^ HashString(node.table_name));
  const size_t nseg = table.NumSegments();
  out->batches.assign(nseg, VecBatch{});
  BatchBudget budget(ex.ctx);
  // One pin per segment, assigned by index (each morsel owns its segment,
  // so no lock). The whole vector moves into ex.pins after the scan so the
  // zero-copy views below outlive eviction.
  storage::PinnedSegments pins(nseg);
  // One batch per storage segment, built zero-copy over the column spans.
  // Returns false on arena exhaustion (only possible with a scan filter or
  // sampling).
  auto scan_segment = [&](size_t s) -> bool {
    Result<storage::SegmentPin> pin = table.PinSegment(s);
    if (!pin.ok()) {
      ex.ctx.TripFault(std::move(pin).status());
      return true;  // not arena exhaustion; the trip carries the error
    }
    pins[s] = std::move(pin).value();
    const Segment& seg = *pins[s];
    VecBatch& b = out->batches[s];
    b.num_rows = seg.num_rows();
    b.cols.reserve(seg.NumColumns());
    for (size_t c = 0; c < seg.NumColumns(); ++c) {
      b.cols.push_back(ColView(seg.column(c)));
    }
    if (sampling) {
      uint32_t* sel = ex.arena->AllocateArrayOf<uint32_t>(b.num_rows);
      if (sel == nullptr) return false;
      size_t count = 0;
      for (size_t i = 0; i < b.num_rows; ++i) {
        if (rng.NextBool(rate)) sel[count++] = static_cast<uint32_t>(i);
      }
      b.sel = sel;
      b.sel_size = count;
    }
    if (node.scan_filter != nullptr) {
      const uint32_t* sel = nullptr;
      size_t count = 0;
      if (!EvalPredicateBatch(*node.scan_filter, b, ex.arena, &sel, &count)) {
        return false;
      }
      b.sel = sel;
      b.sel_size = count;
    }
    budget.Count(b);
    Metrics().vec_batches->Increment();
    return true;
  };
  ForEachBatch(ex, nseg,
               sampling ? 1 : LoopThreads(ex.options, table.NumRows()),
               "exec.scan.morsel", scan_segment);
  // Keeps every pinned segment alive until batches are materialized, even
  // when this scan stopped early on a trip.
  for (storage::SegmentPin& p : pins) {
    if (p.valid()) ex.pins->push_back(std::move(p));
  }
  return ex.ctx.TakeError();
}

Status ExecVecFilter(const PlanNode& node, VecExec& ex, VecResult* out) {
  AF_RETURN_IF_ERROR(ExecVecNode(*node.children[0], ex, out));
  BatchBudget budget(ex.ctx);
  std::vector<char> batch_done(out->batches.size(), 0);
  // Narrows one batch's selection in place; false on arena exhaustion.
  auto filter_batch = [&](size_t i) -> bool {
    VecBatch& b = out->batches[i];
    if (b.num_rows > 0) {
      const uint32_t* sel = nullptr;
      size_t count = 0;
      if (!EvalPredicateBatch(*node.predicate, b, ex.arena, &sel, &count)) {
        return false;
      }
      b.sel = sel;
      b.sel_size = count;
      budget.Count(b);
      Metrics().vec_batches->Increment();
    }
    batch_done[i] = 1;
    return true;
  };
  ForEachBatch(ex, out->batches.size(),
               LoopThreads(ex.options, out->TotalActiveRows()),
               "exec.filter.morsel", filter_batch);
  // A trip leaves batches unvisited, and they still carry the input
  // selection — sel == nullptr means *every* row. Sweep each to "no rows" so
  // a truncated partial never contains rows the predicate was not applied
  // to.
  for (size_t i = 0; i < out->batches.size(); ++i) {
    if (!batch_done[i]) {
      out->batches[i].sel = kNoRows;
      out->batches[i].sel_size = 0;
    }
  }
  return ex.ctx.TakeError();
}

Status ExecVecProject(const PlanNode& node, VecExec& ex, VecResult* out) {
  VecResult input;
  AF_RETURN_IF_ERROR(ExecVecNode(*node.children[0], ex, &input));
  out->approximate = input.approximate;
  out->sample_rate = input.sample_rate;
  out->types.clear();
  for (const auto& e : node.project_exprs) {
    out->types.push_back(InferExprType(*e, input.types).value_or(DataType::kNull));
  }
  out->batches.assign(input.batches.size(), VecBatch{});
  // Computes the projected columns for one batch, sparse at the selection.
  // Projection applies no output budget and, like the row path, always
  // completes every batch, so a soft trip upstream still yields all
  // surviving rows.
  auto project_batch = [&](size_t i) -> bool {
    const VecBatch& in = input.batches[i];
    VecBatch& b = out->batches[i];
    b.num_rows = in.num_rows;
    b.sel = in.sel;
    b.sel_size = in.sel_size;
    if (in.num_rows == 0) {
      b.cols.assign(node.project_exprs.size(), VecColumn{});
      return true;
    }
    b.cols.resize(node.project_exprs.size());
    for (size_t e = 0; e < node.project_exprs.size(); ++e) {
      if (!EvalExprBatch(*node.project_exprs[e], in, ex.arena, &b.cols[e])) {
        return false;
      }
    }
    Metrics().vec_batches->Increment();
    return true;
  };
  std::vector<char> batch_done(input.batches.size(), 0);
  ForEachBatch(ex, input.batches.size(),
               LoopThreads(ex.options, input.TotalActiveRows()),
               "exec.project.morsel", [&](size_t i) {
                 if (!project_batch(i)) return false;
                 batch_done[i] = 1;
                 return true;
               });
  AF_RETURN_IF_ERROR(ex.ctx.TakeError());
  // Drain the batches a soft trip left unvisited: projection output is
  // complete whenever its input is.
  for (size_t i = 0; i < input.batches.size(); ++i) {
    if (!batch_done[i] && !project_batch(i)) return ArenaExhausted();
  }
  return Status::OK();
}

Status ExecVecHashJoin(const PlanNode& node, VecExec& ex, VecResult* out) {
  VecResult left, right;
  AF_RETURN_IF_ERROR(ExecVecNode(*node.children[0], ex, &left));
  AF_RETURN_IF_ERROR(ExecVecNode(*node.children[1], ex, &right));
  out->approximate = left.approximate || right.approximate;
  out->sample_rate = std::min(left.sample_rate, right.sample_rate);
  out->types.assign(left.types.begin(), left.types.end());
  out->types.insert(out->types.end(), right.types.begin(), right.types.end());

  size_t nkeys = node.join_keys.size();
  size_t left_width = left.types.size();
  size_t right_width = right.types.size();
  // Build phase (serial, like the row path): hash each right batch's key
  // columns, then keep every non-NULL-keyed right row, in global right-row
  // order, as a dense build row whose keys and payload are gathered once.
  std::vector<std::vector<VecColumn>> right_keys(right.batches.size());
  std::vector<uint32_t> build_batch, build_row;  // a build row's source
  std::vector<uint64_t> build_hash;
  std::vector<uint64_t> hashes;
  for (size_t rb = 0; rb < right.batches.size(); ++rb) {
    const VecBatch& b = right.batches[rb];
    if (b.num_rows == 0) continue;
    right_keys[rb].resize(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      if (!EvalExprBatch(*node.join_keys[k].second, b, ex.arena,
                         &right_keys[rb][k])) {
        return ArenaExhausted();
      }
    }
    HashKeys(right_keys[rb], b, &hashes);
    size_t active = b.ActiveRows();
    for (size_t i = 0; i < active; ++i) {
      size_t row = b.RowAt(i);
      if (AnyNullKey(right_keys[rb], row)) continue;  // NULL keys never match
      build_batch.push_back(static_cast<uint32_t>(rb));
      build_row.push_back(static_cast<uint32_t>(row));
      build_hash.push_back(hashes[i]);
    }
  }
  const size_t m = build_hash.size();
  std::vector<VecColumn> build_keys(nkeys);
  for (size_t k = 0; k < nkeys; ++k) {
    DataType type = InferExprType(*node.join_keys[k].second, right.types)
                        .value_or(DataType::kNull);
    if (!GatherCells(type, m, ex.arena, &build_keys[k], [&](size_t j) {
          return GatherSource{&right_keys[build_batch[j]][k], build_row[j]};
        })) {
      return ArenaExhausted();
    }
  }
  std::vector<VecColumn> build_cols(right_width);
  for (size_t c = 0; c < right_width; ++c) {
    if (!GatherCells(right.types[c], m, ex.arena, &build_cols[c], [&](size_t j) {
          return GatherSource{&right.batches[build_batch[j]].cols[c],
                              build_row[j]};
        })) {
      return ArenaExhausted();
    }
  }
  // One slot per distinct hash heads a chain (`next`) of the build rows with
  // that hash in build order — the match order of the serial row probe.
  constexpr uint32_t kEnd = FlatTable::kEmpty;
  FlatTable table(m);
  std::vector<uint32_t> next(m, kEnd);
  for (size_t j = m; j-- > 0;) {
    size_t s = table.Find(build_hash[j]);
    if (table.ids[s] == kEnd) {
      table.Claim(s, build_hash[j], static_cast<uint32_t>(j));
    } else {
      next[j] = table.ids[s];
      table.ids[s] = static_cast<uint32_t>(j);
    }
  }

  out->batches.assign(left.batches.size(), VecBatch{});
  BatchBudget budget(ex.ctx);

  // Probes one left batch and materializes its output batch (dense gather,
  // no selection). False on arena exhaustion.
  auto probe_batch = [&](size_t lb) -> bool {
    const VecBatch& b = left.batches[lb];
    if (b.num_rows == 0) return true;
    std::vector<VecColumn> lkeys(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      if (!EvalExprBatch(*node.join_keys[k].first, b, ex.arena, &lkeys[k])) {
        return false;
      }
    }
    std::vector<uint64_t> lhash;
    HashKeys(lkeys, b, &lhash);
    // Match vectors in serial probe order: left row and build row (kEnd =
    // left-join NULL padding).
    std::vector<uint32_t> lrows, rrows;
    size_t active = b.ActiveRows();
    lrows.reserve(active);
    rrows.reserve(active);
    for (size_t i = 0; i < active; ++i) {
      size_t row = b.RowAt(i);
      bool matched = false;
      if (!AnyNullKey(lkeys, row)) {
        for (uint32_t j = table.ids[table.Find(lhash[i])]; j != kEnd; j = next[j]) {
          bool equal = true;
          for (size_t k = 0; k < nkeys && equal; ++k) {
            equal = CellEquals(lkeys[k], row, build_keys[k], j,
                               /*nulls_equal=*/false);
          }
          if (!equal) continue;  // hash collision
          matched = true;
          lrows.push_back(static_cast<uint32_t>(row));
          rrows.push_back(j);
        }
      }
      if (!matched && node.join_type == JoinType::kLeft) {
        lrows.push_back(static_cast<uint32_t>(row));
        rrows.push_back(kEnd);
      }
    }
    VecBatch& ob = out->batches[lb];
    ob.num_rows = lrows.size();
    ob.cols.resize(left_width + right_width);
    for (size_t c = 0; c < left_width; ++c) {
      if (!GatherCells(left.types[c], lrows.size(), ex.arena, &ob.cols[c],
                       [&](size_t i) { return GatherSource{&b.cols[c], lrows[i]}; })) {
        return false;
      }
    }
    for (size_t c = 0; c < right_width; ++c) {
      if (!GatherCells(right.types[c], rrows.size(), ex.arena,
                       &ob.cols[left_width + c], [&](size_t i) {
                         return rrows[i] == kEnd
                                    ? GatherSource{}
                                    : GatherSource{&build_cols[c], rrows[i]};
                       })) {
        return false;
      }
    }
    budget.Count(ob);
    Metrics().vec_batches->Increment();
    return true;
  };

  ForEachBatch(ex, left.batches.size(),
               LoopThreads(ex.options, left.TotalActiveRows()),
               "exec.join.probe.morsel", probe_batch);
  return ex.ctx.TakeError();
}

/// One aggregate's typed accumulators, stored column-wise with one slot per
/// group; only the arrays its function and argument type read are sized.
/// The update rules replicate the row path's AggState transitions,
/// including its quirks (NaN never replaces a min/max; int sums wrap
/// two's-complement — accumulated unsigned, like AggState, because signed
/// overflow is UB; finalize rounds through llround even at scale 1.0).
struct AggColumn {
  /// Non-NULL values seen (every row for COUNT(*)); a group's SUM, AVG, MIN
  /// and MAX are NULL exactly while it is 0.
  std::vector<int64_t> count;
  std::vector<uint64_t> sum_int;
  std::vector<double> sum_double;
  /// The running MIN or MAX, by argument type.
  std::vector<int64_t> ext_i;
  std::vector<double> ext_d;
  std::vector<std::string_view> ext_s;

  void Resize(const AggregateExpr& agg, DataType arg, DataType result,
              size_t n) {
    count.resize(n);
    switch (agg.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (result == DataType::kInt64) {
          sum_int.resize(n);
        } else {
          sum_double.resize(n);
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (arg == DataType::kInt64) ext_i.resize(n);
        if (arg == DataType::kFloat64) ext_d.resize(n);
        if (arg == DataType::kString) ext_s.resize(n);
        break;
    }
  }
};

/// Folds one batch into `acc`: active row i belongs to group `gid[i]`, and
/// `arg` is the aggregate's argument column (unused for COUNT(*)).
void UpdateAgg(const AggregateExpr& agg, DataType arg_type, DataType result,
               const VecColumn& arg, const VecBatch& b, const uint32_t* gid,
               AggColumn* acc) {
  const size_t n = b.ActiveRows();
  int64_t* count = acc->count.data();
  if (agg.arg == nullptr) {
    for (size_t i = 0; i < n; ++i) ++count[gid[i]];
    return;
  }
  // Visits the active rows whose argument is non-NULL (aggregates skip
  // NULLs) in input order, then counts the value.
  auto each = [&](auto fn) {
    for (size_t i = 0; i < n; ++i) {
      size_t row = b.RowAt(i);
      if (!ValidAt(arg, row)) continue;
      fn(gid[i], row);
      ++count[gid[i]];
    }
  };
  const bool want_min = agg.func == AggFunc::kMin;
  switch (agg.func) {
    case AggFunc::kCount:
      each([](uint32_t, size_t) {});
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (result == DataType::kInt64) {
        uint64_t* sum = acc->sum_int.data();
        each([&](uint32_t g, size_t row) {
          sum[g] += static_cast<uint64_t>(arg.i64[row]);
        });
      } else if (arg_type == DataType::kInt64) {
        double* sum = acc->sum_double.data();
        each([&](uint32_t g, size_t row) {
          sum[g] += static_cast<double>(arg.i64[row]);
        });
      } else {
        double* sum = acc->sum_double.data();
        each([&](uint32_t g, size_t row) { sum[g] += arg.f64[row]; });
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      // `v < ext` is false for NaN operands, replicating the row path's
      // Compare()==0 treatment of NaN (never replaces, never gets replaced).
      if (arg_type == DataType::kInt64) {
        int64_t* ext = acc->ext_i.data();
        each([&](uint32_t g, size_t row) {
          int64_t v = arg.i64[row];
          if (count[g] == 0 || (want_min ? v < ext[g] : v > ext[g])) ext[g] = v;
        });
      } else if (arg_type == DataType::kFloat64) {
        double* ext = acc->ext_d.data();
        each([&](uint32_t g, size_t row) {
          double v = arg.f64[row];
          if (count[g] == 0 || (want_min ? v < ext[g] : v > ext[g])) ext[g] = v;
        });
      } else {
        std::string_view* ext = acc->ext_s.data();
        each([&](uint32_t g, size_t row) {
          std::string_view v = StrAt(arg, row);
          if (count[g] == 0 || (want_min ? v < ext[g] : v > ext[g])) ext[g] = v;
        });
      }
      break;
  }
}

/// Writes one aggregate's output column for `n` groups, replicating the row
/// path's finalize exactly, Horvitz-Thompson `scale` for sampled inputs
/// included (DISTINCT never reaches this engine, so every COUNT and SUM
/// scales; the llround round-trip runs even at scale 1.0, as on the row
/// path). False on arena exhaustion.
bool FinalizeAgg(const AggregateExpr& agg, DataType type, const AggColumn& acc,
                 size_t n, double scale, Arena* arena, VecColumn* col) {
  col->type = type;
  uint8_t* valid = arena->AllocateArrayOf<uint8_t>(n);
  if (valid == nullptr) return false;
  col->valid = valid;
  for (size_t g = 0; g < n; ++g) {
    valid[g] = agg.func == AggFunc::kCount || acc.count[g] > 0 ? 1 : 0;
  }
  // Fills a fresh array of T with value(g) for the valid groups.
  auto fill = [&](auto* data, auto value) {
    if (data == nullptr) return false;
    for (size_t g = 0; g < n; ++g) {
      data[g] = valid[g] != 0 ? value(g) : decltype(value(g)){};
    }
    return true;
  };
  switch (agg.func) {
    case AggFunc::kCount: {
      int64_t* data = arena->AllocateArrayOf<int64_t>(n);
      col->i64 = data;
      return fill(data, [&](size_t g) {
        return static_cast<int64_t>(
            std::llround(static_cast<double>(acc.count[g]) * scale));
      });
    }
    case AggFunc::kSum:
      if (type == DataType::kInt64) {
        int64_t* data = arena->AllocateArrayOf<int64_t>(n);
        col->i64 = data;
        return fill(data, [&](size_t g) {
          return static_cast<int64_t>(std::llround(
              static_cast<double>(static_cast<int64_t>(acc.sum_int[g])) * scale));
        });
      } else {
        double* data = arena->AllocateArrayOf<double>(n);
        col->f64 = data;
        return fill(data, [&](size_t g) { return acc.sum_double[g] * scale; });
      }
    case AggFunc::kAvg: {
      double* data = arena->AllocateArrayOf<double>(n);
      col->f64 = data;
      return fill(data, [&](size_t g) {
        return acc.sum_double[g] / static_cast<double>(acc.count[g]);
      });
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      switch (type) {
        case DataType::kInt64: {
          int64_t* data = arena->AllocateArrayOf<int64_t>(n);
          col->i64 = data;
          return fill(data, [&](size_t g) { return acc.ext_i[g]; });
        }
        case DataType::kFloat64: {
          double* data = arena->AllocateArrayOf<double>(n);
          col->f64 = data;
          return fill(data, [&](size_t g) { return acc.ext_d[g]; });
        }
        default: {  // kString
          StringRef* data = arena->AllocateArrayOf<StringRef>(n);
          col->refs = data;
          return fill(data, [&](size_t g) {
            std::string_view s = acc.ext_s[g];
            return StringRef{s.data(), static_cast<uint32_t>(s.size())};
          });
        }
      }
  }
  return true;
}

Status ExecVecAggregate(const PlanNode& node, VecExec& ex, VecResult* out) {
  VecResult input;
  AF_RETURN_IF_ERROR(ExecVecNode(*node.children[0], ex, &input));
  out->approximate = input.approximate;
  out->sample_rate = input.sample_rate;
  size_t ngroup = node.group_by.size();
  size_t naggs = node.aggregates.size();
  std::vector<DataType> arg_types(naggs, DataType::kNull);
  InferAggregateTypes(node, &out->types);  // cannot fail past the gate
  for (size_t a = 0; a < naggs; ++a) {
    if (node.aggregates[a].arg != nullptr) {
      arg_types[a] = InferExprType(*node.aggregates[a].arg, input.types)
                         .value_or(DataType::kNull);
    }
  }

  // Groups in first-appearance order (== output order), each with the
  // position of an exemplar row for its key values.
  std::vector<uint32_t> group_batch, group_row;
  FlatTable table(64);
  std::vector<AggColumn> accs(naggs);
  // Group-key columns per batch must outlive the accumulation loop: group
  // exemplars reference them at finalize. (Arena memory lives until the
  // query ends, so the views stay valid.)
  std::vector<std::vector<VecColumn>> key_cols(input.batches.size());
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> gid;
  auto resize_accs = [&]() {
    for (size_t a = 0; a < naggs; ++a) {
      accs[a].Resize(node.aggregates[a], arg_types[a], out->types[ngroup + a],
                     group_batch.size());
    }
  };

  bool draining = ex.ctx.soft_stopped();
  for (size_t bi = 0; bi < input.batches.size(); ++bi) {
    // Same cadence as the row path's per-kCheckInterval consumption check:
    // one batch is one morsel. Groups built from the consumed prefix become
    // the truncated partial answer.
    if (!draining && bi > 0 && ex.ctx.Check()) break;
    const VecBatch& b = input.batches[bi];
    if (b.num_rows == 0) continue;
    std::vector<VecColumn>& keys = key_cols[bi];
    keys.resize(ngroup);
    for (size_t k = 0; k < ngroup; ++k) {
      if (!EvalExprBatch(*node.group_by[k], b, ex.arena, &keys[k])) {
        return ArenaExhausted();
      }
    }
    std::vector<VecColumn> args(naggs);
    for (size_t a = 0; a < naggs; ++a) {
      if (node.aggregates[a].arg == nullptr) continue;
      if (!EvalExprBatch(*node.aggregates[a].arg, b, ex.arena, &args[a])) {
        return ArenaExhausted();
      }
    }
    // Hash the batch, then resolve every active row to its group id.
    HashKeys(keys, b, &hashes);
    size_t active = b.ActiveRows();
    gid.resize(active);
    for (size_t i = 0; i < active; ++i) {
      size_t row = b.RowAt(i);
      for (size_t s = table.Home(hashes[i]);; s = table.Next(s)) {
        uint32_t g = table.ids[s];
        if (g == FlatTable::kEmpty) {
          g = static_cast<uint32_t>(group_batch.size());
          group_batch.push_back(static_cast<uint32_t>(bi));
          group_row.push_back(static_cast<uint32_t>(row));
          table.Claim(s, hashes[i], g);
          gid[i] = g;
          break;
        }
        if (table.hashes[s] != hashes[i]) continue;
        bool equal = true;
        for (size_t k = 0; k < ngroup && equal; ++k) {
          equal = CellEquals(keys[k], row, key_cols[group_batch[g]][k],
                             group_row[g], /*nulls_equal=*/true);
        }
        if (equal) {
          gid[i] = g;
          break;
        }
      }
    }
    resize_accs();
    for (size_t a = 0; a < naggs; ++a) {
      UpdateAgg(node.aggregates[a], arg_types[a], out->types[ngroup + a],
                args[a], b, gid.data(), &accs[a]);
    }
    Metrics().vec_batches->Increment();
  }

  // Global aggregate over empty input still emits one row of defaults.
  if (group_batch.empty() && ngroup == 0 && naggs > 0) {
    group_batch.push_back(0);
    group_row.push_back(0);
    resize_accs();
  }

  size_t n = group_batch.size();
  out->batches.clear();
  if (n == 0) return ex.ctx.TakeError();
  VecBatch ob;
  ob.num_rows = n;
  ob.cols.resize(ngroup + naggs);
  // Group-key output columns: gather each group's exemplar cell.
  for (size_t k = 0; k < ngroup; ++k) {
    if (!GatherCells(out->types[k], n, ex.arena, &ob.cols[k], [&](size_t g) {
          return GatherSource{&key_cols[group_batch[g]][k], group_row[g]};
        })) {
      return ArenaExhausted();
    }
  }
  double scale = 1.0;
  if (input.approximate && input.sample_rate > 0.0 &&
      input.sample_rate < 1.0) {
    scale = 1.0 / input.sample_rate;
  }
  for (size_t a = 0; a < naggs; ++a) {
    if (!FinalizeAgg(node.aggregates[a], out->types[ngroup + a], accs[a], n,
                     scale, ex.arena, &ob.cols[ngroup + a])) {
      return ArenaExhausted();
    }
  }
  out->batches.push_back(std::move(ob));
  return ex.ctx.TakeError();
}

/// Three-way comparison of two cells of one column, as Value::Compare orders
/// the values they materialize to: NULL lowest, BIGINT exactly, DOUBLE by
/// `<` and `>` (so NaN compares equal to everything), strings bytewise.
int CompareCells(const VecColumn& c, size_t a, size_t b) {
  bool av = ValidAt(c, a);
  bool bv = ValidAt(c, b);
  if (!av || !bv) return av == bv ? 0 : (av ? 1 : -1);
  switch (c.type) {
    case DataType::kInt64:
      return c.i64[a] < c.i64[b] ? -1 : (c.i64[a] > c.i64[b] ? 1 : 0);
    case DataType::kFloat64:
      return c.f64[a] < c.f64[b] ? -1 : (c.f64[a] > c.f64[b] ? 1 : 0);
    case DataType::kBool:
      return (c.b8[a] != 0 ? 1 : 0) - (c.b8[b] != 0 ? 1 : 0);
    case DataType::kString: {
      int r = StrAt(c, a).compare(StrAt(c, b));
      return r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

/// Sorts the child's rows with the row path's stable sort over the same
/// comparisons, so ties (and NaN keys) keep the row path's order.
Status ExecVecSort(const PlanNode& node, VecExec& ex, VecResult* out) {
  VecResult input;
  AF_RETURN_IF_ERROR(ExecVecNode(*node.children[0], ex, &input));
  out->types = input.types;
  out->approximate = input.approximate;
  out->sample_rate = input.sample_rate;
  const size_t nkeys = node.sort_keys.size();
  // Position of every active input row, and its sort keys evaluated per
  // batch then gathered densely in input order.
  std::vector<uint32_t> src_batch, src_row;
  std::vector<std::vector<VecColumn>> key_cols(input.batches.size());
  for (size_t bi = 0; bi < input.batches.size(); ++bi) {
    const VecBatch& b = input.batches[bi];
    if (b.ActiveRows() == 0) continue;
    key_cols[bi].resize(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      if (!EvalExprBatch(*node.sort_keys[k].expr, b, ex.arena, &key_cols[bi][k])) {
        return ArenaExhausted();
      }
    }
    for (size_t i = 0; i < b.ActiveRows(); ++i) {
      src_batch.push_back(static_cast<uint32_t>(bi));
      src_row.push_back(static_cast<uint32_t>(b.RowAt(i)));
    }
  }
  const size_t n = src_row.size();
  std::vector<VecColumn> keys(nkeys);
  for (size_t k = 0; k < nkeys; ++k) {
    DataType type = InferExprType(*node.sort_keys[k].expr, input.types)
                        .value_or(DataType::kNull);
    if (!GatherCells(type, n, ex.arena, &keys[k], [&](size_t i) {
          return GatherSource{&key_cols[src_batch[i]][k], src_row[i]};
        })) {
      return ArenaExhausted();
    }
  }
  auto compare = [&](size_t a, size_t b) {
    for (size_t k = 0; k < nkeys; ++k) {
      int c = CompareCells(keys[k], a, b);
      if (c != 0) return node.sort_keys[k].ascending ? c : -c;
    }
    return 0;
  };
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return compare(a, b) < 0; });
  out->batches.clear();
  if (n == 0) return ex.ctx.TakeError();
  VecBatch ob;
  ob.num_rows = n;
  ob.cols.resize(out->types.size());
  for (size_t c = 0; c < out->types.size(); ++c) {
    if (!GatherCells(out->types[c], n, ex.arena, &ob.cols[c], [&](size_t i) {
          return GatherSource{&input.batches[src_batch[order[i]]].cols[c],
                              src_row[order[i]]};
        })) {
      return ArenaExhausted();
    }
  }
  out->batches.push_back(std::move(ob));
  return ex.ctx.TakeError();
}

/// The row path's LIMIT: rows [offset, offset + limit) of the child's
/// output, a negative offset read as 0 and a negative limit as none.
Status ExecVecLimit(const PlanNode& node, VecExec& ex, VecResult* out) {
  AF_RETURN_IF_ERROR(ExecVecNode(*node.children[0], ex, out));
  size_t skip = node.offset > 0 ? static_cast<size_t>(node.offset) : 0;
  size_t take = node.limit >= 0 ? static_cast<size_t>(node.limit) : SIZE_MAX;
  // Narrow each batch's selection to its share of the window.
  for (VecBatch& b : out->batches) {
    size_t active = b.ActiveRows();
    size_t drop = std::min(skip, active);
    size_t kept = std::min(take, active - drop);
    skip -= drop;
    take -= kept;
    if (kept == active) continue;
    if (kept == 0) {
      b.sel = kNoRows;
      b.sel_size = 0;
    } else if (b.sel != nullptr) {
      b.sel += drop;  // a sub-range of an ascending selection is one too
      b.sel_size = kept;
    } else {
      uint32_t* sel = ex.arena->AllocateArrayOf<uint32_t>(kept);
      if (sel == nullptr) return ArenaExhausted();
      for (size_t i = 0; i < kept; ++i) sel[i] = static_cast<uint32_t>(drop + i);
      b.sel = sel;
      b.sel_size = kept;
    }
  }
  return ex.ctx.TakeError();
}

Status ExecVecNode(const PlanNode& node, VecExec& ex, VecResult* out) {
  std::chrono::steady_clock::time_point start;
  if (ex.options.trace != nullptr) start = std::chrono::steady_clock::now();
  Status status = [&] {
    switch (node.kind) {
      case PlanKind::kScan: return ExecVecScan(node, ex, out);
      case PlanKind::kFilter: return ExecVecFilter(node, ex, out);
      case PlanKind::kProject: return ExecVecProject(node, ex, out);
      case PlanKind::kHashJoin: return ExecVecHashJoin(node, ex, out);
      case PlanKind::kAggregate: return ExecVecAggregate(node, ex, out);
      case PlanKind::kSort: return ExecVecSort(node, ex, out);
      case PlanKind::kLimit: return ExecVecLimit(node, ex, out);
      default:
        return Status::Internal("operator is not vectorized: " +
                                std::string(PlanKindName(node.kind)));
    }
  }();
  // Children run inside the switch, so spans land in the row path's
  // post-order. An operator's output is truncated exactly when the plan has
  // soft-tripped by the time it finishes (trips are sticky).
  if (status.ok() && ex.options.trace != nullptr) {
    exec_internal::AddOpSpan(ex.options.trace, node.kind, start,
                             out->TotalActiveRows(), ex.ctx.soft_stopped());
  }
  return status;
}

/// Boundary conversion: materialize one batch's active rows as row-path
/// Values, one typed loop per column (the inverse of Segment::ReadRows).
void AppendBatchRows(const VecBatch& b, std::vector<Row>* rows) {
  size_t n = b.ActiveRows();
  if (n == 0) return;
  size_t base = rows->size();
  size_t ncols = b.cols.size();
  rows->resize(base + n);
  for (size_t r = 0; r < n; ++r) {
    (*rows)[base + r].resize(ncols);  // default Values == NULL
  }
  for (size_t c = 0; c < ncols; ++c) {
    const VecColumn& col = b.cols[c];
    switch (col.type) {
      case DataType::kInt64:
        for (size_t r = 0; r < n; ++r) {
          size_t row = b.RowAt(r);
          if (ValidAt(col, row)) {
            (*rows)[base + r][c] = Value::Int(col.i64[row]);
          }
        }
        break;
      case DataType::kFloat64:
        for (size_t r = 0; r < n; ++r) {
          size_t row = b.RowAt(r);
          if (ValidAt(col, row)) {
            (*rows)[base + r][c] = Value::Double(col.f64[row]);
          }
        }
        break;
      case DataType::kBool:
        for (size_t r = 0; r < n; ++r) {
          size_t row = b.RowAt(r);
          if (ValidAt(col, row)) {
            (*rows)[base + r][c] = Value::Bool(col.b8[row] != 0);
          }
        }
        break;
      case DataType::kString:
        for (size_t r = 0; r < n; ++r) {
          size_t row = b.RowAt(r);
          if (ValidAt(col, row)) {
            (*rows)[base + r][c] = Value::String(std::string(StrAt(col, row)));
          }
        }
        break;
      default:
        break;  // kNull column: rows stay NULL
    }
  }
}

}  // namespace

bool CanVectorize(const PlanNode& node) {
  std::vector<DataType> types;
  return InferNodeTypes(node, &types);
}

Result<ResultSetPtr> ExecuteVectorized(const PlanNode& node,
                                       const ExecOptions& options,
                                       exec_internal::InterruptCtx& ctx) {
  // The arena's working memory is capped by the same max_bytes budget that
  // bounds result size; 0 = unlimited. Exhaustion surfaces here as a typed
  // kResourceExhausted error, which ExecNode catches and retries on the row
  // path — callers of the engine only ever see max_bytes behave as the
  // documented output budget (truncation, not failure).
  std::chrono::steady_clock::time_point start;
  if (options.trace != nullptr) start = std::chrono::steady_clock::now();
  MemoryTracker tracker(options.limits.max_bytes.value_or(0));
  Arena arena(&tracker);
  // Scanned segments stay pinned (resident) until the batches' zero-copy
  // views have been materialized into the ResultSet below.
  storage::PinnedSegments pins;
  VecExec ex{options, ctx, &arena, &pins};
  VecResult res;
  AF_RETURN_IF_ERROR(ExecVecNode(node, ex, &res));
  AF_RETURN_IF_ERROR(ctx.TakeError());
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = res.approximate;
  out->sample_rate = res.sample_rate;
  out->rows.reserve(res.TotalActiveRows());
  for (const VecBatch& b : res.batches) AppendBatchRows(b, &out->rows);
  StampTruncation(ctx, out.get());
  if (options.trace != nullptr) {
    // The root's span (the last one recorded) also covers the batch-to-row
    // materialization above, as each row-path span covers its own rows.
    options.trace->children.back()->duration_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
  }
  Metrics().vec_plans->Increment();
  Metrics().arena_bytes->Add(arena.allocated_bytes());
  return ResultSetPtr(std::move(out));
}

}  // namespace vec
}  // namespace agentfirst
