#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/evaluator.h"
#include "exec/exec_internal.h"
#include "exec/vectorized.h"
#include "storage/buffer_pool.h"

namespace agentfirst {

// Shared row/vectorized internals (morsel geometry, interrupt context,
// metrics, budget accounting) live in exec/exec_internal.h.
using exec_internal::ApproxRowBytes;
using exec_internal::BudgetTracker;
using exec_internal::CarryTruncation;
using exec_internal::InterruptCtx;
using exec_internal::kCheckInterval;
using exec_internal::Metrics;
using exec_internal::StampTruncation;

ExecCache::ExecCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

size_t ExecCache::ApproxResultBytes(const ResultSet& result) {
  size_t total = sizeof(ResultSet);
  for (const Row& row : result.rows) total += ApproxRowBytes(row);
  return total;
}

ResultSetPtr ExecCache::Get(uint64_t key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    misses_.Increment();
    Metrics().cache_misses->Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  hits_.Increment();
  Metrics().cache_hits->Increment();
  Metrics().cache_hit_bytes->Add(it->second.bytes);
  return it->second.result;
}

void ExecCache::Put(uint64_t key, ResultSetPtr result) {
  size_t result_bytes = ApproxResultBytes(*result);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    shard.bytes -= it->second.bytes;
    shard.bytes += result_bytes;
    it->second.result = std::move(result);
    it->second.bytes = result_bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  } else {
    shard.lru.push_front(key);
    shard.entries[key] = Entry{std::move(result), result_bytes, shard.lru.begin()};
    shard.bytes += result_bytes;
  }
  EvictOverBudgetLocked(shard);
}

void ExecCache::EvictOverBudgetLocked(Shard& shard) {
  size_t shard_budget =
      std::max<size_t>(1, capacity_bytes_.load(std::memory_order_relaxed) / kNumShards);
  // Never evict the entry just touched (front): a single over-budget result
  // stays resident until something displaces it.
  while (shard.bytes > shard_budget && shard.lru.size() > 1) {
    uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    auto it = shard.entries.find(victim);
    shard.bytes -= it->second.bytes;
    evictions_.Increment();
    Metrics().cache_evictions->Increment();
    Metrics().cache_evicted_bytes->Add(it->second.bytes);
    shard.entries.erase(it);
  }
}

void ExecCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    shard.entries.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
  hits_.Reset();
  misses_.Reset();
  evictions_.Reset();
}

size_t ExecCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

size_t ExecCache::bytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.bytes;
  }
  return total;
}

void ExecCache::set_capacity_bytes(size_t capacity_bytes) {
  capacity_bytes_.store(capacity_bytes);
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    EvictOverBudgetLocked(shard);
  }
}

namespace {

uint64_t CacheKey(const PlanNode& node, const ExecOptions& options) {
  uint64_t key = PlanFingerprint(node);
  if (options.sample_rate < 1.0) {
    key = HashCombine(key, HashDouble(options.sample_rate));
    key = HashCombine(key, HashInt(options.sample_seed));
  }
  return key;
}

Result<ResultSetPtr> ExecNode(const PlanNode& node, const ExecOptions& options,
                              InterruptCtx& ctx);

Result<ResultSetPtr> ExecScan(const PlanNode& node, const ExecOptions& options,
                              InterruptCtx& ctx) {
  AF_FAULT_POINT("exec.scan.begin");
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  if (node.table == nullptr) {
    if (node.table_name == "<dual>") {
      out->rows.emplace_back();  // a single empty row
      return out;
    }
    return Status::Internal("scan of unresolved table: " + node.table_name);
  }
  // A scan reached after the plan already tripped produces no new data:
  // the budget is spent, and downstream operators drain what exists.
  if (ctx.Check()) {
    AF_RETURN_IF_ERROR(ctx.TakeError());
    StampTruncation(ctx, out.get());
    return out;
  }
  bool sampling = options.sample_rate < 1.0;
  // Index-accelerated path: candidate rows from the hash index, full filter
  // re-applied. Skipped under sampling and when the index went stale.
  if (!sampling && node.index != nullptr && node.index->FreshFor(*node.table)) {
    for (size_t row_id : node.index->Lookup(node.index_value)) {
      auto row = node.table->GetRow(row_id);
      if (!row.ok()) return row.status();
      if (node.scan_filter != nullptr && !EvalPredicate(*node.scan_filter, *row)) {
        continue;
      }
      out->rows.push_back(std::move(*row));
    }
    return out;
  }
  // Serial, segment by segment in storage order. Each segment is pinned only
  // while it is read, so under a buffer pool a scan keeps one segment
  // resident and eviction can engage mid-query.
  const size_t nseg = node.table->NumSegments();
  // Seed depends on the table so two scans in one plan decorrelate.
  Rng rng(options.sample_seed ^ HashString(node.table_name));
  size_t expected = node.table->NumRows();
  if (sampling) {
    expected = static_cast<size_t>(static_cast<double>(expected) *
                                   options.sample_rate) + 16;
  }
  out->rows.reserve(expected);
  BudgetTracker budget(ctx);
  size_t scanned = 0;
  bool tripped = false;
  if (sampling) {
    for (size_t s = 0; s < nseg && !tripped; ++s) {
      AF_ASSIGN_OR_RETURN(storage::SegmentPin pin, node.table->PinSegment(s));
      const Segment& seg = *pin;
      for (size_t i = 0; i < seg.num_rows(); ++i) {
        // Sampling decides before the row is materialized: skipped rows
        // never pay the GetRow copy.
        if ((scanned++ % kCheckInterval) == 0 && scanned > 1 && ctx.Check()) {
          tripped = true;
          break;
        }
        if (!rng.NextBool(options.sample_rate)) continue;
        Row row = seg.GetRow(i);
        if (node.scan_filter != nullptr &&
            !EvalPredicate(*node.scan_filter, row)) {
          continue;
        }
        out->rows.push_back(std::move(row));
        if (budget.Add(out->rows.back())) {
          tripped = true;
          break;
        }
      }
      if (tripped) break;
    }
  } else {
    // Exact scan: materialize column-at-a-time in check-interval chunks,
    // then filter/account per row.
    std::vector<Row> scratch;
    for (size_t s = 0; s < nseg && !tripped; ++s) {
      AF_ASSIGN_OR_RETURN(storage::SegmentPin pin, node.table->PinSegment(s));
      const Segment& seg = *pin;
      for (size_t base = 0; base < seg.num_rows() && !tripped;
           base += kCheckInterval) {
        scratch.clear();
        seg.ReadRows(base, base + kCheckInterval, &scratch);
        for (Row& row : scratch) {
          if ((scanned++ % kCheckInterval) == 0 && scanned > 1 && ctx.Check()) {
            tripped = true;
            break;
          }
          if (node.scan_filter != nullptr &&
              !EvalPredicate(*node.scan_filter, row)) {
            continue;
          }
          out->rows.push_back(std::move(row));
          if (budget.Add(out->rows.back())) {
            tripped = true;
            break;
          }
        }
      }
      if (tripped) break;
    }
  }
  AF_RETURN_IF_ERROR(ctx.TakeError());
  if (sampling) {
    out->approximate = true;
    out->sample_rate = options.sample_rate;
  }
  StampTruncation(ctx, out.get());
  return out;
}

Result<ResultSetPtr> ExecFilter(const PlanNode& node, const ExecOptions& options,
                                InterruptCtx& ctx) {
  AF_ASSIGN_OR_RETURN(ResultSetPtr input,
                      ExecNode(*node.children[0], options, ctx));
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = input->approximate;
  out->sample_rate = input->sample_rate;
  CarryTruncation(*input, out.get());
  size_t n = input->rows.size();
  // A use count of 1 means no cache or upstream operator aliases the input,
  // so surviving rows can be moved out instead of copied.
  bool unique_input = input.use_count() == 1;
  // Drain mode (plan already tripped): the input is a bounded partial, so
  // run it through without further interrupt checks — stopping here would
  // throw away the rows the deadline's budget already paid for.
  bool draining = ctx.soft_stopped();
  out->rows.reserve(n);
  BudgetTracker budget(ctx);
  auto keep_row = [&](Row&& row) {
    out->rows.push_back(std::move(row));
    return budget.Add(out->rows.back());
  };
  if (unique_input) {
    auto& rows = const_cast<ResultSet*>(input.get())->rows;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!draining && (i % kCheckInterval) == 0 && i > 0 && ctx.Check()) break;
      if (EvalPredicate(*node.predicate, rows[i]) &&
          keep_row(std::move(rows[i]))) {
        break;
      }
    }
  } else {
    for (size_t i = 0; i < input->rows.size(); ++i) {
      if (!draining && (i % kCheckInterval) == 0 && i > 0 && ctx.Check()) break;
      if (EvalPredicate(*node.predicate, input->rows[i]) &&
          keep_row(Row(input->rows[i]))) {
        break;
      }
    }
  }
  AF_RETURN_IF_ERROR(ctx.TakeError());
  StampTruncation(ctx, out.get());
  return out;
}

Result<ResultSetPtr> ExecProject(const PlanNode& node, const ExecOptions& options,
                                 InterruptCtx& ctx) {
  ResultSetPtr input;
  if (node.children.empty()) {
    return Status::Internal("project with no input");
  }
  AF_ASSIGN_OR_RETURN(input, ExecNode(*node.children[0], options, ctx));
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = input->approximate;
  out->sample_rate = input->sample_rate;
  CarryTruncation(*input, out.get());
  // Projection is linear in its materialized input, so it never stops
  // early: a plan tripped below it still projects every row it produced.
  out->rows.reserve(input->rows.size());
  for (const Row& row : input->rows) {
    Row projected;
    projected.reserve(node.project_exprs.size());
    for (const auto& e : node.project_exprs) {
      projected.push_back(EvalExpr(*e, row));
    }
    out->rows.push_back(std::move(projected));
  }
  AF_RETURN_IF_ERROR(ctx.TakeError());
  StampTruncation(ctx, out.get());
  return out;
}

Result<ResultSetPtr> ExecHashJoin(const PlanNode& node, const ExecOptions& options,
                                  InterruptCtx& ctx) {
  AF_ASSIGN_OR_RETURN(ResultSetPtr left,
                      ExecNode(*node.children[0], options, ctx));
  AF_ASSIGN_OR_RETURN(ResultSetPtr right,
                      ExecNode(*node.children[1], options, ctx));
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = left->approximate || right->approximate;
  out->sample_rate = std::min(left->sample_rate, right->sample_rate);
  CarryTruncation(*left, out.get());
  CarryTruncation(*right, out.get());

  // Build hash table on the right side.
  std::unordered_map<uint64_t, std::vector<size_t>> build;
  std::vector<std::vector<Value>> right_keys(right->rows.size());
  for (size_t i = 0; i < right->rows.size(); ++i) {
    std::vector<Value> key;
    key.reserve(node.join_keys.size());
    bool has_null = false;
    for (const auto& [l, r] : node.join_keys) {
      Value v = EvalExpr(*r, right->rows[i]);
      if (v.is_null()) has_null = true;
      key.push_back(std::move(v));
    }
    if (has_null) continue;  // NULL keys never match
    right_keys[i] = key;
    build[HashRow(key)].push_back(i);
  }

  size_t right_width = right->schema.NumColumns();
  // Probes one left row against the build side, appending its matches.
  auto probe_row = [&](const Row& lrow) {
    std::vector<Value> key;
    key.reserve(node.join_keys.size());
    bool has_null = false;
    for (const auto& [l, r] : node.join_keys) {
      Value v = EvalExpr(*l, lrow);
      if (v.is_null()) has_null = true;
      key.push_back(std::move(v));
    }
    bool matched = false;
    if (!has_null) {
      auto it = build.find(HashRow(key));
      if (it != build.end()) {
        for (size_t ridx : it->second) {
          // Verify key equality (hash collisions).
          bool equal = true;
          for (size_t k = 0; k < key.size(); ++k) {
            if (!key[k].Equals(right_keys[ridx][k])) {
              equal = false;
              break;
            }
          }
          if (!equal) continue;
          Row combined = lrow;
          combined.insert(combined.end(), right->rows[ridx].begin(),
                          right->rows[ridx].end());
          if (node.predicate != nullptr &&
              !EvalPredicate(*node.predicate, combined)) {
            continue;
          }
          matched = true;
          out->rows.push_back(std::move(combined));
        }
      }
    }
    if (!matched && node.join_type == JoinType::kLeft) {
      Row combined = lrow;
      combined.resize(combined.size() + right_width);  // NULL padding
      out->rows.push_back(std::move(combined));
    }
  };

  // Probe phase, left to right. The probe side is where an oversized join
  // burns its time, so this is the load-bearing deadline check: every
  // kCheckInterval left rows re-check `ctx`, and a trip keeps the matches
  // produced so far (the probe's partial answer).
  bool draining = ctx.soft_stopped();
  BudgetTracker budget(ctx);
  for (size_t i = 0; i < left->rows.size(); ++i) {
    if (!draining && (i % kCheckInterval) == 0 && i > 0 && ctx.Check()) break;
    size_t before = out->rows.size();
    probe_row(left->rows[i]);
    bool over = false;
    for (size_t r = before; r < out->rows.size() && !over; ++r) {
      over = budget.Add(out->rows[r]);
    }
    if (over) break;
  }
  AF_RETURN_IF_ERROR(ctx.TakeError());
  StampTruncation(ctx, out.get());
  return out;
}

Result<ResultSetPtr> ExecNestedLoopJoin(const PlanNode& node,
                                        const ExecOptions& options,
                                        InterruptCtx& ctx) {
  AF_ASSIGN_OR_RETURN(ResultSetPtr left,
                      ExecNode(*node.children[0], options, ctx));
  AF_ASSIGN_OR_RETURN(ResultSetPtr right,
                      ExecNode(*node.children[1], options, ctx));
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = left->approximate || right->approximate;
  out->sample_rate = std::min(left->sample_rate, right->sample_rate);
  CarryTruncation(*left, out.get());
  CarryTruncation(*right, out.get());
  // The cross product is the one operator whose cost is NOT linear in its
  // materialized inputs, so it keeps checking the deadline even in drain
  // mode — a 4k x 4k cross join after a trip must still stop in one morsel.
  BudgetTracker budget(ctx);
  size_t pairs = 0;
  bool tripped = false;
  for (const Row& lrow : left->rows) {
    for (const Row& rrow : right->rows) {
      if ((pairs++ % kCheckInterval) == 0 && pairs > 1) {
        if (ctx.Check() && !ctx.soft_stopped()) {  // cancel or fault: abandon
          tripped = true;
          break;
        }
        if (ctx.active && ctx.deadline.expired()) {
          ctx.Trip(StatusCode::kDeadlineExceeded);
          tripped = true;
          break;
        }
      }
      Row combined = lrow;
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      if (node.predicate != nullptr && !EvalPredicate(*node.predicate, combined)) {
        continue;
      }
      out->rows.push_back(std::move(combined));
      if (budget.Add(out->rows.back())) {
        tripped = true;
        break;
      }
    }
    if (tripped) break;
  }
  AF_RETURN_IF_ERROR(ctx.TakeError());
  StampTruncation(ctx, out.get());
  return out;
}

struct AggState {
  int64_t count = 0;
  double sum_double = 0.0;
  /// Unsigned accumulator: SUM over BIGINT wraps two's-complement, and
  /// signed overflow would be UB. Cast back to int64_t at finalize.
  uint64_t sum_int = 0;
  bool sum_is_int = true;
  bool any = false;
  Value min;
  Value max;
  std::set<std::string> distinct_seen;  // serialized values for DISTINCT
};

Result<ResultSetPtr> ExecAggregate(const PlanNode& node, const ExecOptions& options,
                                   InterruptCtx& ctx) {
  AF_ASSIGN_OR_RETURN(ResultSetPtr input,
                      ExecNode(*node.children[0], options, ctx));
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = input->approximate;
  out->sample_rate = input->sample_rate;
  CarryTruncation(*input, out.get());

  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };
  std::unordered_map<uint64_t, std::vector<Group>> groups;
  std::vector<std::pair<uint64_t, size_t>> ordered_groups;

  auto update = [&](Group* g, const Row& row) {
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      const AggregateExpr& agg = node.aggregates[a];
      AggState& st = g->states[a];
      Value v = agg.arg != nullptr ? EvalExpr(*agg.arg, row) : Value::Int(1);
      if (agg.arg != nullptr && v.is_null()) continue;  // aggregates skip NULLs
      if (agg.distinct) {
        std::string ser = std::to_string(static_cast<int>(v.type())) + ":" + v.ToString();
        if (!st.distinct_seen.insert(ser).second) continue;
      }
      st.any = true;
      ++st.count;
      if (v.type() == DataType::kInt64) {
        st.sum_int += static_cast<uint64_t>(v.int_value());
        st.sum_double += v.AsDouble();
      } else if (IsNumeric(v.type())) {
        st.sum_is_int = false;
        st.sum_double += v.AsDouble();
      }
      if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
      if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
    }
  };

  // Consuming already-materialized input is linear work, so an aggregate
  // reached after a trip drains fully (checks disabled); a live aggregate
  // over a huge input still honors the deadline per morsel — groups built
  // from the consumed prefix become the truncated partial answer.
  bool draining = ctx.soft_stopped();
  size_t consumed = 0;
  for (const Row& row : input->rows) {
    if (!draining && (consumed++ % kCheckInterval) == 0 && consumed > 1 &&
        ctx.Check()) {
      break;
    }
    std::vector<Value> keys;
    keys.reserve(node.group_by.size());
    for (const auto& g : node.group_by) keys.push_back(EvalExpr(*g, row));
    uint64_t h = HashRow(keys);
    auto& bucket = groups[h];
    Group* group = nullptr;
    for (Group& g : bucket) {
      bool equal = true;
      for (size_t k = 0; k < keys.size(); ++k) {
        bool both_null = keys[k].is_null() && g.keys[k].is_null();
        if (!both_null && !keys[k].Equals(g.keys[k])) {
          equal = false;
          break;
        }
      }
      if (equal) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      bucket.push_back(Group{keys, std::vector<AggState>(node.aggregates.size())});
      group = &bucket.back();
      ordered_groups.emplace_back(h, bucket.size() - 1);
    }
    update(group, row);
  }

  // Global aggregate over empty input still emits one row.
  if (ordered_groups.empty() && node.group_by.empty() && !node.aggregates.empty()) {
    groups[0].push_back(Group{{}, std::vector<AggState>(node.aggregates.size())});
    ordered_groups.emplace_back(0, 0);
  }

  // Horvitz-Thompson scale factor for sampled inputs.
  double scale = 1.0;
  if (input->approximate && input->sample_rate > 0.0 &&
      input->sample_rate < 1.0) {
    scale = 1.0 / input->sample_rate;
  }

  for (const auto& [h, idx] : ordered_groups) {
    const Group& g = groups[h][idx];
    Row row = g.keys;
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      const AggregateExpr& agg = node.aggregates[a];
      const AggState& st = g.states[a];
      double agg_scale = agg.distinct ? 1.0 : scale;
      switch (agg.func) {
        case AggFunc::kCount:
          row.push_back(Value::Int(static_cast<int64_t>(
              std::llround(static_cast<double>(st.count) * agg_scale))));
          break;
        case AggFunc::kSum:
          if (!st.any) {
            row.push_back(Value::Null());
          } else if (agg.output_type == DataType::kInt64 && st.sum_is_int) {
            row.push_back(Value::Int(static_cast<int64_t>(std::llround(
                static_cast<double>(static_cast<int64_t>(st.sum_int)) *
                agg_scale))));
          } else {
            row.push_back(Value::Double(st.sum_double * agg_scale));
          }
          break;
        case AggFunc::kAvg:
          row.push_back(st.any ? Value::Double(st.sum_double / st.count)
                               : Value::Null());
          break;
        case AggFunc::kMin:
          row.push_back(st.min);
          break;
        case AggFunc::kMax:
          row.push_back(st.max);
          break;
      }
    }
    out->rows.push_back(std::move(row));
  }
  AF_RETURN_IF_ERROR(ctx.TakeError());
  StampTruncation(ctx, out.get());
  return out;
}

Result<ResultSetPtr> ExecSort(const PlanNode& node, const ExecOptions& options,
                              InterruptCtx& ctx) {
  AF_ASSIGN_OR_RETURN(ResultSetPtr input,
                      ExecNode(*node.children[0], options, ctx));
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = input->approximate;
  out->sample_rate = input->sample_rate;
  CarryTruncation(*input, out.get());
  // Evaluate every sort key once per row, stable-sort row indexes over the
  // precomputed keys, then gather: the same permutation a stable sort of
  // the rows themselves produces.
  const size_t n = input->rows.size();
  const size_t nkeys = node.sort_keys.size();
  std::vector<Value> keys(n * nkeys);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < nkeys; ++k) {
      keys[i * nkeys + k] = EvalExpr(*node.sort_keys[k].expr, input->rows[i]);
    }
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < nkeys; ++k) {
      int c = keys[a * nkeys + k].Compare(keys[b * nkeys + k]);
      if (c != 0) return node.sort_keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  // A use count of 1 means nothing else aliases the input, so rows move.
  bool unique_input = input.use_count() == 1;
  auto& in_rows = const_cast<ResultSet*>(input.get())->rows;
  out->rows.reserve(n);
  for (size_t i : order) {
    if (unique_input) {
      out->rows.push_back(std::move(in_rows[i]));
    } else {
      out->rows.push_back(in_rows[i]);
    }
  }
  return out;
}

Result<ResultSetPtr> ExecLimit(const PlanNode& node, const ExecOptions& options,
                               InterruptCtx& ctx) {
  AF_ASSIGN_OR_RETURN(ResultSetPtr input,
                      ExecNode(*node.children[0], options, ctx));
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  out->approximate = input->approximate;
  out->sample_rate = input->sample_rate;
  CarryTruncation(*input, out.get());
  size_t begin = std::min(static_cast<size_t>(std::max<int64_t>(node.offset, 0)),
                          input->rows.size());
  size_t end = input->rows.size();
  if (node.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(node.limit));
  }
  out->rows.assign(input->rows.begin() + begin, input->rows.begin() + end);
  return out;
}

Result<ResultSetPtr> ExecUnion(const PlanNode& node, const ExecOptions& options,
                               InterruptCtx& ctx) {
  auto out = std::make_shared<ResultSet>();
  out->schema = node.output_schema;
  for (const auto& child : node.children) {
    // After a soft trip, skip children that have not started: their scans
    // would return empty anyway, and skipping keeps "one morsel past the
    // deadline" true for wide unions. Already-collected rows are kept.
    if (ctx.soft_stopped()) {
      StampTruncation(ctx, out.get());
      break;
    }
    AF_ASSIGN_OR_RETURN(ResultSetPtr input, ExecNode(*child, options, ctx));
    if (input->schema.NumColumns() != out->schema.NumColumns()) {
      return Status::Internal("UNION arity mismatch at execution");
    }
    out->approximate = out->approximate || input->approximate;
    out->sample_rate = std::min(out->sample_rate, input->sample_rate);
    CarryTruncation(*input, out.get());
    out->rows.insert(out->rows.end(), input->rows.begin(), input->rows.end());
  }
  AF_RETURN_IF_ERROR(ctx.TakeError());
  return out;
}

/// Runs `node` without consulting the cache: the whole sub-tree on the
/// vectorized engine when it converts, else this one operator on the row
/// path (whose children re-enter ExecNode and re-gate individually).
Result<ResultSetPtr> ExecUncached(const PlanNode& node,
                                  const ExecOptions& options,
                                  InterruptCtx& ctx) {
  if (options.vectorized) {
    if (vec::CanVectorize(node)) {
      size_t spans_before =
          options.trace != nullptr ? options.trace->children.size() : 0;
      Result<ResultSetPtr> vres = vec::ExecuteVectorized(node, options, ctx);
      if (vres.ok() ||
          vres.status().code() != StatusCode::kResourceExhausted) {
        return vres;
      }
      // The only kResourceExhausted *error* the vectorized path produces is
      // arena (working-memory) exhaustion — output-budget trips come back as
      // truncated OK results. The row path treats max_bytes purely as an
      // output cap and truncates, so vectorization being on by default must
      // not turn that contract into a hard failure: clear the attempt's
      // fault trip and re-run this subtree row-at-a-time. (A concurrent
      // deadline/budget trip survives ClearFault, so the rerun drains into
      // the usual truncated partial.) The abandoned attempt's operator
      // spans go too, so the trace holds one span per operator that ran.
      if (options.trace != nullptr) {
        options.trace->children.resize(spans_before);
      }
      ctx.ClearFault();
    }
    Metrics().vec_fallbacks->Increment();
  }
  // Tracing disabled (the default) costs exactly this one branch per
  // operator; enabled, it costs two clock reads plus one span append.
  std::chrono::steady_clock::time_point op_start;
  if (options.trace != nullptr) op_start = std::chrono::steady_clock::now();
  Result<ResultSetPtr> result = [&]() -> Result<ResultSetPtr> {
    switch (node.kind) {
      case PlanKind::kScan: return ExecScan(node, options, ctx);
      case PlanKind::kFilter: return ExecFilter(node, options, ctx);
      case PlanKind::kProject: return ExecProject(node, options, ctx);
      case PlanKind::kHashJoin: return ExecHashJoin(node, options, ctx);
      case PlanKind::kNestedLoopJoin:
        return ExecNestedLoopJoin(node, options, ctx);
      case PlanKind::kAggregate: return ExecAggregate(node, options, ctx);
      case PlanKind::kSort: return ExecSort(node, options, ctx);
      case PlanKind::kLimit: return ExecLimit(node, options, ctx);
      case PlanKind::kUnion: return ExecUnion(node, options, ctx);
    }
    return Status::Internal("unknown plan kind");
  }();
  if (options.trace != nullptr && result.ok()) {
    // Children recurse inside the switch, so operator spans land in
    // deterministic post-order (a subtree's ops precede its root's).
    exec_internal::AddOpSpan(options.trace, node.kind, op_start,
                             (*result)->rows.size(), (*result)->truncated);
  }
  return result;
}

Result<ResultSetPtr> ExecNode(const PlanNode& node, const ExecOptions& options,
                              InterruptCtx& ctx) {
  // A hard interrupt (cancel / injected fault) surfaces before any child
  // work; a soft trip still descends so drain-mode operators can finish
  // assembling the partial answer.
  if (ctx.Check() && !ctx.soft_stopped()) {
    AF_RETURN_IF_ERROR(ctx.TakeError());
  }
  // The cache sits at ExecNode boundaries: every row-path operator, and the
  // root of each vectorized sub-tree (its interior never materializes rows).
  uint64_t key = 0;
  if (options.cache != nullptr) {
    key = CacheKey(node, options);
    if (ResultSetPtr cached = options.cache->Get(key); cached != nullptr) {
      if (options.trace != nullptr) {
        obs::TraceSpan* span = options.trace->AddChild(
            std::string("op:") + PlanKindName(node.kind));
        span->AddNote("cached", "true");
        span->AddNote("rows", std::to_string(cached->rows.size()));
      }
      return cached;
    }
  }
  Result<ResultSetPtr> result = ExecUncached(node, options, ctx);
  if (result.ok() && options.cache != nullptr && !(*result)->truncated) {
    // Truncated results are partial answers for THIS probe's deadline or
    // budget; caching them would poison exact re-executions.
    Status put_fault = AF_FAULT_STATUS("exec.cache.put");
    if (put_fault.ok()) {
      options.cache->Put(key, result.value());
    }
    // An injected allocation failure here only skips caching — the result
    // itself is sound, so execution proceeds.
  }
  return result;
}

}  // namespace

Result<ResultSetPtr> ExecutePlan(const PlanNode& plan, const ExecOptions& options) {
  auto start = std::chrono::steady_clock::now();
  InterruptCtx ctx(options);
  Result<ResultSetPtr> result = ExecNode(plan, options, ctx);
  Metrics().plans->Increment();
  Metrics().plan_us->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  if (!result.ok()) return result;
  // A hard trip can race with operators that completed normally; make the
  // terminal state authoritative.
  AF_RETURN_IF_ERROR(ctx.TakeError());
  return result;
}

}  // namespace agentfirst
