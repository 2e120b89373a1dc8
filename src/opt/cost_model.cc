#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace agentfirst {

namespace {

constexpr double kDefaultSelectivity = 0.25;
constexpr double kDefaultEqSelectivity = 0.05;

const ColumnStats* StatsFor(const TableStats* stats, size_t column_index) {
  if (stats == nullptr || column_index >= stats->columns.size()) return nullptr;
  return &stats->columns[column_index];
}

double ConjunctSelectivity(const BoundExpr& e, const Schema& schema,
                           const TableStats* stats) {
  switch (e.kind) {
    case BoundExprKind::kBinary: {
      if (e.bin_op == BinaryOp::kAnd) {
        return ConjunctSelectivity(*e.children[0], schema, stats) *
               ConjunctSelectivity(*e.children[1], schema, stats);
      }
      if (e.bin_op == BinaryOp::kOr) {
        double a = ConjunctSelectivity(*e.children[0], schema, stats);
        double b = ConjunctSelectivity(*e.children[1], schema, stats);
        return std::min(1.0, a + b - a * b);
      }
      // col <op> literal.
      const BoundExpr* col = nullptr;
      const BoundExpr* lit = nullptr;
      bool flipped = false;
      if (e.children[0]->kind == BoundExprKind::kColumn &&
          e.children[1]->kind == BoundExprKind::kLiteral) {
        col = e.children[0].get();
        lit = e.children[1].get();
      } else if (e.children[1]->kind == BoundExprKind::kColumn &&
                 e.children[0]->kind == BoundExprKind::kLiteral) {
        col = e.children[1].get();
        lit = e.children[0].get();
        flipped = true;
      }
      if (col == nullptr) {
        return e.bin_op == BinaryOp::kEq ? kDefaultEqSelectivity
                                         : kDefaultSelectivity;
      }
      const ColumnStats* cs = StatsFor(stats, col->column_index);
      if (cs == nullptr) {
        return e.bin_op == BinaryOp::kEq ? kDefaultEqSelectivity
                                         : kDefaultSelectivity;
      }
      switch (e.bin_op) {
        case BinaryOp::kEq:
          return cs->EqualitySelectivity(lit->literal);
        case BinaryOp::kNe:
          return std::max(0.0, 1.0 - cs->EqualitySelectivity(lit->literal));
        case BinaryOp::kLt:
          return cs->RangeSelectivity(flipped ? ">" : "<", lit->literal);
        case BinaryOp::kLe:
          return cs->RangeSelectivity(flipped ? ">=" : "<=", lit->literal);
        case BinaryOp::kGt:
          return cs->RangeSelectivity(flipped ? "<" : ">", lit->literal);
        case BinaryOp::kGe:
          return cs->RangeSelectivity(flipped ? "<=" : ">=", lit->literal);
        default:
          return kDefaultSelectivity;
      }
    }
    case BoundExprKind::kLike:
      return e.negated ? 0.9 : 0.1;
    case BoundExprKind::kInList: {
      if (e.children[0]->kind == BoundExprKind::kColumn) {
        const ColumnStats* cs = StatsFor(stats, e.children[0]->column_index);
        if (cs != nullptr) {
          double sel = 0.0;
          for (size_t i = 1; i < e.children.size(); ++i) {
            if (e.children[i]->kind == BoundExprKind::kLiteral) {
              sel += cs->EqualitySelectivity(e.children[i]->literal);
            } else {
              sel += kDefaultEqSelectivity;
            }
          }
          sel = std::min(1.0, sel);
          return e.negated ? 1.0 - sel : sel;
        }
      }
      double sel = std::min(
          1.0, kDefaultEqSelectivity * static_cast<double>(e.children.size() - 1));
      return e.negated ? 1.0 - sel : sel;
    }
    case BoundExprKind::kBetween: {
      if (e.children[0]->kind == BoundExprKind::kColumn &&
          e.children[1]->kind == BoundExprKind::kLiteral &&
          e.children[2]->kind == BoundExprKind::kLiteral) {
        const ColumnStats* cs = StatsFor(stats, e.children[0]->column_index);
        if (cs != nullptr) {
          double above_lo = cs->RangeSelectivity(">=", e.children[1]->literal);
          double below_hi = cs->RangeSelectivity("<=", e.children[2]->literal);
          double sel = std::clamp(above_lo + below_hi - 1.0, 0.0, 1.0);
          return e.negated ? 1.0 - sel : sel;
        }
      }
      return e.negated ? 1.0 - kDefaultSelectivity : kDefaultSelectivity;
    }
    case BoundExprKind::kIsNull: {
      if (e.children[0]->kind == BoundExprKind::kColumn) {
        const ColumnStats* cs = StatsFor(stats, e.children[0]->column_index);
        if (cs != nullptr && cs->row_count > 0) {
          double frac =
              static_cast<double>(cs->null_count) / static_cast<double>(cs->row_count);
          return e.negated ? 1.0 - frac : frac;
        }
      }
      return e.negated ? 0.95 : 0.05;
    }
    case BoundExprKind::kUnary:
      if (e.un_op == UnaryOp::kNot) {
        return 1.0 - ConjunctSelectivity(*e.children[0], schema, stats);
      }
      return kDefaultSelectivity;
    case BoundExprKind::kLiteral:
      if (e.literal.type() == DataType::kBool) {
        return e.literal.bool_value() ? 1.0 : 0.0;
      }
      return kDefaultSelectivity;
    default:
      return kDefaultSelectivity;
  }
}

struct NodeEstimate {
  double rows = 0.0;
  double cost = 0.0;
  // Stats available only directly above a scan (used for filter estimates).
  // Shared ownership: a concurrent recompute cannot free them mid-estimate.
  std::shared_ptr<const TableStats> stats;
};

NodeEstimate EstimateNode(const PlanNode& node, Catalog* catalog) {
  std::vector<NodeEstimate> kids;
  kids.reserve(node.children.size());
  for (const auto& c : node.children) kids.push_back(EstimateNode(*c, catalog));

  NodeEstimate out;
  switch (node.kind) {
    case PlanKind::kScan: {
      double rows = node.table != nullptr
                        ? static_cast<double>(node.table->NumRows())
                        : 1.0;
      std::shared_ptr<const TableStats> stats;
      if (catalog != nullptr && node.table != nullptr &&
          catalog->HasTable(node.table_name)) {
        auto s = catalog->GetStats(node.table_name);
        if (s.ok()) stats = *s;
      }
      double sel = 1.0;
      if (node.scan_filter != nullptr) {
        sel = ConjunctSelectivity(*node.scan_filter, node.output_schema,
                                  stats.get());
      }
      out.rows = rows * sel;
      out.cost = rows;
      out.stats = std::move(stats);
      break;
    }
    case PlanKind::kFilter: {
      double sel = ConjunctSelectivity(*node.predicate, node.output_schema,
                                       kids[0].stats.get());
      out.rows = kids[0].rows * sel;
      out.cost = kids[0].cost + kids[0].rows;
      out.stats = kids[0].stats;  // filters preserve column positions
      break;
    }
    case PlanKind::kProject:
      out.rows = kids[0].rows;
      out.cost = kids[0].cost + kids[0].rows;
      break;
    case PlanKind::kHashJoin: {
      double l = kids[0].rows;
      double r = kids[1].rows;
      // Containment assumption with unknown key NDV: |L||R| / max(|L|,|R|).
      double denom = std::max(1.0, std::max(l, r));
      out.rows = node.join_type == JoinType::kLeft
                     ? std::max(l, l * r / denom)
                     : l * r / denom;
      out.cost = kids[0].cost + kids[1].cost + l + r + out.rows;
      break;
    }
    case PlanKind::kNestedLoopJoin: {
      double product = kids[0].rows * kids[1].rows;
      double sel = node.predicate != nullptr
                       ? ConjunctSelectivity(*node.predicate, node.output_schema,
                                             nullptr)
                       : 1.0;
      out.rows = product * sel;
      out.cost = kids[0].cost + kids[1].cost + product;
      break;
    }
    case PlanKind::kAggregate: {
      if (node.group_by.empty()) {
        out.rows = 1.0;
      } else {
        // Square-root heuristic for group count absent NDV of expressions.
        out.rows = std::max(1.0, std::sqrt(kids[0].rows) * 4.0);
        out.rows = std::min(out.rows, kids[0].rows);
      }
      out.cost = kids[0].cost + kids[0].rows;
      break;
    }
    case PlanKind::kSort: {
      double n = std::max(2.0, kids[0].rows);
      out.rows = kids[0].rows;
      out.cost = kids[0].cost + n * std::log2(n);
      break;
    }
    case PlanKind::kLimit: {
      double n = node.limit >= 0
                     ? std::min(kids[0].rows, static_cast<double>(node.limit))
                     : kids[0].rows;
      out.rows = n;
      out.cost = kids[0].cost;
      break;
    }
    case PlanKind::kUnion: {
      for (const NodeEstimate& k : kids) {
        out.rows += k.rows;
        out.cost += k.cost;
      }
      out.cost += out.rows;
      break;
    }
  }
  return out;
}

}  // namespace

double EstimateSelectivity(const BoundExpr& predicate, const Schema& schema,
                           const TableStats* stats) {
  return std::clamp(ConjunctSelectivity(predicate, schema, stats), 0.0, 1.0);
}

CostEstimate EstimatePlanCost(const PlanNode& plan, Catalog* catalog) {
  NodeEstimate e = EstimateNode(plan, catalog);
  return {std::max(0.0, e.rows), std::max(0.0, e.cost)};
}

}  // namespace agentfirst
