#ifndef AGENTFIRST_TYPES_VALUE_H_
#define AGENTFIRST_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

// aflint:allow(layer-back-edge) common/hash.h is a freestanding header-only
// kernel (no common/ types leak into the API); splitting it below types/
// would duplicate the one FNV/mix implementation the whole tree shares.
#include "common/hash.h"
#include "types/data_type.h"

namespace agentfirst {

/// A dynamically-typed SQL value: NULL, BOOLEAN, BIGINT, DOUBLE, or VARCHAR.
/// Values cross module boundaries (rows, literals, statistics); hot paths in
/// the executor operate on typed column storage instead.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value Int(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Double(double v) { return Value(std::in_place_type<double>, v); }
  static Value String(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }

  DataType type() const { return static_cast<DataType>(data_.index()); }
  bool is_null() const { return type() == DataType::kNull; }

  /// Typed accessors; calling the wrong one is a programming error (checked
  /// by std::get in debug via exceptions disabled -> use only after type()).
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const { return std::get<std::string>(data_); }

  /// Numeric view: BIGINT and DOUBLE both convert; others return 0.
  double AsDouble() const;
  /// Integer view (truncates doubles); others return 0.
  int64_t AsInt() const;

  /// SQL equality ignoring numeric width (1 == 1.0). NULL != anything,
  /// including NULL (use is_null for three-valued logic; this is for
  /// hash/grouping semantics where NULLs compare equal to each other).
  bool Equals(const Value& other) const;

  /// Total order for sorting: NULL < BOOL < numerics < STRING; numerics
  /// compare by value across widths. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Hash consistent with Equals.
  uint64_t Hash() const;

  /// SQL text rendering ("NULL", "42", "3.5", "abc" without quotes).
  std::string ToString() const;
  /// Rendering for plans/literals: strings quoted with single quotes.
  std::string ToSqlLiteral() const;

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  template <typename T>
  Value(std::in_place_type_t<T> tag, T v) : data_(tag, std::move(v)) {}

  /// The alternatives are listed in DataType order, so the active index is
  /// the type and a Value carries no separate type tag (40 bytes, not 48).
  using Storage = std::variant<std::monostate, bool, int64_t, double, std::string>;
  template <DataType t>
  using Alternative = std::variant_alternative_t<static_cast<size_t>(t), Storage>;
  static_assert(std::is_same_v<Alternative<DataType::kNull>, std::monostate> &&
                    std::is_same_v<Alternative<DataType::kBool>, bool> &&
                    std::is_same_v<Alternative<DataType::kInt64>, int64_t> &&
                    std::is_same_v<Alternative<DataType::kFloat64>, double> &&
                    std::is_same_v<Alternative<DataType::kString>, std::string>,
                "Value's variant must list its alternatives in DataType order");

  Storage data_;
};

/// A materialized tuple.
using Row = std::vector<Value>;

/// Hash of a full row (order-dependent).
uint64_t HashRow(const Row& row);

}  // namespace agentfirst

#endif  // AGENTFIRST_TYPES_VALUE_H_
