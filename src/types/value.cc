#include "types/value.h"

#include <cmath>

// aflint:allow(layer-back-edge) implementation-only use of the shared
// freestanding string helpers; nothing from common/ appears in types/ APIs.
#include "common/str_util.h"

namespace agentfirst {

double Value::AsDouble() const {
  switch (type()) {
    case DataType::kInt64:
      return static_cast<double>(std::get<int64_t>(data_));
    case DataType::kFloat64:
      return std::get<double>(data_);
    case DataType::kBool:
      return std::get<bool>(data_) ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

int64_t Value::AsInt() const {
  switch (type()) {
    case DataType::kInt64:
      return std::get<int64_t>(data_);
    case DataType::kFloat64:
      return static_cast<int64_t>(std::get<double>(data_));
    case DataType::kBool:
      return std::get<bool>(data_) ? 1 : 0;
    default:
      return 0;
  }
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (IsNumeric(type()) && IsNumeric(other.type())) {
    if (type() == DataType::kInt64 && other.type() == DataType::kInt64) {
      return int_value() == other.int_value();
    }
    return AsDouble() == other.AsDouble();
  }
  if (type() != other.type()) return false;
  switch (type()) {
    case DataType::kBool:
      return bool_value() == other.bool_value();
    case DataType::kString:
      return string_value() == other.string_value();
    default:
      return false;
  }
}

namespace {
// Rank for cross-type ordering.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 2;
    case DataType::kString:
      return 3;
  }
  return 4;
}
}  // namespace

int Value::Compare(const Value& other) const {
  int ra = TypeRank(type());
  int rb = TypeRank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type()) {
    case DataType::kNull:
      return 0;
    case DataType::kBool: {
      int a = bool_value() ? 1 : 0;
      int b = other.bool_value() ? 1 : 0;
      return a - b;
    }
    case DataType::kInt64:
    case DataType::kFloat64: {
      if (type() == DataType::kInt64 && other.type() == DataType::kInt64) {
        int64_t a = int_value();
        int64_t b = other.int_value();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      double a = AsDouble();
      double b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case DataType::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

uint64_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x5261474e554c4cULL;  // arbitrary NULL tag
    case DataType::kBool:
      return HashInt(bool_value() ? 3 : 7);
    case DataType::kInt64:
      // Hash ints via their double image when exactly representable so that
      // 1 and 1.0 (which compare equal) hash equally.
      return HashDouble(static_cast<double>(int_value()));
    case DataType::kFloat64:
      return HashDouble(double_value());
    case DataType::kString:
      return HashString(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(int_value());
    case DataType::kFloat64:
      return FormatDouble(double_value());
    case DataType::kString:
      return string_value();
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  if (type() == DataType::kString) {
    std::string out = "'";
    for (char c : string_value()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  return ToString();
}

uint64_t HashRow(const Row& row) {
  uint64_t h = kFnvOffsetBasis;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

}  // namespace agentfirst
