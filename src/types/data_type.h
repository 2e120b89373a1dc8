#ifndef AGENTFIRST_TYPES_DATA_TYPE_H_
#define AGENTFIRST_TYPES_DATA_TYPE_H_

namespace agentfirst {

/// Physical value types supported by the engine. The order is Value's variant
/// index (types/value.h), and page and checkpoint bytes store these tags.
enum class DataType {
  kNull = 0,   // type of the untyped NULL literal
  kBool,
  kInt64,
  kFloat64,
  kString,
};

/// Returns the SQL-facing name ("BIGINT", "DOUBLE", ...).
inline const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return "BOOLEAN";
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kFloat64:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
  }
  return "UNKNOWN";
}

/// True when the type participates in arithmetic.
inline bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kFloat64;
}

/// Implicit-cast compatibility for comparisons and assignment: equal types,
/// numeric-to-numeric, or anything involving NULL.
inline bool TypesComparable(DataType a, DataType b) {
  if (a == b) return true;
  if (a == DataType::kNull || b == DataType::kNull) return true;
  return IsNumeric(a) && IsNumeric(b);
}

}  // namespace agentfirst

#endif  // AGENTFIRST_TYPES_DATA_TYPE_H_
