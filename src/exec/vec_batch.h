#ifndef AGENTFIRST_EXEC_VEC_BATCH_H_
#define AGENTFIRST_EXEC_VEC_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/data_type.h"

namespace agentfirst {
namespace vec {

/// Non-owning view of one string cell. The bytes live in columnar storage
/// (std::string payloads) or in the query arena; both outlive the batch.
struct StringRef {
  const char* data = nullptr;
  uint32_t size = 0;

  std::string_view view() const { return std::string_view(data, size); }
};

/// One column of a batch: typed data pointers plus optional validity. All
/// pointers are non-owning views — into segment storage (zero-copy scans) or
/// into the per-query arena (computed columns) — and stay valid for the
/// duration of one plan execution.
///
/// Exactly one data pointer matching `type` is set. String columns come in
/// two physical forms: `str_base` (a std::string array straight out of
/// ColumnVector — zero-copy) or `refs` (a gathered/derived StringRef array);
/// consumers use StrAt() to read either.
struct VecColumn {
  DataType type = DataType::kNull;
  /// nullptr = every row valid; else one byte per row (1 = present).
  const uint8_t* valid = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* b8 = nullptr;
  const std::string* str_base = nullptr;
  const StringRef* refs = nullptr;
};

inline bool ValidAt(const VecColumn& c, size_t row) {
  return c.valid == nullptr || c.valid[row] != 0;
}

inline std::string_view StrAt(const VecColumn& c, size_t row) {
  return c.str_base != nullptr ? std::string_view(c.str_base[row])
                               : c.refs[row].view();
}

/// A morsel-sized horizontal slice flowing between vectorized operators.
/// `sel`, when set, lists the live row positions in ascending order —
/// filters narrow the selection instead of materializing survivors, and
/// every downstream kernel iterates the selection. Column data arrays are
/// always indexed by physical row position (not selection position).
struct VecBatch {
  size_t num_rows = 0;
  std::vector<VecColumn> cols;
  const uint32_t* sel = nullptr;
  size_t sel_size = 0;

  size_t ActiveRows() const { return sel != nullptr ? sel_size : num_rows; }
  size_t RowAt(size_t i) const { return sel != nullptr ? sel[i] : i; }
};

/// A fully produced vectorized operator output: the static column types plus
/// one batch per input morsel (batch boundaries mirror storage segments, so
/// parallel production merges deterministically).
/// `approximate` / `sample_rate` follow ResultSet's meaning: set by sampled
/// scans and carried up through every operator.
struct VecResult {
  std::vector<DataType> types;
  std::vector<VecBatch> batches;
  bool approximate = false;
  double sample_rate = 1.0;

  size_t TotalActiveRows() const {
    size_t n = 0;
    for (const VecBatch& b : batches) n += b.ActiveRows();
    return n;
  }
};

}  // namespace vec
}  // namespace agentfirst

#endif  // AGENTFIRST_EXEC_VEC_BATCH_H_
