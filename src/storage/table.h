#ifndef AGENTFIRST_STORAGE_TABLE_H_
#define AGENTFIRST_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/segment.h"
#include "types/schema.h"
#include "types/value.h"

namespace agentfirst {

class Table;

/// Observer of table mutations, called AFTER each successful mutation. The
/// write-ahead log (src/wal/) implements this to capture row-level changes;
/// scratch tables (branch materializations, test fixtures) simply never get
/// a listener attached. Listeners must not mutate the table re-entrantly.
class TableMutationListener {
 public:
  virtual ~TableMutationListener() = default;
  /// `rows[0..n)` were appended; `first_row` is the global row id of rows[0].
  virtual void OnAppendRows(const Table& table, size_t first_row,
                            const Row* rows, size_t n) = 0;
  virtual void OnSetValue(const Table& table, size_t row, size_t col,
                          const Value& value) = 0;
  /// Rows whose mask entry was non-zero were removed (mask indexes the
  /// pre-removal row space).
  virtual void OnRemoveRows(const Table& table,
                            const std::vector<uint8_t>& removed_mask) = 0;
};

/// A table: a schema plus a sequence of columnar segments. Segments are held
/// by shared_ptr so snapshots (branches) can alias them; a Table used through
/// the branch manager must be mutated via COW helpers.
///
/// Two residency modes:
///  - Unpooled (default): segments live in `segments_`, fully resident —
///    the historical in-memory table. Scratch tables (branch
///    materializations, test fixtures) stay in this mode.
///  - Pooled: after AttachBufferPool, segment ownership moves to the
///    BufferPool and the table holds frame ids; segments may be evicted to
///    the page file and fault back in on access. All access then goes
///    through the pin-scoped accessors (PinSegment / PinSegments), which
///    also work in unpooled mode — readers never branch on the mode.
///
/// The raw `segments()` accessor remains for unpooled scratch tables only;
/// it returns an empty vector on a pooled table.
class Table {
 public:
  Table(std::string name, Schema schema, size_t segment_capacity = Segment::kDefaultCapacity)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        segment_capacity_(segment_capacity) {}
  ~Table();

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  size_t NumRows() const { return num_rows_; }
  size_t NumSegments() const { return slot_rows_.size(); }
  /// Unpooled tables only (empty once a pool is attached) — see class note.
  const std::vector<std::shared_ptr<Segment>>& segments() const { return segments_; }

  /// True once AttachBufferPool has moved the segments into a pool.
  bool pooled() const { return pool_ != nullptr; }

  /// Moves segment ownership into `pool`: every current segment becomes a
  /// frame, and future segments register on creation. One-way; call before
  /// the table is shared across threads.
  void AttachBufferPool(storage::BufferPool* pool);

  /// Pin-scoped access to segment `i` (faulting it in when evicted). On an
  /// unpooled table this is infallible and simply keeps the segment alive.
  Result<storage::SegmentPin> PinSegment(size_t i) const;
  /// Pins every segment, in order. Holding the result keeps the whole table
  /// resident — prefer pinning per-segment in scans so eviction can engage.
  Result<storage::PinnedSegments> PinSegments() const;

  Status AppendRow(const Row& row);
  Status AppendRows(const std::vector<Row>& rows);

  /// Global row access (row ids are dense append order).
  Result<Row> GetRow(size_t row) const;
  Result<Value> GetValue(size_t row, size_t col) const;

  /// In-place update (non-branched path). Branched updates go through
  /// BranchManager, which clones segments instead.
  Status SetValue(size_t row, size_t col, const Value& v);

  /// Removes every row whose mask entry is non-zero, rebuilding segments.
  /// mask.size() must equal NumRows().
  Status RemoveRows(const std::vector<uint8_t>& remove_mask);

  /// Monotone counter bumped on every mutation; consumed by the agentic
  /// memory store and statistics cache for staleness detection.
  uint64_t data_version() const { return data_version_; }

  size_t segment_capacity() const { return segment_capacity_; }

  /// Bytes of this table's segments currently resident in memory / in total
  /// (total counts evicted segments at their last measured size). Equal for
  /// unpooled tables. Surfaced by afsh \tables.
  uint64_t ResidentBytes() const;
  uint64_t TotalBytes() const;

  /// Installs (or clears, with nullptr) the mutation observer. Owned by the
  /// caller; normally the catalog attaches its durability hook here.
  void SetMutationListener(TableMutationListener* listener) {
    listener_ = listener;
  }

  /// Sets the mutation counter: recovery restores it after a checkpoint load
  /// so version-pinned artifacts (memory store, stats cache) keep matching,
  /// Catalog::CreateTable seeds it for a new table, and each
  /// information_schema view is stamped with a version of the catalog state
  /// it reflects (its own counter would only count its rows).
  void RestoreDataVersion(uint64_t v) { data_version_ = v; }

  /// Builds a table directly from segments (used by branch materialization).
  static std::shared_ptr<Table> FromSegments(
      std::string name, Schema schema,
      std::vector<std::shared_ptr<Segment>> segments);

 private:
  std::pair<size_t, size_t> Locate(size_t row) const;
  Status AppendRowInternal(const Row& row);

  std::string name_;
  Schema schema_;
  size_t segment_capacity_;
  /// Unpooled mode: the segments themselves. Pooled mode: empty.
  std::vector<std::shared_ptr<Segment>> segments_;
  /// Pooled mode: one BufferPool frame id per segment slot.
  std::vector<uint64_t> frames_;
  /// Row count and capacity per segment slot, maintained in both modes so
  /// Locate() and fullness checks never need to touch (possibly evicted)
  /// segment objects.
  std::vector<size_t> slot_rows_;
  std::vector<size_t> slot_caps_;
  size_t num_rows_ = 0;
  uint64_t data_version_ = 0;
  /// Not owned; nullptr for scratch tables.
  TableMutationListener* listener_ = nullptr;
  /// Not owned (the system owns the pool); nullptr in unpooled mode.
  storage::BufferPool* pool_ = nullptr;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace agentfirst

#endif  // AGENTFIRST_STORAGE_TABLE_H_
