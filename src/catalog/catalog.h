#ifndef AGENTFIRST_CATALOG_CATALOG_H_
#define AGENTFIRST_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/index.h"
#include "catalog/stats.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/table.h"
#include "types/schema.h"

namespace agentfirst {

/// Observer of catalog DDL, called AFTER each successful change (the new
/// schema_version is already visible). Extends TableMutationListener so one
/// hook object — the durability manager in src/wal/ — sees both DDL and the
/// row-level changes of every table the catalog owns: attaching a catalog
/// listener also attaches it to each current and future table. Scratch
/// catalogs (branch query sandboxes) never attach one.
class CatalogMutationListener : public TableMutationListener {
 public:
  /// `table` is empty (freshly created); its schema is final.
  virtual void OnCreateTable(const Table& table) = 0;
  /// An externally built table (possibly non-empty) entered the catalog.
  virtual void OnRegisterTable(const Table& table) = 0;
  virtual void OnDropTable(const std::string& name) = 0;
  virtual void OnCreateIndex(const std::string& table,
                             const std::string& column) = 0;
  virtual void OnDropIndex(const std::string& table,
                           const std::string& column) = 0;
};

/// The database catalog: named tables, their statistics (computed lazily and
/// invalidated by version counters), and a schema version used by the
/// agentic memory store to detect stale grounding.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table. Fails with AlreadyExists on name collision.
  Result<TablePtr> CreateTable(const std::string& name, Schema schema);

  /// Registers an externally built table (e.g. a branch materialization).
  Status RegisterTable(TablePtr table);

  Result<TablePtr> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  std::vector<std::string> ListTables() const;
  size_t NumTables() const { return tables_.size(); }

  /// Returns (computing or refreshing as needed) statistics for `name`.
  /// Safe to call from concurrent sessions: a stale or missing entry is
  /// computed once under the cache lock, and the returned pointer keeps its
  /// stats alive after a later recompute replaces them.
  Result<std::shared_ptr<const TableStats>> GetStats(const std::string& name);

  /// Bumped on every DDL (create/drop/register). Grounding artifacts pin the
  /// version they were derived from.
  uint64_t schema_version() const { return schema_version_; }

  /// Installs (or clears) the DDL + table-mutation observer. Attaching also
  /// installs it as every owned table's TableMutationListener; clearing
  /// detaches them. The listener must outlive the catalog or be cleared
  /// first.
  void SetMutationListener(CatalogMutationListener* listener);

  /// Moves every current table — and all future ones — into `pool` so their
  /// segments become pageable (see Table::AttachBufferPool). The pool must
  /// outlive the catalog; attachment is one-way (pass nullptr only before
  /// any pool was set).
  void SetBufferPool(storage::BufferPool* pool);
  storage::BufferPool* buffer_pool() const { return pool_; }

  /// Recovery-only: restores the version counter after a checkpoint load.
  void RestoreSchemaVersion(uint64_t v) { schema_version_ = v; }

  // --- equality indexes ----------------------------------------------------

  /// Declares a hash index on table.column (built immediately). Fails with
  /// AlreadyExists when one is present.
  Status CreateIndex(const std::string& table, const std::string& column);
  Status DropIndex(const std::string& table, const std::string& column);
  bool HasIndex(const std::string& table, const std::string& column) const;
  std::vector<std::pair<std::string, std::string>> ListIndexes() const;

  /// Returns a lookup-ready index for (table, column index), rebuilding it
  /// if the table changed since the last build; nullptr if none exists.
  const HashIndex* GetFreshIndex(const std::string& table, size_t column);

 private:
  std::map<std::string, TablePtr> tables_;
  Mutex stats_mutex_;
  std::map<std::string, std::shared_ptr<const TableStats>> stats_cache_
      AF_GUARDED_BY(stats_mutex_);
  // (table, column name) -> index.
  std::map<std::pair<std::string, std::string>, std::unique_ptr<HashIndex>>
      indexes_;
  uint64_t schema_version_ = 0;
  /// Not owned; nullptr when durability is off (the default).
  CatalogMutationListener* listener_ = nullptr;
  /// Not owned; nullptr when paged storage is off (the default).
  storage::BufferPool* pool_ = nullptr;
};

}  // namespace agentfirst

#endif  // AGENTFIRST_CATALOG_CATALOG_H_
