#include "catalog/catalog.h"

namespace agentfirst {

void Catalog::SetMutationListener(CatalogMutationListener* listener) {
  listener_ = listener;
  for (auto& [name, table] : tables_) table->SetMutationListener(listener);
}

void Catalog::SetBufferPool(storage::BufferPool* pool) {
  pool_ = pool;
  if (pool_ == nullptr) return;
  for (auto& [name, table] : tables_) table->AttachBufferPool(pool_);
}

Result<TablePtr> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table = std::make_shared<Table>(name, std::move(schema));
  if (pool_ != nullptr) table->AttachBufferPool(pool_);
  tables_[name] = table;
  ++schema_version_;
  // Answer-cache keys and memory artifacts pin (name, data_version), so a
  // re-created name must not restart at a version its predecessor had. The
  // high half is this DDL's schema version, which checkpoints and WAL
  // replay restore, so the seed is the same after a reboot; the low half
  // leaves each table 2^32 mutations.
  table->RestoreDataVersion(schema_version_ << 32);
  if (listener_ != nullptr) {
    table->SetMutationListener(listener_);
    listener_->OnCreateTable(*table);
  }
  return table;
}

Status Catalog::RegisterTable(TablePtr table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (tables_.count(table->name()) > 0) {
    return Status::AlreadyExists("table already exists: " + table->name());
  }
  const Table& registered = *table;
  if (pool_ != nullptr) table->AttachBufferPool(pool_);
  tables_[table->name()] = std::move(table);
  ++schema_version_;
  if (listener_ != nullptr) {
    tables_[registered.name()]->SetMutationListener(listener_);
    listener_->OnRegisterTable(registered);
  }
  return Status::OK();
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  // The table may live on through shared_ptrs (branch views); mutations made
  // through those are no longer catalog state, so stop observing them.
  it->second->SetMutationListener(nullptr);
  tables_.erase(it);
  {
    MutexLock lock(stats_mutex_);
    stats_cache_.erase(name);
  }
  for (auto iit = indexes_.begin(); iit != indexes_.end();) {
    if (iit->first.first == name) iit = indexes_.erase(iit);
    else ++iit;
  }
  ++schema_version_;
  if (listener_ != nullptr) listener_->OnDropTable(name);
  return Status::OK();
}

Status Catalog::CreateIndex(const std::string& table, const std::string& column) {
  auto tit = tables_.find(table);
  if (tit == tables_.end()) return Status::NotFound("no such table: " + table);
  auto col = tit->second->schema().FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("no such column: " + table + "." + column);
  }
  auto key = std::make_pair(table, column);
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("index already exists on " + table + "." + column);
  }
  auto index = std::make_unique<HashIndex>(table, *col);
  AF_RETURN_IF_ERROR(index->Build(*tit->second));
  indexes_[key] = std::move(index);
  if (listener_ != nullptr) listener_->OnCreateIndex(table, column);
  return Status::OK();
}

Status Catalog::DropIndex(const std::string& table, const std::string& column) {
  if (indexes_.erase(std::make_pair(table, column)) == 0) {
    return Status::NotFound("no index on " + table + "." + column);
  }
  if (listener_ != nullptr) listener_->OnDropIndex(table, column);
  return Status::OK();
}

bool Catalog::HasIndex(const std::string& table, const std::string& column) const {
  return indexes_.count(std::make_pair(table, column)) > 0;
}

std::vector<std::pair<std::string, std::string>> Catalog::ListIndexes() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, index] : indexes_) out.push_back(key);
  return out;
}

const HashIndex* Catalog::GetFreshIndex(const std::string& table, size_t column) {
  auto tit = tables_.find(table);
  if (tit == tables_.end()) return nullptr;
  for (auto& [key, index] : indexes_) {
    if (key.first != table || index->column() != column) continue;
    if (!index->FreshFor(*tit->second)) {
      if (!index->Build(*tit->second).ok()) return nullptr;
    }
    return index.get();
  }
  return nullptr;
}

std::vector<std::string> Catalog::ListTables() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(name);
  return out;
}

Result<std::shared_ptr<const TableStats>> Catalog::GetStats(
    const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  // Held across the recompute: sessions asking for the same stale table wait
  // for one computation instead of each scanning the table.
  MutexLock lock(stats_mutex_);
  auto cached = stats_cache_.find(name);
  if (cached != stats_cache_.end() &&
      cached->second->data_version == it->second->data_version()) {
    return cached->second;
  }
  AF_ASSIGN_OR_RETURN(TableStats fresh, ComputeTableStats(*it->second));
  auto stats = std::make_shared<const TableStats>(std::move(fresh));
  stats_cache_[name] = stats;
  return stats;
}

}  // namespace agentfirst
