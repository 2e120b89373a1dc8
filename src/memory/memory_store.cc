#include "memory/memory_store.h"

#include <algorithm>

namespace agentfirst {

const char* ArtifactKindName(ArtifactKind k) {
  switch (k) {
    case ArtifactKind::kProbeResult: return "probe_result";
    case ArtifactKind::kColumnEncoding: return "column_encoding";
    case ArtifactKind::kSchemaNote: return "schema_note";
    case ArtifactKind::kStatSummary: return "stat_summary";
    case ArtifactKind::kGroundingNote: return "grounding_note";
  }
  return "?";
}

bool AgenticMemoryStore::Visible(const MemoryArtifact& a,
                                 const std::string& principal) const {
  if (a.owner.empty()) return true;
  if (a.owner == principal) return true;
  return options_.share_across_principals;
}

bool AgenticMemoryStore::IsStale(const MemoryArtifact& a) const {
  if (catalog_ == nullptr) return false;
  for (const std::string& dep : a.table_deps) {
    if (!catalog_->HasTable(dep)) return true;
    auto it = a.table_versions.find(dep);
    if (it != a.table_versions.end()) {
      auto table = catalog_->GetTable(dep);
      if (table.ok() && (*table)->data_version() != it->second) return true;
    }
  }
  // Schema-level artifacts expire on any DDL.
  if ((a.kind == ArtifactKind::kSchemaNote) &&
      a.schema_version != catalog_->schema_version()) {
    return true;
  }
  return false;
}

void AgenticMemoryStore::Touch(MemoryArtifact* a) {
  lru_.erase({a->last_used_tick, a->id});
  a->last_used_tick = ++tick_;
  lru_.emplace_hint(lru_.end(), a->last_used_tick, a->id);
}

uint64_t AgenticMemoryStore::Put(MemoryArtifact artifact) {
  ++stats_.puts;
  artifact.id = next_id_++;
  artifact.created_tick = ++tick_;
  artifact.last_used_tick = artifact.created_tick;
  if (catalog_ != nullptr) {
    artifact.schema_version = catalog_->schema_version();
    for (const std::string& dep : artifact.table_deps) {
      auto table = catalog_->GetTable(dep);
      if (table.ok()) artifact.table_versions[dep] = (*table)->data_version();
    }
  }
  // Supersede the first same-key same-owner artifact.
  if (auto it = by_key_.find(artifact.key); it != by_key_.end()) {
    auto same = std::find_if(it->second.begin(), it->second.end(),
                             [&](const MemoryArtifact* a) {
                               return a->owner == artifact.owner;
                             });
    if (same != it->second.end()) RemoveAt(IndexOf((*same)->id));
  }
  const MemoryArtifact* stored = Insert(std::move(artifact));
  uint64_t id = stored->id;
  if (listener_ != nullptr) listener_->OnPut(*stored);
  EvictIfNeeded();
  return id;
}

std::optional<MemoryHit> AgenticMemoryStore::GetExact(const std::string& key,
                                                      const std::string& principal) {
  auto it = by_key_.find(key);
  const size_t n = it == by_key_.end() ? 0 : it->second.size();
  for (size_t j = 0; j < n; ++j) {
    MemoryArtifact* a = it->second[j];
    if (!Visible(*a, principal)) continue;
    if (IsStale(*a)) {
      if (options_.staleness == StalenessPolicy::kEager) {
        ++stats_.stale_dropped;
        RemoveAt(IndexOf(a->id));
        ++stats_.exact_misses;
        return std::nullopt;
      }
      ++stats_.stale_served;
      Touch(a);
      ++stats_.exact_hits;
      return MemoryHit{a, 1.0, /*stale=*/true};
    }
    Touch(a);
    ++stats_.exact_hits;
    return MemoryHit{a, 1.0, false};
  }
  ++stats_.exact_misses;
  return std::nullopt;
}

std::vector<MemoryHit> AgenticMemoryStore::Search(const std::string& query,
                                                  size_t k,
                                                  const std::string& principal,
                                                  double min_score) {
  ++stats_.semantic_queries;
  Embedding q = EmbedText(query);
  std::vector<std::pair<double, size_t>> scored;
  for (size_t i = 0; i < artifacts_.size(); ++i) {
    if (!Visible(*artifacts_[i], principal)) continue;
    double s = CosineSimilarity(q, embeddings_[i]);
    if (s >= min_score) scored.emplace_back(s, i);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  std::vector<MemoryHit> hits;
  std::vector<size_t> to_drop;
  for (const auto& [score, i] : scored) {
    if (hits.size() >= k) break;
    MemoryArtifact* a = artifacts_[i].get();
    bool stale = IsStale(*a);
    if (stale && options_.staleness == StalenessPolicy::kEager) {
      ++stats_.stale_dropped;
      to_drop.push_back(i);
      continue;
    }
    if (stale) ++stats_.stale_served;
    Touch(a);
    hits.push_back(MemoryHit{a, score, stale});
  }
  // Remove stale entries found during the scan (descending index order).
  std::sort(to_drop.begin(), to_drop.end(), std::greater<>());
  for (size_t i : to_drop) RemoveAt(i);
  return hits;
}

size_t AgenticMemoryStore::SweepStale() {
  size_t removed = 0;
  for (size_t i = artifacts_.size(); i > 0; --i) {
    if (IsStale(*artifacts_[i - 1])) {
      RemoveAt(i - 1);
      ++removed;
      ++stats_.stale_dropped;
    }
  }
  return removed;
}

void AgenticMemoryStore::EvictIfNeeded() {
  while (artifacts_.size() > options_.capacity) {
    RemoveAt(IndexOf(lru_.begin()->second));
    ++stats_.evictions;
  }
}

MemoryArtifact* AgenticMemoryStore::Insert(MemoryArtifact artifact) {
  Embedding emb = EmbedText(artifact.key + " " + artifact.content);
  auto owned = std::make_unique<MemoryArtifact>(std::move(artifact));
  MemoryArtifact* a = owned.get();
  // Puts carry the largest id so far and append; only a restore can land
  // before the end.
  size_t pos = IndexOf(a->id);
  artifacts_.insert(artifacts_.begin() + static_cast<long>(pos), std::move(owned));
  embeddings_.insert(embeddings_.begin() + static_cast<long>(pos), std::move(emb));
  std::vector<MemoryArtifact*>& same_key = by_key_[a->key];
  same_key.insert(std::upper_bound(same_key.begin(), same_key.end(), a->id,
                                   [](uint64_t id, const MemoryArtifact* b) {
                                     return id < b->id;
                                   }),
                  a);
  lru_.emplace(a->last_used_tick, a->id);
  return a;
}

size_t AgenticMemoryStore::IndexOf(uint64_t id) const {
  auto it = std::lower_bound(
      artifacts_.begin(), artifacts_.end(), id,
      [](const std::unique_ptr<MemoryArtifact>& a, uint64_t v) { return a->id < v; });
  return static_cast<size_t>(it - artifacts_.begin());
}

void AgenticMemoryStore::Erase(size_t i) {
  const MemoryArtifact* a = artifacts_[i].get();
  auto it = by_key_.find(a->key);
  std::vector<MemoryArtifact*>& same_key = it->second;
  same_key.erase(std::find(same_key.begin(), same_key.end(), a));
  if (same_key.empty()) by_key_.erase(it);
  lru_.erase({a->last_used_tick, a->id});
  artifacts_.erase(artifacts_.begin() + static_cast<long>(i));
  embeddings_.erase(embeddings_.begin() + static_cast<long>(i));
}

void AgenticMemoryStore::RemoveAt(size_t i) {
  uint64_t id = artifacts_[i]->id;
  Erase(i);
  if (listener_ != nullptr) listener_->OnRemove(id);
}

std::vector<const MemoryArtifact*> AgenticMemoryStore::SnapshotArtifacts() const {
  std::vector<const MemoryArtifact*> out;
  out.reserve(artifacts_.size());
  for (const auto& a : artifacts_) out.push_back(a.get());
  return out;
}

void AgenticMemoryStore::RestorePut(MemoryArtifact artifact) {
  if (artifact.id >= next_id_) next_id_ = artifact.id + 1;
  if (artifact.created_tick > tick_) tick_ = artifact.created_tick;
  if (artifact.last_used_tick > tick_) tick_ = artifact.last_used_tick;
  Insert(std::move(artifact));
}

void AgenticMemoryStore::RestoreRemove(uint64_t id) {
  size_t i = IndexOf(id);
  if (i < artifacts_.size() && artifacts_[i]->id == id) Erase(i);
}

}  // namespace agentfirst
