#ifndef AGENTFIRST_MEMORY_MEMORY_STORE_H_
#define AGENTFIRST_MEMORY_MEMORY_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
// aflint:allow(layer-back-edge) the memory store recalls agent-visible
// artifacts by embedding (paper Sec. 5); Embedding is a leaf value type and
// embed/ never includes memory/.
#include "embed/embedding.h"

namespace agentfirst {

/// What a memory artifact records (paper Sec. 6.1 "Artifacts").
enum class ArtifactKind {
  kProbeResult,     // a prior probe's query; its answer lives in the ExecCache
  kColumnEncoding,  // e.g. "state is spelled out, not two-letter codes"
  kSchemaNote,      // which tables/columns matter for what
  kStatSummary,     // value ranges, distinct counts, partitions' coverage
  kGroundingNote,   // any other free-form grounding
};

const char* ArtifactKindName(ArtifactKind k);

/// One grounding artifact. Artifacts pin the catalog/table versions they
/// were derived from so staleness is detectable.
struct MemoryArtifact {
  uint64_t id = 0;
  ArtifactKind kind = ArtifactKind::kGroundingNote;
  std::string key;       // structured key, e.g. "table:sales/col:state"
  std::string content;   // natural-language grounding text
  std::vector<std::string> table_deps;
  uint64_t schema_version = 0;
  std::map<std::string, uint64_t> table_versions;
  std::string owner;     // principal; empty = public
  uint64_t created_tick = 0;
  uint64_t last_used_tick = 0;
};

/// A retrieval hit; `stale` is only possible under the lazy policy.
struct MemoryHit {
  const MemoryArtifact* artifact = nullptr;
  double score = 1.0;
  bool stale = false;
};

/// Observer of memory-store state changes, called AFTER each change. OnPut
/// sees the artifact fully stamped (id, ticks, pinned versions); OnRemove
/// fires for every departure — supersede, LRU eviction, stale drop, sweep —
/// so a log of (put, remove) events replays to the exact artifact set. The
/// write-ahead log implements this; recovery Restore* methods bypass it.
class MemoryMutationListener {
 public:
  virtual ~MemoryMutationListener() = default;
  virtual void OnPut(const MemoryArtifact& artifact) = 0;
  virtual void OnRemove(uint64_t id) = 0;
};

/// The agentic memory store (paper Sec. 6.1): a persistent, queryable
/// semantic cache of grounding gleaned by prior probes. Supports exact
/// structured lookup and embedding-based semantic search, staleness
/// handling against catalog versions (eager invalidation or lazy detection),
/// LRU eviction, and per-principal access control.
///
/// Artifacts are kept in store order, which is ascending id order. Exact
/// lookups, supersede and eviction go through a key index and an LRU index
/// instead of scanning every artifact; semantic search scores them all.
class AgenticMemoryStore {
 public:
  enum class StalenessPolicy {
    kEager,  // stale artifacts are dropped at access time (never served)
    kLazy,   // stale artifacts are served flagged; dropped when superseded
  };

  struct Options {
    size_t capacity = 4096;
    StalenessPolicy staleness = StalenessPolicy::kEager;
    /// When false, artifacts are only visible to their owner (privacy mode,
    /// paper's multi-user concern); when true, all principals share. Query
    /// answers are not artifacts: the probe optimizer reuses them across
    /// principals either way.
    bool share_across_principals = true;
  };

  struct Stats {
    uint64_t puts = 0;
    uint64_t exact_hits = 0;
    uint64_t exact_misses = 0;
    uint64_t semantic_queries = 0;
    uint64_t stale_dropped = 0;
    uint64_t stale_served = 0;
    uint64_t evictions = 0;
  };

  AgenticMemoryStore(Catalog* catalog, Options options)
      : catalog_(catalog), options_(options) {}

  /// Stores an artifact (embedding derived from key + content). Returns id.
  /// An artifact with an identical key and owner is superseded.
  uint64_t Put(MemoryArtifact artifact);

  /// Exact lookup by structured key (subject to visibility and staleness).
  std::optional<MemoryHit> GetExact(const std::string& key,
                                    const std::string& principal = "");

  /// Semantic search: top-k artifacts by embedding similarity to `query`,
  /// above `min_score`.
  std::vector<MemoryHit> Search(const std::string& query, size_t k,
                                const std::string& principal = "",
                                double min_score = 0.15);

  /// Drops every artifact that is stale with respect to the catalog now.
  /// Returns the number removed.
  size_t SweepStale();

  size_t size() const { return artifacts_.size(); }
  const Stats& stats() const { return stats_; }

  /// Installs (or clears) the durability observer.
  void SetMutationListener(MemoryMutationListener* listener) {
    listener_ = listener;
  }

  // --- durability support (src/wal/) --------------------------------------

  /// Read-only view of every artifact in store order, for checkpointing.
  std::vector<const MemoryArtifact*> SnapshotArtifacts() const;
  uint64_t next_id() const { return next_id_; }
  uint64_t tick() const { return tick_; }

  /// Recovery-only: re-inserts an already-stamped artifact exactly as
  /// logged — no re-stamping, no supersede, no eviction, no listener
  /// callback (removals were logged separately and replay in order). Counter
  /// state advances so post-recovery puts continue the id/tick sequence.
  /// The artifact takes its id's place in store order.
  void RestorePut(MemoryArtifact artifact);
  /// Recovery-only: removes the artifact with `id` (no-op when absent).
  void RestoreRemove(uint64_t id);
  /// Recovery-only: pins the id/tick counters after a checkpoint load.
  void RestoreCounters(uint64_t next_id, uint64_t tick) {
    next_id_ = next_id;
    tick_ = tick;
  }

 private:
  bool Visible(const MemoryArtifact& a, const std::string& principal) const;
  bool IsStale(const MemoryArtifact& a) const;
  void Touch(MemoryArtifact* a);
  void EvictIfNeeded();
  /// Adds an already-stamped artifact at its id's place in store order and
  /// to both indexes; returns the stored artifact.
  MemoryArtifact* Insert(MemoryArtifact artifact);
  /// Store-order slot where the artifact with `id` is, or would go.
  size_t IndexOf(uint64_t id) const;
  /// Erases slot `i` from the store and both indexes, without notifying.
  void Erase(size_t i);
  /// Erases slot `i` and notifies the listener (the one removal funnel).
  void RemoveAt(size_t i);

  Catalog* catalog_;
  Options options_;
  /// Not owned; nullptr when durability is off.
  MemoryMutationListener* listener_ = nullptr;
  Stats stats_;
  uint64_t next_id_ = 1;
  uint64_t tick_ = 0;
  // Artifacts in store order (ascending id); parallel embedding storage for
  // semantic search.
  std::vector<std::unique_ptr<MemoryArtifact>> artifacts_;
  std::vector<Embedding> embeddings_;
  /// key -> the artifacts with that key, in store order.
  std::unordered_map<std::string, std::vector<MemoryArtifact*>> by_key_;
  /// (last_used_tick, id) of every artifact; the first is the LRU victim,
  /// ties going to the earlier artifact in store order.
  std::set<std::pair<uint64_t, uint64_t>> lru_;
};

}  // namespace agentfirst

#endif  // AGENTFIRST_MEMORY_MEMORY_STORE_H_
