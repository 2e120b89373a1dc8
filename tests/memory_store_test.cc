#include "memory/memory_store.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/probe_builder.h"
#include "core/system.h"
#include "gtest/gtest.h"

namespace agentfirst {
namespace {

class MemoryStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({ColumnDef("id", DataType::kInt64, false, "sales"),
                   ColumnDef("state", DataType::kString, true, "sales")});
    auto t = catalog_.CreateTable("sales", schema);
    ASSERT_TRUE(t.ok());
    table_ = *t;
    ASSERT_TRUE(table_->AppendRow({Value::Int(1), Value::String("California")}).ok());
  }

  MemoryArtifact MakeArtifact(const std::string& key, const std::string& content,
                              std::vector<std::string> deps = {"sales"}) {
    MemoryArtifact a;
    a.kind = ArtifactKind::kGroundingNote;
    a.key = key;
    a.content = content;
    a.table_deps = std::move(deps);
    return a;
  }

  Catalog catalog_;
  TablePtr table_;
};

TEST_F(MemoryStoreTest, PutAndGetExact) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("k1", "states are spelled out"));
  auto hit = store.GetExact("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->artifact->content, "states are spelled out");
  EXPECT_FALSE(hit->stale);
  EXPECT_FALSE(store.GetExact("k2").has_value());
  EXPECT_EQ(store.stats().exact_hits, 1u);
  EXPECT_EQ(store.stats().exact_misses, 1u);
}

TEST_F(MemoryStoreTest, PutSupersedesSameKeySameOwner) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("k", "old"));
  store.Put(MakeArtifact("k", "new"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.GetExact("k")->artifact->content, "new");
}

TEST_F(MemoryStoreTest, SemanticSearchRanksByRelevance) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("note:sales_state", "sales table state column encoding"));
  store.Put(MakeArtifact("note:crew", "flight crew roster details", {}));
  auto hits = store.Search("state encoding in sales", 2);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].artifact->key, "note:sales_state");
}

TEST_F(MemoryStoreTest, EagerStalenessDropsOnDataChange) {
  AgenticMemoryStore::Options options;
  options.staleness = AgenticMemoryStore::StalenessPolicy::kEager;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("k", "depends on sales"));
  // Mutate the table: artifact becomes stale.
  ASSERT_TRUE(table_->AppendRow({Value::Int(2), Value::String("Texas")}).ok());
  EXPECT_FALSE(store.GetExact("k").has_value());
  EXPECT_EQ(store.stats().stale_dropped, 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(MemoryStoreTest, LazyStalenessServesFlagged) {
  AgenticMemoryStore::Options options;
  options.staleness = AgenticMemoryStore::StalenessPolicy::kLazy;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("k", "depends on sales"));
  ASSERT_TRUE(table_->AppendRow({Value::Int(2), Value::String("Texas")}).ok());
  auto hit = store.GetExact("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->stale);
  EXPECT_EQ(store.stats().stale_served, 1u);
}

TEST_F(MemoryStoreTest, DroppedTableMakesArtifactStale) {
  AgenticMemoryStore store(&catalog_, {});
  store.Put(MakeArtifact("k", "depends on sales"));
  ASSERT_TRUE(catalog_.DropTable("sales").ok());
  EXPECT_FALSE(store.GetExact("k").has_value());
}

TEST_F(MemoryStoreTest, SchemaNoteExpiresOnAnyDdl) {
  AgenticMemoryStore store(&catalog_, {});
  MemoryArtifact a = MakeArtifact("schema", "there are two tables", {});
  a.kind = ArtifactKind::kSchemaNote;
  store.Put(std::move(a));
  ASSERT_TRUE(catalog_.CreateTable("extra", Schema({ColumnDef("x", DataType::kInt64)})).ok());
  EXPECT_FALSE(store.GetExact("schema").has_value());
}

TEST_F(MemoryStoreTest, SweepStaleRemovesAll) {
  AgenticMemoryStore::Options options;
  options.staleness = AgenticMemoryStore::StalenessPolicy::kLazy;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("k1", "a"));
  store.Put(MakeArtifact("k2", "b"));
  store.Put(MakeArtifact("fresh", "no deps", {}));
  ASSERT_TRUE(table_->AppendRow({Value::Int(3), Value::String("Oregon")}).ok());
  EXPECT_EQ(store.SweepStale(), 2u);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(MemoryStoreTest, LruEviction) {
  AgenticMemoryStore::Options options;
  options.capacity = 2;
  AgenticMemoryStore store(&catalog_, options);
  store.Put(MakeArtifact("a", "1", {}));
  store.Put(MakeArtifact("b", "2", {}));
  // Touch "a" so "b" is the LRU.
  (void)store.GetExact("a");
  store.Put(MakeArtifact("c", "3", {}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.GetExact("a").has_value());
  EXPECT_FALSE(store.GetExact("b").has_value());
  EXPECT_TRUE(store.GetExact("c").has_value());
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST_F(MemoryStoreTest, AccessControlPrivateMode) {
  AgenticMemoryStore::Options options;
  options.share_across_principals = false;
  AgenticMemoryStore store(&catalog_, options);
  MemoryArtifact a = MakeArtifact("k", "private note", {});
  a.owner = "agent1";
  store.Put(std::move(a));
  EXPECT_TRUE(store.GetExact("k", "agent1").has_value());
  EXPECT_FALSE(store.GetExact("k", "agent2").has_value());
  // Public artifacts visible to everyone.
  store.Put(MakeArtifact("pub", "public note", {}));
  EXPECT_TRUE(store.GetExact("pub", "agent2").has_value());
}

TEST_F(MemoryStoreTest, AccessControlSharedMode) {
  AgenticMemoryStore::Options options;
  options.share_across_principals = true;
  AgenticMemoryStore store(&catalog_, options);
  MemoryArtifact a = MakeArtifact("k", "note", {});
  a.owner = "agent1";
  store.Put(std::move(a));
  EXPECT_TRUE(store.GetExact("k", "agent2").has_value());
}

TEST_F(MemoryStoreTest, SearchRespectsVisibility) {
  AgenticMemoryStore::Options options;
  options.share_across_principals = false;
  AgenticMemoryStore store(&catalog_, options);
  MemoryArtifact a = MakeArtifact("k", "sales state encoding note", {});
  a.owner = "agent1";
  store.Put(std::move(a));
  EXPECT_TRUE(store.Search("sales state", 5, "agent2").empty());
  auto own = store.Search("sales state", 5, "agent1");
  ASSERT_FALSE(own.empty());
}

// ---------------------------------------------------------------------------
// The indexed store against a linear-scan oracle: the store as it was before
// exact lookups, supersede and eviction were indexed, kept verbatim.
// ---------------------------------------------------------------------------

class LinearScanStore {
 public:
  using Options = AgenticMemoryStore::Options;
  using Stats = AgenticMemoryStore::Stats;

  LinearScanStore(Catalog* catalog, Options options)
      : catalog_(catalog), options_(options) {}

  void SetMutationListener(MemoryMutationListener* listener) {
    listener_ = listener;
  }

  uint64_t Put(MemoryArtifact artifact) {
    ++stats_.puts;
    artifact.id = next_id_++;
    artifact.created_tick = ++tick_;
    artifact.last_used_tick = artifact.created_tick;
    artifact.schema_version = catalog_->schema_version();
    for (const std::string& dep : artifact.table_deps) {
      auto table = catalog_->GetTable(dep);
      if (table.ok()) artifact.table_versions[dep] = (*table)->data_version();
    }
    for (size_t i = 0; i < artifacts_.size(); ++i) {
      if (artifacts_[i]->key == artifact.key &&
          artifacts_[i]->owner == artifact.owner) {
        RemoveAt(i);
        break;
      }
    }
    Embedding emb = EmbedText(artifact.key + " " + artifact.content);
    uint64_t id = artifact.id;
    artifacts_.push_back(std::make_unique<MemoryArtifact>(std::move(artifact)));
    embeddings_.push_back(std::move(emb));
    if (listener_ != nullptr) listener_->OnPut(*artifacts_.back());
    EvictIfNeeded();
    return id;
  }

  std::optional<MemoryHit> GetExact(const std::string& key,
                                    const std::string& principal) {
    for (size_t i = 0; i < artifacts_.size(); ++i) {
      MemoryArtifact* a = artifacts_[i].get();
      if (a->key != key || !Visible(*a, principal)) continue;
      if (IsStale(*a)) {
        if (options_.staleness == AgenticMemoryStore::StalenessPolicy::kEager) {
          ++stats_.stale_dropped;
          RemoveAt(i);
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

  std::vector<MemoryHit> Search(const std::string& query, size_t k,
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
      if (stale && options_.staleness == AgenticMemoryStore::StalenessPolicy::kEager) {
        ++stats_.stale_dropped;
        to_drop.push_back(i);
        continue;
      }
      if (stale) ++stats_.stale_served;
      Touch(a);
      hits.push_back(MemoryHit{a, score, stale});
    }
    std::sort(to_drop.begin(), to_drop.end(), std::greater<>());
    for (size_t i : to_drop) RemoveAt(i);
    return hits;
  }

  size_t SweepStale() {
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

  void RestorePut(MemoryArtifact artifact) {
    Embedding emb = EmbedText(artifact.key + " " + artifact.content);
    if (artifact.id >= next_id_) next_id_ = artifact.id + 1;
    if (artifact.created_tick > tick_) tick_ = artifact.created_tick;
    if (artifact.last_used_tick > tick_) tick_ = artifact.last_used_tick;
    artifacts_.push_back(std::make_unique<MemoryArtifact>(std::move(artifact)));
    embeddings_.push_back(std::move(emb));
  }

  void RestoreRemove(uint64_t id) {
    for (size_t i = 0; i < artifacts_.size(); ++i) {
      if (artifacts_[i]->id != id) continue;
      artifacts_.erase(artifacts_.begin() + static_cast<long>(i));
      embeddings_.erase(embeddings_.begin() + static_cast<long>(i));
      return;
    }
  }

  std::vector<const MemoryArtifact*> SnapshotArtifacts() const {
    std::vector<const MemoryArtifact*> out;
    for (const auto& a : artifacts_) out.push_back(a.get());
    return out;
  }
  const Stats& stats() const { return stats_; }
  uint64_t next_id() const { return next_id_; }
  uint64_t tick() const { return tick_; }

 private:
  bool Visible(const MemoryArtifact& a, const std::string& principal) const {
    if (a.owner.empty() || a.owner == principal) return true;
    return options_.share_across_principals;
  }

  bool IsStale(const MemoryArtifact& a) const {
    for (const std::string& dep : a.table_deps) {
      if (!catalog_->HasTable(dep)) return true;
      auto it = a.table_versions.find(dep);
      if (it != a.table_versions.end()) {
        auto table = catalog_->GetTable(dep);
        if (table.ok() && (*table)->data_version() != it->second) return true;
      }
    }
    return a.kind == ArtifactKind::kSchemaNote &&
           a.schema_version != catalog_->schema_version();
  }

  void Touch(MemoryArtifact* a) { a->last_used_tick = ++tick_; }

  void EvictIfNeeded() {
    while (artifacts_.size() > options_.capacity) {
      size_t lru = 0;
      for (size_t i = 1; i < artifacts_.size(); ++i) {
        if (artifacts_[i]->last_used_tick < artifacts_[lru]->last_used_tick) {
          lru = i;
        }
      }
      RemoveAt(lru);
      ++stats_.evictions;
    }
  }

  void RemoveAt(size_t i) {
    uint64_t id = artifacts_[i]->id;
    artifacts_.erase(artifacts_.begin() + static_cast<long>(i));
    embeddings_.erase(embeddings_.begin() + static_cast<long>(i));
    if (listener_ != nullptr) listener_->OnRemove(id);
  }

  Catalog* catalog_;
  Options options_;
  MemoryMutationListener* listener_ = nullptr;
  Stats stats_;
  uint64_t next_id_ = 1;
  uint64_t tick_ = 0;
  std::vector<std::unique_ptr<MemoryArtifact>> artifacts_;
  std::vector<Embedding> embeddings_;
};

/// Records listener events as text, in order.
class EventLog : public MemoryMutationListener {
 public:
  void OnPut(const MemoryArtifact& a) override {
    events.push_back("put " + std::to_string(a.id) + " " + a.key + " " +
                     std::to_string(a.created_tick));
  }
  void OnRemove(uint64_t id) override {
    events.push_back("remove " + std::to_string(id));
  }
  std::vector<std::string> events;
};

/// Hits as text, scores to the last bit.
std::string Describe(const std::vector<MemoryHit>& hits) {
  std::string out;
  for (const MemoryHit& h : hits) {
    char score[32];
    std::snprintf(score, sizeof(score), "%a", h.score);
    out += std::to_string(h.artifact->id) + ":" + score +
           (h.stale ? ":stale " : " ");
  }
  return out;
}

std::string Describe(const std::vector<const MemoryArtifact*>& artifacts) {
  std::string out;
  for (const MemoryArtifact* a : artifacts) {
    out += std::to_string(a->id) + "/" + a->key + "/" + a->owner + "/" +
           std::to_string(a->created_tick) + "/" +
           std::to_string(a->last_used_tick) + " ";
  }
  return out;
}

std::string Describe(const AgenticMemoryStore::Stats& s) {
  return std::to_string(s.puts) + " " + std::to_string(s.exact_hits) + " " +
         std::to_string(s.exact_misses) + " " +
         std::to_string(s.semantic_queries) + " " +
         std::to_string(s.stale_dropped) + " " +
         std::to_string(s.stale_served) + " " + std::to_string(s.evictions);
}

TEST_F(MemoryStoreTest, IndexedStoreMatchesLinearScanOracle) {
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3", "k4", "k5"};
  const std::vector<std::string> owners = {"", "a", "b"};
  const std::vector<std::string> words = {"sales", "state", "region", "crew",
                                          "flight", "encoding", "total", "day"};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (auto policy : {AgenticMemoryStore::StalenessPolicy::kEager,
                        AgenticMemoryStore::StalenessPolicy::kLazy}) {
      for (bool share : {true, false}) {
        AgenticMemoryStore::Options options;
        options.capacity = 1 + seed % 5;
        options.staleness = policy;
        options.share_across_principals = share;
        AgenticMemoryStore store(&catalog_, options);
        LinearScanStore oracle(&catalog_, options);
        EventLog store_log, oracle_log;
        store.SetMutationListener(&store_log);
        oracle.SetMutationListener(&oracle_log);
        Rng rng(seed * 1000 + static_cast<uint64_t>(share) * 10 +
                static_cast<uint64_t>(policy));
        auto pick = [&](const std::vector<std::string>& v) {
          return v[rng.NextUint(v.size())];
        };
        auto text = [&]() { return pick(words) + " " + pick(words); };
        for (int step = 0; step < 400; ++step) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                       std::to_string(step));
          uint64_t op = rng.NextUint(100);
          if (op < 40) {
            MemoryArtifact a = MakeArtifact(
                pick(keys), text(),
                rng.NextBool(0.5) ? std::vector<std::string>{"sales"}
                                  : std::vector<std::string>{});
            a.owner = pick(owners);
            if (rng.NextBool(0.1)) a.kind = ArtifactKind::kSchemaNote;
            EXPECT_EQ(store.Put(a), oracle.Put(a));
          } else if (op < 65) {
            std::string key = pick(keys);
            std::string principal = pick(owners);
            auto got = store.GetExact(key, principal);
            auto want = oracle.GetExact(key, principal);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (got.has_value()) {
              EXPECT_EQ(got->artifact->id, want->artifact->id);
              EXPECT_EQ(got->score, want->score);
              EXPECT_EQ(got->stale, want->stale);
            }
          } else if (op < 80) {
            std::string query = text();
            size_t k = 1 + rng.NextUint(4);
            std::string principal = pick(owners);
            double min_score = rng.NextBool(0.5) ? 0.0 : 0.15;
            EXPECT_EQ(Describe(store.Search(query, k, principal, min_score)),
                      Describe(oracle.Search(query, k, principal, min_score)));
          } else if (op < 84) {
            EXPECT_EQ(store.SweepStale(), oracle.SweepStale());
          } else if (op < 90) {
            // A data change makes every artifact pinned to `sales` stale.
            ASSERT_TRUE(table_->AppendRow({Value::Int(step),
                                           Value::String("Nevada")}).ok());
          } else if (op < 95) {
            // Recovery replays artifacts with ids past every id in use and
            // ticks from anywhere in the log, so restored ticks can tie.
            MemoryArtifact a = MakeArtifact(pick(keys), text(), {"sales"});
            a.owner = pick(owners);
            a.id = store.next_id() + rng.NextUint(3);
            a.created_tick = 1 + rng.NextUint(store.tick() + 1);
            a.last_used_tick = a.created_tick + rng.NextUint(3);
            a.table_versions["sales"] = table_->data_version();
            store.RestorePut(a);
            oracle.RestorePut(a);
          } else {
            std::vector<const MemoryArtifact*> all = oracle.SnapshotArtifacts();
            uint64_t id = all.empty() || rng.NextBool(0.2)
                              ? rng.NextUint(store.next_id() + 2)
                              : all[rng.NextUint(all.size())]->id;
            store.RestoreRemove(id);
            oracle.RestoreRemove(id);
          }
          ASSERT_EQ(Describe(store.SnapshotArtifacts()),
                    Describe(oracle.SnapshotArtifacts()));
          ASSERT_EQ(Describe(store.stats()), Describe(oracle.stats()));
          ASSERT_EQ(store.next_id(), oracle.next_id());
          ASSERT_EQ(store.tick(), oracle.tick());
          ASSERT_EQ(store_log.events, oracle_log.events);
        }
      }
    }
  }
}

// Regression: the probe optimizer's memory short-circuit read the hit
// artifact's result after releasing the optimizer lock, while another
// probe's Put could evict that artifact. A one-artifact store makes every
// Put evict; two alternating queries make half the probes hit.
TEST(MemoryShortCircuitTest, HitsSurviveConcurrentEviction) {
  AgentFirstSystem::Options options;
  options.memory.capacity = 1;
  options.optimizer.batch_parallelism = 4;
  AgentFirstSystem system(options);
  ASSERT_TRUE(system.ExecuteSql("CREATE TABLE t (x BIGINT)").ok());
  ASSERT_TRUE(system.ExecuteSql("INSERT INTO t VALUES (1), (2), (3), (4)").ok());
  const std::string queries[2] = {"SELECT sum(x) FROM t",
                                  "SELECT count(*) FROM t"};
  const int64_t expected[2] = {10, 4};
  uint64_t from_memory = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<Probe> probes;
    for (int i = 0; i < 64; ++i) {
      probes.push_back(ProbeBuilder("agent")
                           .Query(queries[i % 2])
                           .Brief("verify the final numbers exactly")
                           .Build());
    }
    auto responses = system.HandleProbeBatch(probes);
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    for (size_t i = 0; i < responses->size(); ++i) {
      const QueryAnswer& answer = (*responses)[i].answers[0];
      ASSERT_TRUE(answer.status.ok()) << answer.status.ToString();
      ASSERT_NE(answer.result, nullptr);
      ASSERT_EQ(answer.result->rows.size(), 1u);
      EXPECT_EQ(answer.result->rows[0][0].int_value(), expected[i % 2]);
      if (answer.from_memory) ++from_memory;
    }
  }
  EXPECT_GT(from_memory, 0u);
}

// Answers are reused through the shared cache alone: a repeated query whose
// artifact the store has evicted still comes back reused, and the reuse
// records nothing in the store.
TEST(MemoryShortCircuitTest, EvictedArtifactStillReusesTheAnswer) {
  AgentFirstSystem::Options options;
  options.memory.capacity = 1;
  AgentFirstSystem system(options);
  ASSERT_TRUE(system.ExecuteSql("CREATE TABLE t (x BIGINT)").ok());
  ASSERT_TRUE(system.ExecuteSql("INSERT INTO t VALUES (1), (2), (3), (4)").ok());
  auto ask = [&](const std::string& sql) {
    auto response = system.HandleProbe(ProbeBuilder("agent")
                                           .Query(sql)
                                           .Brief("verify the final numbers exactly")
                                           .Build());
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response->answers[0] : QueryAnswer();
  };
  EXPECT_FALSE(ask("SELECT sum(x) FROM t").from_memory);
  // This query's artifact evicts the first one's.
  EXPECT_FALSE(ask("SELECT count(*) FROM t").from_memory);
  ASSERT_EQ(system.memory()->size(), 1u);
  const uint64_t puts = system.memory()->stats().puts;
  QueryAnswer again = ask("SELECT sum(x) FROM t");
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_TRUE(again.from_memory);
  ASSERT_NE(again.result, nullptr);
  EXPECT_EQ(again.result->rows[0][0].int_value(), 10);
  EXPECT_EQ(system.memory()->stats().puts, puts);
}

TEST_F(MemoryStoreTest, ArtifactKindNames) {
  EXPECT_STREQ(ArtifactKindName(ArtifactKind::kProbeResult), "probe_result");
  EXPECT_STREQ(ArtifactKindName(ArtifactKind::kColumnEncoding), "column_encoding");
}

}  // namespace
}  // namespace agentfirst
