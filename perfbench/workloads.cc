#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "agents/sim_agent.h"
#include "common/rng.h"
#include "core/probe_builder.h"
#include "workload/minibird.h"

namespace perfbench {

using agentfirst::AgentFirstSystem;
using agentfirst::DataType;
using agentfirst::Probe;
using agentfirst::ProbeBuilder;
using agentfirst::ProbePhase;
using agentfirst::ProbeResponse;
using agentfirst::QueryAnswer;
using agentfirst::Result;
using agentfirst::Rng;
using agentfirst::Row;
using agentfirst::Status;
using agentfirst::StatusCode;
using agentfirst::Value;

namespace {

/// Derives an independent seed for one use of the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  return Rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).Next();
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

void MustOk(const std::string& what, const Status& status) {
  if (!status.ok()) Die(what, status);
}

/// Creates `name` and appends `rows` in segment-sized batches, so a durable
/// system logs one record per batch rather than one per row.
void Load(AgentFirstSystem* db, const std::string& name,
          std::initializer_list<std::pair<const char*, DataType>> columns,
          const std::vector<Row>& rows) {
  agentfirst::Schema schema;
  for (const auto& [column, type] : columns) {
    schema.AddColumn(agentfirst::ColumnDef(column, type, true, name));
  }
  auto table = db->catalog()->CreateTable(name, schema);
  if (!table.ok()) Die("create " + name, table.status());
  constexpr size_t kBatch = 1024;
  for (size_t i = 0; i < rows.size(); i += kBatch) {
    std::vector<Row> batch(rows.begin() + i,
                           rows.begin() + std::min(rows.size(), i + kBatch));
    MustOk("load " + name, (*table)->AppendRows(batch));
  }
}

/// Answers that may be compared with a later re-execution: exact, complete,
/// successful.
bool Verifiable(const QueryAnswer& a) {
  return a.status.ok() && !a.skipped && !a.approximate && !a.truncated &&
         a.result != nullptr && !a.result->truncated;
}

// ---------------------------------------------------------------------------
// fleet: MiniBird agents over RemoteAgent-style sessions
// ---------------------------------------------------------------------------

/// The ProbeService an episode talks to: every probe goes through the
/// session, so it is timed, recorded, and cut off when the window closes.
class SessionService : public agentfirst::ProbeService {
 public:
  explicit SessionService(Session* session) : session_(session) {}
  Result<ProbeResponse> HandleProbe(const Probe& probe) override {
    return session_->Probe(probe);
  }
  Result<std::vector<ProbeResponse>> HandleProbeBatch(
      std::vector<Probe>) override {
    return Status::NotImplemented("perfbench: episodes send single probes");
  }
  Result<agentfirst::ResultSetPtr> ExecuteSql(const std::string&) override {
    return Status::NotImplemented("perfbench: episodes do not send SQL");
  }

 private:
  Session* session_;
};

class Fleet : public Workload {
 public:
  explicit Fleet(uint64_t seed) : seed_(seed) {}

  std::unique_ptr<AgentFirstSystem> Build(const std::string&) override {
    agentfirst::MiniBirdOptions options;
    options.num_databases = 1;  // the retail database
    // Scan cost is the row count; exploratory aggregates over the fact
    // table must cost more than the optimizer's 20000 AQP threshold.
    options.rows_per_fact_table = 60000;
    options.seed = seed_;
    auto dbs = agentfirst::GenerateMiniBird(options);
    tasks_ = std::move(dbs[0].tasks);
    return std::move(dbs[0].system);
  }

  /// Half the sessions available: a fleet probe is sub-millisecond and
  /// crosses four threads (client, event loop, pool worker, client reader),
  /// so with one session per CPU its tail measures the host's time slicing.
  /// Interleaved runs on 4 CPUs: p99 0.92-1.55 ms with four sessions,
  /// 0.49-0.65 ms with two.
  size_t NumSessions(size_t max_sessions) const override {
    return std::max<size_t>(1, max_sessions / 2);
  }

  /// One pass over every pair from one session before the window: adaptive
  /// indexing builds its indexes before sessions run concurrently, and each
  /// distinct query is executed once, so the window measures the fleet's
  /// steady state rather than how many first executions a seed happens to
  /// put into it.
  void Warmup(Session* session) override {
    SessionService service(session);
    for (size_t pair = 0; pair < kPairs; ++pair) RunPair(&service, pair);
  }

  /// Sessions walk the same seeded list of (task, profile, episode seed)
  /// pairs from different offsets, so several agents work every task at once.
  void Run(Session* session) override {
    SessionService service(session);
    size_t i = session->index() * (kPairs / 4 + 1);
    while (session->Open()) {
      bool solved = RunPair(&service, i++ % kPairs);
      if (!session->Open()) break;  // cut short by the window: not counted
      ++session->log()->episodes;
      if (solved) ++session->log()->solved;
    }
  }

  bool Exact() const override { return false; }
  std::string FactTable() const override { return "sales"; }

 private:
  static constexpr size_t kPairs = 128;

  /// Runs one episode; true when its committed answer matches gold.
  bool RunPair(SessionService* service, size_t pair) {
    agentfirst::EpisodeOptions options;
    options.seed = MixSeed(seed_, pair);
    const auto profile = (pair / tasks_.size()) % 2 == 0
                             ? agentfirst::StrongAgentProfile()
                             : agentfirst::WeakAgentProfile();
    return agentfirst::RunEpisode(service, tasks_[pair % tasks_.size()],
                                  profile, options)
        .solved;
  }

  uint64_t seed_;
  std::vector<agentfirst::TaskSpec> tasks_;
};

// ---------------------------------------------------------------------------
// analytic: exact validation probes over an in-memory fact table
// ---------------------------------------------------------------------------

constexpr const char* kRegions[] = {"north", "south", "east",  "west",
                                    "coast", "metro", "rural", "island"};
constexpr const char* kSegments[] = {"consumer", "smb", "enterprise",
                                     "public"};

/// Prices and amounts are whole numbers, so sums are exact in any order and
/// a re-execution on another code path must match digit for digit.
class Analytic : public Workload {
 public:
  explicit Analytic(uint64_t seed) : seed_(seed) {}

  std::unique_ptr<AgentFirstSystem> Build(const std::string&) override {
    auto db = std::make_unique<AgentFirstSystem>();
    Rng rng(MixSeed(seed_, 1));
    const size_t customers = 2000;
    const size_t orders = 20000;
    std::vector<Row> rows;
    rows.reserve(customers);
    for (size_t i = 0; i < customers; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::String(kSegments[rng.NextUint(4)]),
                      Value::String("country_" +
                                    std::to_string(rng.NextUint(20)))});
    }
    Load(db.get(), "customers",
         {{"cust_id", DataType::kInt64},
          {"segment", DataType::kString},
          {"country", DataType::kString}},
         rows);
    rows.clear();
    rows.reserve(orders);
    for (size_t i = 0; i < orders; ++i) {
      int64_t qty = rng.NextInt(1, 50);
      int64_t price = rng.NextInt(1, 500);
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(rng.NextZipf(customers, 0.6))),
                      Value::String(kRegions[rng.NextUint(8)]),
                      Value::Int(rng.NextInt(1, 365)), Value::Int(qty),
                      Value::Double(static_cast<double>(price)),
                      Value::Double(static_cast<double>(qty * price))});
    }
    Load(db.get(), "orders",
         {{"id", DataType::kInt64},
          {"cust", DataType::kInt64},
          {"region", DataType::kString},
          {"day", DataType::kInt64},
          {"qty", DataType::kInt64},
          {"price", DataType::kFloat64},
          {"amount", DataType::kFloat64}},
         rows);
    return db;
  }

  /// One session fewer than the CPUs available, at least one: every probe
  /// also wakes the server's event loop and a client reader thread, and with
  /// one busy session per CPU those preempt query work, so throughput tracks
  /// how much of the last CPU the host grants. In interleaved 50-second runs
  /// on 4 CPUs the quartile spread of probes_per_s was 0.09 of the median
  /// with three sessions and 0.15 with four.
  size_t NumSessions(size_t max_sessions) const override {
    return std::max<size_t>(1, max_sessions - 1);
  }

  void Warmup(Session* session) override {
    Rng rng(MixSeed(seed_, 0xfeed));
    for (int shape = 0; shape < 4; ++shape) {
      (void)session->Probe(ValidationProbe(session->index(), {Query(shape, &rng)}));
    }
  }

  /// Probes cycle through a fixed pattern of one to three queries covering
  /// every shape; only the literals come from the seed, so seeds differ in
  /// what they ask, not in how much work a probe mix holds.
  void Run(Session* session) override {
    static const std::vector<std::vector<int>> kPattern = {
        {0}, {1, 2}, {3, 0, 1}, {2}, {3, 1}, {0, 2, 3}};
    Rng rng(MixSeed(seed_, 100 + session->index()));
    for (size_t i = session->index(); session->Open(); ++i) {
      std::vector<std::string> queries;
      for (int shape : kPattern[i % kPattern.size()]) {
        queries.push_back(Query(shape, &rng));
      }
      (void)session->Probe(ValidationProbe(session->index(), std::move(queries)));
    }
  }

  std::string FactTable() const override { return "orders"; }

 private:
  static Probe ValidationProbe(size_t session, std::vector<std::string> queries) {
    return ProbeBuilder("analyst-" + std::to_string(session))
        .Queries(std::move(queries))
        .Brief("validating the final answer before reporting it")
        .Phase(ProbePhase::kValidation)
        .Build();
  }

  /// Range predicates only: equality predicates would make adaptive
  /// indexing build indexes mid-run, which this workload does not measure.
  static std::string Query(int shape, Rng* rng) {
    auto n = [&](int64_t lo, int64_t hi) {
      return std::to_string(rng->NextInt(lo, hi));
    };
    switch (shape) {
      case 0: {
        int64_t from = rng->NextInt(1, 300);
        return "SELECT count(*), sum(amount), avg(price) FROM orders WHERE day "
               "BETWEEN " + std::to_string(from) + " AND " +
               std::to_string(from + rng->NextInt(5, 60)) + " AND qty >= " +
               n(1, 40);
      }
      case 1:
        return "SELECT region, count(*), sum(amount) FROM orders WHERE price > " +
               n(1, 450) + " GROUP BY region ORDER BY region";
      case 2:
        return "SELECT c.segment, count(*), sum(o.amount) FROM orders o JOIN "
               "customers c ON o.cust = c.cust_id WHERE o.day < " + n(10, 365) +
               " AND o.qty > " + n(1, 45) +
               " GROUP BY c.segment ORDER BY c.segment";
      default:
        return "SELECT cust, sum(amount) AS total FROM orders WHERE day > " +
               n(1, 340) + " AND price < " + n(20, 500) +
               " GROUP BY cust ORDER BY total DESC, cust LIMIT 10";
    }
  }

  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// paged_rw: durable, paged server; full-scan readers plus one log writer
// ---------------------------------------------------------------------------

class PagedReadWrite : public Workload {
 public:
  explicit PagedReadWrite(uint64_t seed) : seed_(seed) {}

  /// Durability first (it recovers into an empty system), then the data,
  /// then paged storage with a budget of half the fact table's bytes, as
  /// afserve --data-dir --max-table-bytes serves a recovered database.
  /// Every mutation and memory artifact is still encoded and written to the
  /// WAL, but never fsync'd: on a shared virtual disk an fsync takes as long
  /// as the other tenants' I/O makes it, and every reader probe would wait
  /// for one.
  std::unique_ptr<AgentFirstSystem> Build(const std::string& data_dir) override {
    auto db = std::make_unique<AgentFirstSystem>();
    agentfirst::wal::DurabilityOptions durability;
    durability.data_dir = data_dir;
    durability.fsync = agentfirst::wal::FsyncPolicy::kNever;
    MustOk("enable durability", db->EnableDurability(durability));

    Rng rng(MixSeed(seed_, 2));
    const size_t readings = 16000;
    std::vector<Row> rows;
    rows.reserve(readings);
    for (size_t i = 0; i < readings; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(rng.NextInt(0, 499)),
                      Value::Int(rng.NextInt(1, 365)),
                      Value::Double(static_cast<double>(rng.NextInt(0, 10000))),
                      Value::String(kRegions[rng.NextUint(8)])});
    }
    Load(db.get(), "readings",
         {{"id", DataType::kInt64},
          {"sensor", DataType::kInt64},
          {"day", DataType::kInt64},
          {"value", DataType::kFloat64},
          {"site", DataType::kString}},
         rows);
    Load(db.get(), "events",
         {{"id", DataType::kInt64},
          {"writer", DataType::kInt64},
          {"kind", DataType::kString},
          {"payload", DataType::kFloat64}},
         {});
    MustOk("load barrier", db->DurabilityBarrier());

    auto fact = db->catalog()->GetTable("readings");
    if (!fact.ok()) Die("readings", fact.status());
    agentfirst::storage::StorageOptions paging;
    paging.dir = data_dir + "/pages";
    paging.max_table_bytes = std::max<uint64_t>(1, (*fact)->TotalBytes() / 2);
    MustOk("enable storage", db->EnableStorage(paging));
    return db;
  }

  /// One writer and the rest readers, at least one. Several readers also
  /// spread the probe path over several CPUs, so a run does not rest on the
  /// speed of the one CPU a single reader happens to run on.
  size_t NumSessions(size_t max_sessions) const override {
    return std::max<size_t>(2, max_sessions);
  }

  void Warmup(Session* session) override {
    Rng rng(MixSeed(seed_, 0xfeed));
    for (int shape = 0; shape < 2; ++shape) {
      (void)session->Probe(ReaderProbe(session->index(), shape, &rng));
    }
  }

  /// Session 0 writes; the others read. Readers cycle through a fixed
  /// pattern of the two shapes, two of one to one of the other, so seeds
  /// differ only in literals and the median round trip lies inside one
  /// shape's latencies rather than between the two.
  void Run(Session* session) override {
    if (session->index() == 0) {
      RunWriter(session);
      return;
    }
    static constexpr int kPattern[] = {0, 1, 0};
    Rng rng(MixSeed(seed_, 200 + session->index()));
    for (size_t i = 0; session->Open(); ++i) {
      (void)session->Probe(ReaderProbe(session->index(), kPattern[i % 3], &rng));
    }
  }

  bool CheckFinalState(AgentFirstSystem* db, const std::vector<SessionLog>& logs,
                       std::string* why) override {
    uint64_t acked = 0;
    for (const SessionLog& log : logs) acked += log.rows_acked;
    auto count = db->ExecuteSql("SELECT count(*) FROM events");
    if (!count.ok() || (*count)->rows.size() != 1) {
      *why = "count(*) on the log table failed";
      return false;
    }
    auto rows = static_cast<uint64_t>((*count)->rows[0][0].int_value());
    if (rows != acked) {
      *why = "log table holds " + std::to_string(rows) + " rows, writer had " +
             std::to_string(acked) + " acknowledged";
      return false;
    }
    return true;
  }

  std::string FactTable() const override { return "readings"; }

 private:
  static Probe ReaderProbe(size_t session, int shape, Rng* rng) {
    std::string sql;
    if (shape == 0) {
      int64_t from = rng->NextInt(1, 300);
      sql = "SELECT count(*), sum(value), min(value), max(value) FROM readings "
            "WHERE day BETWEEN " + std::to_string(from) + " AND " +
            std::to_string(from + rng->NextInt(5, 60));
    } else {
      sql = "SELECT site, count(*), sum(value) FROM readings WHERE value > " +
            std::to_string(rng->NextInt(0, 9000)) +
            " GROUP BY site ORDER BY site";
    }
    return ProbeBuilder("reader-" + std::to_string(session))
        .Query(std::move(sql))
        .Brief("validating the final answer before reporting it")
        .Phase(ProbePhase::kValidation)
        .Build();
  }

  /// Small INSERT batches into the log table, and every 100th statement an
  /// UPDATE of one acknowledged row, one statement per 20 ms slot (later
  /// when a reply is late). Steering recomputes the statistics of every
  /// table on every probe, so the readers scan the log table too: an
  /// unpaced writer grows it until reader probes take seconds, and a writer
  /// paced by its own latency makes reader cost depend on its speed.
  void RunWriter(Session* session) {
    constexpr auto kSlot = std::chrono::milliseconds(20);
    auto next = Clock::now();
    constexpr int kRowsPerInsert = 2;
    Rng rng(MixSeed(seed_, 300));
    SessionLog* log = session->log();
    int64_t next_id = 0;
    for (uint64_t stmt = 1; session->Open(); ++stmt) {
      if (stmt % 100 == 0 && next_id > 0) {
        (void)session->Write("UPDATE events SET kind = 'revised' WHERE id = " +
                             std::to_string(rng.NextInt(0, next_id - 1)));
        std::this_thread::sleep_until(next += kSlot);
        continue;
      }
      std::string sql = "INSERT INTO events VALUES ";
      uint64_t bytes = 0;
      for (int r = 0; r < kRowsPerInsert; ++r) {
        std::string kind = kRegions[rng.NextUint(8)];
        sql += (r == 0 ? "(" : ", (") + std::to_string(next_id + r) + ", " +
               std::to_string(session->index()) + ", '" + kind + "', " +
               std::to_string(rng.NextInt(0, 100000)) + ")";
        bytes += 8 + 8 + kind.size() + 8;
      }
      auto affected = session->Write(sql);
      if (affected.ok() && *affected == kRowsPerInsert) {
        next_id += kRowsPerInsert;
        log->rows_acked += kRowsPerInsert;
        log->user_bytes += bytes;
      }
      std::this_thread::sleep_until(next += kSlot);
    }
  }

  uint64_t seed_;
};

}  // namespace

Result<ProbeResponse> Session::Probe(const agentfirst::Probe& probe) {
  const Clock::time_point start = Clock::now();
  if (start >= window_->end) {
    return Status::Cancelled("perfbench: window closed");
  }
  Result<ProbeResponse> response = client_->HandleProbe(probe);
  const Clock::time_point done = Clock::now();
  const double ms = Ms(start, done);
  log_->probe_ms.push_back(ms);
  ++log_->probes;
  const bool recording = recorder_ != nullptr && window_->Recording(start);
  if (recording) {
    ++log_->probes_recorded;
  } else {
    ++log_->probes_unrecorded;
  }
  if (!response.ok()) {
    if (response.status().code() == StatusCode::kResourceExhausted) {
      ++log_->refused;
    } else {
      ++log_->probe_failures;
    }
    return response;
  }
  if (response->shed) ++log_->refused;
  bool answer_failed = false;
  for (const QueryAnswer& answer : response->answers) {
    if (Verifiable(answer)) {
      log_->answers.emplace_back(answer.sql, answer.result);
    } else if (!answer.status.ok() || answer.skipped || answer.result == nullptr) {
      answer_failed = true;
    } else {
      ++log_->unverifiable;
    }
  }
  if (answer_failed) ++log_->answer_failures;
  if (recording) {
    for (const std::string& sql : probe.queries) log_->texts.insert(sql);
    log_->recorded_hints += response->hints.size();
    constexpr size_t kKeptPerSession = 500;
    if (log_->kept.size() < kKeptPerSession) {
      log_->kept.emplace_back(probe, *response);
    }
    ClientSpan span;
    span.id = NextId();
    span.session = index_;
    span.name = "probe";
    span.start_us = window_->SinceEpochUs(start);
    span.duration_us = ms * 1000.0;
    // Callers never read the trace; the recorder takes it over.
    span.server = std::move(response->trace);
    recorder_->AddClient(std::move(span));
  }
  return response;
}

Result<int64_t> Session::Write(const std::string& sql) {
  const Clock::time_point start = Clock::now();
  auto result = client_->ExecuteSql(sql);
  const Clock::time_point done = Clock::now();
  log_->write_ms.push_back(Ms(start, done));
  ++log_->writes;
  if (recorder_ != nullptr && window_->Recording(start)) {
    ClientSpan span;
    span.id = NextId();
    span.session = index_;
    span.name = "write";
    span.start_us = window_->SinceEpochUs(start);
    span.duration_us = Ms(start, done) * 1000.0;
    recorder_->AddClient(std::move(span));
  }
  if (!result.ok() || *result == nullptr || (*result)->rows.size() != 1) {
    ++log_->write_failures;
    return result.ok() ? Status::Internal("perfbench: no affected count")
                       : result.status();
  }
  return (*result)->rows[0][0].int_value();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "fleet") return std::make_unique<Fleet>(seed);
  if (name == "analytic") return std::make_unique<Analytic>(seed);
  if (name == "paged_rw") return std::make_unique<PagedReadWrite>(seed);
  return nullptr;
}

}  // namespace perfbench
