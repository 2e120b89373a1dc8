// The repo benchmark's driver: serves one AgentFirstSystem exactly as
// afserve ships it (default options, one event loop, no admission quotas)
// on loopback inside this process, drives it through net::Client sessions
// in a closed loop, checks every exact answer, and prints the workload's
// metrics by name and unit. run.py builds and runs it; see README.md.
//
//   perfbench_driver --workload fleet|analytic|paged_rw --seed N
//                    --seconds S --trace 0|1 [--work-dir DIR]
//                    [--spans-out FILE] [--invalid-probe 1]
//
// The last line of stdout is `PERFBENCH_RESULT {json}`. Exit status 1 means
// a wrong answer (on analytic and paged_rw also a failed request), 2 a usage
// or set-up error. --invalid-probe sends one probe with an invalid query
// before the window, so a test can show that a failed answer fails the run.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/brief_interpreter.h"
#include "core/probe_builder.h"
#include "core/system.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "opt/cost_model.h"
#include "opt/rules.h"
#include "plan/binder.h"
#include "spans.h"
#include "sql/parser.h"
#include "stats.h"
#include "workload/minibird.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace af = agentfirst;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool invalid_probe = false;
  std::string work_dir = ".bench_build/work";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--invalid-probe") {
      args->invalid_probe = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_seed && args->seconds > 0 &&
         !args->workload.empty();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Registry snapshot as name -> (count, sum); counters carry their value in
/// `count`, histograms their sample count and sum.
using Snapshot = std::map<std::string, std::pair<double, double>>;

Snapshot TakeSnapshot() {
  Snapshot out;
  for (const auto& s : af::obs::MetricsRegistry::Default().Snapshot()) {
    out[s.name] = {static_cast<double>(s.count), static_cast<double>(s.sum)};
  }
  return out;
}

/// Accumulated registry and optimizer deltas over some sub-windows.
struct Deltas {
  Snapshot registry;
  af::ProbeOptimizer::Metrics optimizer;

  void Add(const Snapshot& a, const Snapshot& b,
           const af::ProbeOptimizer::Metrics& ma,
           const af::ProbeOptimizer::Metrics& mb) {
    for (const auto& [name, value] : b) {
      auto it = a.find(name);
      double c0 = it == a.end() ? 0 : it->second.first;
      double s0 = it == a.end() ? 0 : it->second.second;
      registry[name].first += value.first - c0;
      registry[name].second += value.second - s0;
    }
    optimizer.queries_submitted += mb.queries_submitted - ma.queries_submitted;
    optimizer.queries_from_memory +=
        mb.queries_from_memory - ma.queries_from_memory;
    optimizer.queries_approximate +=
        mb.queries_approximate - ma.queries_approximate;
    optimizer.queries_skipped += mb.queries_skipped - ma.queries_skipped;
  }
  double Count(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second.first;
  }
  double Sum(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second.second;
  }
};

/// The system and its server, as one set-up built them.
struct Served {
  std::unique_ptr<af::AgentFirstSystem> db;
  std::unique_ptr<af::net::ProbeServer> server;
  std::string dir;
};

void Teardown(Served* served) {
  if (served->server != nullptr) served->server->Stop();
  served->server.reset();
  if (served->db != nullptr && served->db->durable()) {
    af::Status closed = served->db->CloseDurability();
    if (!closed.ok()) {
      std::fprintf(stderr, "perfbench: wal close: %s\n",
                   closed.ToString().c_str());
    }
  }
  served->db.reset();
  std::error_code ignored;
  fs::remove_all(served->dir, ignored);
}

std::unique_ptr<af::net::Client> Connect(uint16_t port, const std::string& name) {
  af::net::Client::Options options;
  options.client_name = name;
  auto client = af::net::Client::Connect("127.0.0.1", port, options);
  if (!client.ok()) {
    std::fprintf(stderr, "perfbench: connect: %s\n",
                 client.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*client);
}

struct Metric {
  double value = 0;
  std::string unit;
  size_t n = 0;  // sample count behind a timing; 0 when not a timing
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit, size_t n = 0) {
  if (!ValidMetricName(name)) {
    std::fprintf(stderr, "perfbench: invalid metric name %s\n", name.c_str());
    std::exit(2);
  }
  m->push_back({name, {value, unit, n}});
}

/// Re-runs each distinct SQL of the recorded exact answers through
/// ExecuteSql on the same system and compares every recorded answer with it.
/// Returns the number of recorded answers that did not match.
uint64_t VerifyAnswers(af::AgentFirstSystem* db,
                       const std::vector<SessionLog>& logs, size_t threads,
                       uint64_t* checked) {
  // SQL -> each distinct result object with the number of answers that
  // returned it (cache and memory hits share one object).
  using Answers = std::map<const af::ResultSet*, uint64_t>;
  std::map<std::string, Answers> by_sql;
  for (const SessionLog& log : logs) {
    for (const auto& [sql, result] : log.answers) ++by_sql[sql][result.get()];
  }
  std::vector<const std::pair<const std::string, Answers>*> work;
  for (const auto& entry : by_sql) work.push_back(&entry);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> wrong{0}, total{0};
  std::mutex print_mutex;
  auto verify = [&]() {
    for (size_t i = next++; i < work.size(); i = next++) {
      const auto& [sql, answers] = *work[i];
      auto expected = db->ExecuteSql(sql);
      for (const auto& [answer, count] : answers) {
        total += count;
        if (expected.ok() && af::ResultsEquivalent(*answer, **expected)) continue;
        if (wrong.fetch_add(count) < 5) {
          std::lock_guard<std::mutex> lock(print_mutex);
          std::fprintf(stderr, "perfbench: WRONG ANSWER for %s: %s\n",
                       sql.c_str(),
                       expected.ok() ? "differs from ExecuteSql"
                                     : expected.status().ToString().c_str());
        }
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(verify);
  }
  *checked = total;
  return wrong;
}

/// Direct timed calls into layer entry points, recorded as layer spans.
struct LayerTimes {
  double parse_us = 0, bind_us = 0, rewrite_cost_us = 0, interpret_us = 0;
  double encode_us = 0, decode_us = 0;
  LatencySummary pin;
};

LayerTimes TimeLayers(af::AgentFirstSystem* db, const std::vector<SessionLog>& logs,
                      const std::string& fact_table, SpanRecorder* recorder) {
  LayerTimes out;
  std::set<std::string> texts;
  for (const SessionLog& log : logs) texts.insert(log.texts.begin(), log.texts.end());
  constexpr size_t kMaxTexts = 2000;
  std::vector<double> parse, bind, rewrite;
  for (const std::string& sql : texts) {
    if (parse.size() >= kMaxTexts) break;
    auto start = Clock::now();
    auto select = af::ParseSelect(sql);
    parse.push_back(UsSince(start));
    recorder->AddLayer("sql.parse", parse.back());
    if (!select.ok()) continue;
    af::Binder binder(db->catalog());
    start = Clock::now();
    auto plan = binder.BindSelect(**select);
    bind.push_back(UsSince(start));
    recorder->AddLayer("plan.bind", bind.back());
    if (!plan.ok()) continue;
    start = Clock::now();
    af::PlanPtr optimized = af::OptimizePlan(*plan, db->catalog());
    (void)af::EstimatePlanCost(*optimized, db->catalog());
    rewrite.push_back(UsSince(start));
    recorder->AddLayer("opt.rewrite_cost", rewrite.back());
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  out.parse_us = mean(parse);
  out.bind_us = mean(bind);
  out.rewrite_cost_us = mean(rewrite);

  std::vector<double> interpret, encode, decode;
  af::BriefInterpreter interpreter;
  for (const SessionLog& log : logs) {
    for (const auto& [probe, response] : log.kept) {
      auto start = Clock::now();
      (void)interpreter.Interpret(probe.brief);
      interpret.push_back(UsSince(start));
      recorder->AddLayer("core.interpret", interpret.back());
      start = Clock::now();
      std::string frame =
          af::net::EncodeProbeResponseFrame(1, af::Status::OK(), &response);
      encode.push_back(UsSince(start));
      recorder->AddLayer("net.encode", encode.back());
      std::string_view payload(frame);
      payload.remove_prefix(af::net::kFrameHeaderBytes);
      start = Clock::now();
      auto decoded = af::net::DecodeProbeResponsePayload(payload);
      decode.push_back(UsSince(start));
      recorder->AddLayer("net.decode", decode.back());
      if (!decoded.ok()) std::fprintf(stderr, "perfbench: decode failed\n");
    }
  }
  out.interpret_us = mean(interpret);
  out.encode_us = mean(encode);
  out.decode_us = mean(decode);

  // Pins through the table's public accessor, every segment in order, until
  // there are enough samples for a p99.
  auto table = db->catalog()->GetTable(fact_table);
  std::vector<double> pins;
  if (table.ok() && (*table)->NumSegments() > 0) {
    while (pins.size() < 1000) {
      for (size_t i = 0; i < (*table)->NumSegments(); ++i) {
        auto start = Clock::now();
        auto pin = (*table)->PinSegment(i);
        pins.push_back(UsSince(start));
        recorder->AddLayer("storage.pin", pins.back());
      }
    }
  }
  out.pin = Summarize(pins);
  return out;
}

void Print(const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-28s %16.6f %-9s", name.c_str(), m.value, m.unit.c_str());
    if (m.n > 0) std::printf(" (n=%zu)", m.n);
    std::printf("\n");
  }
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t sessions = workload->NumSessions(std::min<size_t>(4, nproc));

  // Set-up, repeated so that setup_s is a median: data generation and load,
  // durability and storage where the workload has them, server start, until
  // a session's first request is answered.
  constexpr int kSetups = 15;
  std::vector<double> setup_s;
  Served served;
  std::unique_ptr<af::net::Client> first;
  for (int k = 0; k < kSetups; ++k) {
    served.dir = args.work_dir + "/" + args.workload + "-" +
                 std::to_string(::getpid()) + "-" + std::to_string(k);
    std::error_code ignored;
    fs::remove_all(served.dir, ignored);
    fs::create_directories(served.dir);
    auto start = Clock::now();
    served.db = workload->Build(served.dir);
    served.server = std::make_unique<af::net::ProbeServer>(
        served.db.get(), af::net::ProbeServer::Options());
    af::Status started = served.server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: start: %s\n", started.ToString().c_str());
      return 2;
    }
    first = Connect(served.server->port(), "perfbench-0");
    if (!first->Ping("ready").ok()) {
      std::fprintf(stderr, "perfbench: server did not answer\n");
      return 2;
    }
    setup_s.push_back(Seconds(start, Clock::now()));
    if (k + 1 < kSetups) {
      first.reset();
      Teardown(&served);
    }
  }
  const uint16_t port = served.server->port();
  const size_t indexes_before = served.db->catalog()->ListIndexes().size();

  // Warm-up from one session, outside the window.
  SessionLog warm_log;
  {
    Window forever{Clock::now(), Clock::now() + std::chrono::hours(1), false};
    Session warm(0, first.get(), &forever, &warm_log, nullptr);
    workload->Warmup(&warm);
    if (args.invalid_probe) {
      (void)warm.Probe(af::ProbeBuilder("perfbench-check")
                           .Query("SELECT no_such_column FROM no_such_table")
                           .Phase(af::ProbePhase::kValidation)
                           .Build());
    }
  }
  first.reset();

  std::vector<std::unique_ptr<af::net::Client>> clients;
  for (size_t s = 0; s < sessions; ++s) {
    clients.push_back(Connect(port, "perfbench-" + std::to_string(s)));
  }

  // The timed window. A traced run also snapshots when the recorder turns
  // on and off, for the deltas of the recorded half.
  std::vector<SessionLog> logs(sessions);
  SpanRecorder recorder(sessions);
  Window window;
  window.traced = args.trace;
  window.epoch = Clock::now();
  window.end = window.epoch + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(args.seconds));
  auto* optimizer = served.db->optimizer();
  const Snapshot snap_start = TakeSnapshot();
  const af::ProbeOptimizer::Metrics opt_start = optimizer->metrics();
  Deltas all, recorded;
  Clock::time_point joined;
  {
    std::vector<std::jthread> threads;
    for (size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        Session session(s, clients[s].get(), &window, &logs[s],
                        args.trace ? &recorder : nullptr);
        workload->Run(&session);
      });
    }
    if (args.trace) {
      const auto quarter = (window.end - window.epoch) / 4;
      std::this_thread::sleep_until(window.epoch + quarter);
      const Snapshot on = TakeSnapshot();
      const af::ProbeOptimizer::Metrics opt_on = optimizer->metrics();
      std::this_thread::sleep_until(window.epoch + quarter * 3);
      recorded.Add(on, TakeSnapshot(), opt_on, optimizer->metrics());
    }
    for (auto& t : threads) t.join();
    joined = Clock::now();
  }
  all.Add(snap_start, TakeSnapshot(), opt_start, optimizer->metrics());
  const double elapsed = Seconds(window.epoch, joined);

  // Verification and the final-state check.
  uint64_t checked = 0;
  uint64_t wrong = VerifyAnswers(served.db.get(), logs, sessions, &checked);
  std::string why;
  bool final_ok = workload->CheckFinalState(served.db.get(), logs, &why);
  if (!final_ok) std::fprintf(stderr, "perfbench: WRONG FINAL STATE: %s\n", why.c_str());

  SessionLog total;
  std::vector<double> probe_ms, write_ms;
  for (const SessionLog& log : logs) {
    probe_ms.insert(probe_ms.end(), log.probe_ms.begin(), log.probe_ms.end());
    write_ms.insert(write_ms.end(), log.write_ms.begin(), log.write_ms.end());
    total.probes += log.probes;
    total.probe_failures += log.probe_failures;
    total.refused += log.refused;
    total.answer_failures += log.answer_failures;
    total.writes += log.writes;
    total.write_failures += log.write_failures;
    total.user_bytes += log.user_bytes;
    total.episodes += log.episodes;
    total.solved += log.solved;
    total.unverifiable += log.unverifiable;
    total.probes_recorded += log.probes_recorded;
    total.probes_unrecorded += log.probes_unrecorded;
    total.recorded_hints += log.recorded_hints;
  }
  // Requests whose answers were not all successful and exact, in the window
  // and in the warm-up. On an exact workload every one of them is an error;
  // on fleet, agents send bad SQL and satisficing skips queries by design.
  const uint64_t attempted = total.probes + total.writes + warm_log.probes;
  uint64_t failed = total.probe_failures + total.refused + total.answer_failures +
                    total.write_failures + warm_log.probe_failures +
                    warm_log.refused + warm_log.answer_failures + wrong +
                    (final_ok ? 0 : 1);
  if (workload->Exact()) failed += total.unverifiable + warm_log.unverifiable;
  const bool correct = wrong == 0 && final_ok && (!workload->Exact() || failed == 0);

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  Metrics e2e;
  LatencySummary probes = Summarize(probe_ms);
  Put(&e2e, "setup_s", Median(setup_s), "s", setup_s.size());
  Put(&e2e, "probes_per_s", Ratio(static_cast<double>(total.probes), elapsed), "1/s");
  Put(&e2e, "probe_p50_ms", probes.p50, "ms", probes.n);
  Put(&e2e, "probe_p95_ms", probes.p95, "ms", probes.n);
  Put(&e2e, "probe_p99_ms", probes.p99, "ms", probes.n);
  Put(&e2e, "peak_rss_mb", peak_rss_mb, "MiB");
  Put(&e2e, "error_rate", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "fraction");
  // Write and episode metrics read 0 on workloads without a writer or agents.
  LatencySummary writes = Summarize(write_ms);
  Put(&e2e, "writes_per_s", Ratio(static_cast<double>(total.writes), elapsed), "1/s");
  Put(&e2e, "write_p50_ms", writes.p50, "ms", writes.n);
  Put(&e2e, "write_p99_ms", writes.p99, "ms", writes.n);
  Put(&e2e, "solve_rate",
      Ratio(static_cast<double>(total.solved), static_cast<double>(total.episodes)),
      "fraction");

  std::printf("perfbench %s seed=%llu sessions=%zu nproc=%zu window=%.3fs trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              sessions, nproc, elapsed, args.trace ? 1 : 0);
  std::printf("answers: %llu checked against ExecuteSql, %llu wrong, %llu "
              "approximate or truncated (not compared); %llu probes with a "
              "failed or skipped answer\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(total.unverifiable),
              static_cast<unsigned long long>(total.answer_failures +
                                              warm_log.answer_failures));
  for (const auto& [kind, summary] : {std::pair{"probe", probes}, {"write", writes}}) {
    if (summary.n > 0 && !summary.p99_supported) {
      std::printf("note: %s_p99_ms rests on %zu samples; fewer than ten lie "
                  "beyond it\n", kind, summary.n);
    }
  }
  std::printf("end-to-end:\n");
  Print(e2e);

  Metrics layer;
  if (args.trace) {
    ServerTimes server;
    for (const auto& session : recorder.client()) {
      for (const ClientSpan& span : session) AddServerTree(span.server, &server);
    }
    LayerTimes direct = TimeLayers(served.db.get(), logs,
                                   workload->FactTable(), &recorder);
    auto self = [&](const std::string& name) {
      auto it = server.self_us.find(name);
      auto n = server.count.find(name);
      return it == server.self_us.end() || n == server.count.end()
                 ? 0.0
                 : it->second / static_cast<double>(n->second);
    };
    auto op_self = [&](const std::string& kind) {
      auto it = server.op_self_us.find(kind);
      return it == server.op_self_us.end()
                 ? 0.0
                 : Ratio(it->second, static_cast<double>(server.count["exec"]));
    };
    const double rec_probes = static_cast<double>(total.probes_recorded);
    // Server time per probe from the server's own latency histogram (dispatch
    // to reply ready), over the same probes as the client's round trips.
    double all_rtt_us = 0;
    for (double ms : probe_ms) all_rtt_us += ms * 1000.0;
    const double rtt_us = Ratio(all_rtt_us, static_cast<double>(probe_ms.size()));
    const double server_us = Ratio(all.Sum("af.net.probe_latency_us"),
                                   all.Count("af.net.probe_latency_us"));
    const double attributed_us = Ratio(server.attributed_us, static_cast<double>(server.trees));
    const double half = args.seconds / 2;  // each of the two recorder states
    const double rate_off = static_cast<double>(total.probes_unrecorded) / half;
    const double rate_on = rec_probes / half;
    const double net_probes = recorded.Count("af.net.probes");
    const double submitted = static_cast<double>(recorded.optimizer.queries_submitted);

    Put(&layer, "net.client_gap_us", rtt_us - server_us, "us");
    Put(&layer, "net.encode_us", direct.encode_us, "us");
    Put(&layer, "net.decode_us", direct.decode_us, "us");
    Put(&layer, "net.bytes_per_probe", Ratio(recorded.Count("af.net.bytes_out"), net_probes),
        "bytes");
    Put(&layer, "net.backpressure_stalls", recorded.Count("af.net.backpressure_stalls"),
        "count");
    Put(&layer, "core.interpret_us", self("interpret"), "us");
    Put(&layer, "core.interpret_call_us", direct.interpret_us, "us");
    Put(&layer, "core.admit_us", self("admit"), "us");
    Put(&layer, "core.finalize_us", self("finalize"), "us");
    Put(&layer, "core.hints_per_probe",
        Ratio(static_cast<double>(total.recorded_hints), rec_probes), "count");
    Put(&layer, "core.shed",
        all.Count("af.admit.shed_overload") + all.Count("af.admit.shed_tenant_quota") +
            all.Count("af.probe.sheds"),
        "count");
    Put(&layer, "sql.parse_us", direct.parse_us, "us");
    Put(&layer, "plan.bind_us", direct.bind_us, "us");
    Put(&layer, "opt.plan_us", self("plan"), "us");
    Put(&layer, "opt.rewrite_cost_us", direct.rewrite_cost_us, "us");
    const double hits = recorded.Count("af.exec.cache.hits");
    Put(&layer, "opt.cache_hit_ratio",
        Ratio(hits, hits + recorded.Count("af.exec.cache.misses")), "fraction");
    const double ops_total = recorded.Count("af.mqo.operators_total");
    Put(&layer, "opt.shared_op_frac",
        ops_total == 0 ? 0.0 : 1.0 - recorded.Count("af.mqo.operators_distinct") / ops_total,
        "fraction");
    Put(&layer, "opt.approx_frac",
        Ratio(static_cast<double>(recorded.optimizer.queries_approximate), submitted),
        "fraction");
    Put(&layer, "opt.skipped_frac",
        Ratio(static_cast<double>(recorded.optimizer.queries_skipped), submitted),
        "fraction");
    Put(&layer, "memory.hit_frac",
        Ratio(static_cast<double>(recorded.optimizer.queries_from_memory), submitted),
        "fraction");
    Put(&layer, "memory.artifacts", static_cast<double>(served.db->memory()->size()),
        "count");
    Put(&layer, "catalog.auto_indexes",
        static_cast<double>(served.db->catalog()->ListIndexes().size() - indexes_before),
        "count");
    Put(&layer, "exec.self_us", self("exec"), "us");
    for (const char* kind : {"Scan", "Filter", "HashJoin", "Aggregate", "Sort"}) {
      Put(&layer, std::string("exec.op.") + kind + "_us", op_self(kind), "us");
    }
    Put(&layer, "exec.vec_plan_frac",
        Ratio(recorded.Count("af.exec.vec.plans"), recorded.Count("af.exec.plans")),
        "fraction");
    Put(&layer, "exec.scan_rows_per_s",
        Ratio(static_cast<double>(server.op_rows["Scan"]), server.op_self_us["Scan"] / 1e6),
        "1/s");
    const double faults = recorded.Count("af.storage.faults");
    Put(&layer, "storage.fault_ratio", Ratio(faults, recorded.Count("af.storage.pins")),
        "fraction");
    Put(&layer, "storage.faults_per_probe", Ratio(faults, net_probes), "count");
    Put(&layer, "storage.pin_p50_us", direct.pin.p50, "us", direct.pin.n);
    Put(&layer, "storage.pin_p99_us", direct.pin.p99, "us", direct.pin.n);
    Put(&layer, "storage.evictions_per_probe",
        Ratio(recorded.Count("af.storage.evictions"), net_probes), "count");
    Put(&layer, "storage.write_backs", recorded.Count("af.storage.write_backs"), "count");
    Put(&layer, "wal.bytes_per_user_byte",
        Ratio(all.Count("af.wal.bytes"), static_cast<double>(total.user_bytes)), "ratio");
    Put(&layer, "wal.records_per_probe",
        Ratio(recorded.Count("af.wal.records"), net_probes), "count");
    Put(&layer, "trace.overhead_pct", Ratio(rate_off - rate_on, rate_off) * 100.0, "%");
    Put(&layer, "trace.unattributed_frac", Ratio(server_us - attributed_us, rtt_us),
        "fraction");
    Put(&layer, "trace.untimed_span_frac",
        Ratio(static_cast<double>(server.untimed_spans), static_cast<double>(server.spans)),
        "fraction");

    std::printf("attribution (mean per probe): client wall %.1f us = client gap "
                "%.1f us + server %.1f us; server = timed spans %.1f us + "
                "untimed %.1f us\n",
                rtt_us, rtt_us - server_us, server_us, attributed_us,
                server_us - attributed_us);
    std::printf("per-layer:\n");
    Print(layer);
    if (!args.spans_out.empty() && !recorder.WriteJsonl(args.spans_out, 500)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }

  std::ostringstream json;
  json.precision(10);
  json << "{\"workload\":" << JsonString(args.workload) << ",\"seed\":" << args.seed
       << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"sessions\":" << sessions
       << ",\"nproc\":" << nproc << ",\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
  bool comma = false;
  for (const Metrics* set : {&e2e, &layer}) {
    for (const auto& [name, m] : *set) {
      json << (comma ? "," : "") << JsonString(name) << ":{\"value\":" << m.value
           << ",\"unit\":" << JsonString(m.unit);
      if (m.n > 0) json << ",\"n\":" << m.n;
      json << "}";
      comma = true;
    }
  }
  json << "}}";

  clients.clear();
  Teardown(&served);
  std::printf("PERFBENCH_RESULT %s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload fleet|analytic|paged_rw "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--spans-out FILE] [--invalid-probe 1]\n");
    return 2;
  }
  return perfbench::Run(args);
}
