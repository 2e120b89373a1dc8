// Paged-storage bench: what the buffer pool costs and what fitting in (or
// out of) memory does to scan throughput.
//
//   build/bench/bench_storage [--quick] [BENCH_parallel.json]
//
// Two measurements:
//   1. Scan throughput vs residency: the same analytic queries over the same
//      table at a pool budget of 100% / 50% / 10% of the table's bytes —
//      the resident-fraction curve EXPERIMENTS.md plots. At 100% the pool
//      never faults and the overhead vs an unpooled table is just pin
//      accounting; at 10% most of every scan is faulted in from the page
//      file.
//   2. Fault latency: per-Pin() wall time for pins that miss (segment must
//      be decoded from the page file), reported as p50/p99 — the latency an
//      agent's first query pays after its working set went cold — and split
//      by the store's fault ledger into mean read, CRC verify and decode
//      time per fault.
//
// --quick is the CI smoke mode (tools/check.sh): a small table, and the run
// asserts (exit 1) that 10%-residency answers are byte-identical to fully
// resident ones and that faults actually happened — the acceptance check
// that eviction is engaged and harmless.
//
// Results merge into BENCH_parallel.json (shared with bench_parallel_exec);
// each bench rewrites only its own section.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "io/file_util.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/segment.h"
#include "storage/table.h"

namespace agentfirst {
namespace {

constexpr size_t kRows = 400000;
constexpr size_t kQuickRows = 40000;
constexpr size_t kSegmentCapacity = 4096;
constexpr int kRepetitions = 3;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string BenchDir(const std::string& leaf) {
  std::string dir = "/tmp/agentfirst_bench_storage/" + leaf;
  (void)io::CreateDirectories(dir);
  (void)io::RemoveFile(dir + "/pages.af");
  return dir;
}

uint64_t FaultsNow() {
  return obs::MetricsRegistry::Default().GetCounter("af.storage.faults")->value();
}

/// One fault-ledger histogram (af.storage.fault_<stage>_us).
obs::Histogram* LedgerHistogram(const char* stage) {
  return obs::MetricsRegistry::Default().GetHistogram(
      std::string("af.storage.fault_") + stage + "_us");
}

/// Builds the fact table (deterministic) into `catalog`; segments are small
/// enough that the 10% budget holds dozens of them, not a fraction of one.
TablePtr BuildFact(Catalog* catalog, size_t rows) {
  Schema schema({ColumnDef("id", DataType::kInt64, false, "fact"),
                 ColumnDef("dim_id", DataType::kInt64, false, "fact"),
                 ColumnDef("v", DataType::kFloat64, false, "fact"),
                 ColumnDef("cat", DataType::kString, false, "fact")});
  auto table = std::make_shared<Table>("fact", schema, kSegmentCapacity);
  if (!catalog->RegisterTable(table).ok()) return nullptr;
  Rng rng(20260807);
  for (size_t i = 0; i < rows; ++i) {
    (void)table->AppendRow(
        {Value::Int(static_cast<int64_t>(i)),
         Value::Int(static_cast<int64_t>(rng.NextUint(1000))),
         Value::Double(rng.NextDouble() * 100),
         Value::String("cat" + std::to_string(i % 16))});
  }
  return table;
}

const char* kQueries[] = {
    "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact",
    "SELECT cat, COUNT(*), SUM(v) FROM fact GROUP BY cat ORDER BY cat",
    "SELECT COUNT(*) FROM fact WHERE dim_id < 100 AND v > 50.0",
};

struct ResidencyResult {
  double residency = 1.0;      // budget as a fraction of table bytes
  uint64_t budget_bytes = 0;   // 0 = unlimited
  double seconds = 0.0;        // best-of-k for the whole query set
  uint64_t faults = 0;         // page faults during the measured pass
  size_t rows = 0;
  std::string digest;          // concatenated result text (identity check)
  double RowsPerSec() const {
    // Each pass scans the table once per query.
    return rows * (sizeof(kQueries) / sizeof(kQueries[0])) / seconds;
  }
};

ResidencyResult MeasureResidency(double residency, size_t rows) {
  Catalog catalog;
  TablePtr fact = BuildFact(&catalog, rows);
  if (fact == nullptr) return {};
  ResidencyResult out;
  out.residency = residency;
  out.rows = rows;
  storage::StorageOptions opts;
  opts.dir = BenchDir("res_" + std::to_string(static_cast<int>(residency * 100)));
  if (residency < 1.0) {
    out.budget_bytes =
        static_cast<uint64_t>(fact->TotalBytes() * residency);
    opts.max_table_bytes = out.budget_bytes;
  }
  auto pool = storage::BufferPool::Open(opts);
  if (!pool.ok()) {
    std::fprintf(stderr, "pool open failed: %s\n",
                 pool.status().ToString().c_str());
    return {};
  }
  catalog.SetBufferPool(pool->get());

  Engine engine(&catalog);
  ExecOptions eo;
  out.seconds = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    uint64_t faults_before = FaultsNow();
    std::string digest;
    auto t0 = std::chrono::steady_clock::now();
    for (const char* q : kQueries) {
      auto r = engine.ExecuteSql(q, eo);
      if (!r.ok()) {
        std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
        return {};
      }
      digest += (*r)->ToString(1000000);
    }
    double secs = Seconds(t0, std::chrono::steady_clock::now());
    if (secs < out.seconds) {
      out.seconds = secs;
      out.faults = FaultsNow() - faults_before;
    }
    out.digest = digest;
  }
  return out;
}

constexpr const char* kLedgerStages[] = {"read", "verify", "decode"};
constexpr size_t kNumStages = std::size(kLedgerStages);

struct FaultLatency {
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t samples = 0;
  double stage_us[kNumStages] = {};  // mean per fault, kLedgerStages order
};

/// Sequentially sweeps a frame set much larger than the budget, so almost
/// every pin is a miss; times only the pins that actually faulted.
FaultLatency MeasureFaultLatency(size_t rows) {
  Schema schema({ColumnDef("id", DataType::kInt64, false, "t"),
                 ColumnDef("payload", DataType::kString, true, "t")});
  storage::StorageOptions opts;
  opts.dir = BenchDir("faults");
  opts.max_table_bytes = 1;  // everything unpinned is evicted: max churn
  auto pool = storage::BufferPool::Open(opts);
  if (!pool.ok()) return {};
  const size_t nframes = std::max<size_t>(16, rows / kSegmentCapacity);
  std::vector<uint64_t> frames;
  for (size_t f = 0; f < nframes; ++f) {
    auto seg = std::make_shared<Segment>(schema, kSegmentCapacity);
    for (size_t r = 0; r < kSegmentCapacity; ++r) {
      (void)seg->AppendRow(
          {Value::Int(static_cast<int64_t>(f * kSegmentCapacity + r)),
           Value::String("payload-" + std::to_string(r % 101))});
    }
    frames.push_back((*pool)->Register(std::move(seg)));
  }
  uint64_t ledger_sum[kNumStages] = {};
  uint64_t ledger_count[kNumStages] = {};
  for (size_t i = 0; i < kNumStages; ++i) {
    ledger_sum[i] = LedgerHistogram(kLedgerStages[i])->sum();
    ledger_count[i] = LedgerHistogram(kLedgerStages[i])->count();
  }
  std::vector<double> lat_us;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t frame : frames) {
      bool miss = !(*pool)->FrameResident(frame);
      auto t0 = std::chrono::steady_clock::now();
      auto pin = (*pool)->Pin(frame);
      double us = Seconds(t0, std::chrono::steady_clock::now()) * 1e6;
      if (!pin.ok()) return {};
      if (miss) lat_us.push_back(us);
    }
  }
  if (lat_us.empty()) return {};
  std::sort(lat_us.begin(), lat_us.end());
  FaultLatency out;
  out.samples = lat_us.size();
  out.p50_us = lat_us[lat_us.size() / 2];
  out.p99_us = lat_us[std::min(lat_us.size() - 1, lat_us.size() * 99 / 100)];
  for (size_t i = 0; i < kNumStages; ++i) {
    const obs::Histogram* h = LedgerHistogram(kLedgerStages[i]);
    const uint64_t n = h->count() - ledger_count[i];
    if (n > 0) out.stage_us[i] = static_cast<double>(h->sum() - ledger_sum[i]) / n;
  }
  for (uint64_t f : frames) (*pool)->Unregister(f);
  return out;
}

int Run(bool quick, const char* json_path) {
  const size_t rows = quick ? kQuickRows : kRows;
  std::printf("bench_storage: %zu rows, segment capacity %zu%s\n\n", rows,
              kSegmentCapacity, quick ? " (quick)" : "");

  const double residencies[] = {1.0, 0.5, 0.1};
  std::vector<ResidencyResult> results;
  for (double res : residencies) {
    results.push_back(MeasureResidency(res, rows));
    if (results.back().rows == 0) return 1;
  }

  FaultLatency faults = MeasureFaultLatency(rows);
  if (faults.samples == 0) {
    std::fprintf(stderr, "fault latency measurement produced no samples\n");
    return 1;
  }

  std::vector<std::vector<std::string>> table_rows;
  for (const ResidencyResult& r : results) {
    table_rows.push_back({bench::Pct(r.residency), std::to_string(r.budget_bytes),
                          bench::Num(r.seconds * 1e3, 1),
                          bench::Num(r.RowsPerSec() / 1e6, 2),
                          std::to_string(r.faults)});
  }
  std::printf("Scan throughput vs residency (best of %d):\n", kRepetitions);
  bench::PrintTable({"residency", "budget_bytes", "ms", "Mrows/s", "faults"},
                    table_rows);
  std::printf("\nFault latency (page-file miss -> decoded segment):\n");
  std::printf("  p50 %.1f us   p99 %.1f us   (%zu faults)\n", faults.p50_us,
              faults.p99_us, faults.samples);
  std::printf("  mean per fault: read %.1f us, verify %.1f us, decode %.1f us\n\n",
              faults.stage_us[0], faults.stage_us[1], faults.stage_us[2]);

  // The acceptance gate: starved residency changes nothing but speed.
  if (results[2].digest != results[0].digest) {
    std::fprintf(stderr,
                 "FAIL: 10%%-residency results differ from fully resident\n");
    return 1;
  }
  if (results[2].faults == 0) {
    std::fprintf(stderr, "FAIL: 10%% residency run never faulted\n");
    return 1;
  }
  std::printf("10%% residency byte-identical to 100%% (with %llu faults)\n",
              static_cast<unsigned long long>(results[2].faults));

  if (json_path != nullptr) {
    std::ostringstream out;
    out << "{\n  \"bench\": \"bench_storage\",\n";
    out << "  \"rows\": " << rows
        << ",\n  \"segment_capacity\": " << kSegmentCapacity
        << ",\n  \"quick\": " << (quick ? "true" : "false") << ",\n";
    out << "  \"residency_curve\": [";
    for (size_t i = 0; i < results.size(); ++i) {
      const ResidencyResult& r = results[i];
      out << (i ? ", " : "") << "{\"residency\": " << bench::Num(r.residency, 2)
          << ", \"budget_bytes\": " << r.budget_bytes
          << ", \"seconds\": " << bench::Num(r.seconds, 4)
          << ", \"rows_per_sec\": " << bench::Num(r.RowsPerSec(), 0)
          << ", \"faults\": " << r.faults << "}";
    }
    out << "],\n";
    out << "  \"fault_latency_us\": {\"p50\": " << bench::Num(faults.p50_us, 1)
        << ", \"p99\": " << bench::Num(faults.p99_us, 1)
        << ", \"samples\": " << faults.samples << "},\n";
    out << "  \"fault_split_us\": {";
    for (size_t i = 0; i < kNumStages; ++i) {
      out << (i ? ", " : "") << "\"" << kLedgerStages[i]
          << "\": " << bench::Num(faults.stage_us[i], 1);
    }
    out << "}\n}";
    if (!bench::UpdateBenchJson(json_path, "bench_storage", out.str())) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace agentfirst

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      json_path = argv[i];
    }
  }
  return agentfirst::Run(quick, json_path);
}
