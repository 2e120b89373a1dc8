#ifndef AGENTFIRST_PERFBENCH_WORKLOADS_H_
#define AGENTFIRST_PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "net/client.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The timed window. In a traced run the window is cut into four quarters;
/// the benchmark's recorder is on in the middle two only, so the same run
/// measures its own overhead and a linear drift in throughput (caches
/// filling) cancels out of the comparison.
struct Window {
  Clock::time_point epoch;
  Clock::time_point end;
  bool traced = false;

  bool Recording(Clock::time_point t) const {
    if (!traced) return false;
    auto quarter = (end - epoch) / 4;
    auto q = (t - epoch) / quarter;
    return q == 1 || q == 2;
  }
  double SinceEpochUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  }
};

/// What one session saw. Each session thread owns its log.
struct SessionLog {
  std::vector<double> probe_ms;  // client round trips, send to decoded reply
  std::vector<double> write_ms;
  /// Probes completed while the recorder was off / on (traced runs).
  uint64_t probes_unrecorded = 0;
  uint64_t probes_recorded = 0;
  uint64_t recorded_hints = 0;

  uint64_t probes = 0;
  uint64_t probe_failures = 0;  // transport or server errors
  uint64_t refused = 0;         // kResourceExhausted or circuit-breaker shed
  /// Probes with an answer that failed, was skipped or came back empty.
  uint64_t answer_failures = 0;
  uint64_t writes = 0;
  uint64_t write_failures = 0;
  uint64_t rows_acked = 0;
  uint64_t user_bytes = 0;  // bytes of the row values the writer inserted

  uint64_t episodes = 0;
  uint64_t solved = 0;

  /// Exact, untruncated answers, for verification after the window.
  std::vector<std::pair<std::string, agentfirst::ResultSetPtr>> answers;
  uint64_t unverifiable = 0;  // successful but approximate or truncated answers
  std::set<std::string> texts;  // distinct query texts of recorded probes
  /// Recorded probes with their responses (bounded), for codec timing.
  std::vector<std::pair<agentfirst::Probe, agentfirst::ProbeResponse>> kept;
};

/// One session: a connection, its driver thread's log, and the recorder.
class Session {
 public:
  Session(size_t index, agentfirst::net::Client* client, const Window* window,
          SessionLog* log, SpanRecorder* recorder)
      : index_(index),
        client_(client),
        window_(window),
        log_(log),
        recorder_(recorder) {}

  size_t index() const { return index_; }
  bool Open() const { return Clock::now() < window_->end; }

  /// Sends one probe and waits for the answer, timing the round trip and
  /// recording what verification and the per-layer metrics need. After the
  /// window closes it returns kCancelled without sending.
  agentfirst::Result<agentfirst::ProbeResponse> Probe(
      const agentfirst::Probe& probe);
  /// One writer statement; returns the affected row count.
  agentfirst::Result<int64_t> Write(const std::string& sql);

  SessionLog* log() { return log_; }

 private:
  uint64_t NextId() { return (static_cast<uint64_t>(index_) << 40) | ++calls_; }

  size_t index_;
  agentfirst::net::Client* client_;
  const Window* window_;
  SessionLog* log_;
  SpanRecorder* recorder_;  // null in untraced runs
  uint64_t calls_ = 0;
};

/// A workload: how to build the served system, warm it, and drive one
/// session of closed-loop load.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the data from the seed and builds the system exactly as the
  /// workload serves it. `data_dir` is a fresh directory for durable state.
  virtual std::unique_ptr<agentfirst::AgentFirstSystem> Build(
      const std::string& data_dir) = 0;

  /// True when every query the workload sends is valid and must be answered
  /// exactly and in full: then any failed, skipped, approximate or truncated
  /// answer, like any failed request, makes the run wrong. Otherwise (agents
  /// may send bad SQL) failures are counted but the run stays correct.
  virtual bool Exact() const { return true; }

  /// Sessions the workload runs with `max_sessions` available.
  virtual size_t NumSessions(size_t max_sessions) const {
    return max_sessions;
  }

  /// A few requests from one session before the window: caches and lazily
  /// built statistics fill here rather than inside the timed window.
  virtual void Warmup(Session* session) = 0;

  /// Closed loop: one request at a time until the window closes.
  virtual void Run(Session* session) = 0;

  /// Checks on the system's final state after the window; false = wrong.
  virtual bool CheckFinalState(agentfirst::AgentFirstSystem* /*db*/,
                               const std::vector<SessionLog>& /*logs*/,
                               std::string* /*why*/) {
    return true;
  }

  /// The table whose segments the traced run pins directly.
  virtual std::string FactTable() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // AGENTFIRST_PERFBENCH_WORKLOADS_H_
