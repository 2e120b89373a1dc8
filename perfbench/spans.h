#ifndef AGENTFIRST_PERFBENCH_SPANS_H_
#define AGENTFIRST_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

/// The benchmark's own span recorder (traced runs only). It records one span
/// around each client call, grafts the span tree the server returned beneath
/// it, and records spans around direct calls into layer entry points. Spans
/// stay in memory and are written out once, after the run.
namespace perfbench {

/// One client call: a probe round trip or a writer statement.
struct ClientSpan {
  uint64_t id = 0;  // unique within the run
  size_t session = 0;
  std::string name;  // "probe" or "write"
  double start_us = 0;  // since the run's epoch
  double duration_us = 0;
  /// The server's span tree for this probe (empty for writes).
  agentfirst::obs::TraceSpan server;
};

/// A direct, timed call into a layer entry point (parser, binder, wire
/// codec, segment pin).
struct LayerSpan {
  std::string name;
  double duration_us = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t sessions) : client_(sessions) {}

  /// Each session appends only to its own buffer, so recording takes no lock.
  void AddClient(ClientSpan span) {
    client_[span.session].push_back(std::move(span));
  }
  /// Main thread only.
  void AddLayer(std::string name, double duration_us) {
    layer_.push_back({std::move(name), duration_us});
  }

  const std::vector<std::vector<ClientSpan>>& client() const { return client_; }
  const std::vector<LayerSpan>& layer() const { return layer_; }

  /// Writes one JSON object per line: client spans (the first
  /// `max_client_spans` of each session, server tree nested under
  /// "server"), then every layer span. Returns false on an I/O error.
  bool WriteJsonl(const std::string& path, size_t max_client_spans) const;

 private:
  std::vector<std::vector<ClientSpan>> client_;
  std::vector<LayerSpan> layer_;
};

/// Self times summed over server span trees. A span's self time is its
/// duration minus the time its timed children cover. The executor records
/// operator spans flat under `exec` in post-order with inclusive durations;
/// the operator tree is rebuilt from that order (Scan has no inputs, joins
/// two, Union takes every pending subtree, the rest one; a cache hit has
/// none) so that each operator's self time excludes its inputs.
struct ServerTimes {
  size_t trees = 0;
  /// Non-operator spans, and those of them the program left untimed.
  size_t spans = 0;
  size_t untimed_spans = 0;
  /// Sum of the self times of every timed span: the server time the trace
  /// attributes to a stage.
  double attributed_us = 0;
  /// By span name with any "[i]" suffix dropped (interpret, admit, query,
  /// plan, exec, retry, degrade, finalize).
  std::map<std::string, double> self_us;
  std::map<std::string, size_t> count;
  /// By operator kind (Scan, Filter, HashJoin, ...).
  std::map<std::string, double> op_self_us;
  std::map<std::string, uint64_t> op_rows;
};

void AddServerTree(const agentfirst::obs::TraceSpan& root, ServerTimes* out);

/// JSON string literal (quotes included) for `s`.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // AGENTFIRST_PERFBENCH_SPANS_H_
