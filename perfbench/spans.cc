#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

using agentfirst::obs::TraceSpan;

namespace {

std::string BaseName(const std::string& name) {
  size_t bracket = name.find('[');
  return bracket == std::string::npos ? name : name.substr(0, bracket);
}

bool IsOp(const TraceSpan& span) { return span.name.rfind("op:", 0) == 0; }

std::string Note(const TraceSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.notes) {
    if (k == key) return v;
  }
  return "";
}

double DurationUs(const TraceSpan& span) {
  return span.duration_ms < 0 ? 0.0 : span.duration_ms * 1000.0;
}

/// Rebuilds the operator tree from the post-order op spans among
/// `children`, adds each operator's self time, and returns the inclusive
/// time of the tree roots (what the parent's self time excludes).
double AddOps(const std::vector<std::shared_ptr<TraceSpan>>& children,
              ServerTimes* out) {
  std::vector<double> pending;  // inclusive times of finished subtrees
  for (const auto& child : children) {
    if (!IsOp(*child)) continue;
    const std::string kind = child->name.substr(3);
    const bool cached = Note(*child, "cached") == "true";
    size_t inputs = 1;
    if (cached || kind == "Scan") {
      inputs = 0;
    } else if (kind == "HashJoin" || kind == "NestedLoopJoin") {
      inputs = 2;
    } else if (kind == "Union") {
      inputs = pending.size();
    }
    inputs = std::min(inputs, pending.size());
    double input_us = 0;
    for (size_t i = 0; i < inputs; ++i) {
      input_us += pending.back();
      pending.pop_back();
    }
    const double inclusive = DurationUs(*child);
    const double self = std::max(0.0, inclusive - input_us);
    out->op_self_us[kind] += self;
    std::string rows = Note(*child, "rows");
    if (!rows.empty()) out->op_rows[kind] += std::stoull(rows);
    out->attributed_us += self;
    pending.push_back(inclusive);
  }
  double roots = 0;
  for (double p : pending) roots += p;
  return roots;
}

void Walk(const TraceSpan& span, ServerTimes* out) {
  const std::string name = BaseName(span.name);
  ++out->spans;
  ++out->count[name];
  double covered = AddOps(span.children, out);
  for (const auto& child : span.children) {
    if (IsOp(*child)) continue;
    Walk(*child, out);
    covered += DurationUs(*child);
  }
  if (span.duration_ms < 0) {
    ++out->untimed_spans;
    return;
  }
  const double self = std::max(0.0, DurationUs(span) - covered);
  out->self_us[name] += self;
  out->attributed_us += self;
}

void WriteTree(const TraceSpan& span, std::ostream& os) {
  os << "{\"name\":" << JsonString(span.name) << ",\"ms\":" << span.duration_ms;
  std::string rows = Note(span, "rows");
  if (!rows.empty()) os << ",\"rows\":" << rows;
  if (!span.children.empty()) {
    os << ",\"children\":[";
    for (size_t i = 0; i < span.children.size(); ++i) {
      if (i > 0) os << ',';
      WriteTree(*span.children[i], os);
    }
    os << ']';
  }
  os << '}';
}

}  // namespace

void AddServerTree(const TraceSpan& root, ServerTimes* out) {
  if (root.empty()) return;
  ++out->trees;
  Walk(root, out);
}

bool SpanRecorder::WriteJsonl(const std::string& path,
                              size_t max_client_spans) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(9);
  for (const auto& session : client_) {
    size_t n = std::min(max_client_spans, session.size());
    for (size_t i = 0; i < n; ++i) {
      const ClientSpan& s = session[i];
      os << "{\"id\":" << s.id << ",\"session\":" << s.session
         << ",\"name\":" << JsonString(s.name) << ",\"start_us\":" << s.start_us
         << ",\"duration_us\":" << s.duration_us;
      if (!s.server.empty()) {
        os << ",\"server\":";
        WriteTree(s.server, os);
      }
      os << "}\n";
    }
  }
  for (const LayerSpan& s : layer_) {
    os << "{\"layer\":" << JsonString(s.name)
       << ",\"duration_us\":" << s.duration_us << "}\n";
  }
  return static_cast<bool>(os.flush());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
