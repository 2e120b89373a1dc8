#include "core/probe.h"

namespace agentfirst {

const char* ProbePhaseName(ProbePhase phase) {
  switch (phase) {
    case ProbePhase::kUnspecified: return "unspecified";
    case ProbePhase::kMetadataExploration: return "metadata_exploration";
    case ProbePhase::kStatExploration: return "stat_exploration";
    case ProbePhase::kSolutionFormulation: return "solution_formulation";
    case ProbePhase::kValidation: return "validation";
  }
  return "?";
}

const char* HintKindName(HintKind kind) {
  switch (kind) {
    case HintKind::kRelatedTable: return "related_table";
    case HintKind::kJoinSuggestion: return "join_suggestion";
    case HintKind::kWhyEmptyResult: return "why_empty_result";
    case HintKind::kCostWarning: return "cost_warning";
    case HintKind::kBatchingSuggestion: return "batching_suggestion";
    case HintKind::kCachedAnswer: return "cached_answer";
    case HintKind::kEncodingNote: return "encoding_note";
    case HintKind::kSchemaGuidance: return "schema_guidance";
  }
  return "?";
}

std::string ProbeResponse::ToString(size_t max_rows_per_answer) const {
  std::string out = "probe " + std::to_string(probe_id) + " [phase " +
                    ProbePhaseName(interpreted_phase) + "]\n";
  for (size_t i = 0; i < answers.size(); ++i) {
    const QueryAnswer& a = answers[i];
    out += "-- query " + std::to_string(i) + ": " + a.sql + "\n";
    if (a.skipped) {
      out += "   skipped: " + a.skip_reason + "\n";
      continue;
    }
    if (!a.status.ok()) {
      out += "   error: " + a.status.ToString() + "\n";
      continue;
    }
    if (a.from_memory) out += "   [reused an earlier answer]\n";
    if (a.approximate) {
      out += "   [approximate, sample rate " + std::to_string(a.sample_rate) + "]\n";
    }
    if (a.result != nullptr) out += a.result->ToString(max_rows_per_answer);
  }
  if (!discoveries.empty()) {
    out += "-- semantic discoveries:\n";
    for (const SemanticMatch& m : discoveries) {
      out += "   ";
      switch (m.kind) {
        case SemanticMatch::Kind::kTable: out += "table " + m.table; break;
        case SemanticMatch::Kind::kColumn:
          out += "column " + m.table + "." + m.column;
          break;
        case SemanticMatch::Kind::kValue:
          out += "value '" + m.text + "' in " + m.table + "." + m.column;
          break;
      }
      out += " (score " + std::to_string(m.score) + ")\n";
    }
  }
  if (!hints.empty()) {
    out += "-- steering hints:\n";
    for (const Hint& h : hints) {
      out += std::string("   [") + HintKindName(h.kind) + "] " + h.text + "\n";
    }
  }
  if (!trace.empty()) {
    out += "-- trace:\n";
    out += trace.Render();
  }
  return out;
}

}  // namespace agentfirst
