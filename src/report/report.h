// The one result model of every engine, and its two renderers.
//
// Every engine reports dependencies over one schema: the paper's
// canonical constancy ODs X: [] ↦ A and compatibility ODs X: A ~ B
// (fastod, approximate, brute-force, incremental), functional
// dependencies X → A (tane; an FD is the constancy OD X: [] ↦ A), list
// ODs (order) or conditional ODs (conditional). An engine adapter builds
// one Report (Algorithm::BuildReport), and RenderJson / RenderText are
// the only code that turns a Report into bytes — for the CLI, the
// service, the C ABI and the HTTP /result route alike.
//
// The JSON shape is stable so downstream tooling can rely on it. Every
// report starts with
//   {
//     "algorithm": "fastod",
//     "relation": {"rows": N, "attributes": [names...]},
//     "stats": {"seconds": S, "timed_out": b},
// then, only for a count-only run (emit-ods=false), the counts its empty
// arrays stand for, keyed by array name:
//     "counts": {"constancy_ods": n, "compatibility_ods": n,
//                "bidirectional_ods": n}        (kCanonical)
//     "counts": {"fds": n}                      (kFunctional)
// followed by the members of its kind (one array element shown each):
//   kCanonical
//     "constancy_ods": [{"context": ["a","b"], "attribute": "c"}],
//     "compatibility_ods": [{"context": [...], "a": "x", "b": "y"}],
//     "bidirectional_ods": [{"context": [...], "a": "x", "b": "y",
//                            "polarity": "opposite"}]
//   kCanonical with an incremental section, in addition
//     "revoked_constancy_ods": [...], "revoked_compatibility_ods": [...],
//     "incremental": {"base_rows", "delta_rows", "revalidated", "revoked",
//                     "new_ods", "escalations", "nodes_searched",
//                     "cancelled"}
//   kFunctional
//     "fds": [{"lhs": ["a"], "rhs": "c"}]
//   kList
//     "ods": [{"lhs": ["a","b"], "rhs": ["c"]}]
//   kConditional
//     "conditional_ods": [{"condition": "c", "bindings": [values...],
//                          "od": "<canonical OD text>", "support": f}]
// and, when RenderJson is given a trace, ,"trace":{...} (obs/trace.h) as
// the last member, immediately before the closing brace.
#ifndef FASTOD_REPORT_REPORT_H_
#define FASTOD_REPORT_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/schema.h"
#include "od/bidirectional.h"
#include "od/canonical_od.h"
#include "od/list_od.h"

namespace fastod {

namespace obs {
class TraceRecorder;
}  // namespace obs

enum class ReportKind {
  kCanonical,    // constancy + compatibility (+ bidirectional) ODs
  kFunctional,   // FDs, held as constancy ODs
  kList,         // list ODs
  kConditional,  // conditional ODs
};

/// A conditional OD with its condition's bindings resolved to values.
struct ReportConditionalOd {
  int condition_attribute = -1;
  std::vector<std::string> bindings;
  CanonicalOd od;
  double support = 0.0;
};

/// What an incremental run reports beyond the grown relation's ODs.
struct IncrementalSection {
  /// Rows of the prefix the prior ODs were discovered on.
  int64_t base_rows = 0;
  /// Prior ODs the appended rows broke.
  std::vector<ConstancyOd> revoked_constancy;
  std::vector<CompatibilityOd> revoked_compatibility;
  int64_t revalidated = 0;
  /// ODs found by the re-search (the rest of the ODs survived).
  int64_t new_ods = 0;
  int64_t escalations = 0;
  int64_t nodes_searched = 0;
  bool cancelled = false;
};

struct Report {
  ReportKind kind = ReportKind::kCanonical;
  std::string algorithm;
  int64_t rows = 0;
  const Schema* schema = nullptr;  // must outlive rendering
  double seconds = 0.0;
  bool timed_out = false;

  /// kCanonical ODs; kFunctional keeps its FDs in constancy_ods.
  std::vector<ConstancyOd> constancy_ods;
  std::vector<CompatibilityOd> compatibility_ods;
  std::vector<BidiCompatibilityOd> bidirectional_ods;
  /// How many of each a run found that counted more than it listed
  /// (emit-ods=false); 0 means as many as listed.
  int64_t num_constancy = 0;
  int64_t num_compatibility = 0;
  int64_t num_bidirectional = 0;
  /// The run counted without listing (emit-ods=false): the JSON gains a
  /// "counts" member. kCanonical and kFunctional only.
  bool count_only = false;

  std::vector<ListOd> list_ods;  // kList

  std::vector<ReportConditionalOd> conditional_ods;  // kConditional
  double min_support = 0.0;                          // kConditional

  std::optional<IncrementalSection> incremental;
};

/// The report in the stable JSON shape above; `trace`, when given, is
/// rendered as its last member.
std::string RenderJson(const Report& report,
                       const obs::TraceRecorder* trace = nullptr);

/// A summary line (count, wall clock, [TIMED OUT]) followed by one
/// dependency per line.
std::string RenderText(const Report& report);

}  // namespace fastod

#endif  // FASTOD_REPORT_REPORT_H_
