#include "report/report.h"

#include <cctype>
#include <cstdio>
#include <functional>
#include <numeric>

#include "common/json.h"
#include "common/macros.h"
#include "obs/trace.h"

namespace fastod {

namespace {

// `value` through a printf format with one floating-point conversion.
std::string Printf(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string Quoted(const std::string& s) { return '"' + JsonEscape(s) + '"'; }

// ["x","y"]: one string per item, no spaces.
template <typename Range, typename ToString>
void AppendStringArray(std::string& out, const Range& items,
                       ToString to_string) {
  out += '[';
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += ',';
    first = false;
    out += Quoted(to_string(item));
  }
  out += ']';
}

// A top-level array member, one object per line:
//   ,\n  "key": [\n    {fields},\n    {fields}\n  ]
template <typename T, typename Fields>
void AppendObjectArray(std::string& out, const char* key,
                       const std::vector<T>& items, Fields fields) {
  out += ",\n  \"";
  out += key;
  out += "\": [\n";
  for (size_t i = 0; i < items.size(); ++i) {
    out += "    {";
    fields(items[i]);
    out += i + 1 < items.size() ? "},\n" : "}\n";
  }
  out += "  ]";
}

// The count a report states: `num` when the run counted more than it
// listed, else the list's size.
template <typename Od>
int64_t Found(int64_t num, const std::vector<Od>& listed) {
  return num > 0 ? num : static_cast<int64_t>(listed.size());
}

template <typename Od>
void AppendLines(std::string& out, const char* prefix,
                 const std::vector<Od>& ods, const Schema& schema) {
  for (const Od& od : ods) {
    out += prefix;
    out += od.ToString(schema);
    out += '\n';
  }
}

}  // namespace

std::string RenderJson(const Report& report,
                       const obs::TraceRecorder* trace) {
  FASTOD_CHECK(report.schema != nullptr);
  const Schema& schema = *report.schema;
  auto name = [&](int attr) -> const std::string& {
    return schema.name(attr);
  };
  std::string out = "{\n  \"algorithm\": \"";
  out += report.algorithm;
  out += "\",\n  \"relation\": {\"rows\": " + std::to_string(report.rows) +
         ", \"attributes\": ";
  std::vector<int> attributes(schema.NumAttributes());
  std::iota(attributes.begin(), attributes.end(), 0);
  AppendStringArray(out, attributes, name);
  out += "},\n  \"stats\": {\"seconds\": " + Printf("%.6f", report.seconds) +
         ", \"timed_out\": " + (report.timed_out ? "true" : "false") + "}";
  if (report.count_only) {
    using std::to_string;
    const std::string constancy =
        to_string(Found(report.num_constancy, report.constancy_ods));
    out += ",\n  \"counts\": {";
    if (report.kind == ReportKind::kFunctional) {
      out += "\"fds\": " + constancy;
    } else {
      FASTOD_CHECK(report.kind == ReportKind::kCanonical);
      out += "\"constancy_ods\": " + constancy +
             ", \"compatibility_ods\": " +
             to_string(Found(report.num_compatibility,
                             report.compatibility_ods)) +
             ", \"bidirectional_ods\": " +
             to_string(Found(report.num_bidirectional,
                             report.bidirectional_ods));
    }
    out += "}";
  }

  auto context = [&](AttributeSet set) {
    out += "\"context\": ";
    AppendStringArray(out, Members(set), name);
  };
  auto constancy = [&](const ConstancyOd& od) {
    context(od.context);
    out += ", \"attribute\": " + Quoted(name(od.attribute));
  };
  auto compatibility = [&](const auto& od) {
    context(od.context);
    out += ", \"a\": " + Quoted(name(od.a)) + ", \"b\": " + Quoted(name(od.b));
  };
  switch (report.kind) {
    case ReportKind::kCanonical:
      AppendObjectArray(out, "constancy_ods", report.constancy_ods,
                        constancy);
      AppendObjectArray(out, "compatibility_ods", report.compatibility_ods,
                        compatibility);
      AppendObjectArray(out, "bidirectional_ods", report.bidirectional_ods,
                        [&](const BidiCompatibilityOd& od) {
                          compatibility(od);
                          out += ", \"polarity\": \"opposite\"";
                        });
      break;
    case ReportKind::kFunctional:
      AppendObjectArray(out, "fds", report.constancy_ods,
                        [&](const ConstancyOd& fd) {
                          out += "\"lhs\": ";
                          AppendStringArray(out, Members(fd.context), name);
                          out += ", \"rhs\": " + Quoted(name(fd.attribute));
                        });
      break;
    case ReportKind::kList:
      AppendObjectArray(out, "ods", report.list_ods, [&](const ListOd& od) {
        out += "\"lhs\": ";
        AppendStringArray(out, od.lhs, name);
        out += ", \"rhs\": ";
        AppendStringArray(out, od.rhs, name);
      });
      break;
    case ReportKind::kConditional:
      AppendObjectArray(
          out, "conditional_ods", report.conditional_ods,
          [&](const ReportConditionalOd& c) {
            out += "\"condition\": " + Quoted(name(c.condition_attribute)) +
                   ", \"bindings\": ";
            AppendStringArray(out, c.bindings, std::identity());
            out += ", \"od\": " + Quoted(CanonicalOdToString(c.od, schema)) +
                   ", \"support\": " + Printf("%.6f", c.support);
          });
      break;
  }
  if (report.incremental) {
    const IncrementalSection& inc = *report.incremental;
    AppendObjectArray(out, "revoked_constancy_ods", inc.revoked_constancy,
                      constancy);
    AppendObjectArray(out, "revoked_compatibility_ods",
                      inc.revoked_compatibility, compatibility);
    using std::to_string;
    out += ",\n  \"incremental\": {\"base_rows\": " + to_string(inc.base_rows) +
           ", \"delta_rows\": " + to_string(report.rows - inc.base_rows) +
           ", \"revalidated\": " + to_string(inc.revalidated) +
           ", \"revoked\": " +
           to_string(inc.revoked_constancy.size() +
                     inc.revoked_compatibility.size()) +
           ", \"new_ods\": " + to_string(inc.new_ods) +
           ", \"escalations\": " + to_string(inc.escalations) +
           ", \"nodes_searched\": " + to_string(inc.nodes_searched) +
           ", \"cancelled\": " + (inc.cancelled ? "true" : "false") + "}";
  }
  out += '\n';
  if (trace != nullptr) {
    out += ",\"trace\":";
    out += trace->ToJson();
  }
  out += "}\n";
  return out;
}

std::string RenderText(const Report& report) {
  FASTOD_CHECK(report.schema != nullptr);
  const Schema& schema = *report.schema;
  using std::to_string;
  std::string out;
  if (report.kind == ReportKind::kConditional) {
    out = to_string(report.conditional_ods.size()) +
          " conditional OD(s) at support >= " +
          to_string(report.min_support) + "\n";
    for (const ReportConditionalOd& c : report.conditional_ods) {
      out += "  (" + schema.name(c.condition_attribute) + " in {";
      for (size_t i = 0; i < c.bindings.size(); ++i) {
        out += (i > 0 ? "," : "") + c.bindings[i];
      }
      out += "}) => " + CanonicalOdToString(c.od, schema) +
             "  [support " + Printf("%.0f", c.support * 100.0) + "%]\n";
    }
    return out;
  }

  const IncrementalSection* inc =
      report.incremental ? &*report.incremental : nullptr;
  const int64_t constancy = Found(report.num_constancy, report.constancy_ods);
  const int64_t compatibility =
      Found(report.num_compatibility, report.compatibility_ods);
  const int64_t bidirectional =
      Found(report.num_bidirectional, report.bidirectional_ods);
  const int64_t total = constancy + compatibility + bidirectional;
  for (char c : report.algorithm) {
    out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  out += ": ";
  if (report.kind == ReportKind::kFunctional) {
    out += to_string(constancy) + " minimal FDs";
  } else if (report.kind == ReportKind::kList) {
    out += to_string(report.list_ods.size()) + " list ODs";
  } else if (inc != nullptr) {
    out += to_string(total) + " ODs (" + to_string(total - inc->new_ods) +
           " surviving + " + to_string(inc->new_ods) + " new), " +
           to_string(inc->revoked_constancy.size() +
                     inc->revoked_compatibility.size()) +
           " revoked, " + to_string(inc->nodes_searched) +
           " lattice nodes re-searched";
  } else {
    out += to_string(total) + " ODs (" + to_string(constancy) +
           " constancy + " + to_string(compatibility) + " compatibility + " +
           to_string(bidirectional) + " bidirectional)";
  }
  out += " in " + Printf("%.3f", report.seconds) + "s" +
         (inc != nullptr && inc->cancelled ? " [CANCELLED]"
          : report.timed_out               ? " [TIMED OUT]"
                                           : "") +
         "\n";
  if (inc != nullptr) {
    AppendLines(out, "  revoked ", inc->revoked_constancy, schema);
    AppendLines(out, "  revoked ", inc->revoked_compatibility, schema);
  }
  if (report.kind == ReportKind::kFunctional) {
    for (const ConstancyOd& fd : report.constancy_ods) {
      out += "  " + fd.context.ToString(schema) + " -> " +
             schema.name(fd.attribute) + "\n";
    }
  } else {
    AppendLines(out, "  ", report.constancy_ods, schema);
  }
  AppendLines(out, "  ", report.compatibility_ods, schema);
  AppendLines(out, "  ", report.bidirectional_ods, schema);
  AppendLines(out, "  ", report.list_ods, schema);
  return out;
}

}  // namespace fastod
