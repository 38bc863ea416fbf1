// Shared helpers for the figure-reproduction benchmark harness.
//
// Every bench binary prints the rows of one paper figure at a reduced
// default scale (absolute numbers are not comparable to the paper's Java/
// Xeon setup; the *shapes* are the reproduction target — see
// EXPERIMENTS.md). Pass --scale=N to multiply the workload sizes.
//
// Every bench also accepts --json <path> (or --json=<path>): each
// measured cell is then additionally recorded as a machine-readable
// {"bench": ..., "params": ..., "seconds": ...} object, and the file is
// written as one JSON array when the bench exits — the format the
// BENCH_*.json perf-trajectory files are built from.
//
// The command line is checked before any work starts: --help prints the
// usage and exits 0, and a flag the bench does not know exits 2.
#ifndef FASTOD_BENCH_BENCH_UTIL_H_
#define FASTOD_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "common/cancellation.h"
#include "common/json.h"
#include "common/timer.h"
#include "data/encode.h"

namespace fastod::bench {

inline int ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      int s = std::atoi(argv[i] + 8);
      if (s >= 1) return s;
    }
  }
  return 1;
}

/// Scoped --json recorder: construct one at the top of main, call
/// RecordJson(params, seconds) at every measurement, and the destructor
/// writes the array. With no --json flag every call is a no-op.
///
/// Construction also checks the command line: --help prints the usage
/// and exits 0; an argument other than --scale=N, --json[=]PATH or one
/// of `extra_flags` prints the usage to stderr and exits 2. An extra
/// flag ending in '*' accepts every flag with that prefix.
class BenchJson {
 public:
  BenchJson(const char* bench_name, int argc, char** argv,
            std::initializer_list<const char*> extra_flags = {})
      : bench_(bench_name) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--json=", 7) == 0) {
        path_ = arg + 7;
      } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
        path_ = argv[++i];
      } else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0) {
        PrintUsage(stdout, bench_name, extra_flags);
        std::exit(0);
      } else if (std::strncmp(arg, "--scale=", 8) != 0 &&
                 !IsExtraFlag(arg, extra_flags)) {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", bench_name,
                     arg);
        PrintUsage(stderr, bench_name, extra_flags);
        std::exit(2);
      }
    }
    Active() = this;
  }

  ~BenchJson() {
    if (Active() == this) Active() = nullptr;
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu records to %s\n", records_.size(),
                path_.c_str());
  }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// `extra_fields`, when non-empty, is spliced verbatim into the record
  /// object after "seconds" — pre-rendered `"key": value` pairs for
  /// measurements beyond wall clock (bytes/row, rows/sec, ...).
  void Record(const std::string& params, double seconds,
              const std::string& extra_fields = "") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", seconds);
    std::string record = "  {\"bench\": \"" + JsonEscape(bench_) +
                         "\", \"params\": \"" + JsonEscape(params) +
                         "\", \"seconds\": " + buf;
    if (!extra_fields.empty()) record += ", " + extra_fields;
    records_.push_back(record + "}");
  }

  /// The instance the free RecordJson() helper reports to (one per bench
  /// process; benches are single-threaded drivers).
  static BenchJson*& Active() {
    static BenchJson* active = nullptr;
    return active;
  }

 private:
  static bool IsExtraFlag(const char* arg,
                          std::initializer_list<const char*> flags) {
    for (const char* flag : flags) {
      const size_t n = std::strlen(flag);
      const bool prefix = n > 0 && flag[n - 1] == '*';
      if (prefix ? std::strncmp(arg, flag, n - 1) == 0
                 : std::strcmp(arg, flag) == 0) {
        return true;
      }
    }
    return false;
  }

  static void PrintUsage(std::FILE* out, const char* bench_name,
                         std::initializer_list<const char*> flags) {
    std::fprintf(out, "usage: %s [--scale=N] [--json PATH]", bench_name);
    for (const char* flag : flags) std::fprintf(out, " [%s]", flag);
    std::fprintf(out,
                 "\n  --scale=N    multiply the workload sizes by N "
                 "(default 1)\n"
                 "  --json PATH  also write every measurement to PATH "
                 "as a JSON array\n"
                 "  --help       print this and exit\n");
  }

  std::string bench_;
  std::string path_;
  std::vector<std::string> records_;
};

/// Records into the active BenchJson, if any — lets deeply nested bench
/// helpers report without threading the recorder through.
inline void RecordJson(const std::string& params, double seconds,
                       const std::string& extra_fields = "") {
  if (BenchJson::Active() != nullptr) {
    BenchJson::Active()->Record(params, seconds, extra_fields);
  }
}

struct AlgoCell {
  double seconds = 0.0;
  bool timed_out = false;
  std::string counts;  // "total (fd + ocd)" or "-"

  std::string TimeString() const {
    char buf[48];
    if (timed_out) {
      std::snprintf(buf, sizeof(buf), "* %.2fs", seconds);
    } else {
      std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
    }
    return buf;
  }
};

/// Arms `control` to stop a run `timeout_seconds` from now (0 = never);
/// the engines flag such a run timed_out, printed as a '*' cell.
inline void ArmTimeout(ExecutionControl* control, double timeout_seconds) {
  using std::chrono::duration_cast;
  control->SetDeadlineAfter(duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(timeout_seconds)));
}

inline AlgoCell RunFastod(const EncodedRelation& rel,
                          FastodOptions options = FastodOptions(),
                          double timeout_seconds = 0.0) {
  ExecutionControl control;
  ArmTimeout(&control, timeout_seconds);
  options.control = &control;
  options.collect_level_stats = false;
  options.emit_ods = false;
  Fastod algo(options);
  WallTimer timer;
  FastodResult result = algo.Discover(rel);
  AlgoCell cell;
  cell.seconds = timer.ElapsedSeconds();
  cell.timed_out = result.timed_out;
  cell.counts = result.CountsToString();
  return cell;
}

inline AlgoCell RunTane(const EncodedRelation& rel, double timeout_seconds) {
  ExecutionControl control;
  ArmTimeout(&control, timeout_seconds);
  TaneOptions options;
  options.control = &control;
  Tane algo(options);
  WallTimer timer;
  TaneResult result = algo.Discover(rel);
  AlgoCell cell;
  cell.seconds = timer.ElapsedSeconds();
  cell.timed_out = result.timed_out;
  cell.counts = std::to_string(result.num_fds) + " FDs";
  return cell;
}

inline AlgoCell RunOrder(const EncodedRelation& rel, double timeout_seconds) {
  ExecutionControl control;
  ArmTimeout(&control, timeout_seconds);
  OrderOptions options;
  options.control = &control;
  OrderBaseline algo(options);
  WallTimer timer;
  OrderResult result = algo.Discover(rel);
  AlgoCell cell;
  cell.seconds = timer.ElapsedSeconds();
  cell.timed_out = result.timed_out;
  MappedCounts mapped = MapToCanonicalCounts(result.ods);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%lld list -> %lld (%lld + %lld)",
                static_cast<long long>(result.ods.size()),
                static_cast<long long>(mapped.Total()),
                static_cast<long long>(mapped.num_constancy),
                static_cast<long long>(mapped.num_compatibility));
  cell.counts = buf;
  return cell;
}

inline void PrintHeader(const char* title, const char* paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper reference: %s\n", paper_reference);
  std::printf("(reduced scale; pass --scale=N to grow; '*' = timeout hit)\n");
  std::printf("==============================================================\n");
}

}  // namespace fastod::bench

#endif  // FASTOD_BENCH_BENCH_UTIL_H_
