// odbench_probe — the in-process half of the end-to-end benchmark.
//
//   odbench_probe gen <flight|hepatitis> <rows> <attrs> <seed> <out.csv>
//       Writes a generated relation (src/gen/) as CSV with a header row.
//   odbench_probe ref <file.csv> <threads> [<order.ndjson>]
//       Prints fastod's result report JSON for the file: the reference
//       the benchmark checks server output against. With <order.ndjson>,
//       also writes every OD in emission order, one JSON line each, with
//       the fields of the server's /stream lines.
//   odbench_probe trace <base.csv> <delta.csv> <body.json> <threads> <reps>
//       The traced per-layer pass: calls each layer's public entry points
//       on the workload's inputs, `reps` times, and prints one JSON object
//       with every span (name, parent, start, end in seconds) plus the
//       layers' work counts. <delta.csv> is headerless rows appended to
//       the base; <body.json> is the exact POST body the client sends.
//
// Spans are recorded here, around the calls into the library, so the
// library itself runs unmodified.
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/algorithm.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "partition/stripped_partition.h"
#include "service/discovery_service.h"

namespace {

using fastod::Status;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "odbench_probe: %s\n", message.c_str());
  std::exit(1);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Take(fastod::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int ParseInt(const std::string& text, const char* what) {
  char* end = nullptr;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 0 || value > 1 << 30) {
    Die(std::string("bad ") + what + ": " + text);
  }
  return static_cast<int>(value);
}

uint64_t ParseSeed(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno != 0 || text[0] == '-') {
    Die("bad seed: " + text);
  }
  return static_cast<uint64_t>(value);
}

std::unique_ptr<fastod::Algorithm> MakeFastod(int threads) {
  auto algo = Take(fastod::AlgorithmRegistry::Default().Create("fastod"),
                   "create fastod");
  Check(algo->SetOption("threads", std::to_string(threads)), "threads");
  return algo;
}

int Gen(const std::vector<std::string>& args) {
  if (args.size() != 5) Die("gen expects <kind> <rows> <attrs> <seed> <out>");
  int rows = ParseInt(args[1], "rows");
  int attrs = ParseInt(args[2], "attrs");
  uint64_t seed = ParseSeed(args[3]);
  fastod::Table table;
  if (args[0] == "flight") {
    table = fastod::GenFlightLike(rows, attrs, seed);
  } else if (args[0] == "hepatitis") {
    table = fastod::GenHepatitisLike(rows, attrs, seed);
  } else {
    Die("unknown generator " + args[0]);
  }
  Check(fastod::WriteCsvFile(table, args[4]), "write csv");
  return 0;
}

// Records ODs in emission order as /stream-shaped JSON lines.
class OrderSink : public fastod::OdSink {
 public:
  explicit OrderSink(const fastod::Algorithm* algo) : algo_(algo) {}

  void OnConstancy(const fastod::ConstancyOd& od) override {
    fastod::JsonWriter w;
    w.BeginObject().Key("type").String("constancy").Key("context");
    Context(&w, od.context);
    w.Key("attribute").String(algo_->schema()->name(od.attribute));
    lines_ += w.EndObject().str() + "\n";
  }

  void OnCompatibility(const fastod::CompatibilityOd& od) override {
    fastod::JsonWriter w;
    w.BeginObject().Key("type").String("compatibility").Key("context");
    Context(&w, od.context);
    w.Key("a").String(algo_->schema()->name(od.a));
    w.Key("b").String(algo_->schema()->name(od.b));
    lines_ += w.EndObject().str() + "\n";
  }

  const std::string& lines() const { return lines_; }

 private:
  void Context(fastod::JsonWriter* w, fastod::AttributeSet context) const {
    w->BeginArray();
    for (int a = context.First(); a >= 0; a = context.Next(a)) {
      w->String(algo_->schema()->name(a));
    }
    w->EndArray();
  }

  const fastod::Algorithm* algo_;
  std::string lines_;
};

int Ref(const std::vector<std::string>& args) {
  if (args.size() != 2 && args.size() != 3) {
    Die("ref expects <file.csv> <threads> [<order.ndjson>]");
  }
  auto table = Take(fastod::ReadCsvFile(args[0]), "read csv");
  auto algo = MakeFastod(ParseInt(args[1], "threads"));
  Check(algo->LoadData(std::move(table)), "load");
  OrderSink order(algo.get());
  if (args.size() == 3) algo->SetSink(&order);
  Check(algo->Execute(), "execute");
  std::fputs(algo->ResultJson().c_str(), stdout);
  if (args.size() == 3) {
    std::ofstream out(args[2], std::ios::binary);
    out << order.lines();
    if (!out) Die("cannot write " + args[2]);
  }
  return 0;
}

// ---------------------------------------------------------------- trace

class Spans {
 public:
  Spans() : epoch_(std::chrono::steady_clock::now()) {}

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Records a finished span and returns its id (parent = -1: a root).
  int Add(int rep, const std::string& name, double start, double end,
          int parent = -1) {
    spans_.push_back({rep, name, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Times `fn` as span `name`.
  template <typename Fn>
  int Time(int rep, const std::string& name, Fn&& fn) {
    double start = Now();
    fn();
    return Add(rep, name, start, Now());
  }

  void Write(fastod::JsonWriter* w) const {
    w->BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w->BeginObject()
          .Key("id").Int(static_cast<int64_t>(i))
          .Key("rep").Int(s.rep)
          .Key("name").String(s.name)
          .Key("parent").Int(s.parent)
          .Key("start").Double(s.start)
          .Key("end").Double(s.end)
          .EndObject();
    }
    w->EndArray();
  }

 private:
  struct Span {
    int rep;
    std::string name;
    int parent;
    double start;
    double end;
  };
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

int64_t JsonInt(const fastod::JsonValue& object, const char* key) {
  const fastod::JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    Die(std::string("report lacks numeric \"") + key + "\"");
  }
  return static_cast<int64_t>(value->number_value());
}

int Trace(const std::vector<std::string>& args) {
  if (args.size() != 5) {
    Die("trace expects <base.csv> <delta.csv> <body.json> <threads> <reps>");
  }
  const std::string csv = ReadFile(args[0]);
  const std::string delta_csv = ReadFile(args[1]);
  const std::string body = ReadFile(args[2]);
  const int threads = ParseInt(args[3], "threads");
  const int reps = ParseInt(args[4], "reps");
  fastod::CsvOptions delta_options;
  delta_options.has_header = false;

  Spans spans;
  fastod::JsonWriter counts;
  std::string levels_json = "[]";
  counts.BeginObject();
  for (int rep = 0; rep < reps; ++rep) {
    const bool last = rep + 1 == reps;

    // data: parse -> encode -> level-1 partitions, each on its own.
    fastod::Table table;
    spans.Time(rep, "data.csv_parse", [&] {
      table = Take(fastod::ReadCsvString(csv), "parse");
    });
    fastod::EncodedRelation relation;
    spans.Time(rep, "data.encode", [&] {
      relation = Take(fastod::EncodedRelation::FromTable(table), "encode");
    });
    std::vector<fastod::StrippedPartition> singles;
    spans.Time(rep, "data.l1_partitions", [&] {
      for (int a = 0; a < relation.NumAttributes(); ++a) {
        singles.push_back(
            fastod::StrippedPartition::ForAttribute(relation.codes(a)));
      }
    });
    const int64_t rows = relation.NumRows();
    singles.clear();
    relation = fastod::EncodedRelation();
    // The resident form engines bind (encode + partitions again); timed
    // only so the rep's wall clock is accounted for.
    std::shared_ptr<const fastod::LoadedDataset> dataset;
    spans.Time(rep, "bench.dataset_build", [&] {
      dataset = Take(fastod::LoadedDataset::Build("bench", std::move(table)),
                     "build dataset");
    });

    // server: the request-body parse the HTTP handler performs first.
    spans.Time(rep, "server.body_parse", [&] {
      Take(fastod::ParseJson(body), "parse body");
    });

    // algo + report.
    auto algo = MakeFastod(threads);
    Check(algo->BindDataset(dataset), "bind");
    spans.Time(rep, "algo.execute", [&] { Check(algo->Execute(), "execute"); });
    std::string report;
    spans.Time(rep, "report.render", [&] { report = algo->ResultJson(); });

    // data: append the delta; incremental: re-validate over it.
    fastod::Table delta;
    spans.Time(rep, "bench.delta_parse", [&] {
      delta = Take(fastod::ReadCsvString(delta_csv, delta_options),
                   "parse delta");
    });
    std::shared_ptr<const fastod::LoadedDataset> grown;
    spans.Time(rep, "data.append", [&] {
      grown = Take(fastod::LoadedDataset::Append(dataset, std::move(delta)),
                   "append");
    });
    auto incremental = Take(
        fastod::AlgorithmRegistry::Default().Create("incremental"),
        "create incremental");
    Check(incremental->SetOption("prior", report), "prior");
    Check(incremental->BindDataset(grown), "bind grown");
    spans.Time(rep, "incremental.execute",
               [&] { Check(incremental->Execute(), "incremental"); });

    // service: one session through DiscoveryService on the same dataset;
    // queue = Submit until Poll reports running.
    int64_t service_execute_ns = 0;
    {
      fastod::DatasetStore store;
      fastod::DiscoveryService service(1, nullptr, &store);
      fastod::SessionId id = Take(service.Create("fastod"), "session");
      Check(service.SetOption(id, "threads", std::to_string(threads)),
            "session threads");
      Check(service.LoadDataset(id, dataset), "session bind");
      double submit = spans.Now();
      Check(service.Submit(id), "submit");
      double running = submit;
      for (;;) {
        auto info = Take(service.Poll(id), "poll");
        running = spans.Now();
        if (info.state != fastod::SessionState::kQueued &&
            info.state != fastod::SessionState::kCreated) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      auto state = Take(service.Wait(id), "wait");
      double done = spans.Now();
      if (state != fastod::SessionState::kDone) Die("service session failed");
      double execute = service.Find(id)->algorithm().execute_seconds();
      service_execute_ns = static_cast<int64_t>(execute * 1e9);
      spans.Add(rep, "service.queue", submit, running);
      int session = spans.Add(rep, "service.session", submit, done);
      // The session's own execute clock, placed at the end of the
      // session interval: the child whose cover the session's self time
      // excludes.
      spans.Add(rep, "service.algo_execute", done - execute, done, session);
    }

    if (last) {
      const fastod::obs::EngineStats& s = algo->stats();
      auto inc_report = Take(fastod::ParseJson(incremental->ResultJson()),
                             "parse incremental report");
      const fastod::JsonValue* inc = inc_report.Find("incremental");
      if (inc == nullptr) Die("incremental report lacks \"incremental\"");
      counts.Key("threads").Int(threads)
          .Key("rows").Int(rows)
          .Key("csv_bytes").Int(static_cast<int64_t>(csv.size()))
          .Key("body_bytes").Int(static_cast<int64_t>(body.size()))
          .Key("dataset_bytes").Int(dataset->ApproxBytes())
          .Key("nodes_visited").Int(s.nodes_visited)
          .Key("nodes_pruned").Int(s.nodes_pruned)
          .Key("constancy_checks").Int(s.constancy_checks)
          .Key("swap_checks").Int(s.swap_checks)
          .Key("key_prune_hits").Int(s.key_prune_hits)
          .Key("ods_emitted").Int(s.ods_emitted)
          .Key("partition_cache_gets").Int(s.partition_cache_gets)
          .Key("partition_cache_puts").Int(s.partition_cache_puts)
          .Key("tasks_spawned").Int(s.tasks_spawned)
          .Key("tasks_stolen").Int(s.tasks_stolen)
          .Key("result_bytes").Int(static_cast<int64_t>(report.size()))
          .Key("incremental_revoked").Int(JsonInt(*inc, "revoked"))
          .Key("incremental_nodes_searched")
          .Int(JsonInt(*inc, "nodes_searched"))
          .Key("service_execute_ns").Int(service_execute_ns);
      counts.Key("occupancy").BeginArray();
      for (const auto& level : s.levels) counts.Double(level.occupancy);
      counts.EndArray();

      // Per-level seconds only from a serial run: at threads > 1 levels
      // overlap inside the task graph, so their clocks do not add up.
      const fastod::Algorithm* serial = algo.get();
      std::unique_ptr<fastod::Algorithm> serial_run;
      if (threads != 1) {
        serial_run = MakeFastod(1);
        Check(serial_run->BindDataset(dataset), "bind serial");
        spans.Time(rep, "bench.serial_execute",
                   [&] { Check(serial_run->Execute(), "serial execute"); });
        serial = serial_run.get();
      }
      fastod::JsonWriter levels;
      levels.BeginArray();
      for (const auto& level : serial->stats().levels) {
        levels.BeginObject()
            .Key("level").Int(level.level)
            .Key("seconds").Double(level.seconds)
            .Key("nodes").Int(level.nodes)
            .EndObject();
      }
      levels.EndArray();
      levels_json = levels.str();
    }
  }
  counts.EndObject();

  fastod::JsonWriter out;
  out.BeginObject().Key("spans");
  spans.Write(&out);
  out.EndObject();
  // Splice the two pre-rendered members in before the closing brace.
  std::string text = out.str();
  text.insert(text.rfind('}'),
              ",\"counts\":" + counts.str() + ",\"levels\":" + levels_json);
  std::cout << text << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: odbench_probe gen|ref|trace ... (see probe.cc)\n");
    return 2;
  }
  std::string command = args[0];
  args.erase(args.begin());
  if (command == "gen") return Gen(args);
  if (command == "ref") return Ref(args);
  if (command == "trace") return Trace(args);
  if (command == "build-type") {
    std::puts(ODBENCH_BUILD_TYPE);
    return 0;
  }
  Die("unknown command " + command);
}
