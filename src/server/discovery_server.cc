#include "server/discovery_server.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/schema.h"
#include "obs/metrics.h"
#include "od/attribute_set.h"

namespace fastod {

namespace {

int HttpStatusOf(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

/// The session state spelled for the wire: a deadline failure gets its
/// own state so clients need not parse the error message.
std::string WireStateName(SessionState state, StatusCode error_code) {
  if (state == SessionState::kFailed &&
      error_code == StatusCode::kDeadlineExceeded) {
    return "deadline_exceeded";
  }
  return SessionStateName(state);
}

void SendError(HttpResponseWriter& writer, const Status& status) {
  JsonWriter w;
  w.BeginObject()
      .Key("error")
      .String(status.message())
      .Key("code")
      .String(StatusCodeName(status.code()))
      .EndObject();
  writer.Send(HttpStatusOf(status.code()), "application/json",
              w.str() + "\n");
}

void SendJson(HttpResponseWriter& writer, int status,
              const std::string& body) {
  writer.Send(status, "application/json", body);
}

/// Overload/drain rejection: `http_status` is 429 (per-client quota,
/// admission cap) or 503 (draining), always with a Retry-After hint.
void SendRetryLater(HttpResponseWriter& writer, const Status& status,
                    int http_status, int retry_after_seconds) {
  JsonWriter w;
  w.BeginObject()
      .Key("error")
      .String(status.message())
      .Key("code")
      .String(StatusCodeName(status.code()))
      .EndObject();
  writer.Send(http_status, "application/json", w.str() + "\n",
              {{"Retry-After", std::to_string(retry_after_seconds)}});
}

/// Quota key: an explicit client identity beats the peer address (many
/// clients behind one NAT/proxy share an IP), which beats nothing.
std::string ClientKey(const HttpRequest& request) {
  auto it = request.headers.find("x-client-id");
  if (it != request.headers.end() && !it->second.empty()) {
    return it->second;
  }
  return request.peer.empty() ? "unknown" : request.peer;
}

/// Renders a JSON option value to the string spelling SetOption parses.
Result<std::string> OptionValueToString(const std::string& name,
                                        const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kString:
      return value.string_value();
    case JsonValue::Type::kBool:
      return std::string(value.bool_value() ? "true" : "false");
    case JsonValue::Type::kNumber: {
      double number = value.number_value();
      if (number == std::floor(number) && std::abs(number) < 1e15) {
        return std::to_string(static_cast<int64_t>(number));
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", number);
      return std::string(buf);
    }
    default:
      return Status::InvalidArgument(
          "option '" + name +
          "' must be a string, number, or boolean, got " + value.Dump());
  }
}

void AppendContext(JsonWriter* w, AttributeSet context,
                   const Schema& schema) {
  w->BeginArray();
  for (int a = context.First(); a >= 0; a = context.Next(a)) {
    w->String(schema.name(a));
  }
  w->EndArray();
}

void AppendSpec(JsonWriter* w, const OrderSpec& spec, const Schema& schema) {
  w->BeginArray();
  for (int a : spec) w->String(schema.name(a));
  w->EndArray();
}

/// One streamed OD as a single NDJSON line. Field names match the
/// /result report shapes so clients parse both with one schema.
std::string EventJsonLine(const OdEvent& event, const Schema& schema) {
  JsonWriter w;
  w.BeginObject();
  std::visit(
      [&](const auto& od) {
        using T = std::decay_t<decltype(od)>;
        if constexpr (std::is_same_v<T, ConstancyOd>) {
          w.Key("type").String("constancy").Key("context");
          AppendContext(&w, od.context, schema);
          w.Key("attribute").String(schema.name(od.attribute));
        } else if constexpr (std::is_same_v<T, CompatibilityOd>) {
          w.Key("type").String("compatibility").Key("context");
          AppendContext(&w, od.context, schema);
          w.Key("a").String(schema.name(od.a));
          w.Key("b").String(schema.name(od.b));
        } else if constexpr (std::is_same_v<T, BidiCompatibilityOd>) {
          w.Key("type").String("bidirectional").Key("context");
          AppendContext(&w, od.context, schema);
          w.Key("a").String(schema.name(od.a));
          w.Key("b").String(schema.name(od.b));
          w.Key("polarity").String("opposite");
        } else if constexpr (std::is_same_v<T, ListOd>) {
          w.Key("type").String("list").Key("lhs");
          AppendSpec(&w, od.lhs, schema);
          w.Key("rhs");
          AppendSpec(&w, od.rhs, schema);
        } else if constexpr (std::is_same_v<T, ConditionalOd>) {
          w.Key("type").String("conditional");
          w.Key("condition").String(schema.name(od.condition_attribute));
          w.Key("bindings").BeginArray();
          for (int32_t rank : od.binding_ranks) w.Int(rank);
          w.EndArray();
          w.Key("od").String(CanonicalOdToString(od.od, schema));
          w.Key("support").Double(od.support);
        } else if constexpr (std::is_same_v<T, RevokedOd>) {
          // A retraction of a previously streamed/reported OD; od_type +
          // the shape's usual fields identify which one.
          w.Key("type").String("revoked");
          if (std::holds_alternative<ConstancyOd>(od.od)) {
            const ConstancyOd& c = std::get<ConstancyOd>(od.od);
            w.Key("od_type").String("constancy").Key("context");
            AppendContext(&w, c.context, schema);
            w.Key("attribute").String(schema.name(c.attribute));
          } else {
            const CompatibilityOd& c = std::get<CompatibilityOd>(od.od);
            w.Key("od_type").String("compatibility").Key("context");
            AppendContext(&w, c.context, schema);
            w.Key("a").String(schema.name(c.a));
            w.Key("b").String(schema.name(c.b));
          }
        }
      },
      event);
  w.EndObject();
  return w.str() + "\n";
}

/// Parses a {"csv_options": {...}} object into CsvOptions.
Result<CsvOptions> ParseCsvOptionsField(const JsonValue* raw) {
  CsvOptions csv_options;
  if (raw == nullptr) return csv_options;
  if (!raw->is_object()) {
    return Status::InvalidArgument("\"csv_options\" must be an object");
  }
  if (const JsonValue* delim = raw->Find("delimiter"); delim != nullptr) {
    if (!delim->is_string() || delim->string_value().size() != 1) {
      return Status::InvalidArgument(
          "\"delimiter\" must be a one-character string");
    }
    csv_options.delimiter = delim->string_value()[0];
  }
  if (const JsonValue* header = raw->Find("has_header"); header != nullptr) {
    if (!header->is_bool()) {
      return Status::InvalidArgument("\"has_header\" must be a boolean");
    }
    csv_options.has_header = header->bool_value();
  }
  if (const JsonValue* max_rows = raw->Find("max_rows");
      max_rows != nullptr) {
    // int_value() saturates rather than invoking UB, but garbage like
    // 1e30 or 2.5 deserves a 400, not a silent clamp.
    if (!max_rows->is_number() ||
        max_rows->number_value() !=
            static_cast<double>(max_rows->int_value()) ||
        max_rows->int_value() < -1) {
      return Status::InvalidArgument(
          "\"max_rows\" must be an integer >= -1");
    }
    csv_options.max_rows = max_rows->int_value();
  }
  return csv_options;
}

/// Shared validation for the "csv" / "csv_path" data-source fields of
/// session and dataset creation (the XOR-arity rules differ per
/// endpoint and stay at the call sites).
Status ValidateCsvSource(const JsonValue* csv, const JsonValue* csv_path,
                         bool allow_csv_path) {
  if (csv != nullptr && !csv->is_string()) {
    return Status::InvalidArgument("\"csv\" must be a string");
  }
  if (csv_path != nullptr) {
    if (!allow_csv_path) {
      return Status::InvalidArgument(
          "server-side \"csv_path\" reads are disabled; send inline "
          "\"csv\"");
    }
    if (!csv_path->is_string()) {
      return Status::InvalidArgument("\"csv_path\" must be a string");
    }
  }
  return Status::Ok();
}

/// Dataset ids travel inside URL paths, so constrain them to characters
/// that need no escaping anywhere (and keep List() renderings sane).
Status ValidateDatasetId(const std::string& id) {
  if (id.empty() || id.size() > 128) {
    return Status::InvalidArgument(
        "dataset id must be 1..128 characters");
  }
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "dataset id may contain only [A-Za-z0-9._-], got '" + id + "'");
    }
  }
  return Status::Ok();
}

void AppendDatasetInfo(JsonWriter* w, const DatasetInfo& info) {
  w->BeginObject()
      .Key("id")
      .String(info.id)
      .Key("source")
      .String(info.source)
      .Key("version")
      .Int(info.version)
      .Key("rows")
      .Int(info.rows)
      .Key("columns")
      .Int(info.columns)
      .Key("bytes")
      .Int(info.bytes)
      .Key("retained_bytes")
      .Int(info.retained_bytes)
      .Key("hits")
      .Int(info.hits)
      .Key("pinned")
      .Bool(info.pinned);
  if (!info.versions.empty()) {
    w->Key("versions").BeginArray();
    for (const DatasetVersionInfo& v : info.versions) {
      w->BeginObject()
          .Key("version")
          .Int(v.version)
          .Key("rows")
          .Int(v.rows)
          .Key("bytes")
          .Int(v.bytes)
          .Key("pinned")
          .Bool(v.pinned)
          .Key("current")
          .Bool(v.current)
          .EndObject();
    }
    w->EndArray();
  }
  w->EndObject();
}

/// Collapses a request path onto its route template so the per-route
/// metric labels stay bounded no matter what ids clients send.
std::string RouteFamily(const std::string& path) {
  if (path == "/metrics" || path == "/v1/algorithms" ||
      path == "/v1/sessions" || path == "/v1/datasets") {
    return path;
  }
  if (path.rfind("/v1/datasets/", 0) == 0) {
    const char* rows = "/rows";
    if (path.size() >= std::strlen(rows) &&
        path.compare(path.size() - std::strlen(rows), std::string::npos,
                     rows) == 0) {
      return "/v1/datasets/{id}/rows";
    }
    return "/v1/datasets/{id}";
  }
  if (path.rfind("/v1/sessions/", 0) == 0) {
    for (const char* suffix : {"/result", "/stream", "/trace"}) {
      if (path.size() >= std::strlen(suffix) &&
          path.compare(path.size() - std::strlen(suffix),
                       std::string::npos, suffix) == 0) {
        return std::string("/v1/sessions/{id}") + suffix;
      }
    }
    return "/v1/sessions/{id}";
  }
  return "other";
}

obs::Counter* StreamOdsCounter() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "fastod_http_stream_ods_total",
      "OD events delivered over /stream responses");
  return counter;
}

obs::Counter* StreamBytesCounter() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "fastod_http_stream_bytes_total",
      "Bytes written to /stream response bodies");
  return counter;
}

obs::Counter* RejectionCounter(const char* reason) {
  return obs::Registry::Global().GetCounter(
      "fastod_service_admission_rejections_total",
      "Session submissions refused by admission control",
      {{"reason", reason}});
}

/// "/v1/sessions/<id>..." → id + remaining suffix, or nullopt.
std::optional<std::pair<SessionId, std::string>> ParseSessionPath(
    const std::string& path) {
  const std::string prefix = "/v1/sessions/";
  if (path.rfind(prefix, 0) != 0) return std::nullopt;
  std::string rest = path.substr(prefix.size());
  size_t slash = rest.find('/');
  std::string id_text = rest.substr(0, slash);
  if (id_text.empty()) return std::nullopt;
  char* end = nullptr;
  long long id = std::strtoll(id_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || id <= 0) return std::nullopt;
  return std::make_pair(static_cast<SessionId>(id),
                        slash == std::string::npos ? ""
                                                   : rest.substr(slash));
}

}  // namespace

DiscoveryServer::DiscoveryServer(DiscoveryServerOptions options,
                                 const AlgorithmRegistry* registry)
    : registry_(registry != nullptr ? *registry
                                    : AlgorithmRegistry::Default()),
      options_(std::move(options)),
      store_(options_.dataset_budget_bytes),
      service_(options_.worker_threads, &registry_, &store_),
      http_([this](const HttpRequest& request,
                   HttpResponseWriter& writer) { Handle(request, writer); },
            options_.http_threads) {
  service_.SetMaxActiveSessions(options_.max_sessions);
  http_.set_max_body_bytes(options_.max_body_bytes);
}

DiscoveryServer::~DiscoveryServer() { Stop(); }

Status DiscoveryServer::Start() {
  return http_.Start(options_.host, options_.port);
}

void DiscoveryServer::BeginDrain() { draining_.store(true); }

bool DiscoveryServer::Drain(double timeout_seconds) {
  WallTimer timer;
  while (service_.num_active() > 0) {
    if (timer.ElapsedSeconds() >= timeout_seconds) {
      // Stragglers: close their channels first so an engine parked on
      // stream backpressure reaches its cancellation checkpoint.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [id, stream] : streams_) stream->channel.Close();
      }
      service_.CancelAll();
      while (service_.num_active() > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

void DiscoveryServer::Stop() {
  http_.Stop();
  // Unblock any engine still pushing into an unconsumed channel, so the
  // service drain in ~DiscoveryService cannot deadlock on backpressure.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, stream] : streams_) stream->channel.Close();
}

Status DiscoveryServer::AdmitClient(const std::string& client_key,
                                    SessionId id) {
  if (options_.max_sessions_per_client <= 0) return Status::Ok();
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<SessionId>& live = client_sessions_[client_key];
  // Terminal sessions free their quota slot without requiring a purge.
  for (auto it = live.begin(); it != live.end();) {
    auto session = service_.Find(*it);
    if (session == nullptr || IsTerminal(session->state())) {
      session_clients_.erase(*it);
      it = live.erase(it);
    } else {
      ++it;
    }
  }
  if (static_cast<int64_t>(live.size()) >=
      options_.max_sessions_per_client) {
    return Status::Unavailable(
        "client '" + client_key + "' is at its session quota (" +
        std::to_string(live.size()) + "/" +
        std::to_string(options_.max_sessions_per_client) +
        " live sessions); wait for one to finish or cancel it");
  }
  live.insert(id);
  session_clients_[id] = client_key;
  return Status::Ok();
}

void DiscoveryServer::ForgetClientSession(SessionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = session_clients_.find(id);
  if (it == session_clients_.end()) return;
  auto client = client_sessions_.find(it->second);
  if (client != client_sessions_.end()) {
    client->second.erase(id);
    if (client->second.empty()) client_sessions_.erase(client);
  }
  session_clients_.erase(it);
}

std::shared_ptr<DiscoveryServer::StreamState> DiscoveryServer::FindStream(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second;
}

std::string DiscoveryServer::SessionInfoJson(
    SessionId id, const DiscoveryService::PollInfo& info) const {
  std::string algorithm;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = algorithm_names_.find(id);
    if (it != algorithm_names_.end()) algorithm = it->second;
  }
  auto stream = FindStream(id);
  JsonWriter w;
  w.BeginObject()
      .Key("id")
      .Int(id)
      .Key("algorithm")
      .String(algorithm)
      .Key("state")
      .String(WireStateName(info.state, info.error_code))
      .Key("progress")
      .Double(info.progress);
  if (!info.error.empty()) w.Key("error").String(info.error);
  if (stream != nullptr) {
    w.Key("stream").Bool(true).Key("ods_streamed").Int(
        stream->channel.pushed());
  }
  w.EndObject();
  return w.str() + "\n";
}

void DiscoveryServer::Handle(const HttpRequest& request,
                             HttpResponseWriter& writer) {
  if (!obs::Enabled()) return Route(request, writer);
  WallTimer timer;
  Route(request, writer);
  // For /stream this measures the whole stream lifetime, which is the
  // honest number: the request held an HTTP worker that long.
  const std::string route = RouteFamily(request.path);
  obs::Registry& registry = obs::Registry::Global();
  registry
      .GetCounter("fastod_http_requests_total", "HTTP requests handled",
                  {{"method", request.method}, {"route", route}})
      ->Inc();
  registry
      .GetHistogram("fastod_http_request_seconds",
                    "Wall-clock from dispatch to response completion",
                    obs::LatencyBucketsSeconds(), {{"route", route}})
      ->Observe(timer.ElapsedSeconds());
}

void DiscoveryServer::Route(const HttpRequest& request,
                            HttpResponseWriter& writer) {
  // Routes match on path first, method second: a wrong method on an
  // existing route is 405 (so clients don't mistake a live session for
  // a missing one), only an unknown path is 404.
  auto method_not_allowed = [&](const char* allowed) {
    JsonWriter w;
    w.BeginObject()
        .Key("error")
        .String(std::string("method ") + request.method +
                " not allowed here; use " + allowed)
        .Key("code")
        .String("MethodNotAllowed")
        .EndObject();
    writer.Send(405, "application/json", w.str() + "\n");
  };
  if (request.path == "/metrics") {
    if (request.method != "GET") return method_not_allowed("GET");
    HandleMetrics(writer);
    return;
  }
  if (request.path == "/v1/algorithms") {
    if (request.method != "GET") return method_not_allowed("GET");
    HandleAlgorithms(writer);
    return;
  }
  if (request.path == "/v1/sessions") {
    if (request.method != "POST") return method_not_allowed("POST");
    HandleCreateSession(request, writer);
    return;
  }
  if (request.path == "/v1/datasets") {
    if (request.method == "POST") return HandleCreateDataset(request, writer);
    if (request.method == "GET") return HandleListDatasets(writer);
    return method_not_allowed("GET or POST");
  }
  const std::string dataset_prefix = "/v1/datasets/";
  if (request.path.rfind(dataset_prefix, 0) == 0) {
    std::string dataset_id = request.path.substr(dataset_prefix.size());
    const std::string rows_suffix = "/rows";
    if (dataset_id.size() > rows_suffix.size() &&
        dataset_id.compare(dataset_id.size() - rows_suffix.size(),
                           std::string::npos, rows_suffix) == 0) {
      dataset_id.resize(dataset_id.size() - rows_suffix.size());
      if (!dataset_id.empty() &&
          dataset_id.find('/') == std::string::npos) {
        if (request.method != "POST") return method_not_allowed("POST");
        return HandleAppendRows(dataset_id, request, writer);
      }
    }
    if (!dataset_id.empty() &&
        dataset_id.find('/') == std::string::npos) {
      if (request.method == "GET") {
        return HandleDatasetInfo(dataset_id, writer);
      }
      if (request.method == "DELETE") {
        return HandleDatasetDelete(dataset_id, writer);
      }
      return method_not_allowed("GET or DELETE");
    }
  }
  if (auto session_path = ParseSessionPath(request.path)) {
    auto [id, suffix] = *session_path;
    if (suffix.empty()) {
      if (request.method == "GET") return HandleSessionInfo(id, writer);
      if (request.method == "DELETE") {
        auto purge = request.query.find("purge");
        return HandleCancel(
            id, purge != request.query.end() && purge->second != "0",
            writer);
      }
      return method_not_allowed("GET or DELETE");
    }
    if (suffix == "/result" || suffix == "/stream" || suffix == "/trace") {
      if (request.method != "GET") return method_not_allowed("GET");
      if (suffix == "/trace") return HandleTrace(id, writer);
      return suffix == "/result" ? HandleResult(id, writer)
                                 : HandleStream(id, writer);
    }
  }
  SendError(writer,
            Status::NotFound("no route for " + request.method + " " +
                             request.path));
}

void DiscoveryServer::HandleAlgorithms(HttpResponseWriter& writer) {
  JsonWriter w;
  w.BeginObject().Key("algorithms").BeginArray();
  for (const std::string& name : registry_.Names()) {
    Result<std::unique_ptr<Algorithm>> algo = registry_.Create(name);
    if (!algo.ok()) continue;
    w.BeginObject()
        .Key("name")
        .String((*algo)->name())
        .Key("description")
        .String((*algo)->description())
        .Key("options")
        .BeginArray();
    for (const std::string& option : (*algo)->GetNeededOptions()) {
      const OptionInfo* info = (*algo)->FindOption(option);
      if (info == nullptr) continue;
      w.BeginObject()
          .Key("name")
          .String(info->name)
          .Key("type")
          .String(info->type_name)
          .Key("default")
          .String(info->default_repr)
          .Key("description")
          .String(info->description);
      if (!info->enum_values.empty()) {
        w.Key("values").BeginArray();
        for (const std::string& value : info->enum_values) w.String(value);
        w.EndArray();
      }
      if (!info->aliases.empty()) {
        // Deprecated back-compat spellings; clients should send "name".
        w.Key("aliases").BeginArray();
        for (const std::string& alias : info->aliases) w.String(alias);
        w.EndArray();
      }
      w.EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  SendJson(writer, 200, w.str() + "\n");
}

void DiscoveryServer::HandleMetrics(HttpResponseWriter& writer) {
  obs::Registry& registry = obs::Registry::Global();
  if (obs::Enabled()) {
    // Dataset-store state is a snapshot, not a stream of events, so its
    // gauges refresh at scrape time instead of on every store mutation.
    int64_t pinned = 0;
    int64_t hits = 0;
    int64_t versions = 0;
    for (const DatasetInfo& info : store_.List()) {
      pinned += info.pinned ? 1 : 0;
      hits += info.hits;
      versions += static_cast<int64_t>(info.versions.size());
    }
    registry
        .GetGauge("fastod_dataset_store_resident_bytes",
                  "Approximate bytes held by resident datasets")
        ->Set(store_.TotalBytes());
    registry
        .GetGauge("fastod_dataset_store_budget_bytes",
                  "Configured dataset residency budget (0 = unlimited)")
        ->Set(store_.budget_bytes());
    registry
        .GetGauge("fastod_dataset_store_entries", "Resident datasets")
        ->Set(store_.size());
    registry
        .GetGauge("fastod_dataset_store_pinned",
                  "Resident datasets pinned by live sessions")
        ->Set(pinned);
    // Hits drop when a dataset is evicted or erased (its row leaves the
    // snapshot), so these are gauges, not counters.
    registry
        .GetGauge("fastod_dataset_store_hits",
                  "Get() calls served by currently resident datasets")
        ->Set(hits);
    registry
        .GetGauge("fastod_dataset_store_evictions",
                  "Datasets evicted by the residency budget since start")
        ->Set(store_.evictions());
    registry
        .GetGauge("fastod_dataset_store_retained_bytes",
                  "Bytes held by superseded dataset versions still "
                  "pinned by sessions")
        ->Set(store_.RetainedBytes());
    registry
        .GetGauge("fastod_dataset_store_versions",
                  "Resident dataset versions (current + retained)")
        ->Set(versions);
  }
  writer.Send(200, "text/plain; version=0.0.4; charset=utf-8",
              registry.WriteText());
}

void DiscoveryServer::HandleCreateSession(const HttpRequest& request,
                                          HttpResponseWriter& writer) {
  if (draining_.load()) {
    if (obs::Enabled()) RejectionCounter("draining")->Inc();
    return SendRetryLater(
        writer,
        Status::Unavailable(
            "server is draining; no new sessions are admitted"),
        503, options_.retry_after_seconds);
  }
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return SendError(writer, parsed.status());
  const JsonValue& body = *parsed;
  if (!body.is_object()) {
    return SendError(writer,
                     Status::InvalidArgument("request body must be a JSON "
                                             "object"));
  }
  for (const auto& [key, value] : body.object_items()) {
    (void)value;
    if (key != "algorithm" && key != "options" && key != "csv" &&
        key != "csv_path" && key != "dataset_id" && key != "csv_options" &&
        key != "dataset_version" && key != "stream") {
      return SendError(writer, Status::InvalidArgument(
                                   "unknown request field '" + key + "'"));
    }
  }
  const JsonValue* algorithm = body.Find("algorithm");
  if (algorithm == nullptr || !algorithm->is_string()) {
    return SendError(writer, Status::InvalidArgument(
                                 "\"algorithm\" (string) is required"));
  }
  const JsonValue* csv = body.Find("csv");
  const JsonValue* csv_path = body.Find("csv_path");
  const JsonValue* dataset_id = body.Find("dataset_id");
  int sources = (csv != nullptr) + (csv_path != nullptr) +
                (dataset_id != nullptr);
  if (sources != 1) {
    return SendError(writer, Status::InvalidArgument(
                                 "provide exactly one of \"csv\", "
                                 "\"csv_path\", and \"dataset_id\""));
  }
  if (dataset_id != nullptr && !dataset_id->is_string()) {
    return SendError(writer, Status::InvalidArgument(
                                 "\"dataset_id\" must be a string"));
  }
  int64_t dataset_version = 0;  // 0 = current
  if (const JsonValue* raw = body.Find("dataset_version"); raw != nullptr) {
    if (dataset_id == nullptr) {
      return SendError(writer,
                       Status::InvalidArgument(
                           "\"dataset_version\" applies only to "
                           "\"dataset_id\" sessions"));
    }
    if (!raw->is_number() ||
        raw->number_value() != static_cast<int64_t>(raw->number_value()) ||
        raw->number_value() < 1) {
      return SendError(writer, Status::InvalidArgument(
                                   "\"dataset_version\" must be a "
                                   "positive integer"));
    }
    dataset_version = static_cast<int64_t>(raw->number_value());
  }
  if (dataset_id != nullptr && body.Find("csv_options") != nullptr) {
    // Parse settings were fixed when the dataset was uploaded; silently
    // ignoring them here would let clients believe they applied.
    return SendError(writer,
                     Status::InvalidArgument(
                         "\"csv_options\" does not apply to "
                         "\"dataset_id\" sessions (set them at upload)"));
  }
  if (Status s = ValidateCsvSource(csv, csv_path, options_.allow_csv_path);
      !s.ok()) {
    return SendError(writer, s);
  }
  Result<CsvOptions> parsed_csv_options =
      ParseCsvOptionsField(body.Find("csv_options"));
  if (!parsed_csv_options.ok()) {
    return SendError(writer, parsed_csv_options.status());
  }
  CsvOptions csv_options = *parsed_csv_options;
  bool stream = false;
  if (const JsonValue* raw = body.Find("stream"); raw != nullptr) {
    if (!raw->is_bool()) {
      return SendError(writer, Status::InvalidArgument(
                                   "\"stream\" must be a boolean"));
    }
    stream = raw->bool_value();
  }

  Result<SessionId> id = service_.Create(algorithm->string_value());
  if (!id.ok()) return SendError(writer, id.status());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    algorithm_names_[*id] = algorithm->string_value();
  }
  if (Status quota = AdmitClient(ClientKey(request), *id); !quota.ok()) {
    (void)service_.Destroy(*id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      algorithm_names_.erase(*id);
    }
    if (obs::Enabled()) RejectionCounter("client_quota")->Inc();
    return SendRetryLater(writer, quota, 429,
                          options_.retry_after_seconds);
  }

  Status setup = [&]() -> Status {
    if (const JsonValue* options = body.Find("options");
        options != nullptr) {
      if (!options->is_object()) {
        return Status::InvalidArgument("\"options\" must be an object");
      }
      for (const auto& [name, value] : options->object_items()) {
        Result<std::string> rendered = OptionValueToString(name, value);
        if (!rendered.ok()) return rendered.status();
        if (Status s = service_.SetOption(*id, name, *rendered); !s.ok()) {
          return s;
        }
      }
    }
    if (stream) {
      auto state = std::make_shared<StreamState>(options_.stream_capacity);
      if (Status s = service_.SetSink(*id, &state->channel); !s.ok()) {
        return s;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      streams_[*id] = std::move(state);
    }
    if (csv != nullptr) {
      if (Status s = service_.LoadCsvString(*id, csv->string_value(),
                                            csv_options);
          !s.ok()) {
        return s;
      }
      return service_.Submit(*id);
    }
    if (dataset_id != nullptr) {
      return service_.SubmitDataset(*id, dataset_id->string_value(),
                                    dataset_version);
    }
    return service_.SubmitCsv(*id, csv_path->string_value(), csv_options);
  }();
  if (!setup.ok()) {
    (void)service_.Destroy(*id);
    ForgetClientSession(*id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      streams_.erase(*id);
      algorithm_names_.erase(*id);
    }
    if (setup.code() == StatusCode::kUnavailable) {
      // The service-wide admission cap: same retry semantics as the
      // per-client quota.
      return SendRetryLater(writer, setup, 429,
                            options_.retry_after_seconds);
    }
    return SendError(writer, setup);
  }
  Result<DiscoveryService::PollInfo> info = service_.Poll(*id);
  SendJson(writer, 201,
           SessionInfoJson(*id, info.ok()
                                    ? *info
                                    : DiscoveryService::PollInfo()));
}

void DiscoveryServer::HandleCreateDataset(const HttpRequest& request,
                                          HttpResponseWriter& writer) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return SendError(writer, parsed.status());
  const JsonValue& body = *parsed;
  if (!body.is_object()) {
    return SendError(writer,
                     Status::InvalidArgument("request body must be a JSON "
                                             "object"));
  }
  for (const auto& [key, value] : body.object_items()) {
    (void)value;
    if (key != "id" && key != "csv" && key != "csv_path" &&
        key != "csv_options") {
      return SendError(writer, Status::InvalidArgument(
                                   "unknown request field '" + key + "'"));
    }
  }
  const JsonValue* csv = body.Find("csv");
  const JsonValue* csv_path = body.Find("csv_path");
  if ((csv == nullptr) == (csv_path == nullptr)) {
    return SendError(writer,
                     Status::InvalidArgument("provide exactly one of "
                                             "\"csv\" and \"csv_path\""));
  }
  if (Status s = ValidateCsvSource(csv, csv_path, options_.allow_csv_path);
      !s.ok()) {
    return SendError(writer, s);
  }
  Result<CsvOptions> csv_options =
      ParseCsvOptionsField(body.Find("csv_options"));
  if (!csv_options.ok()) return SendError(writer, csv_options.status());
  std::string dataset_id;
  if (const JsonValue* id = body.Find("id"); id != nullptr) {
    if (!id->is_string()) {
      return SendError(writer,
                       Status::InvalidArgument("\"id\" must be a string"));
    }
    dataset_id = id->string_value();
  } else {
    // Skip ids users already claimed (the charset allows "ds-N"); a
    // concurrent claim between this probe and the Put still 409s, but
    // only in a race nobody can hit deliberately without also owning
    // the id.
    do {
      dataset_id = "ds-" + std::to_string(next_dataset_id_.fetch_add(1));
    } while (store_.Contains(dataset_id));
  }
  if (Status s = ValidateDatasetId(dataset_id); !s.ok()) {
    return SendError(writer, s);
  }
  Result<std::shared_ptr<const LoadedDataset>> dataset =
      csv != nullptr
          ? store_.PutCsvString(dataset_id, csv->string_value(),
                                *csv_options)
          : store_.PutCsvFile(dataset_id, csv_path->string_value(),
                              *csv_options);
  if (!dataset.ok()) return SendError(writer, dataset.status());
  DatasetInfo info;
  info.id = dataset_id;
  info.source = (*dataset)->source();
  info.rows = (*dataset)->NumRows();
  info.columns = (*dataset)->NumAttributes();
  info.bytes = (*dataset)->ApproxBytes();
  JsonWriter w;
  AppendDatasetInfo(&w, info);
  SendJson(writer, 201, w.str() + "\n");
}

void DiscoveryServer::HandleAppendRows(const std::string& dataset_id,
                                       const HttpRequest& request,
                                       HttpResponseWriter& writer) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return SendError(writer, parsed.status());
  const JsonValue& body = *parsed;
  if (!body.is_object()) {
    return SendError(writer,
                     Status::InvalidArgument("request body must be a JSON "
                                             "object"));
  }
  for (const auto& [key, value] : body.object_items()) {
    (void)value;
    if (key != "csv" && key != "csv_path" && key != "csv_options") {
      return SendError(writer, Status::InvalidArgument(
                                   "unknown request field '" + key + "'"));
    }
  }
  const JsonValue* csv = body.Find("csv");
  const JsonValue* csv_path = body.Find("csv_path");
  if ((csv == nullptr) == (csv_path == nullptr)) {
    return SendError(writer,
                     Status::InvalidArgument("provide exactly one of "
                                             "\"csv\" and \"csv_path\""));
  }
  if (Status s = ValidateCsvSource(csv, csv_path, options_.allow_csv_path);
      !s.ok()) {
    return SendError(writer, s);
  }
  // Appended rows are data-only by default: the dataset's schema was fixed
  // at upload, so delta CSVs normally carry no header line.
  CsvOptions csv_options;
  csv_options.has_header = false;
  if (const JsonValue* raw = body.Find("csv_options"); raw != nullptr) {
    Result<CsvOptions> explicit_options = ParseCsvOptionsField(raw);
    if (!explicit_options.ok()) {
      return SendError(writer, explicit_options.status());
    }
    csv_options = *explicit_options;
  }
  Result<std::shared_ptr<const LoadedDataset>> grown =
      csv != nullptr
          ? store_.AppendCsvString(dataset_id, csv->string_value(),
                                   csv_options)
          : store_.AppendCsvFile(dataset_id, csv_path->string_value(),
                                 csv_options);
  if (!grown.ok()) return SendError(writer, grown.status());
  JsonWriter w;
  w.BeginObject()
      .Key("id")
      .String(dataset_id)
      .Key("version")
      .Int((*grown)->version())
      .Key("rows")
      .Int((*grown)->NumRows())
      .Key("appended_rows")
      .Int((*grown)->delta_rows())
      .Key("columns")
      .Int((*grown)->NumAttributes())
      .Key("bytes")
      .Int((*grown)->ApproxBytes())
      .EndObject();
  SendJson(writer, 200, w.str() + "\n");
}

void DiscoveryServer::HandleListDatasets(HttpResponseWriter& writer) {
  JsonWriter w;
  w.BeginObject().Key("datasets").BeginArray();
  int64_t hits_total = 0;
  int64_t pinned_count = 0;
  for (const DatasetInfo& info : store_.List()) {
    AppendDatasetInfo(&w, info);
    hits_total += info.hits;
    pinned_count += info.pinned ? 1 : 0;
  }
  w.EndArray()
      .Key("total_bytes")
      .Int(store_.TotalBytes())
      .Key("budget_bytes")
      .Int(store_.budget_bytes())
      .Key("evictions")
      .Int(store_.evictions())
      .Key("hits_total")
      .Int(hits_total)
      .Key("pinned_count")
      .Int(pinned_count)
      .EndObject();
  SendJson(writer, 200, w.str() + "\n");
}

void DiscoveryServer::HandleDatasetInfo(const std::string& dataset_id,
                                        HttpResponseWriter& writer) {
  Result<DatasetInfo> info = store_.Info(dataset_id);
  if (!info.ok()) return SendError(writer, info.status());
  JsonWriter w;
  AppendDatasetInfo(&w, *info);
  SendJson(writer, 200, w.str() + "\n");
}

void DiscoveryServer::HandleDatasetDelete(const std::string& dataset_id,
                                          HttpResponseWriter& writer) {
  if (Status s = store_.Erase(dataset_id); !s.ok()) {
    return SendError(writer, s);
  }
  JsonWriter w;
  w.BeginObject()
      .Key("id")
      .String(dataset_id)
      .Key("deleted")
      .Bool(true)
      .EndObject();
  SendJson(writer, 200, w.str() + "\n");
}

void DiscoveryServer::HandleSessionInfo(SessionId id,
                                        HttpResponseWriter& writer) {
  Result<DiscoveryService::PollInfo> info = service_.Poll(id);
  if (!info.ok()) return SendError(writer, info.status());
  SendJson(writer, 200, SessionInfoJson(id, *info));
}

void DiscoveryServer::HandleCancel(SessionId id, bool purge,
                                   HttpResponseWriter& writer) {
  if (purge) {
    // Purge frees everything the session retains (encoded relation,
    // cached report, stream channel). Only terminal sessions qualify: a
    // live run still holds the sink pointer, so freeing the channel
    // under it would be a use-after-free — cancel first, poll terminal,
    // then purge.
    auto session = service_.Find(id);
    if (session == nullptr) {
      return SendError(writer, Status::NotFound("no session with id " +
                                                std::to_string(id)));
    }
    if (!IsTerminal(session->state())) {
      return SendError(writer,
                       Status::FailedPrecondition(
                           "session is " +
                           std::string(SessionStateName(session->state())) +
                           "; purge requires a terminal session (cancel "
                           "and poll first)"));
    }
    if (Status s = service_.Destroy(id); !s.ok()) {
      return SendError(writer, s);
    }
    ForgetClientSession(id);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      streams_.erase(id);
      algorithm_names_.erase(id);
    }
    JsonWriter w;
    w.BeginObject().Key("id").Int(id).Key("purged").Bool(true).EndObject();
    return SendJson(writer, 200, w.str() + "\n");
  }
  if (Status s = service_.Cancel(id); !s.ok()) {
    return SendError(writer, s);
  }
  // Unblock a producer stuck on backpressure so the cancel can be
  // honored even when nobody is (or will be) consuming the stream; the
  // consumer, if any, drains the queue and sees the terminal state.
  if (auto stream = FindStream(id); stream != nullptr) {
    stream->channel.Close();
  }
  Result<DiscoveryService::PollInfo> info = service_.Poll(id);
  if (!info.ok()) return SendError(writer, info.status());
  SendJson(writer, 200, SessionInfoJson(id, *info));
}

void DiscoveryServer::HandleResult(SessionId id,
                                   HttpResponseWriter& writer) {
  Result<std::string> json = service_.ResultJson(id);
  if (!json.ok()) return SendError(writer, json.status());
  if (json->empty()) {
    // Failed, or cancelled before the run started: no report exists.
    Result<DiscoveryService::PollInfo> info = service_.Poll(id);
    if (!info.ok()) return SendError(writer, info.status());
    JsonWriter w;
    w.BeginObject()
        .Key("state")
        .String(SessionStateName(info->state))
        .Key("error")
        .String(info->error)
        .EndObject();
    int status = info->state == SessionState::kFailed ? 500 : 200;
    return SendJson(writer, status, w.str() + "\n");
  }
  std::string body = *std::move(json);
  if (obs::Enabled()) {
    // The trace is spliced here rather than baked into the session's
    // cached report: timings differ per run, and the cached report must
    // stay byte-identical across sessions over the same data.
    Result<std::string> trace = service_.TraceJson(id);
    size_t brace = body.rfind('}');
    if (trace.ok() && brace != std::string::npos) {
      body.insert(brace, ",\"trace\":" + *trace);
    }
  }
  SendJson(writer, 200, body);
}

void DiscoveryServer::HandleTrace(SessionId id,
                                  HttpResponseWriter& writer) {
  Result<std::string> json = service_.TraceJson(id);
  if (!json.ok()) return SendError(writer, json.status());
  SendJson(writer, 200, *json + "\n");
}

void DiscoveryServer::HandleStream(SessionId id,
                                   HttpResponseWriter& writer) {
  auto session = service_.Find(id);
  if (session == nullptr) {
    return SendError(writer,
                     Status::NotFound("no session with id " +
                                      std::to_string(id)));
  }
  auto stream = FindStream(id);
  if (stream == nullptr) {
    return SendError(writer, Status::FailedPrecondition(
                                 "session was not created with "
                                 "\"stream\": true"));
  }
  if (stream->claimed.exchange(true)) {
    return SendError(writer, Status::FailedPrecondition(
                                 "stream already consumed (one reader "
                                 "per session)"));
  }
  // Once the client is gone there is nothing left to deliver: Close()
  // turns the engine's remaining pushes into drops (the run still
  // finishes for /result consumers) and the handler simply returns —
  // no draining loop survives a dead peer.
  if (!writer.BeginChunked(200, "application/x-ndjson")) {
    stream->channel.Close();
    return;
  }

  ChannelOdSink& channel = stream->channel;
  OdEvent event;
  int64_t streamed = 0;
  const Schema* schema = nullptr;
  obs::Counter* ods_counter =
      obs::Enabled() ? StreamOdsCounter() : nullptr;
  obs::Counter* bytes_counter =
      obs::Enabled() ? StreamBytesCounter() : nullptr;
  for (;;) {
    if (channel.Pop(&event, std::chrono::milliseconds(50))) {
      // The engine emitted this after binding data, so the schema is
      // set; it is immutable for the rest of the session.
      if (schema == nullptr) schema = session->algorithm().schema();
      std::string line = EventJsonLine(event, *schema);
      if (!writer.WriteChunk(line)) {
        channel.Close();
        return;
      }
      if (ods_counter != nullptr) {
        ods_counter->Inc();
        bytes_counter->Inc(static_cast<int64_t>(line.size()));
      }
      ++streamed;
      continue;
    }
    SessionState state = session->state();
    if (IsTerminal(state)) {
      // Every push happened before the terminal transition; one
      // non-blocking drain empties the queue, then the end line closes
      // the stream.
      while (channel.Pop(&event, std::chrono::milliseconds(0))) {
        if (schema == nullptr) schema = session->algorithm().schema();
        std::string line = EventJsonLine(event, *schema);
        if (!writer.WriteChunk(line)) {
          channel.Close();
          return;
        }
        if (ods_counter != nullptr) {
          ods_counter->Inc();
          bytes_counter->Inc(static_cast<int64_t>(line.size()));
        }
        ++streamed;
      }
      Status final_status = session->status();
      JsonWriter w;
      w.BeginObject()
          .Key("type")
          .String("end")
          .Key("state")
          .String(WireStateName(state, final_status.code()))
          .Key("streamed")
          .Int(streamed);
      if (state == SessionState::kFailed) {
        w.Key("error").String(final_status.ToString());
      }
      w.EndObject();
      std::string end_line = w.str() + "\n";
      writer.WriteChunk(end_line);
      if (bytes_counter != nullptr) {
        bytes_counter->Inc(static_cast<int64_t>(end_line.size()));
      }
      writer.EndChunked();
      return;
    }
    if (http_.stopping()) {
      channel.Close();
      writer.EndChunked();
      return;
    }
    if (channel.closed()) {
      // Cancelled (DELETE closed the channel) but the engine hasn't hit
      // its checkpoint yet: Pop returns instantly on a closed drained
      // channel, so pace the terminal-state polling explicitly instead
      // of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

}  // namespace fastod
