// End-to-end tests for the HTTP frontend (src/server/): a real
// DiscoveryServer on an ephemeral port, driven through raw sockets —
// the same wire bytes curl would produce. The acceptance bars:
//
//  * a streaming session delivers OD lines over chunked transfer *while
//    the session is still running* (proved with an engine that blocks
//    between emissions), and the streamed per-type sequences are
//    bit-for-bit the sequential CollectingOdSink run's;
//  * DELETE mid-stream cancels: the stream drains and closes with an
//    {"type":"end","state":"cancelled"} line;
//  * /result of a completed streamed session names exactly the streamed
//    ODs.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engines.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/csv.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "server/discovery_server.h"
#include "test_util.h"

namespace fastod {
namespace {

// ------------------------------------------------- tiny HTTP client

/// Connects to 127.0.0.1:port. Returns -1 on failure.
int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;                            // chunked-decoded
};

/// Incremental reader for one response on an open socket; understands
/// Content-Length and chunked transfer coding. NextChunk() returns one
/// decoded chunk at a time, which is how the streaming tests observe
/// per-OD delivery before the response completes.
class ResponseReader {
 public:
  explicit ResponseReader(int fd) : fd_(fd) {}
  ~ResponseReader() { close(fd_); }

  bool ReadHeader(ClientResponse* out) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::string head = buffer_.substr(0, header_end);
    buffer_ = buffer_.substr(header_end + 4);
    size_t line_end = head.find("\r\n");
    std::string status_line = head.substr(0, line_end);
    if (status_line.size() < 12) return false;
    out->status = std::atoi(status_line.substr(9, 3).c_str());
    size_t pos = line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      if (eol == std::string::npos) eol = head.size();
      std::string line = head.substr(pos, eol - pos);
      pos = eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      size_t value = line.find_first_not_of(" \t", colon + 1);
      out->headers[name] =
          value == std::string::npos ? "" : line.substr(value);
    }
    chunked_ = out->headers.count("transfer-encoding") != 0 &&
               out->headers["transfer-encoding"] == "chunked";
    return true;
  }

  /// One decoded chunk (chunked responses only); empty on end-of-stream.
  std::string NextChunk() {
    size_t line_end;
    while ((line_end = buffer_.find("\r\n")) == std::string::npos) {
      if (!Fill()) return "";
    }
    size_t size = std::strtoul(buffer_.substr(0, line_end).c_str(),
                               nullptr, 16);
    buffer_ = buffer_.substr(line_end + 2);
    if (size == 0) return "";
    while (buffer_.size() < size + 2) {
      if (!Fill()) return "";
    }
    std::string chunk = buffer_.substr(0, size);
    buffer_ = buffer_.substr(size + 2);  // past the trailing CRLF
    return chunk;
  }

  /// The rest of the body (both codings), for non-streaming requests.
  std::string ReadBody(const ClientResponse& response) {
    if (chunked_) {
      std::string body;
      for (std::string chunk = NextChunk(); !chunk.empty();
           chunk = NextChunk()) {
        body += chunk;
      }
      return body;
    }
    auto it = response.headers.find("content-length");
    if (it != response.headers.end()) {
      size_t length = std::strtoul(it->second.c_str(), nullptr, 10);
      while (buffer_.size() < length && Fill()) {
      }
      return buffer_.substr(0, length);
    }
    while (Fill()) {
    }
    return buffer_;
  }

 private:
  bool Fill() {
    char chunk[4096];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_;
  std::string buffer_;
  bool chunked_ = false;
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string RequestText(const std::string& method, const std::string& path,
                        const std::string& body) {
  std::string out = method + " " + path + " HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  return out + "\r\n" + body;
}

/// One complete request/response exchange.
ClientResponse Fetch(int port, const std::string& method,
                     const std::string& path,
                     const std::string& body = "") {
  ClientResponse response;
  int fd = Connect(port);
  if (fd < 0) return response;
  ResponseReader reader(fd);
  if (!SendAll(fd, RequestText(method, path, body))) return response;
  if (!reader.ReadHeader(&response)) return response;
  response.body = reader.ReadBody(response);
  return response;
}

// ------------------------------------------------- test algorithms

/// Emits one constancy OD per step, blocking between steps until the
/// test releases it (or cancel arrives) — deterministic mid-run
/// streaming without sleeps.
class TrickleAlgorithm : public Algorithm {
 public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    int released = 0;  // steps allowed beyond the first

    void Release() {
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++released;
      }
      cv.notify_all();
    }
  };

  TrickleAlgorithm(Gate* gate, int steps)
      : Algorithm("trickle", "test-only step-gated emitter"),
        gate_(gate),
        steps_(steps) {}

  std::string ResultText() const override { return "trickle\n"; }
  std::string ResultJson() const override {
    return "{\"algorithm\": \"trickle\"}\n";
  }

 protected:
  Status ExecuteInternal() override {
    for (int step = 0; step < steps_; ++step) {
      if (sink() != nullptr) {
        sink()->OnConstancy(ConstancyOd{AttributeSet(), step % 2});
      }
      if (step + 1 == steps_) break;
      std::unique_lock<std::mutex> lock(gate_->mutex);
      bool ok = gate_->cv.wait_for(
          lock, std::chrono::seconds(30), [&] {
            return gate_->released > step ||
                   (control() != nullptr && control()->CancelRequested());
          });
      if (!ok || (control() != nullptr && control()->CancelRequested())) {
        break;
      }
    }
    return Status::Ok();
  }

 private:
  Gate* gate_;
  int steps_;
};

class ThrowingAlgorithm : public Algorithm {
 public:
  ThrowingAlgorithm()
      : Algorithm("throwing", "test-only engine that throws") {}
  std::string ResultText() const override { return ""; }
  std::string ResultJson() const override { return ""; }

 protected:
  Status ExecuteInternal() override {
    throw std::runtime_error("deliberate test explosion");
  }
};

std::string EmployeeCsv() { return WriteCsvString(EmployeeTaxTable()); }

/// Starts a server on an ephemeral port with the builtin engines plus
/// the test-only ones above.
class ServerFixture {
 public:
  explicit ServerFixture(int steps = 2) {
    RegisterBuiltinAlgorithms(&registry_);
    registry_.Register("trickle", [this, steps] {
      return std::unique_ptr<Algorithm>(new TrickleAlgorithm(&gate_,
                                                             steps));
    });
    registry_.Register("throwing", [] {
      return std::unique_ptr<Algorithm>(new ThrowingAlgorithm());
    });
    DiscoveryServerOptions options;
    options.port = 0;
    options.http_threads = 4;
    options.worker_threads = 2;
    server_ = std::make_unique<DiscoveryServer>(options, &registry_);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  int port() const { return server_->port(); }
  TrickleAlgorithm::Gate& gate() { return gate_; }
  DiscoveryServer& server() { return *server_; }

 private:
  AlgorithmRegistry registry_;
  TrickleAlgorithm::Gate gate_;
  std::unique_ptr<DiscoveryServer> server_;
};

int64_t SessionIdOf(const std::string& body) {
  auto parsed = ParseJson(body);
  EXPECT_TRUE(parsed.ok()) << body;
  const JsonValue* id = parsed->Find("id");
  EXPECT_NE(id, nullptr) << body;
  return id == nullptr ? -1 : id->int_value();
}

std::string StateOf(int port, int64_t id) {
  ClientResponse response =
      Fetch(port, "GET", "/v1/sessions/" + std::to_string(id));
  auto parsed = ParseJson(response.body);
  if (!parsed.ok()) return "unparseable";
  const JsonValue* state = parsed->Find("state");
  return state == nullptr ? "missing" : state->string_value();
}

void WaitTerminal(int port, int64_t id) {
  for (int i = 0; i < 3000; ++i) {
    std::string state = StateOf(port, id);
    if (state == "done" || state == "failed" || state == "cancelled") {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "session " << id << " never reached a terminal state";
}

// ------------------------------------------------------------- tests

TEST(DiscoveryServerTest, AlgorithmsEndpointIsRegistryDriven) {
  ServerFixture fixture;
  ClientResponse response = Fetch(fixture.port(), "GET", "/v1/algorithms");
  EXPECT_EQ(response.status, 200);
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* algorithms = parsed->Find("algorithms");
  ASSERT_NE(algorithms, nullptr);
  bool found_fastod_threads = false;
  for (const JsonValue& algo : algorithms->array_items()) {
    const JsonValue* name = algo.Find("name");
    ASSERT_NE(name, nullptr);
    if (name->string_value() != "fastod") continue;
    for (const JsonValue& option : algo.Find("options")->array_items()) {
      if (option.Find("name")->string_value() == "threads") {
        found_fastod_threads = true;
        EXPECT_EQ(option.Find("type")->string_value(), "int");
      }
    }
  }
  EXPECT_TRUE(found_fastod_threads) << response.body;
}

TEST(DiscoveryServerTest, InlineCsvSessionRoundTrip) {
  ServerFixture fixture;
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("csv")
      .String(EmployeeCsv())
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  WaitTerminal(fixture.port(), id);
  EXPECT_EQ(StateOf(fixture.port(), id), "done");

  ClientResponse result = Fetch(
      fixture.port(), "GET", "/v1/sessions/" + std::to_string(id) +
                                 "/result");
  EXPECT_EQ(result.status, 200);

  // Byte-for-byte the direct library run, wall-clock stats aside.
  auto algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(algo.ok());
  ASSERT_TRUE((*algo)->LoadData(EmployeeTaxTable()).ok());
  ASSERT_TRUE((*algo)->Execute().ok());
  std::string expected = (*algo)->ResultJson();
  std::string body = StripTrace(result.body);
  ASSERT_NE(body.find("\"constancy_ods\""), std::string::npos);
  EXPECT_EQ(body.substr(body.find("\"constancy_ods\"")),
            expected.substr(expected.find("\"constancy_ods\"")));
}

TEST(DiscoveryServerTest, OptionsForwardToEngineAndRejectUnknown) {
  ServerFixture fixture;
  JsonWriter good;
  good.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("options")
      .BeginObject()
      .Key("threads")
      .Int(2)
      .Key("bidirectional")
      .Bool(true)
      .EndObject()
      .Key("csv")
      .String(EmployeeCsv())
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", good.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  WaitTerminal(fixture.port(), id);
  ClientResponse result = Fetch(
      fixture.port(), "GET", "/v1/sessions/" + std::to_string(id) +
                                 "/result");
  EXPECT_NE(result.body.find("\"bidirectional_ods\""), std::string::npos);

  JsonWriter bad;
  bad.BeginObject()
      .Key("algorithm")
      .String("tane")
      .Key("options")
      .BeginObject()
      .Key("swap-method")  // not a TANE option
      .String("sort")
      .EndObject()
      .Key("csv")
      .String(EmployeeCsv())
      .EndObject();
  ClientResponse rejected =
      Fetch(fixture.port(), "POST", "/v1/sessions", bad.str());
  // Unknown option names are NotFound in the option registry → 404.
  EXPECT_EQ(rejected.status, 404) << rejected.body;
  EXPECT_NE(rejected.body.find("swap-method"), std::string::npos);
}

TEST(DiscoveryServerTest, ErrorRoutesAndCodes) {
  ServerFixture fixture;
  EXPECT_EQ(Fetch(fixture.port(), "GET", "/nope").status, 404);
  EXPECT_EQ(Fetch(fixture.port(), "GET", "/v1/sessions/424242").status,
            404);
  EXPECT_EQ(Fetch(fixture.port(), "POST", "/v1/sessions", "{oops").status,
            400);
  // Wrong method on an existing route is 405, not 404.
  EXPECT_EQ(Fetch(fixture.port(), "GET", "/v1/sessions").status, 405);
  EXPECT_EQ(Fetch(fixture.port(), "POST", "/v1/algorithms", "{}").status,
            405);
  EXPECT_EQ(Fetch(fixture.port(), "POST", "/v1/sessions/1/result", "{}")
                .status,
            405);

  // Hostile numbers must be rejected, not undefined-behavior cast.
  ClientResponse huge = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      R"({"algorithm": "fastod", "csv": "a\n1\n",
          "csv_options": {"max_rows": 1e30}})");
  EXPECT_EQ(huge.status, 400);
  EXPECT_NE(huge.body.find("max_rows"), std::string::npos);

  // Unknown algorithm: NotFound listing registered names.
  ClientResponse unknown = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      R"({"algorithm": "magic", "csv": "a\n1\n"})");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_NE(unknown.body.find("fastod"), std::string::npos);

  // csv XOR csv_path.
  ClientResponse both = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      R"({"algorithm": "fastod", "csv": "a\n1\n", "csv_path": "/x.csv"})");
  EXPECT_EQ(both.status, 400);

  // Unknown top-level field (typo protection).
  ClientResponse typo = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      R"({"algorithm": "fastod", "csv": "a\n1\n", "streaming": true})");
  EXPECT_EQ(typo.status, 400);
  EXPECT_NE(typo.body.find("streaming"), std::string::npos);
}

TEST(DiscoveryServerTest, CsvPathReadsOnWorker) {
  ServerFixture fixture;
  std::string path = ::testing::TempDir() + "/server_test_data.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string csv = EmployeeCsv();
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);

  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("csv_path")
      .String(path)
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  WaitTerminal(fixture.port(), id);
  EXPECT_EQ(StateOf(fixture.port(), id), "done");
  std::remove(path.c_str());

  // A missing file fails on the worker and surfaces through polling.
  JsonWriter missing;
  missing.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("csv_path")
      .String("/no/such/file.csv")
      .EndObject();
  ClientResponse bad =
      Fetch(fixture.port(), "POST", "/v1/sessions", missing.str());
  ASSERT_EQ(bad.status, 201) << bad.body;  // submission itself succeeds
  int64_t bad_id = SessionIdOf(bad.body);
  WaitTerminal(fixture.port(), bad_id);
  EXPECT_EQ(StateOf(fixture.port(), bad_id), "failed");
  ClientResponse result = Fetch(
      fixture.port(), "GET",
      "/v1/sessions/" + std::to_string(bad_id) + "/result");
  EXPECT_EQ(result.status, 500);
  EXPECT_NE(result.body.find("/no/such/file.csv"), std::string::npos);
}

TEST(DiscoveryServerTest, ResultBeforeTerminalIsConflict) {
  ServerFixture fixture;
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("trickle")
      .Key("csv")
      .String("a,b\n1,2\n")
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  // The trickle engine is now blocked mid-run on its gate.
  ClientResponse early = Fetch(
      fixture.port(), "GET", "/v1/sessions/" + std::to_string(id) +
                                 "/result");
  EXPECT_EQ(early.status, 409) << early.body;
  fixture.gate().Release();
  WaitTerminal(fixture.port(), id);
  EXPECT_EQ(StateOf(fixture.port(), id), "done");
}

// The headline acceptance test: an OD line is delivered while the
// session is provably still running, the full streamed sequence equals
// the sequential CollectingOdSink run bit-for-bit, and /result
// afterwards names exactly the streamed set.
TEST(DiscoveryServerTest, StreamsOdsMidRunMatchingSequentialSink) {
  ServerFixture fixture;
  Table table = GenFlightLike(300, 8, 7);

  // Sequential baseline.
  CollectingOdSink baseline;
  auto algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(algo.ok());
  (*algo)->SetSink(&baseline);
  ASSERT_TRUE((*algo)->LoadData(table).ok());
  ASSERT_TRUE((*algo)->Execute().ok());
  ASSERT_GT(baseline.TotalOds(), 0);

  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("csv")
      .String(WriteCsvString(table))
      .Key("stream")
      .Bool(true)
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);

  int fd = Connect(fixture.port());
  ASSERT_GE(fd, 0);
  ResponseReader reader(fd);
  ASSERT_TRUE(SendAll(
      fd, RequestText("GET",
                      "/v1/sessions/" + std::to_string(id) + "/stream",
                      "")));
  ClientResponse header;
  ASSERT_TRUE(reader.ReadHeader(&header));
  EXPECT_EQ(header.status, 200);
  EXPECT_EQ(header.headers["transfer-encoding"], "chunked");

  std::vector<JsonValue> lines;
  bool saw_end = false;
  std::string buffered;
  for (std::string chunk = reader.NextChunk(); !chunk.empty();
       chunk = reader.NextChunk()) {
    buffered += chunk;
    size_t newline;
    while ((newline = buffered.find('\n')) != std::string::npos) {
      auto parsed = ParseJson(buffered.substr(0, newline));
      buffered = buffered.substr(newline + 1);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      if (parsed->Find("type")->string_value() == "end") {
        EXPECT_EQ(parsed->Find("state")->string_value(), "done");
        EXPECT_EQ(parsed->Find("streamed")->int_value(),
                  static_cast<int64_t>(lines.size()));
        saw_end = true;
      } else {
        lines.push_back(std::move(*parsed));
      }
    }
  }
  ASSERT_TRUE(saw_end);
  ASSERT_EQ(static_cast<int64_t>(lines.size()), baseline.TotalOds());

  // Per-type sequences match the sequential sink in emission order.
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  ASSERT_TRUE(encoded.ok());
  const Schema& schema = encoded->schema();
  auto context_names = [&](AttributeSet context) {
    std::vector<std::string> names;
    for (int a = context.First(); a >= 0; a = context.Next(a)) {
      names.push_back(schema.name(a));
    }
    return names;
  };
  auto json_names = [](const JsonValue& array) {
    std::vector<std::string> names;
    for (const JsonValue& item : array.array_items()) {
      names.push_back(item.string_value());
    }
    return names;
  };
  size_t constancy_seen = 0;
  size_t compatibility_seen = 0;
  for (const JsonValue& line : lines) {
    const std::string& type = line.Find("type")->string_value();
    if (type == "constancy") {
      ASSERT_LT(constancy_seen, baseline.constancy_ods().size());
      const ConstancyOd& expected =
          baseline.constancy_ods()[constancy_seen++];
      EXPECT_EQ(json_names(*line.Find("context")),
                context_names(expected.context));
      EXPECT_EQ(line.Find("attribute")->string_value(),
                schema.name(expected.attribute));
    } else if (type == "compatibility") {
      ASSERT_LT(compatibility_seen, baseline.compatibility_ods().size());
      const CompatibilityOd& expected =
          baseline.compatibility_ods()[compatibility_seen++];
      EXPECT_EQ(json_names(*line.Find("context")),
                context_names(expected.context));
      EXPECT_EQ(line.Find("a")->string_value(), schema.name(expected.a));
      EXPECT_EQ(line.Find("b")->string_value(), schema.name(expected.b));
    } else {
      FAIL() << "unexpected line type " << type;
    }
  }
  EXPECT_EQ(constancy_seen, baseline.constancy_ods().size());
  EXPECT_EQ(compatibility_seen, baseline.compatibility_ods().size());

  // And the post-hoc /result names the same set.
  ClientResponse result = Fetch(
      fixture.port(), "GET", "/v1/sessions/" + std::to_string(id) +
                                 "/result");
  EXPECT_EQ(result.status, 200);
  auto report = ParseJson(result.body);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Find("constancy_ods")->array_items().size(),
            baseline.constancy_ods().size());
  EXPECT_EQ(report->Find("compatibility_ods")->array_items().size(),
            baseline.compatibility_ods().size());
}

TEST(DiscoveryServerTest, StreamDeliversBeforeSessionCompletes) {
  ServerFixture fixture(/*steps=*/2);
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("trickle")
      .Key("csv")
      .String("a,b\n1,2\n")
      .Key("stream")
      .Bool(true)
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);

  int fd = Connect(fixture.port());
  ASSERT_GE(fd, 0);
  ResponseReader reader(fd);
  ASSERT_TRUE(SendAll(
      fd, RequestText("GET",
                      "/v1/sessions/" + std::to_string(id) + "/stream",
                      "")));
  ClientResponse header;
  ASSERT_TRUE(reader.ReadHeader(&header));
  ASSERT_EQ(header.status, 200);

  // First OD line arrives while the engine is parked on its gate — the
  // session is mid-run by construction, which *is* the incremental
  // delivery claim.
  std::string first = reader.NextChunk();
  ASSERT_NE(first.find("\"constancy\""), std::string::npos) << first;
  EXPECT_EQ(StateOf(fixture.port(), id), "running");

  fixture.gate().Release();
  std::string rest;
  for (std::string chunk = reader.NextChunk(); !chunk.empty();
       chunk = reader.NextChunk()) {
    rest += chunk;
  }
  EXPECT_NE(rest.find("\"end\""), std::string::npos) << rest;
  EXPECT_NE(rest.find("\"done\""), std::string::npos) << rest;
  WaitTerminal(fixture.port(), id);
}

TEST(DiscoveryServerTest, CancelMidStreamEndsStreamAsCancelled) {
  ServerFixture fixture(/*steps=*/1000);  // gate never releases enough
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("trickle")
      .Key("csv")
      .String("a,b\n1,2\n")
      .Key("stream")
      .Bool(true)
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);

  int fd = Connect(fixture.port());
  ASSERT_GE(fd, 0);
  ResponseReader reader(fd);
  ASSERT_TRUE(SendAll(
      fd, RequestText("GET",
                      "/v1/sessions/" + std::to_string(id) + "/stream",
                      "")));
  ClientResponse header;
  ASSERT_TRUE(reader.ReadHeader(&header));
  ASSERT_EQ(header.status, 200);
  std::string first = reader.NextChunk();
  ASSERT_NE(first.find("constancy"), std::string::npos);

  // Cancel while the engine sits mid-run; the stream must drain and
  // close with state=cancelled (TrickleAlgorithm honors the cancel at
  // its gate — cooperative cancellation, same as the real engines).
  ClientResponse cancelled =
      Fetch(fixture.port(), "DELETE", "/v1/sessions/" + std::to_string(id));
  EXPECT_EQ(cancelled.status, 200) << cancelled.body;
  fixture.gate().Release();  // wake the gate so it can observe the flag

  std::string rest;
  for (std::string chunk = reader.NextChunk(); !chunk.empty();
       chunk = reader.NextChunk()) {
    rest += chunk;
  }
  EXPECT_NE(rest.find("\"end\""), std::string::npos) << rest;
  EXPECT_NE(rest.find("\"cancelled\""), std::string::npos) << rest;
  WaitTerminal(fixture.port(), id);
  EXPECT_EQ(StateOf(fixture.port(), id), "cancelled");
}

TEST(DiscoveryServerTest, StreamRequiresOptInAndSingleReader) {
  ServerFixture fixture;
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("csv")
      .String(EmployeeCsv())
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201);
  int64_t id = SessionIdOf(created.body);
  ClientResponse stream = Fetch(
      fixture.port(), "GET", "/v1/sessions/" + std::to_string(id) +
                                 "/stream");
  EXPECT_EQ(stream.status, 409);
  EXPECT_NE(stream.body.find("stream"), std::string::npos);
  WaitTerminal(fixture.port(), id);
}

TEST(DiscoveryServerTest, PurgeFreesTerminalSessionsAndRejectsLive) {
  ServerFixture fixture;
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("trickle")  // parks on its gate → reliably non-terminal
      .Key("csv")
      .String("a,b\n1,2\n")
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  std::string base = "/v1/sessions/" + std::to_string(id);

  // Purge of a live session is refused; the handle stays valid.
  ClientResponse live = Fetch(fixture.port(), "DELETE", base + "?purge=1");
  EXPECT_EQ(live.status, 409) << live.body;
  EXPECT_EQ(Fetch(fixture.port(), "GET", base).status, 200);

  fixture.gate().Release();
  WaitTerminal(fixture.port(), id);
  ClientResponse purged =
      Fetch(fixture.port(), "DELETE", base + "?purge=1");
  EXPECT_EQ(purged.status, 200) << purged.body;
  EXPECT_NE(purged.body.find("\"purged\": true"), std::string::npos);
  // The handle is gone from every route.
  EXPECT_EQ(Fetch(fixture.port(), "GET", base).status, 404);
  EXPECT_EQ(Fetch(fixture.port(), "GET", base + "/result").status, 404);
  EXPECT_EQ(Fetch(fixture.port(), "DELETE", base + "?purge=1").status,
            404);
}

TEST(DiscoveryServerTest, ThrowingEngineFailsSessionNotServer) {
  ServerFixture fixture;
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("throwing")
      .Key("csv")
      .String("a,b\n1,2\n")
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  WaitTerminal(fixture.port(), id);
  EXPECT_EQ(StateOf(fixture.port(), id), "failed");
  ClientResponse info =
      Fetch(fixture.port(), "GET", "/v1/sessions/" + std::to_string(id));
  EXPECT_NE(info.body.find("deliberate test explosion"), std::string::npos)
      << info.body;

  // The worker survived: a healthy session right after still completes.
  JsonWriter next;
  next.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("csv")
      .String(EmployeeCsv())
      .EndObject();
  ClientResponse ok =
      Fetch(fixture.port(), "POST", "/v1/sessions", next.str());
  ASSERT_EQ(ok.status, 201);
  int64_t ok_id = SessionIdOf(ok.body);
  WaitTerminal(fixture.port(), ok_id);
  EXPECT_EQ(StateOf(fixture.port(), ok_id), "done");
}

// ------------------------------------------------- shared datasets

std::string FlightCsv() { return WriteCsvString(GenFlightLike(300, 8, 7)); }


/// POSTs one session bound to `source_key`/`source_value` and returns
/// its /result body after completion.
std::string RunSessionToResult(int port, const std::string& algorithm,
                               const std::string& source_key,
                               const std::string& source_value,
                               bool stream = false) {
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String(algorithm)
      .Key(source_key)
      .String(source_value);
  if (stream) post.Key("stream").Bool(true);
  post.EndObject();
  ClientResponse created = Fetch(port, "POST", "/v1/sessions", post.str());
  EXPECT_EQ(created.status, 201) << created.body;
  if (created.status != 201) return "";
  int64_t id = SessionIdOf(created.body);
  if (stream) {
    // Consume the stream to completion first (backpressure: an unread
    // stream would park the worker).
    ClientResponse response =
        Fetch(port, "GET", "/v1/sessions/" + std::to_string(id) +
                               "/stream");
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"type\": \"end\""), std::string::npos)
        << response.body;
  }
  WaitTerminal(port, id);
  EXPECT_EQ(StateOf(port, id), "done");
  ClientResponse result =
      Fetch(port, "GET", "/v1/sessions/" + std::to_string(id) + "/result");
  EXPECT_EQ(result.status, 200);
  // These helpers feed bit-for-bit discovery-output comparisons across
  // source modes; the embedded trace legitimately differs (see
  // StripTrace) and has its own endpoint tests.
  return StripTrace(result.body);
}

// The acceptance bar: upload one CSV, run two sessions (one streamed)
// against its dataset_id, and require bit-for-bit the bodies of two
// independent inline-csv sessions; then delete the dataset and assert
// 404 for lookups and new submissions.
TEST(DiscoveryServerTest, DatasetLifecycleLoadOnceDiscoverMany) {
  ServerFixture fixture;
  int port = fixture.port();
  std::string csv = FlightCsv();

  // References: two sessions each carrying the CSV inline.
  std::string expected_plain =
      RunSessionToResult(port, "fastod", "csv", csv);
  std::string expected_streamed =
      RunSessionToResult(port, "tane", "csv", csv, /*stream=*/true);
  ASSERT_FALSE(expected_plain.empty());
  ASSERT_FALSE(expected_streamed.empty());

  JsonWriter upload;
  upload.BeginObject()
      .Key("id")
      .String("flight")
      .Key("csv")
      .String(csv)
      .EndObject();
  ClientResponse created =
      Fetch(port, "POST", "/v1/datasets", upload.str());
  ASSERT_EQ(created.status, 201) << created.body;
  auto created_info = ParseJson(created.body);
  ASSERT_TRUE(created_info.ok());
  EXPECT_EQ(created_info->Find("id")->string_value(), "flight");
  EXPECT_EQ(created_info->Find("rows")->int_value(), 300);
  EXPECT_EQ(created_info->Find("columns")->int_value(), 8);

  EXPECT_EQ(MaskSeconds(
                RunSessionToResult(port, "fastod", "dataset_id", "flight")),
            MaskSeconds(expected_plain));
  EXPECT_EQ(MaskSeconds(RunSessionToResult(port, "tane", "dataset_id",
                                           "flight", /*stream=*/true)),
            MaskSeconds(expected_streamed));

  // The info row counts both sessions and shows the live pins.
  ClientResponse info = Fetch(port, "GET", "/v1/datasets/flight");
  ASSERT_EQ(info.status, 200);
  auto parsed = ParseJson(info.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("hits")->int_value(), 2);
  EXPECT_TRUE(parsed->Find("pinned")->bool_value());

  ClientResponse list = Fetch(port, "GET", "/v1/datasets");
  ASSERT_EQ(list.status, 200);
  auto listed = ParseJson(list.body);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->Find("datasets")->array_items().size(), 1u);
  EXPECT_GT(listed->Find("total_bytes")->int_value(), 0);

  ClientResponse deleted =
      Fetch(port, "DELETE", "/v1/datasets/flight");
  EXPECT_EQ(deleted.status, 200) << deleted.body;
  EXPECT_EQ(Fetch(port, "GET", "/v1/datasets/flight").status, 404);
  EXPECT_EQ(Fetch(port, "DELETE", "/v1/datasets/flight").status, 404);
  JsonWriter stale;
  stale.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("dataset_id")
      .String("flight")
      .EndObject();
  EXPECT_EQ(Fetch(port, "POST", "/v1/sessions", stale.str()).status, 404);
}

// Concurrent mixed-algorithm sessions sharing one uploaded relation —
// the multi-tenant shape the store exists for. Every result must match
// the corresponding inline-csv reference.
TEST(DiscoveryServerTest, ConcurrentMixedSessionsShareOneDataset) {
  ServerFixture fixture;
  int port = fixture.port();
  std::string csv = FlightCsv();
  std::map<std::string, std::string> expected;
  for (const char* algorithm : {"fastod", "tane", "approximate"}) {
    expected[algorithm] = RunSessionToResult(port, algorithm, "csv", csv);
    ASSERT_FALSE(expected[algorithm].empty());
  }

  JsonWriter upload;
  upload.BeginObject().Key("csv").String(csv).EndObject();
  ClientResponse created =
      Fetch(port, "POST", "/v1/datasets", upload.str());
  ASSERT_EQ(created.status, 201) << created.body;
  auto created_info = ParseJson(created.body);
  ASSERT_TRUE(created_info.ok());
  std::string dataset_id = created_info->Find("id")->string_value();
  EXPECT_EQ(dataset_id.rfind("ds-", 0), 0u) << dataset_id;  // autogenerated

  const std::vector<std::string> algorithms = {
      "fastod", "tane", "approximate", "fastod", "tane", "approximate"};
  std::vector<std::thread> threads;
  std::vector<std::string> results(algorithms.size());
  for (size_t i = 0; i < algorithms.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = RunSessionToResult(port, algorithms[i], "dataset_id",
                                      dataset_id);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < algorithms.size(); ++i) {
    EXPECT_EQ(MaskSeconds(results[i]), MaskSeconds(expected[algorithms[i]]))
        << algorithms[i];
  }
}

TEST(DiscoveryServerTest, DatasetValidationAndErrorCodes) {
  ServerFixture fixture;
  int port = fixture.port();

  // Malformed uploads.
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets", "{}").status, 400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets",
                  "{\"csv\": \"a\\n1\\n\", \"csv_path\": \"x\"}")
                .status,
            400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets",
                  "{\"id\": \"bad/id\", \"csv\": \"a\\n1\\n\"}")
                .status,
            400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets",
                  "{\"csv\": \"a\\n1\\n\", \"nope\": 1}")
                .status,
            400);
  // Wrong method.
  EXPECT_EQ(Fetch(port, "PUT", "/v1/datasets").status, 405);
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets/x").status, 405);

  // Duplicate id → 409 (FailedPrecondition).
  JsonWriter upload;
  upload.BeginObject()
      .Key("id")
      .String("dup")
      .Key("csv")
      .String("a,b\n1,2\n2,3\n")
      .EndObject();
  ASSERT_EQ(Fetch(port, "POST", "/v1/datasets", upload.str()).status, 201);
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets", upload.str()).status, 409);

  // A session naming both a csv and a dataset_id is rejected.
  EXPECT_EQ(Fetch(port, "POST", "/v1/sessions",
                  "{\"algorithm\": \"fastod\", \"csv\": \"a\\n1\\n\", "
                  "\"dataset_id\": \"dup\"}")
                .status,
            400);
  // csv_options were fixed at upload; pretending they apply per-session
  // would be silent misconfiguration.
  ClientResponse opts = Fetch(
      port, "POST", "/v1/sessions",
      "{\"algorithm\": \"fastod\", \"dataset_id\": \"dup\", "
      "\"csv_options\": {\"delimiter\": \";\"}}");
  EXPECT_EQ(opts.status, 400);
  EXPECT_NE(opts.body.find("csv_options"), std::string::npos);
}

// ------------------------------------ versioned datasets / incremental

std::vector<std::string> SortedOdDump(const JsonValue& report,
                                      const char* key) {
  std::vector<std::string> dumps;
  const JsonValue* array = report.Find(key);
  if (array == nullptr) return dumps;
  for (const JsonValue& od : array->array_items()) {
    dumps.push_back(od.Dump());
  }
  std::sort(dumps.begin(), dumps.end());
  return dumps;
}

// The PR-8 acceptance bar over HTTP: upload → discover → append →
// incremental session streaming a revocation → result equivalent to a
// fresh full run on the grown version.
TEST(DiscoveryServerTest, AppendLifecycleStreamsRevocations) {
  ServerFixture fixture;
  int port = fixture.port();
  // b is constant in the base, so [] -> b holds and the appended row
  // (b=9) must revoke it.
  std::string csv = "a,b,c\n1,7,10\n2,7,20\n3,7,30\n4,7,40\n5,7,50\n";

  JsonWriter upload;
  upload.BeginObject()
      .Key("id")
      .String("grow")
      .Key("csv")
      .String(csv)
      .EndObject();
  ASSERT_EQ(Fetch(port, "POST", "/v1/datasets", upload.str()).status, 201);

  std::string prior =
      RunSessionToResult(port, "fastod", "dataset_id", "grow");
  ASSERT_FALSE(prior.empty());

  // Append one headerless delta row → version 2.
  ClientResponse appended = Fetch(port, "POST", "/v1/datasets/grow/rows",
                                  "{\"csv\": \"6,9,15\\n\"}");
  ASSERT_EQ(appended.status, 200) << appended.body;
  auto append_info = ParseJson(appended.body);
  ASSERT_TRUE(append_info.ok());
  EXPECT_EQ(append_info->Find("id")->string_value(), "grow");
  EXPECT_EQ(append_info->Find("version")->int_value(), 2);
  EXPECT_EQ(append_info->Find("appended_rows")->int_value(), 1);
  EXPECT_EQ(append_info->Find("rows")->int_value(), 6);

  // The info row reports the new version and the per-version accounting
  // (version 1 is still retained: the prior session pins it).
  ClientResponse info = Fetch(port, "GET", "/v1/datasets/grow");
  ASSERT_EQ(info.status, 200);
  auto parsed_info = ParseJson(info.body);
  ASSERT_TRUE(parsed_info.ok());
  EXPECT_EQ(parsed_info->Find("version")->int_value(), 2);
  EXPECT_GT(parsed_info->Find("retained_bytes")->int_value(), 0);
  const JsonValue* versions = parsed_info->Find("versions");
  ASSERT_NE(versions, nullptr) << info.body;
  ASSERT_EQ(versions->array_items().size(), 2u);
  EXPECT_EQ(versions->array_items()[0].Find("version")->int_value(), 2);
  EXPECT_TRUE(versions->array_items()[0].Find("current")->bool_value());
  EXPECT_EQ(versions->array_items()[1].Find("version")->int_value(), 1);
  EXPECT_FALSE(versions->array_items()[1].Find("current")->bool_value());

  // Incremental session over the grown dataset, streamed: the broken
  // constancy arrives as a {"type": "revoked"} NDJSON line.
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm")
      .String("incremental")
      .Key("dataset_id")
      .String("grow")
      .Key("options")
      .BeginObject()
      .Key("prior")
      .String(prior)
      .EndObject()
      .Key("stream")
      .Bool(true)
      .EndObject();
  ClientResponse created =
      Fetch(port, "POST", "/v1/sessions", post.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  ClientResponse stream = Fetch(
      port, "GET", "/v1/sessions/" + std::to_string(id) + "/stream");
  EXPECT_EQ(stream.status, 200);
  EXPECT_NE(stream.body.find("\"type\": \"revoked\""), std::string::npos)
      << stream.body;
  EXPECT_NE(stream.body.find("\"od_type\": \"constancy\""),
            std::string::npos)
      << stream.body;
  EXPECT_NE(stream.body.find("\"type\": \"end\""), std::string::npos);
  WaitTerminal(port, id);
  EXPECT_EQ(StateOf(port, id), "done");

  ClientResponse result = Fetch(
      port, "GET", "/v1/sessions/" + std::to_string(id) + "/result");
  ASSERT_EQ(result.status, 200);
  auto inc_report = ParseJson(StripTrace(result.body));
  ASSERT_TRUE(inc_report.ok()) << result.body;
  const JsonValue* revoked = inc_report->Find("revoked_constancy_ods");
  ASSERT_NE(revoked, nullptr) << result.body;
  EXPECT_GE(revoked->array_items().size(), 1u);
  ASSERT_NE(inc_report->Find("incremental"), nullptr) << result.body;

  // Equivalence oracle through the wire: surviving + new must equal a
  // fresh full fastod run on version 2, as sets.
  std::string fresh =
      RunSessionToResult(port, "fastod", "dataset_id", "grow");
  auto fresh_report = ParseJson(fresh);
  ASSERT_TRUE(fresh_report.ok());
  EXPECT_EQ(SortedOdDump(*inc_report, "constancy_ods"),
            SortedOdDump(*fresh_report, "constancy_ods"));
  EXPECT_EQ(SortedOdDump(*inc_report, "compatibility_ods"),
            SortedOdDump(*fresh_report, "compatibility_ods"));
}

TEST(DiscoveryServerTest, DatasetVersionPinningAndAppendErrors) {
  ServerFixture fixture;
  int port = fixture.port();
  JsonWriter upload;
  upload.BeginObject()
      .Key("id")
      .String("pin")
      .Key("csv")
      .String("a,b\n1,7\n2,7\n3,7\n")
      .EndObject();
  ASSERT_EQ(Fetch(port, "POST", "/v1/datasets", upload.str()).status, 201);

  // The finished session keeps version 1 alive after the append.
  std::string v1_result =
      RunSessionToResult(port, "fastod", "dataset_id", "pin");
  ASSERT_EQ(
      Fetch(port, "POST", "/v1/datasets/pin/rows", "{\"csv\": \"4,9\\n\"}")
          .status,
      200);

  // dataset_version pins the superseded version: bit-for-bit the run
  // that executed before the append.
  JsonWriter pinned;
  pinned.BeginObject()
      .Key("algorithm")
      .String("fastod")
      .Key("dataset_id")
      .String("pin")
      .Key("dataset_version")
      .Int(1)
      .EndObject();
  ClientResponse created =
      Fetch(port, "POST", "/v1/sessions", pinned.str());
  ASSERT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  WaitTerminal(port, id);
  EXPECT_EQ(StateOf(port, id), "done");
  ClientResponse result = Fetch(
      port, "GET", "/v1/sessions/" + std::to_string(id) + "/result");
  ASSERT_EQ(result.status, 200);
  EXPECT_EQ(MaskSeconds(StripTrace(result.body)), MaskSeconds(v1_result));

  // A version that never existed (or is gone) → 404.
  EXPECT_EQ(Fetch(port, "POST", "/v1/sessions",
                  "{\"algorithm\": \"fastod\", \"dataset_id\": \"pin\", "
                  "\"dataset_version\": 9}")
                .status,
            404);
  // dataset_version without dataset_id is meaningless → 400.
  EXPECT_EQ(Fetch(port, "POST", "/v1/sessions",
                  "{\"algorithm\": \"fastod\", \"csv\": \"a\\n1\\n\", "
                  "\"dataset_version\": 1}")
                .status,
            400);
  // Fractional or non-positive versions are rejected up front.
  EXPECT_EQ(Fetch(port, "POST", "/v1/sessions",
                  "{\"algorithm\": \"fastod\", \"dataset_id\": \"pin\", "
                  "\"dataset_version\": 0}")
                .status,
            400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/sessions",
                  "{\"algorithm\": \"fastod\", \"dataset_id\": \"pin\", "
                  "\"dataset_version\": 1.5}")
                .status,
            400);

  // Append error routes.
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets/ghost/rows",
                  "{\"csv\": \"1,2\\n\"}")
                .status,
            404);
  EXPECT_EQ(Fetch(port, "GET", "/v1/datasets/pin/rows").status, 405);
  EXPECT_EQ(
      Fetch(port, "POST", "/v1/datasets/pin/rows", "{}").status, 400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets/pin/rows",
                  "{\"csv\": \"1,2,3\\n\"}")
                .status,
            400);
  EXPECT_EQ(Fetch(port, "POST", "/v1/datasets/pin/rows",
                  "{\"csv\": \"5,9\\n\", \"nope\": 1}")
                .status,
            400);
}

// --------------------------------------------------- observability

/// Restores the process-wide metrics switch on scope exit: the whole
/// binary shares one obs state, so tests must not leak theirs.
class MetricsGuard {
 public:
  MetricsGuard() : saved_(obs::Enabled()) {}
  ~MetricsGuard() { obs::SetEnabled(saved_); }

 private:
  bool saved_;
};

int64_t RunDoneSession(ServerFixture& fixture) {
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm").String("fastod")
      .Key("csv").String(EmployeeCsv())
      .EndObject();
  ClientResponse created =
      Fetch(fixture.port(), "POST", "/v1/sessions", post.str());
  EXPECT_EQ(created.status, 201) << created.body;
  int64_t id = SessionIdOf(created.body);
  WaitTerminal(fixture.port(), id);
  EXPECT_EQ(StateOf(fixture.port(), id), "done");
  return id;
}

TEST(DiscoveryServerTest, MetricsEndpointExposesPrometheusFamilies) {
  MetricsGuard guard;
  obs::SetEnabled(true);
  ServerFixture fixture;
  RunDoneSession(fixture);

  ClientResponse scrape = Fetch(fixture.port(), "GET", "/metrics");
  ASSERT_EQ(scrape.status, 200);
  EXPECT_EQ(scrape.headers["content-type"],
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string& body = scrape.body;
  EXPECT_NE(body.find("# TYPE fastod_sessions_total counter"),
            std::string::npos) << body;
  EXPECT_NE(body.find("fastod_sessions_total{algorithm=\"fastod\","
                      "state=\"done\"}"),
            std::string::npos) << body;
  EXPECT_NE(body.find("# TYPE fastod_session_execute_seconds histogram"),
            std::string::npos) << body;
  EXPECT_NE(body.find("# TYPE fastod_lattice_nodes_total counter"),
            std::string::npos) << body;
  EXPECT_NE(body.find("# TYPE fastod_dataset_store_resident_bytes gauge"),
            std::string::npos) << body;
  EXPECT_NE(body.find("fastod_service_active_sessions"),
            std::string::npos) << body;

  // The first scrape itself was counted: a second scrape reports the
  // /metrics route in the HTTP request family.
  ClientResponse again = Fetch(fixture.port(), "GET", "/metrics");
  EXPECT_NE(again.body.find("fastod_http_requests_total{method=\"GET\","
                            "route=\"/metrics\"}"),
            std::string::npos) << again.body;
  // Polling hit the session-info route; the id collapsed to a template
  // so label cardinality stays bounded.
  EXPECT_NE(again.body.find("route=\"/v1/sessions/{id}\""),
            std::string::npos) << again.body;
  EXPECT_EQ(again.body.find("route=\"/v1/sessions/" ),
            again.body.find("route=\"/v1/sessions/{id}"))
      << again.body;
}

TEST(DiscoveryServerTest, TraceEndpointReturnsSpansAndEngine) {
  MetricsGuard guard;
  obs::SetEnabled(true);
  ServerFixture fixture;
  int64_t id = RunDoneSession(fixture);

  ClientResponse trace = Fetch(
      fixture.port(), "GET",
      "/v1/sessions/" + std::to_string(id) + "/trace");
  ASSERT_EQ(trace.status, 200) << trace.body;
  auto parsed = ParseJson(trace.body);
  ASSERT_TRUE(parsed.ok()) << trace.body;
  const JsonValue* engine = parsed->Find("engine");
  ASSERT_TRUE(engine != nullptr && engine->is_object()) << trace.body;
  EXPECT_GT(engine->Find("nodes_visited")->int_value(), 0);
  EXPECT_NE(trace.body.find("\"execute\""), std::string::npos);
  // An inline "csv" body is parsed inside the session, so its two ingest
  // phases appear as spans, in order, ahead of the run.
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_TRUE(spans != nullptr && spans->is_array()) << trace.body;
  std::vector<std::string> names;
  for (const JsonValue& span : spans->array_items()) {
    names.push_back(span.Find("name")->string_value());
  }
  ASSERT_GE(names.size(), 3u) << trace.body;
  EXPECT_EQ(names[0], "csv.parse") << trace.body;
  EXPECT_EQ(names[1], "encode") << trace.body;
  EXPECT_EQ(names[2], "execute") << trace.body;

  ClientResponse missing =
      Fetch(fixture.port(), "GET", "/v1/sessions/999999/trace");
  EXPECT_EQ(missing.status, 404);

  // The result report of the same session embeds the trace.
  ClientResponse result = Fetch(
      fixture.port(), "GET",
      "/v1/sessions/" + std::to_string(id) + "/result");
  ASSERT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("\"trace\":"), std::string::npos)
      << result.body;
}

TEST(DiscoveryServerTest, DatasetListingCarriesStoreTelemetry) {
  MetricsGuard guard;
  obs::SetEnabled(true);
  ServerFixture fixture;
  ClientResponse upload = Fetch(
      fixture.port(), "POST", "/v1/datasets",
      "{\"id\": \"emp\", \"csv\": \"" + JsonEscape(EmployeeCsv()) +
          "\"}");
  ASSERT_EQ(upload.status, 201) << upload.body;
  ClientResponse created = Fetch(
      fixture.port(), "POST", "/v1/sessions",
      "{\"algorithm\": \"fastod\", \"dataset_id\": \"emp\"}");
  ASSERT_EQ(created.status, 201) << created.body;
  WaitTerminal(fixture.port(), SessionIdOf(created.body));

  ClientResponse list = Fetch(fixture.port(), "GET", "/v1/datasets");
  ASSERT_EQ(list.status, 200);
  auto parsed = ParseJson(list.body);
  ASSERT_TRUE(parsed.ok()) << list.body;
  EXPECT_GE(parsed->Find("hits_total")->int_value(), 1);
  EXPECT_NE(parsed->Find("pinned_count"), nullptr);
  EXPECT_NE(parsed->Find("evictions"), nullptr);

  // /metrics mirrors the store state through the scrape-time gauges.
  ClientResponse scrape = Fetch(fixture.port(), "GET", "/metrics");
  EXPECT_NE(scrape.body.find("fastod_dataset_store_hits"),
            std::string::npos) << scrape.body;
  EXPECT_NE(scrape.body.find("fastod_dataset_store_entries 1"),
            std::string::npos) << scrape.body;
}

TEST(DiscoveryServerTest, MetricsDisabledKeepsEndpointsServable) {
  MetricsGuard guard;
  obs::SetEnabled(false);
  ServerFixture fixture;
  int64_t id = RunDoneSession(fixture);

  // /metrics stays routable (empty-ish exposition), /trace reports the
  // empty trace, and /result carries no trace key.
  ClientResponse scrape = Fetch(fixture.port(), "GET", "/metrics");
  EXPECT_EQ(scrape.status, 200);
  ClientResponse trace = Fetch(
      fixture.port(), "GET",
      "/v1/sessions/" + std::to_string(id) + "/trace");
  ASSERT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"engine\": null"), std::string::npos)
      << trace.body;
  ClientResponse result = Fetch(
      fixture.port(), "GET",
      "/v1/sessions/" + std::to_string(id) + "/result");
  ASSERT_EQ(result.status, 200);
  EXPECT_EQ(result.body.find("\"trace\":"), std::string::npos)
      << result.body;
}

}  // namespace
}  // namespace fastod
