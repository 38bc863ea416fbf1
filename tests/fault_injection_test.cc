// Walks every named fault point in the codebase and proves each
// degrades through its coded-error path: the session turns failed (or
// the call returns a Status), the process keeps serving, and shared
// state (DatasetStore budget accounting, sink counters) stays intact.
//
// Points covered: csv.read, dataset_store.insert, partition.build,
// sink.push, httpd.write — plus the schedule machinery itself
// (FASTOD_FAULTS parsing, env reload, hit counters).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "api/engines.h"
#include "api/od_sink.h"
#include "api/registry.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/status.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "od/attribute_set.h"
#include "server/discovery_server.h"
#include "service/discovery_service.h"

namespace fastod {
namespace {

/// Every test leaves the process schedule-free even on assertion
/// failure, so fault state cannot leak across tests.
struct ScheduleGuard {
  ~ScheduleGuard() { fault::Clear(); }
};

std::string EmployeeCsv() { return WriteCsvString(EmployeeTaxTable()); }

/// Minimal raw request: connects, sends it, returns everything the
/// server wrote before closing ("" when the connection died first).
std::string RawRequest(int port, const std::string& method,
                       const std::string& path,
                       const std::string& body = "") {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string RawGet(int port, const std::string& path) {
  return RawRequest(port, "GET", path);
}

/// The body of a raw response, chunked transfer coding undone; stops at
/// the first incomplete chunk.
std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  if (pos == std::string::npos) return "";
  pos += 4;
  if (response.find("Transfer-Encoding: chunked") == std::string::npos) {
    return response.substr(pos);
  }
  std::string body;
  for (;;) {
    size_t eol = response.find("\r\n", pos);
    if (eol == std::string::npos) break;
    size_t size = std::strtoul(response.substr(pos, eol - pos).c_str(),
                               nullptr, 16);
    if (size == 0 || eol + 2 + size > response.size()) break;
    body += response.substr(eol + 2, size);
    pos = eol + 2 + size + 2;
  }
  return body;
}

// ----------------------------------------------- schedule machinery

TEST(FaultScheduleTest, MalformedSpecIsRejectedAndPreservesPrevious) {
  ScheduleGuard guard;
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:1"));
  EXPECT_FALSE(fault::SetSchedule("csv.read"));            // no action
  EXPECT_FALSE(fault::SetSchedule("csv.read:explode:1"));  // bad action
  EXPECT_FALSE(fault::SetSchedule("csv.read:fail:0"));     // N is 1-based
  EXPECT_FALSE(fault::SetSchedule("csv.read:fail:x"));     // bad count
  // The valid schedule installed first is still active.
  Status status = ReadCsvString(EmployeeCsv()).status();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  // An empty spec clears.
  ASSERT_TRUE(fault::SetSchedule(""));
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
}

TEST(FaultScheduleTest, EnvSchedulesLoadAndClear) {
  ScheduleGuard guard;
  ASSERT_EQ(setenv("FASTOD_FAULTS", "csv.read:fail:1", 1), 0);
  EXPECT_TRUE(fault::ReloadFromEnv());
  EXPECT_FALSE(ReadCsvString(EmployeeCsv()).ok());
  ASSERT_EQ(unsetenv("FASTOD_FAULTS"), 0);
  EXPECT_TRUE(fault::ReloadFromEnv());  // unset env clears the schedule
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
  ASSERT_EQ(setenv("FASTOD_FAULTS", "not-a-schedule", 1), 0);
  EXPECT_FALSE(fault::ReloadFromEnv());
  ASSERT_EQ(unsetenv("FASTOD_FAULTS"), 0);
}

TEST(FaultScheduleTest, HitsCountEveryPassageWhileScheduled) {
  ScheduleGuard guard;
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:3"));
  EXPECT_EQ(fault::Hits("csv.read"), 0);
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());   // hit 1: no trip
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());   // hit 2: no trip
  EXPECT_FALSE(ReadCsvString(EmployeeCsv()).ok());  // hit 3: trips
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());   // trips exactly once
  EXPECT_EQ(fault::Hits("csv.read"), 4);
  fault::Clear();
  EXPECT_EQ(fault::Hits("csv.read"), 0);  // counters reset with schedule
}

TEST(FaultScheduleTest, TrippedFaultIncrementsObservedCounter) {
  ScheduleGuard guard;
  const bool saved = obs::Enabled();
  obs::SetEnabled(true);
  // The counter counts *trips*, not passages: one fail on the second
  // hit means exactly one increment across three reads.
  obs::Counter* observed = obs::Registry::Global().GetCounter(
      "fastod_fault_observed_total",
      "Scheduled faults that tripped at their fault point",
      {{"point", "csv.read"}});
  const int64_t before = observed->Value();
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:2"));
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
  EXPECT_FALSE(ReadCsvString(EmployeeCsv()).ok());
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
  EXPECT_EQ(observed->Value(), before + 1);
  obs::SetEnabled(saved);
}

// ----------------------------------------------------- point: csv.read

TEST(FaultPointTest, CsvReadFailReturnsIoError) {
  ScheduleGuard guard;
  ASSERT_TRUE(fault::SetSchedule("csv.read:fail:1"));
  Result<Table> table = ReadCsvString(EmployeeCsv());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
  EXPECT_NE(table.status().ToString().find("injected fault: csv.read"),
            std::string::npos)
      << table.status().ToString();
  EXPECT_TRUE(ReadCsvString(EmployeeCsv()).ok());
}

TEST(FaultPointTest, CsvReadThrowFailsDeferredSessionServiceSurvives) {
  ScheduleGuard guard;
  // The deferred read happens on the worker thread; the throw must be
  // contained there and become a failed session, not an unwound worker.
  const std::string path = "fault_injection_tmp.csv";
  {
    std::ofstream out(path);
    out << EmployeeCsv();
  }
  DiscoveryService service(2);
  ASSERT_TRUE(fault::SetSchedule("csv.read:throw:1"));
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.SubmitCsv(*id, path).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->error.find("injected fault at 'csv.read'"),
            std::string::npos)
      << info->error;
  fault::Clear();
  // The worker that swallowed the throw serves the next session.
  Result<SessionId> next = service.Create("fastod");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service.SubmitCsv(*next, path).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
  std::remove(path.c_str());
}

// ----------------------------------------- point: dataset_store.insert

TEST(FaultPointTest, DatasetStoreInsertFailLeavesStoreUntouched) {
  ScheduleGuard guard;
  DatasetStore store(64 << 20);
  ASSERT_TRUE(fault::SetSchedule("dataset_store.insert:fail:1"));
  auto put = store.PutTable("employee", EmployeeTaxTable());
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.status().code(), StatusCode::kResourceExhausted)
      << put.status().ToString();
  // The refusal happened before any mutation: no entry, no bytes, and
  // the id is free for the retry.
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.TotalBytes(), 0);
  EXPECT_TRUE(store.List().empty());
  auto retry = store.PutTable("employee", EmployeeTaxTable());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(store.size(), 1);
  EXPECT_GT(store.TotalBytes(), 0);
}

TEST(FaultPointTest, DatasetStoreInsertThrowIsContainedByHttpHandler) {
  ScheduleGuard guard;
  DiscoveryServerOptions options;
  options.port = 0;
  options.http_threads = 2;
  options.worker_threads = 1;
  DiscoveryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(fault::SetSchedule("dataset_store.insert:throw:1"));
  // Exercised via the store directly (the HTTP handler containment is
  // covered by server_test's ThrowingAlgorithm): the throw must leave
  // the server's store consistent for the next upload.
  EXPECT_THROW(
      (void)server.service().store().PutTable("d1", EmployeeTaxTable()),
      fault::FaultInjected);
  fault::Clear();
  EXPECT_EQ(server.service().store().size(), 0);
  auto retry = server.service().store().PutTable("d1", EmployeeTaxTable());
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  server.Stop();
}

// ---------------------------------------------- point: partition.build

TEST(FaultPointTest, PartitionBuildThrowFailsSessionWorkerSurvives) {
  ScheduleGuard guard;
  DiscoveryService service(1);  // one worker: its survival is observable
  ASSERT_TRUE(fault::SetSchedule("partition.build:throw:1"));
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.LoadTable(*id, EmployeeTaxTable()).ok());
  ASSERT_TRUE(service.Submit(*id).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->error_code, StatusCode::kInternal);
  EXPECT_NE(info->error.find("injected fault at 'partition.build'"),
            std::string::npos)
      << info->error;
  fault::Clear();
  Result<SessionId> next = service.Create("fastod");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service.LoadTable(*next, EmployeeTaxTable()).ok());
  ASSERT_TRUE(service.Submit(*next).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
}

// --------------------------------------------------- point: sink.push

TEST(FaultPointTest, SinkPushFailDropsExactlyTheScheduledEvent) {
  ScheduleGuard guard;
  ChannelOdSink sink(8);
  ASSERT_TRUE(fault::SetSchedule("sink.push:fail:2"));
  sink.OnConstancy(ConstancyOd{AttributeSet(), 0});  // delivered
  sink.OnConstancy(ConstancyOd{AttributeSet(), 1});  // tripped: dropped
  sink.OnConstancy(ConstancyOd{AttributeSet(), 2});  // delivered
  EXPECT_EQ(sink.pushed(), 2);
  EXPECT_EQ(sink.dropped(), 1);
  // The two delivered events drain in order; the dropped one is gone.
  std::vector<OdEvent> batch;
  ASSERT_TRUE(sink.PopBatch(&batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(std::get<ConstancyOd>(batch[0]).attribute, 0);
  EXPECT_EQ(std::get<ConstancyOd>(batch[1]).attribute, 2);
  sink.Close();
  EXPECT_FALSE(sink.PopBatch(&batch));
}

TEST(FaultPointTest, SinkPushFailDuringRunStillFinishesSession) {
  ScheduleGuard guard;
  ChannelOdSink sink(1024);
  DiscoveryService service(1);
  ASSERT_TRUE(fault::SetSchedule("sink.push:fail:1"));
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.LoadTable(*id, EmployeeTaxTable()).ok());
  ASSERT_TRUE(service.SetSink(*id, &sink).ok());
  ASSERT_TRUE(service.Submit(*id).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  // Lost delivery is a delivery problem, not a discovery problem.
  EXPECT_EQ(*state, SessionState::kDone);
  EXPECT_EQ(sink.dropped(), 1);
  EXPECT_GT(sink.pushed(), 0);
}

// -------------------------------------------------- point: httpd.write

TEST(FaultPointTest, HttpdWriteFailClosesOneConnectionServerKeepsServing) {
  ScheduleGuard guard;
  DiscoveryServerOptions options;
  options.port = 0;
  options.http_threads = 2;
  options.worker_threads = 1;
  DiscoveryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(fault::SetSchedule("httpd.write:fail:1"));
  // First request: the server drops the response mid-write; the client
  // sees a closed connection with no status line, which is exactly the
  // degradation we want (no crash, no wedged handler thread).
  std::string first = RawGet(server.port(), "/v1/algorithms");
  EXPECT_EQ(first.find("200"), std::string::npos)
      << "write fault should kill the response, got: " << first;
  EXPECT_GE(fault::Hits("httpd.write"), 1);
  fault::Clear();
  // Second request on a fresh connection: full service.
  std::string second = RawGet(server.port(), "/v1/algorithms");
  EXPECT_EQ(second.rfind("HTTP/1.1 200", 0), 0) << second;
  server.Stop();
}

/// GET /v1/sessions/{id} parsed; polls until the state is terminal.
JsonValue WaitSessionTerminal(int port, int64_t id) {
  for (int i = 0; i < 3000; ++i) {
    auto info = ParseJson(
        BodyOf(RawGet(port, "/v1/sessions/" + std::to_string(id))));
    if (info.ok()) {
      const std::string& state = info->Find("state")->string_value();
      if (state == "done" || state == "failed" || state == "cancelled" ||
          state == "deadline_exceeded") {
        return *info;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "session " << id << " never reached a terminal state";
  return JsonValue();
}

int64_t CreateStreamedSession(int port, const std::string& csv) {
  JsonWriter post;
  post.BeginObject()
      .Key("algorithm").String("fastod")
      .Key("csv").String(csv)
      .Key("stream").Bool(true)
      .EndObject();
  auto created = ParseJson(BodyOf(
      RawRequest(port, "POST", "/v1/sessions", post.str())));
  EXPECT_TRUE(created.ok());
  if (!created.ok() || created->Find("id") == nullptr) return -1;
  return created->Find("id")->int_value();
}

TEST(FaultPointTest, HttpdWriteFailOnStreamChunkClosesChannelRunFinishes) {
  ScheduleGuard guard;
  const Table table = GenFlightLike(300, 8, 7);
  const std::string csv = WriteCsvString(table);
  CollectingOdSink baseline;
  auto algo = AlgorithmRegistry::Default().Create("fastod");
  ASSERT_TRUE(algo.ok());
  (*algo)->SetSink(&baseline);
  ASSERT_TRUE((*algo)->LoadData(table).ok());
  ASSERT_TRUE((*algo)->Execute().ok());
  const int64_t total = baseline.TotalOds();
  ASSERT_GT(total, 10);

  DiscoveryServerOptions options;
  options.port = 0;
  options.http_threads = 2;
  options.worker_threads = 1;
  options.stream_capacity = 1;  // an unclosed channel would park the run
  DiscoveryServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const int64_t id = CreateStreamedSession(server.port(), csv);
  ASSERT_GE(id, 0);

  // Hit 1 is the chunked header, hit 2 the first batch's chunk.
  ASSERT_TRUE(fault::SetSchedule("httpd.write:fail:2"));
  std::string broken = RawGet(
      server.port(), "/v1/sessions/" + std::to_string(id) + "/stream");
  EXPECT_EQ(broken.rfind("HTTP/1.1 200", 0), 0) << broken;
  EXPECT_EQ(broken.find("\"end\""), std::string::npos) << broken;
  EXPECT_EQ(fault::Hits("httpd.write"), 2);
  fault::Clear();

  // The handler closed the channel: the engine ran on, its remaining
  // pushes dropped, and the session finished with everything in /result.
  JsonValue info = WaitSessionTerminal(server.port(), id);
  EXPECT_EQ(info.Find("state")->string_value(), "done") << info.Dump();
  EXPECT_LT(info.Find("ods_streamed")->int_value(), total) << info.Dump();
  auto report = ParseJson(BodyOf(RawGet(
      server.port(), "/v1/sessions/" + std::to_string(id) + "/result")));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Find("constancy_ods")->array_items().size(),
            baseline.constancy_ods().size());
  EXPECT_EQ(report->Find("compatibility_ods")->array_items().size(),
            baseline.compatibility_ods().size());

  // The next streamed session is served in full.
  const int64_t next = CreateStreamedSession(server.port(), csv);
  ASSERT_GE(next, 0);
  std::string body = BodyOf(RawGet(
      server.port(), "/v1/sessions/" + std::to_string(next) + "/stream"));
  ASSERT_FALSE(body.empty());
  ASSERT_EQ(body.back(), '\n');
  EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), total + 1);
  const size_t end_start = body.rfind('\n', body.size() - 2) + 1;
  auto end = ParseJson(body.substr(end_start));
  ASSERT_TRUE(end.ok()) << body.substr(end_start);
  EXPECT_EQ(end->Find("type")->string_value(), "end");
  EXPECT_EQ(end->Find("state")->string_value(), "done");
  EXPECT_EQ(end->Find("streamed")->int_value(), total);
  server.Stop();
}

}  // namespace
}  // namespace fastod
