// Tests for the stable C ABI (capi/fastod_c.h), driven from C++ but
// calling only the extern "C" surface the way an FFI binding would:
// version/registry introspection, session lifecycle, option metadata and
// errors, sync + async execution, cancellation, and the JSON result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "capi/fastod_c.h"
#include "common/json.h"
#include "data/csv.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace fastod {
namespace {


std::string WriteEmployeeCsv(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteCsvFile(EmployeeTaxTable(), path).ok());
  return path;
}

TEST(CApiTest, VersionMatchesMacros) {
  std::string expected = std::to_string(FASTOD_VERSION_MAJOR) + "." +
                         std::to_string(FASTOD_VERSION_MINOR) + "." +
                         std::to_string(FASTOD_VERSION_PATCH);
  EXPECT_STREQ(fastod_version_string(), expected.c_str());
}

TEST(CApiTest, RegistryIntrospection) {
  int count = fastod_algorithm_count();
  ASSERT_GE(count, 6);
  bool saw_fastod = false;
  for (int i = 0; i < count; ++i) {
    const char* name = fastod_algorithm_name(i);
    ASSERT_NE(name, nullptr);
    if (std::strcmp(name, "fastod") == 0) saw_fastod = true;
  }
  EXPECT_TRUE(saw_fastod);
  EXPECT_EQ(fastod_algorithm_name(-1), nullptr);
  EXPECT_EQ(fastod_algorithm_name(count), nullptr);
  const char* description = fastod_algorithm_description("fastod");
  ASSERT_NE(description, nullptr);
  EXPECT_NE(std::string(description).find("minimal"), std::string::npos);
  EXPECT_EQ(fastod_algorithm_description("magic"), nullptr);
}

TEST(CApiTest, CreateUnknownAlgorithmSetsThreadError) {
  EXPECT_EQ(fastod_create("magic"), nullptr);
  std::string error = fastod_last_error(nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos);
  EXPECT_NE(error.find("fastod"), std::string::npos);  // lists names
}

TEST(CApiTest, NullHandleIsAnErrorNotACrash) {
  EXPECT_EQ(fastod_set_option(nullptr, "threads", "2"),
            FASTOD_ERR_NULL_HANDLE);
  EXPECT_EQ(fastod_load_csv(nullptr, "x.csv"), FASTOD_ERR_NULL_HANDLE);
  EXPECT_EQ(fastod_execute(nullptr), FASTOD_ERR_NULL_HANDLE);
  EXPECT_EQ(fastod_poll(nullptr, nullptr), -FASTOD_ERR_NULL_HANDLE);
  EXPECT_EQ(fastod_wait(nullptr), -FASTOD_ERR_NULL_HANDLE);
  EXPECT_EQ(fastod_cancel(nullptr), FASTOD_ERR_NULL_HANDLE);
  EXPECT_EQ(fastod_result_json(nullptr), nullptr);
  EXPECT_EQ(fastod_option_count(nullptr), 0);
  fastod_destroy(nullptr);  // no-op
}

TEST(CApiTest, OptionIntrospectionThroughC) {
  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  int count = fastod_option_count(session);
  EXPECT_EQ(count, 12);
  bool saw_threads = false;
  bool saw_swap = false;
  for (int i = 0; i < count; ++i) {
    const char* name = fastod_option_name(session, i);
    ASSERT_NE(name, nullptr);
    ASSERT_NE(fastod_option_default(session, i), nullptr);
    ASSERT_NE(fastod_option_description(session, i), nullptr);
    int kind = fastod_option_kind(session, i);
    EXPECT_GE(kind, FASTOD_OPTION_BOOL);
    EXPECT_LE(kind, FASTOD_OPTION_ENUM);
    if (std::strcmp(name, "threads") == 0) {
      saw_threads = true;
      EXPECT_EQ(kind, FASTOD_OPTION_INT);
      EXPECT_STREQ(fastod_option_default(session, i), "1");
    }
    if (std::strcmp(name, "swap-method") == 0) {
      saw_swap = true;
      EXPECT_EQ(kind, FASTOD_OPTION_ENUM);
      EXPECT_STREQ(fastod_option_default(session, i), "auto");
    }
  }
  EXPECT_TRUE(saw_threads);
  EXPECT_TRUE(saw_swap);
  EXPECT_EQ(fastod_option_name(session, count), nullptr);
  EXPECT_EQ(fastod_option_kind(session, -1), -1);
  fastod_destroy(session);
}

TEST(CApiTest, OptionErrorsAreCodedAndNamed) {
  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(fastod_set_option(session, "threads", "four"),
            FASTOD_ERR_INVALID_ARGUMENT);
  std::string error = fastod_last_error(session);
  EXPECT_NE(error.find("threads"), std::string::npos);
  EXPECT_NE(error.find("four"), std::string::npos);
  EXPECT_EQ(fastod_set_option(session, "warp-speed", "9"),
            FASTOD_ERR_NOT_FOUND);
  EXPECT_NE(std::string(fastod_last_error(session)).find("warp-speed"),
            std::string::npos);
  // Valid settings still apply afterwards.
  EXPECT_EQ(fastod_set_option(session, "threads", "2"), FASTOD_OK);
  fastod_destroy(session);
}

TEST(CApiTest, SynchronousLifecycle) {
  std::string path = WriteEmployeeCsv("capi_sync.csv");
  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  // Executing without data is a coded precondition failure.
  EXPECT_EQ(fastod_execute(session), FASTOD_ERR_FAILED_PRECONDITION);
  EXPECT_EQ(fastod_load_csv(session, path.c_str()), FASTOD_OK);
  EXPECT_EQ(fastod_execute(session), FASTOD_OK);
  double progress = 0.0;
  EXPECT_EQ(fastod_poll(session, &progress), FASTOD_STATE_DONE);
  EXPECT_DOUBLE_EQ(progress, 1.0);
  const char* json = fastod_result_json(session);
  ASSERT_NE(json, nullptr);
  EXPECT_NE(std::string(json).find("\"algorithm\": \"fastod\""),
            std::string::npos);
  const char* text = fastod_result_text(session);
  ASSERT_NE(text, nullptr);
  EXPECT_NE(std::string(text).find("FASTOD"), std::string::npos);
  fastod_destroy(session);
  std::remove(path.c_str());
}

TEST(CApiTest, AsyncLifecycleAndStateCodes) {
  std::string path = WriteEmployeeCsv("capi_async.csv");
  fastod_session_t* session = fastod_create("tane");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(fastod_poll(session, nullptr), FASTOD_STATE_CREATED);
  ASSERT_EQ(fastod_load_csv(session, path.c_str()), FASTOD_OK);
  ASSERT_EQ(fastod_execute_async(session), FASTOD_OK);
  // Double submission is rejected with a coded error.
  EXPECT_EQ(fastod_execute_async(session), FASTOD_ERR_FAILED_PRECONDITION);
  int state = fastod_wait(session);
  EXPECT_EQ(state, FASTOD_STATE_DONE);
  const char* json = fastod_result_json(session);
  ASSERT_NE(json, nullptr);
  EXPECT_NE(std::string(json).find("\"algorithm\": \"tane\""),
            std::string::npos);
  fastod_destroy(session);
  std::remove(path.c_str());
}

TEST(CApiTest, LoadErrorsAreCoded) {
  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(fastod_load_csv(session, "/no/such/file.csv"), FASTOD_ERR_IO);
  EXPECT_NE(std::string(fastod_last_error(session)).find("/no/such"),
            std::string::npos);
  fastod_destroy(session);
}

TEST(CApiTest, CsvOptionsRespected) {
  std::string path = ::testing::TempDir() + "/capi_semi.csv";
  {
    std::ofstream out(path);
    out << "a;b\n1;2\n2;4\n3;6\n4;8\n";
  }
  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(fastod_load_csv_opts(session, path.c_str(), ';', 1, 2),
            FASTOD_OK);
  ASSERT_EQ(fastod_execute(session), FASTOD_OK);
  const char* json = fastod_result_json(session);
  ASSERT_NE(json, nullptr);
  // Two rows read (max_rows), named header columns.
  EXPECT_NE(std::string(json).find("\"rows\": 2"), std::string::npos);
  EXPECT_NE(std::string(json).find("\"a\""), std::string::npos);
  fastod_destroy(session);
  std::remove(path.c_str());
}

TEST(CApiTest, DatasetHandleReusedAcrossSessions) {
  std::string path = WriteEmployeeCsv("capi_dataset.csv");

  // Reference: a per-session CSV load.
  fastod_session_t* reference = fastod_create("fastod");
  ASSERT_NE(reference, nullptr);
  ASSERT_EQ(fastod_load_csv(reference, path.c_str()), FASTOD_OK);
  ASSERT_EQ(fastod_execute(reference), FASTOD_OK);
  const char* reference_json = fastod_result_json(reference);
  ASSERT_NE(reference_json, nullptr);
  std::string expected = MaskSeconds(reference_json);
  fastod_destroy(reference);

  fastod_dataset_t* dataset = fastod_dataset_load_csv(path.c_str());
  ASSERT_NE(dataset, nullptr);
  EXPECT_EQ(fastod_dataset_rows(dataset), 6);
  EXPECT_EQ(fastod_dataset_columns(dataset), 9);
  // The load happened once; the file is no longer needed.
  std::remove(path.c_str());

  // Two sessions bind the one load; the handle is destroyed before
  // either runs, which must not invalidate their references.
  fastod_session_t* sessions[2];
  for (fastod_session_t*& session : sessions) {
    session = fastod_create("fastod");
    ASSERT_NE(session, nullptr);
    ASSERT_EQ(fastod_use_dataset(session, dataset), FASTOD_OK);
  }
  fastod_dataset_destroy(dataset);
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(fastod_execute(sessions[round]), FASTOD_OK);
    const char* json = fastod_result_json(sessions[round]);
    ASSERT_NE(json, nullptr);
    EXPECT_EQ(MaskSeconds(json), expected) << "round " << round;
    fastod_destroy(sessions[round]);
  }
}

TEST(CApiTest, AppendRowsMintsNewVersionAndIncrementalMatchesFull) {
  std::string path = WriteEmployeeCsv("capi_append.csv");
  fastod_dataset_t* v1 = fastod_dataset_load_csv(path.c_str());
  std::remove(path.c_str());
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(fastod_dataset_version(v1), 1);
  EXPECT_EQ(fastod_dataset_base_rows(v1), 6);

  // Prior full run over version 1.
  fastod_session_t* prior_session = fastod_create("fastod");
  ASSERT_NE(prior_session, nullptr);
  ASSERT_EQ(fastod_use_dataset(prior_session, v1), FASTOD_OK);
  ASSERT_EQ(fastod_execute(prior_session), FASTOD_OK);
  std::string prior = fastod_result_json(prior_session);
  fastod_destroy(prior_session);

  // A headerless delta row reusing an existing (ID, yr) key with
  // conflicting attributes, so some prior ODs must be revoked.
  fastod_dataset_t* v2 = fastod_dataset_append_rows(
      v1, "10,16,secr,2,9000,35,4000,B,II\n");
  ASSERT_NE(v2, nullptr) << fastod_last_error(nullptr);
  EXPECT_EQ(fastod_dataset_version(v2), 2);
  EXPECT_EQ(fastod_dataset_base_rows(v2), 6);
  EXPECT_EQ(fastod_dataset_rows(v2), 7);
  // The parent handle is untouched and independently destroyable.
  EXPECT_EQ(fastod_dataset_rows(v1), 6);
  fastod_dataset_destroy(v1);

  // Incremental over v2 seeded with the v1 report...
  fastod_session_t* incremental = fastod_create("incremental");
  ASSERT_NE(incremental, nullptr);
  ASSERT_EQ(fastod_set_option(incremental, "prior", prior.c_str()),
            FASTOD_OK);
  ASSERT_EQ(fastod_use_dataset(incremental, v2), FASTOD_OK);
  ASSERT_EQ(fastod_execute(incremental), FASTOD_OK);
  std::string incremental_json = fastod_result_json(incremental);
  fastod_destroy(incremental);
  EXPECT_NE(incremental_json.find("\"revoked_constancy_ods\""),
            std::string::npos);

  // ...must report the same OD sets a fresh full run finds (the arrays
  // may order ODs differently: survivors first vs. pure level order).
  fastod_session_t* fresh = fastod_create("fastod");
  ASSERT_NE(fresh, nullptr);
  ASSERT_EQ(fastod_use_dataset(fresh, v2), FASTOD_OK);
  fastod_dataset_destroy(v2);
  ASSERT_EQ(fastod_execute(fresh), FASTOD_OK);
  std::string fresh_json = fastod_result_json(fresh);
  fastod_destroy(fresh);
  auto od_set = [](const std::string& json, const char* key) {
    std::vector<std::string> dumps;
    auto parsed = ParseJson(json);
    EXPECT_TRUE(parsed.ok());
    if (!parsed.ok()) return dumps;
    const JsonValue* array = parsed->Find(key);
    EXPECT_NE(array, nullptr) << key;
    if (array == nullptr) return dumps;
    for (const JsonValue& od : array->array_items()) {
      dumps.push_back(od.Dump());
    }
    std::sort(dumps.begin(), dumps.end());
    return dumps;
  };
  EXPECT_EQ(od_set(incremental_json, "constancy_ods"),
            od_set(fresh_json, "constancy_ods"));
  EXPECT_EQ(od_set(incremental_json, "compatibility_ods"),
            od_set(fresh_json, "compatibility_ods"));
}

TEST(CApiTest, DatasetErrorsAreReported) {
  EXPECT_EQ(fastod_dataset_load_csv("/nonexistent/file.csv"), nullptr);
  std::string error = fastod_last_error(nullptr);
  EXPECT_NE(error.find("nonexistent"), std::string::npos);
  EXPECT_EQ(fastod_dataset_load_csv(nullptr), nullptr);
  EXPECT_EQ(fastod_dataset_rows(nullptr), -1);
  EXPECT_EQ(fastod_dataset_columns(nullptr), -1);
  EXPECT_EQ(fastod_dataset_version(nullptr), -1);
  EXPECT_EQ(fastod_dataset_base_rows(nullptr), -1);
  EXPECT_EQ(fastod_dataset_append_rows(nullptr, "1\n"), nullptr);
  fastod_dataset_destroy(nullptr);  // safe no-op

  // Appending a delta with the wrong arity fails and names the problem.
  std::string path = WriteEmployeeCsv("capi_append_err.csv");
  fastod_dataset_t* dataset = fastod_dataset_load_csv(path.c_str());
  std::remove(path.c_str());
  ASSERT_NE(dataset, nullptr);
  EXPECT_EQ(fastod_dataset_append_rows(dataset, nullptr), nullptr);
  EXPECT_EQ(fastod_dataset_append_rows(dataset, "1,2\n"), nullptr);
  std::string append_error = fastod_last_error(nullptr);
  EXPECT_NE(append_error.find("column"), std::string::npos)
      << append_error;
  fastod_dataset_destroy(dataset);

  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(fastod_use_dataset(session, nullptr),
            FASTOD_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(fastod_use_dataset(nullptr, nullptr),
            FASTOD_ERR_NULL_HANDLE);
  fastod_destroy(session);
}

TEST(CApiTest, ErrorCodeMacrosAreStable) {
  // ABI freeze: these values are load-bearing for every binding ever
  // compiled against the header.
  EXPECT_EQ(FASTOD_ERR_INTERNAL, 8);
  EXPECT_EQ(FASTOD_ERR_DEADLINE, 9);
  EXPECT_EQ(FASTOD_ERR_UNAVAILABLE, 10);
}

TEST(CApiTest, DeadlineExceededRoundTripsThroughTheAbi) {
  // A 50 ms budget on a table FASTOD cannot finish in 50 ms: the run
  // must end FAILED with the dedicated deadline code, not a generic
  // failure. (The kUnavailable refusal paths — admission caps, pool
  // shutdown — live in the service/server layers and are covered by
  // robustness_test.cc; here we pin their C codes above and prove the
  // deadline one end to end.)
  std::string path = ::testing::TempDir() + "/capi_deadline.csv";
  ASSERT_TRUE(WriteCsvFile(GenFlightLike(4000, 14), path).ok());
  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(fastod_set_option(session, "timeout-ms", "50"), FASTOD_OK);
  ASSERT_EQ(fastod_load_csv(session, path.c_str()), FASTOD_OK);
  EXPECT_EQ(fastod_execute(session), FASTOD_ERR_DEADLINE);
  std::string error = fastod_last_error(session);
  EXPECT_NE(error.find("timeout-ms"), std::string::npos) << error;
  // Poll is repeat-stable on the terminal session.
  for (int i = 0; i < 3; ++i) {
    double progress = -1.0;
    EXPECT_EQ(fastod_poll(session, &progress), FASTOD_STATE_FAILED);
    EXPECT_GE(progress, 0.0);
  }
  // No result for a failed run, and the error message survives polls.
  EXPECT_EQ(fastod_result_json(session), nullptr);
  EXPECT_NE(std::string(fastod_last_error(session)).find("timeout-ms"),
            std::string::npos);
  fastod_destroy(session);

  // The async flavor reports the same failure through wait + poll.
  fastod_session_t* async_session = fastod_create("fastod");
  ASSERT_NE(async_session, nullptr);
  ASSERT_EQ(fastod_set_option(async_session, "timeout-ms", "50"),
            FASTOD_OK);
  ASSERT_EQ(fastod_load_csv(async_session, path.c_str()), FASTOD_OK);
  ASSERT_EQ(fastod_execute_async(async_session), FASTOD_OK);
  EXPECT_EQ(fastod_wait(async_session), FASTOD_STATE_FAILED);
  EXPECT_NE(std::string(fastod_last_error(async_session))
                .find("timeout-ms"),
            std::string::npos);
  fastod_destroy(async_session);
  std::remove(path.c_str());
}

TEST(CApiTest, CancelBeforeRunYieldsCancelledState) {
  std::string path = WriteEmployeeCsv("capi_cancel.csv");
  fastod_session_t* session = fastod_create("order");
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(fastod_load_csv(session, path.c_str()), FASTOD_OK);
  // Cancel before any execution was scheduled: the session turns
  // terminal without running.
  EXPECT_EQ(fastod_cancel(session), FASTOD_OK);
  EXPECT_EQ(fastod_poll(session, nullptr), FASTOD_STATE_CANCELLED);
  // Results of a never-run session are absent, not garbage.
  EXPECT_EQ(fastod_result_json(session), nullptr);
  fastod_destroy(session);
  std::remove(path.c_str());
}

TEST(CApiTest, TraceJsonSurfacesSpansAndEngineCounters) {
  const bool saved = obs::Enabled();
  obs::SetEnabled(true);
  std::string path = WriteEmployeeCsv("capi_trace.csv");
  fastod_session_t* session = fastod_create("fastod");
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(fastod_load_csv(session, path.c_str()), FASTOD_OK);
  ASSERT_EQ(fastod_execute(session), FASTOD_OK);
  const char* trace = fastod_session_trace_json(session);
  ASSERT_NE(trace, nullptr);
  std::string json(trace);
  EXPECT_NE(json.find("\"spans\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"csv.parse\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"encode\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"execute\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"nodes_visited\""), std::string::npos) << json;
  // The trace buffer is independent of the result buffer: fetching one
  // after the other leaves both pointers valid.
  const char* result = fastod_result_json(session);
  ASSERT_NE(result, nullptr);
  EXPECT_NE(std::string(fastod_session_trace_json(session))
                .find("\"spans\""),
            std::string::npos);
  fastod_destroy(session);
  EXPECT_EQ(fastod_session_trace_json(nullptr), nullptr);
  std::remove(path.c_str());
  obs::SetEnabled(saved);
}

}  // namespace
}  // namespace fastod
