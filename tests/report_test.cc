#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/algorithm.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/csv.h"
#include "obs/trace.h"
#include "report/report.h"

namespace fastod {
namespace {

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

class ReportTest : public ::testing::Test {
 protected:
  // The report `engine` builds after running on x,y with x ~ y.
  Report Discover(const std::string& engine) {
    auto algo = AlgorithmRegistry::Default().Create(engine);
    EXPECT_TRUE(algo.ok()) << engine;
    EXPECT_TRUE((*algo)->LoadData(*ReadCsvString("x,y\n1,10\n2,20\n3,30\n"))
                    .ok());
    EXPECT_TRUE((*algo)->Execute().ok());
    algo_ = std::move(*algo);  // the report borrows its schema
    return algo_->BuildReport();
  }

  std::unique_ptr<Algorithm> algo_;
};

TEST_F(ReportTest, FastodJsonHasAllSections) {
  std::string json = RenderJson(Discover("fastod"));
  EXPECT_NE(json.find("\"algorithm\": \"fastod\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"constancy_ods\""), std::string::npos);
  EXPECT_NE(json.find("\"compatibility_ods\""), std::string::npos);
  EXPECT_NE(json.find("\"bidirectional_ods\""), std::string::npos);
  // x ~ y holds at the top level on this data.
  EXPECT_NE(json.find("\"a\": \"x\", \"b\": \"y\""), std::string::npos);
}

TEST_F(ReportTest, FastodTextSummaryLine) {
  std::string text = RenderText(Discover("fastod"));
  EXPECT_NE(text.find("FASTOD:"), std::string::npos);
  EXPECT_NE(text.find("x ~ y"), std::string::npos);
}

TEST_F(ReportTest, TaneJsonAndText) {
  Report report = Discover("tane");
  EXPECT_EQ(report.kind, ReportKind::kFunctional);
  std::string json = RenderJson(report);
  EXPECT_NE(json.find("\"algorithm\": \"tane\""), std::string::npos);
  EXPECT_NE(json.find("\"fds\""), std::string::npos);
  EXPECT_NE(RenderText(report).find("TANE:"), std::string::npos);
}

TEST_F(ReportTest, OrderJsonAndText) {
  Report report = Discover("order");
  EXPECT_EQ(report.kind, ReportKind::kList);
  std::string json = RenderJson(report);
  EXPECT_NE(json.find("\"algorithm\": \"order\""), std::string::npos);
  EXPECT_NE(json.find("\"ods\""), std::string::npos);
  std::string text = RenderText(report);
  EXPECT_NE(text.find("ORDER:"), std::string::npos);
  EXPECT_NE(text.find("orders"), std::string::npos);
}

TEST_F(ReportTest, JsonIsBalanced) {
  // Every kind of report parses as one JSON document.
  for (const char* engine : {"fastod", "tane", "order", "conditional"}) {
    Result<JsonValue> parsed = ParseJson(RenderJson(Discover(engine)));
    EXPECT_TRUE(parsed.ok()) << engine << ": "
                             << parsed.status().ToString();
  }
}

TEST_F(ReportTest, TimedOutFlagRendered) {
  Report report = Discover("fastod");
  report.timed_out = true;
  EXPECT_NE(RenderJson(report).find("\"timed_out\": true"),
            std::string::npos);
  EXPECT_NE(RenderText(report).find("[TIMED OUT]"), std::string::npos);
}

// The trace is the last member, written immediately before the closing
// brace; without a trace the bytes are the plain report's.
TEST_F(ReportTest, TraceIsTheLastMember) {
  Report report = Discover("fastod");
  obs::TraceRecorder trace;
  trace.RecordSpan("execute", 0.0, 0.5);
  trace.SetEngineStats(algo_->stats());
  std::string plain = RenderJson(report);
  std::string traced = RenderJson(report, &trace);
  ASSERT_EQ(plain.substr(plain.size() - 3), "\n}\n");
  EXPECT_EQ(traced, plain.substr(0, plain.size() - 2) + ",\"trace\":" +
                        trace.ToJson() + "}\n");
  Result<JsonValue> parsed = ParseJson(traced);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->object_items().back().first, "trace");
}

}  // namespace
}  // namespace fastod
