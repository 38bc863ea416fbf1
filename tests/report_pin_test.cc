// Byte-for-byte pins of the rendered reports that the columnar golden
// fixtures (tests/golden_pr9_data.h) do not cover: the text rendering of
// every engine, the incremental report with revocations, bidirectional
// discovery, count-only runs (emit-ods=false) and timed-out partial runs.
// The expected strings in tests/golden_report_data.h were captured from
// the renderers before they were unified behind one Report type; only
// wall-clock figures are masked.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/algorithm.h"
#include "api/registry.h"
#include "common/json.h"
#include "data/csv.h"
#include "data/table.h"
#include "gen/generators.h"
#include "golden_report_data.h"
#include "test_util.h"

namespace fastod {
namespace {

const Table& Flight() {
  static Table table = GenFlightLike(200, 8, 42);
  return table;
}

// month determines quarter; salary anti-correlates with rank, so the
// bidirectional search finds {}: salary ~ rank desc.
const Table& Salary() {
  static Table table = *ReadCsvString(
      "month,quarter,salary,rank\n1,1,100,9\n2,1,200,8\n4,2,300,7\n"
      "5,2,400,6\n");
  return table;
}

// The flight fixture's last 150 rows revoke 12 of the ODs its first 50
// rows satisfy, and the re-search finds 12 new ones.
constexpr int64_t kAppendBaseRows = 50;

using Options = std::vector<std::pair<std::string, std::string>>;

struct Rendered {
  std::string json;
  std::string text;
};

// The engine after a run over `table` with `options`.
std::unique_ptr<Algorithm> Execute(const std::string& engine,
                                   const Table& table,
                                   const Options& options) {
  auto algo = AlgorithmRegistry::Default().Create(engine);
  EXPECT_TRUE(algo.ok()) << engine;
  if (!algo.ok()) return nullptr;
  for (const auto& [key, value] : options) {
    EXPECT_TRUE((*algo)->SetOption(key, value).ok())
        << engine << " --" << key << "=" << value;
  }
  EXPECT_TRUE((*algo)->LoadData(table).ok()) << engine;
  Status executed = (*algo)->Execute();
  EXPECT_TRUE(executed.ok()) << engine << ": " << executed.ToString();
  return std::move(*algo);
}

Rendered Render(const std::string& engine, const Table& table,
             const Options& options) {
  std::unique_ptr<Algorithm> algo = Execute(engine, table, options);
  if (algo == nullptr) return {};
  return {MaskSeconds(algo->ResultJson()),
          MaskTextSeconds(algo->ResultText())};
}

// The incremental engine re-validating the fastod report of the first
// kAppendBaseRows rows against the whole table.
Rendered RenderIncremental() {
  auto prior = AlgorithmRegistry::Default().Create("fastod");
  EXPECT_TRUE(prior.ok());
  if (!prior.ok()) return {};
  EXPECT_TRUE((*prior)->LoadData(Flight().Head(kAppendBaseRows)).ok());
  EXPECT_TRUE((*prior)->Execute().ok());
  return Render("incremental", Flight(),
             {{"prior", (*prior)->ResultJson()},
              {"base-rows", std::to_string(kAppendBaseRows)}});
}

TEST(ReportPinTest, TextOfEveryEngine) {
  EXPECT_EQ(Render("fastod", Flight(), {}).text, kPinFastodText);
  EXPECT_EQ(Render("tane", Flight(), {}).text, kPinTaneText);
  EXPECT_EQ(Render("order", Flight(), {{"max-level", "3"}}).text,
            kPinOrderText);
  EXPECT_EQ(Render("brute-force", Flight(), {}).text, kPinBruteForceText);
  EXPECT_EQ(Render("approximate", Flight(), {}).text, kPinApproximateText);
  EXPECT_EQ(Render("conditional", Flight(), {}).text, kPinConditionalText);
  EXPECT_EQ(RenderIncremental().text, kPinIncrementalText);
}

TEST(ReportPinTest, IncrementalWithRevocations) {
  Rendered got = RenderIncremental();
  EXPECT_EQ(got.json, kPinIncrementalJson);
  EXPECT_EQ(got.json.find("\"revoked\": 0,"), std::string::npos);
  EXPECT_NE(got.text.find("  revoked "), std::string::npos);
}

TEST(ReportPinTest, Bidirectional) {
  Rendered fastod = Render("fastod", Salary(), {{"bidirectional", "true"}});
  EXPECT_EQ(fastod.json, kPinBidirectionalJson);
  EXPECT_EQ(fastod.text, kPinBidirectionalText);
  Rendered oracle =
      Render("brute-force", Salary(), {{"bidirectional", "true"}});
  EXPECT_EQ(oracle.json, kPinBruteForceBidirectionalJson);
  EXPECT_EQ(oracle.text, kPinBruteForceBidirectionalText);
}

TEST(ReportPinTest, CountOnly) {
  Rendered fastod = Render("fastod", Flight(), {{"emit-ods", "false"}});
  EXPECT_EQ(fastod.json, kPinFastodCountOnlyJson);
  EXPECT_EQ(fastod.text, kPinFastodCountOnlyText);
  Rendered tane = Render("tane", Flight(), {{"emit-ods", "false"}});
  EXPECT_EQ(tane.json, kPinTaneCountOnlyJson);
  EXPECT_EQ(tane.text, kPinTaneCountOnlyText);
}

// The "counts" of a count-only run equal the array sizes of the same run
// with its ODs listed, for every engine with a count-only mode; a listing
// run has no "counts".
TEST(ReportPinTest, CountOnlyCountsMatchListedArrays) {
  for (const char* engine : {"fastod", "approximate", "tane"}) {
    std::unique_ptr<Algorithm> listing = Execute(engine, Flight(), {});
    std::unique_ptr<Algorithm> counting =
        Execute(engine, Flight(), {{"emit-ods", "false"}});
    ASSERT_NE(listing, nullptr);
    ASSERT_NE(counting, nullptr);
    Result<JsonValue> listed = ParseJson(listing->ResultJson());
    Result<JsonValue> counted = ParseJson(counting->ResultJson());
    ASSERT_TRUE(listed.ok() && counted.ok()) << engine;
    EXPECT_EQ(listed->Find("counts"), nullptr) << engine;
    const JsonValue* counts = counted->Find("counts");
    ASSERT_NE(counts, nullptr) << engine;
    ASSERT_FALSE(counts->object_items().empty()) << engine;
    for (const auto& [key, count] : counts->object_items()) {
      const JsonValue* array = listed->Find(key);
      ASSERT_NE(array, nullptr) << engine << " " << key;
      EXPECT_EQ(count.int_value(),
                static_cast<int64_t>(array->array_items().size()))
          << engine << " " << key;
      EXPECT_TRUE(counted->Find(key)->array_items().empty())
          << engine << " " << key;
    }
  }
}

TEST(ReportPinTest, TimedOut) {
  // A timeout far below one lattice node's work stops every level-wise
  // engine at its first check.
  const Options expire = {{"timeout", "1e-9"}};
  Rendered fastod = Render("fastod", Flight(), expire);
  EXPECT_EQ(fastod.json, kPinFastodTimedOutJson);
  EXPECT_EQ(fastod.text, kPinFastodTimedOutText);
  Rendered tane = Render("tane", Flight(), expire);
  EXPECT_EQ(tane.json, kPinTaneTimedOutJson);
  EXPECT_EQ(tane.text, kPinTaneTimedOutText);
  Rendered order = Render("order", Flight(), expire);
  EXPECT_EQ(order.json, kPinOrderTimedOutJson);
  EXPECT_EQ(order.text, kPinOrderTimedOutText);
}

}  // namespace
}  // namespace fastod
