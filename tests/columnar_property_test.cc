// The PR-9 acceptance oracle: the columnar dictionary-interned data
// plane must be observationally identical to the row-oriented plane it
// replaced. Three layers of evidence:
//
//   1. Golden fixtures (tests/golden_pr9_data.h) — the six engines'
//      ResultJson captured *before* the refactor, compared byte for byte
//      (wall-clock "seconds" masked) against fresh runs.
//   2. Randomized properties — dictionary round-trips, code/value order
//      agreement, and LSD-radix FromCodeColumns vs the partition-product
//      fold, over seeded random tables.
//   3. The versioned-append path — merge-encoding a delta against the
//      parent's dictionaries must equal FromTable on the concatenation,
//      and discovery over the grown dataset must still match the golden.
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/algorithm.h"
#include "api/registry.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "data/table.h"
#include "gen/generators.h"
#include "golden_pr9_data.h"
#include "partition/stripped_partition.h"
#include "test_util.h"

namespace fastod {
namespace {

const Table& Fixture() {
  static Table table = GenFlightLike(200, 8, 42);
  return table;
}

struct EngineSpec {
  const char* name;
  const char* golden;
  std::vector<std::pair<std::string, std::string>> options;
};

std::vector<EngineSpec> EngineSpecs() {
  return {
      {"fastod", kGoldenFastod, {}},
      {"tane", kGoldenTane, {}},
      {"order", kGoldenOrder, {{"max-level", "3"}}},
      {"brute-force", kGoldenBruteForce, {}},
      {"approximate", kGoldenApproximate, {}},
      {"conditional", kGoldenConditional, {}},
  };
}

std::unique_ptr<Algorithm> MakeEngine(const EngineSpec& spec) {
  auto algo = AlgorithmRegistry::Default().Create(spec.name);
  EXPECT_TRUE(algo.ok()) << spec.name;
  if (!algo.ok()) return nullptr;
  for (const auto& [key, value] : spec.options) {
    EXPECT_TRUE((*algo)->SetOption(key, value).ok())
        << spec.name << " --" << key << "=" << value;
  }
  return std::move(*algo);
}

TEST(ColumnarGoldenTest, SixEnginesMatchPreRefactorFixtures) {
  for (const EngineSpec& spec : EngineSpecs()) {
    SCOPED_TRACE(spec.name);
    std::unique_ptr<Algorithm> algo = MakeEngine(spec);
    ASSERT_NE(algo, nullptr);
    ASSERT_TRUE(algo->LoadData(Fixture()).ok());
    ASSERT_TRUE(algo->Execute().ok());
    EXPECT_EQ(MaskSeconds(algo->ResultJson()), MaskSeconds(spec.golden));
  }
}

// BindDataset (prebuilt encoding + singleton partitions) must be
// indistinguishable from handing every engine the raw table.
TEST(ColumnarGoldenTest, BindDatasetMatchesLoadData) {
  auto dataset = LoadedDataset::Build("pr9-fixture", Fixture());
  ASSERT_TRUE(dataset.ok());
  for (const EngineSpec& spec : EngineSpecs()) {
    SCOPED_TRACE(spec.name);
    std::unique_ptr<Algorithm> via_table = MakeEngine(spec);
    std::unique_ptr<Algorithm> via_dataset = MakeEngine(spec);
    ASSERT_NE(via_table, nullptr);
    ASSERT_NE(via_dataset, nullptr);
    ASSERT_TRUE(via_table->LoadData(Fixture()).ok());
    ASSERT_TRUE(via_dataset->BindDataset(*dataset).ok());
    ASSERT_TRUE(via_table->Execute().ok());
    ASSERT_TRUE(via_dataset->Execute().ok());
    EXPECT_EQ(MaskSeconds(via_table->ResultJson()),
              MaskSeconds(via_dataset->ResultJson()));
  }
}

// A typed random table: int, double, and string columns (single-typed
// with interspersed NULLs, so equal-comparing values render identically
// and the dictionary representative is unambiguous).
Table RandomTable(std::mt19937& rng, int64_t rows) {
  std::uniform_int_distribution<int> small(0, 9);
  std::uniform_int_distribution<int64_t> wide(-1000, 1000);
  std::uniform_real_distribution<double> real(-5.0, 5.0);
  TableBuilder builder(
      Schema::FromNames({"i_small", "i_wide", "d", "s", "mixed_null"}));
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(small(rng)));
    row.push_back(Value::Int(wide(rng)));
    row.push_back(Value::Double(real(rng) * 0.5));
    row.push_back(Value::Str("k" + std::to_string(small(rng)) +
                             std::string(small(rng), 'x')));
    row.push_back(small(rng) == 0 ? Value::Null() : Value::Int(small(rng)));
    builder.AddRowUnchecked(std::move(row));
  }
  return builder.Build();
}

TEST(ColumnarPropertyTest, DictionaryRoundTripsEveryCell) {
  std::mt19937 rng(9001);
  for (int trial = 0; trial < 8; ++trial) {
    Table table = RandomTable(rng, 64 + trial * 37);
    auto rel = EncodedRelation::FromTable(table);
    ASSERT_TRUE(rel.ok());
    for (int c = 0; c < table.NumColumns(); ++c) {
      const ValueDictionary& dict = rel->dictionary(c);
      const CodeColumn& codes = rel->codes(c);
      ASSERT_EQ(dict.size(), codes.num_distinct());
      // Codes are dense, order-preserving, and decode to the cell value.
      for (int64_t r = 0; r < table.NumRows(); ++r) {
        int32_t code = codes[r];
        ASSERT_GE(code, 0);
        ASSERT_LT(code, dict.size());
        EXPECT_EQ(dict.Compare(code, table.at(r, c)), 0)
            << "trial " << trial << " cell (" << r << "," << c << ")";
        EXPECT_EQ(dict.ToString(code), table.at(r, c).ToString());
      }
      // The interned values are strictly ascending: code order IS value
      // order, which is what lets partitions sort by codes alone.
      for (int32_t code = 1; code < dict.size(); ++code) {
        EXPECT_LT(Value::Compare(dict.At(code - 1), dict.At(code)), 0);
      }
    }
  }
}

TEST(ColumnarPropertyTest, RadixBuildMatchesPartitionProductFold) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    Table table = RandomTable(rng, 96 + trial * 53);
    auto rel = EncodedRelation::FromTable(table);
    ASSERT_TRUE(rel.ok());
    // Every 2- and 3-column prefix set, both construction routes.
    for (int a = 0; a < rel->NumAttributes(); ++a) {
      for (int b = a + 1; b < rel->NumAttributes(); ++b) {
        std::vector<const CodeColumn*> columns = {&rel->codes(a),
                                                  &rel->codes(b)};
        StrippedPartition radix =
            StrippedPartition::FromCodeColumns(columns, rel->NumRows());
        StrippedPartition folded =
            StrippedPartition::ForAttribute(rel->codes(a))
                .Product(StrippedPartition::ForAttribute(rel->codes(b)));
        EXPECT_TRUE(radix == folded)
            << "trial " << trial << " attrs {" << a << "," << b << "}";
        if (b + 1 < rel->NumAttributes()) {
          columns.push_back(&rel->codes(b + 1));
          StrippedPartition radix3 =
              StrippedPartition::FromCodeColumns(columns, rel->NumRows());
          StrippedPartition folded3 = folded.Product(
              StrippedPartition::ForAttribute(rel->codes(b + 1)));
          EXPECT_TRUE(radix3 == folded3)
              << "trial " << trial << " attrs {" << a << "," << b << ","
              << b + 1 << "}";
        }
      }
    }
  }
}

// Merge-encoding appended rows against the parent's dictionaries must be
// bit-for-bit what a from-scratch encode of the concatenation produces —
// codes, dictionaries (observed through decode), and partitions alike.
TEST(ColumnarAppendTest, MergeEncodedAppendEqualsFromTable) {
  const Table& full = Fixture();
  std::vector<int64_t> tail;
  for (int64_t r = 150; r < full.NumRows(); ++r) tail.push_back(r);

  DatasetStore store;
  auto base = store.PutTable("flight", full.Head(150));
  ASSERT_TRUE(base.ok());
  auto grown = store.AppendRows("flight", full.SelectRows(tail));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ((*grown)->version(), 2);
  EXPECT_EQ((*grown)->base_rows(), 150);
  EXPECT_EQ((*grown)->NumRows(), full.NumRows());

  auto expected = EncodedRelation::FromTable(full);
  ASSERT_TRUE(expected.ok());
  const EncodedRelation& relation = (*grown)->relation();
  ASSERT_EQ(relation.NumAttributes(), expected->NumAttributes());
  for (int a = 0; a < relation.NumAttributes(); ++a) {
    EXPECT_TRUE(relation.codes(a) == expected->codes(a)) << "attr " << a;
    for (int32_t code = 0; code < relation.codes(a).num_distinct(); ++code) {
      EXPECT_EQ(relation.dictionary(a).ToString(code),
                expected->dictionary(a).ToString(code))
          << "attr " << a << " code " << code;
    }
    EXPECT_TRUE((*grown)->singleton_partitions()[a] ==
                StrippedPartition::ForAttribute(expected->codes(a)))
        << "attr " << a;
  }

  // Discovery over the grown dataset equals the pre-refactor golden on
  // the full 200-row fixture.
  EngineSpec fastod_spec{"fastod", kGoldenFastod, {}};
  std::unique_ptr<Algorithm> algo = MakeEngine(fastod_spec);
  ASSERT_NE(algo, nullptr);
  ASSERT_TRUE(algo->BindDataset(*grown).ok());
  ASSERT_TRUE(algo->Execute().ok());
  EXPECT_EQ(MaskSeconds(algo->ResultJson()), MaskSeconds(kGoldenFastod));
}

}  // namespace
}  // namespace fastod
