#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"
#include "partition/sorted_partition.h"
#include "validate/brute_force.h"

namespace fastod {
namespace {

EncodedRelation Encode(const Table& t) {
  auto rel = EncodedRelation::FromTable(t);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).value();
}

TEST(SortedPartitionsTest, TupleOrderSortsByRankThenId) {
  auto t = ReadCsvString("a\n3\n1\n2\n1\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  // values 3,1,2,1 -> ascending: rows 1,3 (value 1), 2, 0.
  EXPECT_EQ(sorted.TupleOrder(0), (std::vector<int32_t>{1, 3, 2, 0}));
}

TEST(SwapCheckerTest, DetectsSimpleSwap) {
  // A: 1,2  B: 2,1 within one class -> swap.
  auto t = ReadCsvString("a,b\n1,2\n2,1\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition universe = StrippedPartition::Universe(2);
  EXPECT_FALSE(checker.IsOrderCompatible(universe, 0, 1));
}

TEST(SwapCheckerTest, TiesOnADoNotConstrain) {
  // Equal A values with opposite B order: no swap (needs strict A order).
  auto t = ReadCsvString("a,b\n1,2\n1,1\n2,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition universe = StrippedPartition::Universe(3);
  EXPECT_TRUE(checker.IsOrderCompatible(universe, 0, 1));
}

TEST(SwapCheckerTest, SwapHiddenAcrossGroups) {
  // A groups: {1,1},{2}; B max of group 1 is 5, group 2 has 4 -> swap.
  auto t = ReadCsvString("a,b\n1,5\n1,1\n2,4\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kTauBased);
  StrippedPartition universe = StrippedPartition::Universe(3);
  EXPECT_FALSE(checker.IsOrderCompatible(universe, 0, 1));
}

TEST(SwapCheckerTest, ContextSeparatesClasses) {
  // Within ctx classes {rows 0,1} and {rows 2,3} orders agree; across
  // classes they would swap, but context isolation makes it compatible.
  auto t = ReadCsvString("ctx,a,b\n1,1,10\n1,2,20\n2,1,2\n2,2,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition ctx = StrippedPartition::ForAttribute(rel.codes(0));
  EXPECT_TRUE(checker.IsOrderCompatible(ctx, 1, 2));
}

TEST(SwapCheckerTest, MethodCountersTrackUsage) {
  auto t = ReadCsvString("a,b\n1,1\n2,2\n3,3\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker tau(&rel, &sorted, SwapCheckMethod::kTauBased);
  SwapChecker srt(&rel, &sorted, SwapCheckMethod::kSortBased);
  StrippedPartition universe = StrippedPartition::Universe(3);
  tau.IsOrderCompatible(universe, 0, 1);
  srt.IsOrderCompatible(universe, 0, 1);
  EXPECT_EQ(tau.num_tau_checks(), 1);
  EXPECT_EQ(tau.num_sort_checks(), 0);
  EXPECT_EQ(srt.num_sort_checks(), 1);
  EXPECT_EQ(srt.num_tau_checks(), 0);
}

TEST(SwapCheckerTest, AutoPicksTheMethodPerContext) {
  // Rows 0-3 share ctx = 1; rows 4-7 are distinct. The universe covers
  // every row (τ); the ctx partition covers half of them and the
  // partition of the all-distinct column none (sort).
  auto t = ReadCsvString(
      "ctx,a,b\n1,1,1\n1,2,2\n1,3,3\n1,4,4\n2,5,5\n3,6,6\n4,7,7\n"
      "5,8,8\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, SwapCheckMethod::kAuto);
  const StrippedPartition universe = StrippedPartition::Universe(8);
  const StrippedPartition ctx = StrippedPartition::ForAttribute(rel.codes(0));
  const StrippedPartition key = StrippedPartition::ForAttribute(rel.codes(1));
  checker.SetContext(universe);
  EXPECT_TRUE(checker.Check(1, 2));
  EXPECT_EQ(checker.num_tau_checks(), 1);
  checker.SetContext(ctx);
  EXPECT_TRUE(checker.Check(1, 2));
  EXPECT_FALSE(checker.Check(1, 2, /*opposite=*/true));
  EXPECT_EQ(checker.num_sort_checks(), 2);
  checker.SetContext(key);
  EXPECT_TRUE(checker.Check(1, 2, /*opposite=*/true));
  EXPECT_EQ(checker.num_sort_checks(), 3);
  checker.SetContext(universe);
  EXPECT_FALSE(checker.Check(1, 2, /*opposite=*/true));
  EXPECT_EQ(checker.num_tau_checks(), 2);
}

TEST(SwapCheckerTest, WithoutTauOrdersFallsBackToSort) {
  auto t = ReadCsvString("a,b\n1,1\n2,2\n");
  ASSERT_TRUE(t.ok());
  EncodedRelation rel = Encode(*t);
  SwapChecker checker(&rel, nullptr, SwapCheckMethod::kAuto);
  StrippedPartition universe = StrippedPartition::Universe(2);
  EXPECT_TRUE(checker.IsOrderCompatible(universe, 0, 1));
  EXPECT_EQ(checker.num_sort_checks(), 1);
}

// Property: both swap-check strategies agree with the brute-force
// definitional check on random tables, over random contexts.
struct SwapParam {
  uint64_t seed;
  SwapCheckMethod method;
};

// "Seed101_Sort": names the test instances and prints the parameter, so
// neither shows SwapParam's raw bytes (padding included), which can change
// between builds.
std::string SwapParamName(const SwapParam& p) {
  const char* method = "Auto";
  if (p.method == SwapCheckMethod::kSortBased) method = "Sort";
  if (p.method == SwapCheckMethod::kTauBased) method = "Tau";
  return "Seed" + std::to_string(p.seed) + "_" + method;
}

void PrintTo(const SwapParam& p, std::ostream* os) { *os << SwapParamName(p); }

class SwapCheckerPropertyTest : public ::testing::TestWithParam<SwapParam> {};

TEST_P(SwapCheckerPropertyTest, AgreesWithBruteForce) {
  Table t = GenRandomTable(30, 5, 4, GetParam().seed);
  EncodedRelation rel = Encode(t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, GetParam().method);
  for (uint64_t mask = 0; mask < 8; ++mask) {  // contexts over attrs 0-2
    AttributeSet context(mask);
    StrippedPartition partition;
    if (context.IsEmpty()) {
      partition = StrippedPartition::Universe(rel.NumRows());
    } else {
      std::vector<const CodeColumn*> columns;
      for (int a = context.First(); a >= 0; a = context.Next(a)) {
        columns.push_back(&rel.codes(a));
      }
      partition =
          StrippedPartition::FromCodeColumns(columns, rel.NumRows());
    }
    for (int a = 3; a < 5; ++a) {
      for (int b = 3; b < 5; ++b) {
        if (a == b) continue;
        EXPECT_EQ(checker.IsOrderCompatible(partition, a, b),
                  BruteIsOrderCompatible(rel, context, a, b))
            << "mask=" << mask << " a=" << a << " b=" << b;
      }
    }
  }
}

// Property: a checker bound to one context with SetContext answers every
// Check that follows — ascending and opposite polarity, many pairs per
// context, contexts in turn — as the definitional brute force does.
TEST_P(SwapCheckerPropertyTest, ContextBoundChecksAgreeWithBruteForce) {
  Table t = GenRandomTable(40, 6, 4, GetParam().seed);
  EncodedRelation rel = Encode(t);
  SortedPartitions sorted(rel);
  SwapChecker checker(&rel, &sorted, GetParam().method);
  int64_t checks = 0;
  for (uint64_t mask = 0; mask < 8; ++mask) {  // contexts over attrs 0-2
    AttributeSet context(mask);
    std::vector<const CodeColumn*> columns;
    for (int a = context.First(); a >= 0; a = context.Next(a)) {
      columns.push_back(&rel.codes(a));
    }
    const StrippedPartition partition =
        StrippedPartition::FromCodeColumns(columns, rel.NumRows());
    checker.SetContext(partition);
    for (int a = 0; a < 6; ++a) {
      for (int b = 0; b < 6; ++b) {
        if (a == b) continue;
        EXPECT_EQ(checker.Check(a, b),
                  BruteIsOrderCompatible(rel, context, a, b))
            << "mask=" << mask << " a=" << a << " b=" << b;
        EXPECT_EQ(checker.Check(a, b, /*opposite=*/true),
                  BruteIsBidiOrderCompatible(rel, context, a, b))
            << "mask=" << mask << " a=" << a << " b=" << b << " opposite";
        checks += 2;
      }
    }
  }
  EXPECT_EQ(checker.num_sort_checks() + checker.num_tau_checks(), checks);
  if (GetParam().method == SwapCheckMethod::kSortBased) {
    EXPECT_EQ(checker.num_tau_checks(), 0);
  } else if (GetParam().method == SwapCheckMethod::kTauBased) {
    EXPECT_EQ(checker.num_sort_checks(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMethods, SwapCheckerPropertyTest,
    ::testing::Values(SwapParam{101, SwapCheckMethod::kSortBased},
                      SwapParam{101, SwapCheckMethod::kTauBased},
                      SwapParam{202, SwapCheckMethod::kSortBased},
                      SwapParam{202, SwapCheckMethod::kTauBased},
                      SwapParam{303, SwapCheckMethod::kAuto},
                      SwapParam{404, SwapCheckMethod::kAuto}),
    [](const ::testing::TestParamInfo<SwapParam>& info) {
      return SwapParamName(info.param);
    });

}  // namespace
}  // namespace fastod
