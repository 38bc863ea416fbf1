// The central correctness properties of the reproduction (Theorem 8):
// FASTOD's output is *complete* and *minimal*, verified against the
// exhaustive brute-force oracle over many random relations; the pruning
// rules change performance, never output; the no-pruning configuration
// counts exactly the set of all valid non-trivial ODs.
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/brute_force_discovery.h"
#include "algo/fastod.h"
#include "algo/tane.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"
#include "validate/brute_force.h"

namespace fastod {
namespace {

EncodedRelation Encode(const Table& t) {
  auto rel = EncodedRelation::FromTable(t);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).value();
}

struct TableParam {
  int64_t rows;
  int cols;
  int64_t max_domain;
  uint64_t seed;
};

void ExpectSameOds(const FastodResult& got,
                   const BruteForceDiscoveryResult& want) {
  std::vector<ConstancyOd> got_c = got.constancy_ods;
  std::vector<ConstancyOd> want_c = want.constancy_ods;
  std::sort(got_c.begin(), got_c.end());
  std::sort(want_c.begin(), want_c.end());
  EXPECT_EQ(got_c.size(), want_c.size());
  for (size_t i = 0; i < std::min(got_c.size(), want_c.size()); ++i) {
    EXPECT_EQ(got_c[i], want_c[i])
        << "constancy mismatch at " << i << ": got "
        << got_c[i].ToString() << " want " << want_c[i].ToString();
  }
  std::vector<CompatibilityOd> got_p = got.compatibility_ods;
  std::vector<CompatibilityOd> want_p = want.compatibility_ods;
  std::sort(got_p.begin(), got_p.end());
  std::sort(want_p.begin(), want_p.end());
  EXPECT_EQ(got_p.size(), want_p.size());
  for (size_t i = 0; i < std::min(got_p.size(), want_p.size()); ++i) {
    EXPECT_EQ(got_p[i], want_p[i])
        << "compatibility mismatch at " << i << ": got "
        << got_p[i].ToString() << " want " << want_p[i].ToString();
  }
}

class FastodOracleTest : public ::testing::TestWithParam<TableParam> {};

TEST_P(FastodOracleTest, OutputEqualsBruteForceMinimalSet) {
  const TableParam& p = GetParam();
  Table t = GenRandomTable(p.rows, p.cols, p.max_domain, p.seed);
  EncodedRelation rel = Encode(t);
  FastodResult got = Fastod().Discover(rel);
  BruteForceDiscoveryResult want = BruteForceDiscoverOds(rel);
  ExpectSameOds(got, want);
}

TEST_P(FastodOracleTest, NoPruningCountsAllValidOds) {
  const TableParam& p = GetParam();
  Table t = GenRandomTable(p.rows, p.cols, p.max_domain, p.seed);
  EncodedRelation rel = Encode(t);
  FastodOptions opt;
  opt.minimality_pruning = false;
  opt.level_pruning = false;
  opt.key_pruning = false;
  opt.emit_ods = false;
  FastodResult got = Fastod(opt).Discover(rel);
  BruteForceDiscoveryResult want = BruteForceDiscoverOds(rel);
  EXPECT_EQ(got.num_constancy, want.all_valid_constancy);
  EXPECT_EQ(got.num_compatibility, want.all_valid_compatibility);
}

TEST_P(FastodOracleTest, PruningTogglesDoNotChangeOutput) {
  const TableParam& p = GetParam();
  Table t = GenRandomTable(p.rows, p.cols, p.max_domain, p.seed);
  EncodedRelation rel = Encode(t);
  FastodResult reference = Fastod().Discover(rel);

  for (int variant = 0; variant < 3; ++variant) {
    FastodOptions opt;
    opt.level_pruning = variant != 0;
    opt.key_pruning = variant != 1;
    opt.swap_method = variant == 2 ? SwapCheckMethod::kTauBased
                                   : SwapCheckMethod::kSortBased;
    FastodResult got = Fastod(opt).Discover(rel);
    auto sort_all = [](FastodResult* r) {
      std::sort(r->constancy_ods.begin(), r->constancy_ods.end());
      std::sort(r->compatibility_ods.begin(), r->compatibility_ods.end());
    };
    sort_all(&got);
    FastodResult ref = reference;
    sort_all(&ref);
    EXPECT_EQ(got.constancy_ods, ref.constancy_ods) << "variant " << variant;
    EXPECT_EQ(got.compatibility_ods, ref.compatibility_ods)
        << "variant " << variant;
  }
}

TEST_P(FastodOracleTest, EveryEmittedOdIsValidOnTheData) {
  const TableParam& p = GetParam();
  Table t = GenRandomTable(p.rows, p.cols, p.max_domain, p.seed + 9999);
  EncodedRelation rel = Encode(t);
  FastodResult got = Fastod().Discover(rel);
  for (const ConstancyOd& od : got.constancy_ods) {
    EXPECT_TRUE(BruteIsConstant(rel, od.context, od.attribute))
        << od.ToString();
  }
  for (const CompatibilityOd& od : got.compatibility_ods) {
    EXPECT_TRUE(BruteIsOrderCompatible(rel, od.context, od.a, od.b))
        << od.ToString();
  }
}

TEST_P(FastodOracleTest, FdSideMatchesTane) {
  const TableParam& p = GetParam();
  Table t = GenRandomTable(p.rows, p.cols, p.max_domain, p.seed + 555);
  EncodedRelation rel = Encode(t);
  FastodResult od_result = Fastod().Discover(rel);
  TaneResult fd_result = Tane().Discover(rel);
  std::vector<ConstancyOd> od_fds = od_result.constancy_ods;
  std::vector<ConstancyOd> tane_fds = fd_result.fds;
  std::sort(od_fds.begin(), od_fds.end());
  std::sort(tane_fds.begin(), tane_fds.end());
  EXPECT_EQ(od_fds, tane_fds);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTables, FastodOracleTest,
    ::testing::Values(
        // Small and dense in duplicates: FDs and key pruning everywhere.
        TableParam{10, 3, 2, 1}, TableParam{10, 3, 2, 2},
        TableParam{15, 4, 2, 3}, TableParam{15, 4, 3, 4},
        TableParam{20, 4, 3, 5}, TableParam{20, 4, 4, 6},
        // Wider: exercises Cs+ intersection across many parents.
        TableParam{12, 5, 2, 7}, TableParam{12, 5, 3, 8},
        TableParam{18, 5, 3, 9}, TableParam{24, 5, 4, 10},
        // More rows: context partitions with real class structure.
        TableParam{40, 4, 3, 11}, TableParam{40, 5, 4, 12},
        TableParam{60, 4, 5, 13}, TableParam{60, 5, 3, 14},
        // Near-constant and near-key extremes.
        TableParam{30, 4, 1, 15}, TableParam{30, 4, 16, 16},
        TableParam{50, 5, 2, 17}, TableParam{50, 5, 24, 18},
        // A couple of 6-attribute lattices (64 contexts each).
        TableParam{16, 6, 3, 19}, TableParam{25, 6, 4, 20}));

// Derived-column-heavy tables: planted FDs + OCDs through monotone
// coarsening, a different distribution than the uniform tables above.
class FastodDerivedOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FastodDerivedOracleTest, OutputEqualsBruteForce) {
  RandomTableOptions opt;
  opt.num_rows = 30;
  opt.num_columns = 5;
  opt.max_domain = 6;
  opt.derived_fraction = 0.7;
  opt.seed = GetParam();
  Table t = GenRandomTable(opt);
  EncodedRelation rel = Encode(t);
  ExpectSameOds(Fastod().Discover(rel), BruteForceDiscoverOds(rel));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastodDerivedOracleTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

// NaN in CSV input: the column falls back to string, so the codes keep a
// total order and FASTOD still equals the oracle. Before the fix NaN tied
// with every number and `a` (holding both 1 and 2) came out constant.
TEST(FastodCsvOracleTest, NanFieldsMatchBruteForce) {
  for (const char* csv : {"a,b\n1,x\nnan,y\n2,z\n",
                          "a,b,c\n1,1,3\nnan,1,2\n2,2,1\n3,nan,1\n"}) {
    Result<EncodedRelation> rel = EncodeCsvString(csv);
    ASSERT_TRUE(rel.ok());
    FastodResult got = Fastod().Discover(*rel);
    ExpectSameOds(got, BruteForceDiscoverOds(*rel));
    for (const ConstancyOd& od : got.constancy_ods) {
      EXPECT_FALSE(od.context.IsEmpty() && od.attribute == 0) << csv;
    }
  }
}

}  // namespace
}  // namespace fastod
