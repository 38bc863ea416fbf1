#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/random_table.h"
#include "partition/stripped_partition.h"

namespace fastod {
namespace {

EncodedRelation Encode(const Table& t) {
  auto rel = EncodedRelation::FromTable(t);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).value();
}

TEST(StrippedPartitionTest, UniverseIsOneClass) {
  StrippedPartition p = StrippedPartition::Universe(4);
  EXPECT_EQ(p.NumClasses(), 1);
  EXPECT_EQ(p.NumElements(), 4);
  EXPECT_EQ(p.Error(), 3);
  EXPECT_FALSE(p.IsSuperkey());
}

TEST(StrippedPartitionTest, UniverseOfTinyRelationsIsEmpty) {
  EXPECT_TRUE(StrippedPartition::Universe(0).IsSuperkey());
  EXPECT_TRUE(StrippedPartition::Universe(1).IsSuperkey());
}

TEST(StrippedPartitionTest, ForAttributeStripsSingletons) {
  // ranks: 0,1,0,2,1 -> classes {0,2},{1,4}, singleton {3} stripped.
  std::vector<int32_t> ranks{0, 1, 0, 2, 1};
  StrippedPartition p = StrippedPartition::ForAttribute(ranks, 3);
  EXPECT_EQ(p.NumClasses(), 2);
  EXPECT_EQ(p.NumElements(), 4);
  EXPECT_EQ(p.Error(), 2);
  // Classes come in ascending rank order.
  EXPECT_EQ(std::vector<int32_t>(p.Class(0).begin(), p.Class(0).end()),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(std::vector<int32_t>(p.Class(1).begin(), p.Class(1).end()),
            (std::vector<int32_t>{1, 4}));
}

TEST(StrippedPartitionTest, KeyAttributeYieldsSuperkeyPartition) {
  std::vector<int32_t> ranks{3, 0, 2, 1};
  StrippedPartition p = StrippedPartition::ForAttribute(ranks, 4);
  EXPECT_TRUE(p.IsSuperkey());
  EXPECT_EQ(p.Error(), 0);
}

TEST(StrippedPartitionTest, ProductRefines) {
  // A: {0,1,2,3} in one class split by B: 0,0,1,1.
  StrippedPartition a = StrippedPartition::Universe(4);
  StrippedPartition b =
      StrippedPartition::ForAttribute({0, 0, 1, 1}, 2);
  StrippedPartition ab = a.Product(b);
  EXPECT_EQ(ab, b);
}

TEST(StrippedPartitionTest, ProductDropsCrossSingletons) {
  // A classes: {0,1},{2,3}; B classes: {1,2},{0,3} -> all intersections
  // singletons -> product is a superkey partition.
  StrippedPartition a = StrippedPartition::ForAttribute({0, 0, 1, 1}, 2);
  StrippedPartition b = StrippedPartition::ForAttribute({0, 1, 1, 0}, 2);
  StrippedPartition ab = a.Product(b);
  EXPECT_TRUE(ab.IsSuperkey());
}

TEST(StrippedPartitionTest, ProductIsCommutative) {
  StrippedPartition a =
      StrippedPartition::ForAttribute({0, 0, 1, 1, 2, 2}, 3);
  StrippedPartition b =
      StrippedPartition::ForAttribute({0, 1, 0, 1, 0, 0}, 2);
  EXPECT_EQ(a.Product(b), b.Product(a));
}

TEST(StrippedPartitionTest, FillClassIndexMarksSingletonsMinusOne) {
  std::vector<int32_t> ranks{0, 1, 0, 2};
  StrippedPartition p = StrippedPartition::ForAttribute(ranks, 3);
  std::vector<int32_t> class_of;
  p.FillClassIndex(&class_of);
  ASSERT_EQ(class_of.size(), 4u);
  EXPECT_EQ(class_of[0], class_of[2]);
  EXPECT_GE(class_of[0], 0);
  EXPECT_EQ(class_of[1], -1);
  EXPECT_EQ(class_of[3], -1);
}

TEST(StrippedPartitionTest, BuilderDropsSubPairClasses) {
  PartitionBuilder b(5);
  b.BeginClass();
  b.AddTuple(0);
  b.EndClass();  // singleton -> dropped
  b.BeginClass();
  b.EndClass();  // empty -> dropped
  b.BeginClass();
  b.AddTuple(1);
  b.AddTuple(2);
  b.EndClass();
  StrippedPartition p = b.Build();
  EXPECT_EQ(p.NumClasses(), 1);
  EXPECT_EQ(p.NumElements(), 2);
}

TEST(StrippedPartitionTest, ToStringRendersClasses) {
  StrippedPartition p = StrippedPartition::ForAttribute({0, 0, 1}, 2);
  EXPECT_EQ(p.ToString(), "{{0,1}}");
}

// Property: folding single-attribute partitions with Product() equals the
// direct hash-based construction, for random attribute subsets.
class PartitionProductPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionProductPropertyTest, ProductMatchesDirectConstruction) {
  Table t = GenRandomTable(50, 5, 4, GetParam());
  EncodedRelation rel = Encode(t);
  // All 2^5 - 1 nonempty subsets.
  for (uint64_t mask = 1; mask < 32; ++mask) {
    StrippedPartition via_product;
    bool first = true;
    std::vector<const CodeColumn*> columns;
    for (int a = 0; a < 5; ++a) {
      if (!(mask & (uint64_t{1} << a))) continue;
      StrippedPartition single =
          StrippedPartition::ForAttribute(rel.codes(a));
      via_product = first ? single : via_product.Product(single);
      first = false;
      columns.push_back(&rel.codes(a));
    }
    StrippedPartition direct =
        StrippedPartition::FromCodeColumns(columns, rel.NumRows());
    EXPECT_EQ(via_product, direct) << "mask=" << mask;
  }
}

TEST_P(PartitionProductPropertyTest, ErrorIsMonotoneUnderRefinement) {
  Table t = GenRandomTable(60, 4, 5, GetParam());
  EncodedRelation rel = Encode(t);
  StrippedPartition a = StrippedPartition::ForAttribute(rel.codes(0));
  StrippedPartition prev = a;
  for (int c = 1; c < 4; ++c) {
    StrippedPartition next =
        prev.Product(StrippedPartition::ForAttribute(rel.codes(c)));
    EXPECT_LE(next.Error(), prev.Error());
    prev = next;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProductPropertyTest,
                         ::testing::Values(3, 7, 13, 29, 41, 59));

// Property: Refine(codes of A) equals the product with Π*_{A}, for every
// parent the lattice can hand it. The relations mix ties, NULLs (empty
// fields) and duplicate rows; the parents include the one-class universe,
// an all-singleton key and the empty partition of a superkey.
class PartitionRefinePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

// A random CSV: `cols` columns of small integer domains, ~1 field in 6
// empty (NULL), ~1 row in 4 a copy of an earlier row, plus a key column.
EncodedRelation RandomRelationWithNulls(int64_t rows, int cols,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> fields;
  for (int64_t r = 0; r < rows; ++r) {
    if (r > 0 && rng.Chance(0.25)) {
      fields.push_back(fields[rng.Uniform(r)]);
      continue;
    }
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(rng.Chance(1.0 / 6) ? ""
                                        : std::to_string(rng.Uniform(c + 2)));
    }
    fields.push_back(std::move(row));
  }
  std::string csv;
  for (int c = 0; c < cols; ++c) csv += "c" + std::to_string(c) + ",";
  csv += "key\n";
  for (int64_t r = 0; r < rows; ++r) {
    for (const std::string& field : fields[r]) csv += field + ",";
    csv += std::to_string(r) + "\n";
  }
  Result<EncodedRelation> rel = EncodeCsvString(csv);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return std::move(rel).value();
}

TEST_P(PartitionRefinePropertyTest, RefineEqualsProduct) {
  const int cols = 4;
  EncodedRelation rel = RandomRelationWithNulls(60, cols, GetParam());
  const int key = cols;  // all-distinct column
  const int64_t n = rel.NumRows();
  std::vector<StrippedPartition> parents = {
      StrippedPartition::Universe(n),                  // one class
      StrippedPartition::ForAttribute(rel.codes(key)),  // empty: superkey
  };
  for (uint64_t mask = 1; mask < (uint64_t{1} << cols); ++mask) {
    std::vector<const CodeColumn*> columns;
    for (int a = 0; a < cols; ++a) {
      if (mask & (uint64_t{1} << a)) columns.push_back(&rel.codes(a));
    }
    parents.push_back(StrippedPartition::FromCodeColumns(columns, n));
  }
  ASSERT_TRUE(parents[1].IsSuperkey());
  for (size_t i = 0; i < parents.size(); ++i) {
    for (int a = 0; a <= key; ++a) {
      const StrippedPartition refined = parents[i].Refine(rel.codes(a));
      EXPECT_EQ(refined, parents[i].Product(
                             StrippedPartition::ForAttribute(rel.codes(a))))
          << "parent " << i << " attribute " << a;
      EXPECT_EQ(refined.num_rows(), n);
      // Members stay ascending within every class.
      for (int32_t c = 0; c < refined.NumClasses(); ++c) {
        auto cls = refined.Class(c);
        EXPECT_GE(cls.size(), 2u);
        EXPECT_TRUE(std::is_sorted(cls.begin(), cls.end()));
      }
    }
  }
  // Refining by the key strips every class: an all-singleton result.
  EXPECT_TRUE(parents[0].Refine(rel.codes(key)).IsSuperkey());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRefinePropertyTest,
                         ::testing::Values(5, 17, 23, 31, 47, 83));

TEST(StrippedPartitionTest, RefineSplitsClassesByCode) {
  // {0,1,2,3} refined by 0,1,0,1 -> {0,2},{1,3}; row 4 stays stripped.
  StrippedPartition universe_of_four =
      StrippedPartition::ForAttribute({0, 0, 0, 0, 1}, 2);
  CodeColumn codes = CodeColumn::FromRanks({0, 1, 0, 1, 1}, 2);
  StrippedPartition refined = universe_of_four.Refine(codes);
  EXPECT_EQ(refined.ToString(), "{{0,2},{1,3}}");
  EXPECT_EQ(refined.Error(), 2);
}

TEST(StrippedPartitionTest, RefineOfAnEmptyPartitionIsEmpty) {
  // Relations of 0 and 1 rows: the empty set is already a key.
  for (int64_t n : {0, 1}) {
    std::vector<int32_t> ranks(n, 0);
    StrippedPartition refined = StrippedPartition::Universe(n).Refine(
        CodeColumn::FromRanks(ranks, 1));
    EXPECT_TRUE(refined.IsSuperkey()) << n;
    EXPECT_EQ(refined.num_rows(), n);
  }
}

}  // namespace
}  // namespace fastod
