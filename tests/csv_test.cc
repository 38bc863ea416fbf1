#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "data/csv.h"
#include "gen/random_table.h"

namespace fastod {
namespace {

TEST(CsvReadTest, BasicHeaderAndTypes) {
  auto t = ReadCsvString("id,name,score\n1,alice,3.5\n2,bob,4\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2);
  EXPECT_EQ(t->schema().name(0), "id");
  EXPECT_EQ(t->schema().type(0), DataType::kInt);
  EXPECT_EQ(t->schema().type(1), DataType::kString);
  EXPECT_EQ(t->schema().type(2), DataType::kDouble);
  EXPECT_EQ(t->at(0, 1).AsString(), "alice");
  EXPECT_DOUBLE_EQ(t->at(1, 2).AsDouble(), 4.0);
}

TEST(CsvReadTest, NoHeaderGeneratesColumnNames) {
  CsvOptions opt;
  opt.has_header = false;
  auto t = ReadCsvString("1,x\n2,y\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().name(0), "col0");
  EXPECT_EQ(t->schema().name(1), "col1");
  EXPECT_EQ(t->NumRows(), 2);
}

TEST(CsvReadTest, QuotedFieldsWithDelimitersAndEscapes) {
  auto t = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->at(0, 0).AsString(), "x,y");
  EXPECT_EQ(t->at(0, 1).AsString(), "he said \"hi\"");
}

TEST(CsvReadTest, EmptyFieldsBecomeNull) {
  auto t = ReadCsvString("a,b\n1,\n,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->at(0, 1).is_null());
  EXPECT_TRUE(t->at(1, 0).is_null());
  EXPECT_EQ(t->at(1, 1).AsInt(), 2);
  // Type inference ignores NULLs: both columns stay int.
  EXPECT_EQ(t->schema().type(0), DataType::kInt);
}

TEST(CsvReadTest, MixedColumnFallsBackToString) {
  auto t = ReadCsvString("a\n1\nx\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().type(0), DataType::kString);
  EXPECT_EQ(t->at(0, 0).AsString(), "1");
}

TEST(CsvReadTest, IntThenDecimalBecomesDouble) {
  auto t = ReadCsvString("a\n1\n2.5\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().type(0), DataType::kDouble);
}

TEST(CsvReadTest, TypeInferenceCanBeDisabled) {
  CsvOptions opt;
  opt.infer_types = false;
  auto t = ReadCsvString("a\n1\n2\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().type(0), DataType::kString);
}

TEST(CsvReadTest, MaxRowsLimitsData) {
  CsvOptions opt;
  opt.max_rows = 1;
  auto t = ReadCsvString("a\n1\n2\n3\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 1);
}

TEST(CsvReadTest, CrLfLineEndings) {
  auto t = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2);
  EXPECT_EQ(t->at(1, 1).AsInt(), 4);
}

TEST(CsvReadTest, MissingFinalNewlineStillParses) {
  auto t = ReadCsvString("a\n1\n2");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2);
}

TEST(CsvReadTest, RaggedRowsRejected) {
  auto t = ReadCsvString("a,b\n1\n");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvReadTest, UnterminatedQuoteRejected) {
  auto t = ReadCsvString("a\n\"oops\n");
  EXPECT_FALSE(t.ok());
}

TEST(CsvReadTest, EmptyInputRejected) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvReadTest, CustomDelimiter) {
  CsvOptions opt;
  opt.delimiter = ';';
  auto t = ReadCsvString("a;b\n1;2\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->at(0, 1).AsInt(), 2);
}

TEST(CsvReadTest, NanFieldMakesColumnString) {
  // NaN compares equal to every number, which would break the total
  // order codes are assigned by; a NaN field is therefore not a double.
  auto t = ReadCsvString("a,b\n1,x\nnan,y\n2,z\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().type(0), DataType::kString);
  EXPECT_EQ(t->at(1, 0).AsString(), "nan");
  auto rel = EncodeCsvString("a,b\n1,x\nnan,y\n2,z\n");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().type(0), DataType::kString);
  EXPECT_EQ(rel->NumDistinct(0), 3);
  for (const char* spelling : {"NaN", "-nan", "nan(1)"}) {
    auto other = ReadCsvString(std::string("a\n1.5\n") + spelling + "\n");
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(other->schema().type(0), DataType::kString) << spelling;
  }
  // Infinities still order totally and stay doubles.
  auto inf = ReadCsvString("a\n1.5\ninf\n-inf\n");
  ASSERT_TRUE(inf.ok());
  EXPECT_EQ(inf->schema().type(0), DataType::kDouble);
}

TEST(CsvReadTest, LeadingByteOrderMarkIsSkipped) {
  const std::string text = "\xef\xbb\xbf" "a,b\n1,2\n3,4\n";
  auto t = ReadCsvString(text);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().name(0), "a");
  EXPECT_TRUE(t->schema().IndexOf("a").ok());
  auto rel = EncodeCsvString(text);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().name(0), "a");
  // Without a header the mark is not part of the first value either.
  CsvOptions opt;
  opt.has_header = false;
  auto data = ReadCsvString("\xef\xbb\xbf" "7,8\n", opt);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->schema().type(0), DataType::kInt);
  EXPECT_EQ(data->at(0, 0).AsInt(), 7);
  // Only a leading mark is skipped.
  auto later = ReadCsvString("a\n\xef\xbb\xbf" "x\n");
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->at(0, 0).AsString(), "\xef\xbb\xbf" "x");
}

TEST(CsvWriteTest, RoundTripPreservesContent) {
  auto original = ReadCsvString("id,name\n1,\"a,b\"\n2,plain\n");
  ASSERT_TRUE(original.ok());
  std::string written = WriteCsvString(*original);
  auto reread = ReadCsvString(written);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->NumRows(), original->NumRows());
  EXPECT_EQ(reread->at(0, 1).AsString(), "a,b");
  EXPECT_EQ(reread->at(1, 1).AsString(), "plain");
}

TEST(CsvWriteTest, NullsWriteAsEmptyFields) {
  auto t = ReadCsvString("a,b\n,1\n");
  ASSERT_TRUE(t.ok());
  std::string written = WriteCsvString(*t);
  EXPECT_NE(written.find("\n,1\n"), std::string::npos);
}

TEST(CsvFileTest, WriteAndReadBack) {
  auto t = ReadCsvString("x,y\n1,2\n3,4\n");
  ASSERT_TRUE(t.ok());
  std::string path = ::testing::TempDir() + "/fastod_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 2);
  EXPECT_EQ(back->at(1, 0).AsInt(), 3);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIoError) {
  auto t = ReadCsvFile("/nonexistent/path/nope.csv");
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIoError);
}

// Robustness sweep: the parser must never crash or hang on arbitrary
// byte soup — it returns either a table or a clean error Status.
class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, ArbitraryBytesNeverCrash) {
  Rng rng(GetParam());
  const char alphabet[] = "ab,\"\n\r\t;0123456789.\\x";
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    int64_t len = rng.Uniform(120);
    for (int64_t i = 0; i < len; ++i) {
      input += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
    }
    auto t = ReadCsvString(input);
    if (t.ok()) {
      // Anything parsed must be structurally sound and re-serializable.
      EXPECT_GE(t->NumColumns(), 1);
      std::string out = WriteCsvString(*t);
      auto back = ReadCsvString(out);
      ASSERT_TRUE(back.ok()) << "round-trip failed for: " << input;
      EXPECT_EQ(back->NumRows(), t->NumRows());
    } else {
      EXPECT_FALSE(t.status().message().empty());
    }
  }
}

TEST_P(CsvFuzzTest, RandomTablesRoundTripLosslessly) {
  Rng rng(GetParam() + 77);
  for (int trial = 0; trial < 20; ++trial) {
    Table t = GenRandomTable(1 + rng.Uniform(30),
                             1 + static_cast<int>(rng.Uniform(6)),
                             1 + rng.Uniform(8), rng.Next64());
    auto back = ReadCsvString(WriteCsvString(t));
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->NumRows(), t.NumRows());
    ASSERT_EQ(back->NumColumns(), t.NumColumns());
    for (int64_t r = 0; r < t.NumRows(); ++r) {
      for (int c = 0; c < t.NumColumns(); ++c) {
        EXPECT_EQ(Value::Compare(back->at(r, c), t.at(r, c)), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Values(1001, 2002, 3003, 4004));

}  // namespace
}  // namespace fastod
