// Differential tests for one-pass CSV ingest: EncodeCsvString must be
// byte-identical to the two-step Table path, FromTable(ReadCsvString), on
// every input — same schema and types, same codes, same dictionaries and
// the same error messages — and LoadedDataset::Append of an encoded delta
// must equal FromTable on the concatenated table.
//
// Both library paths share one tokenizer, so the reader is also checked
// against an independent reference (csv_reference.h): the
// character-at-a-time reader and the row-sorting encoder the one-pass
// path replaced, with the NaN and byte-order-mark rules applied.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/rng.h"
#include "csv_reference.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "data/encode.h"

namespace fastod {
namespace {

// ------------------------------------------------------------- checks

bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a.is_null() || Value::Compare(a, b) == 0;
}

void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& input) {
  ASSERT_TRUE(got.schema() == want.schema()) << input;
  ASSERT_EQ(got.NumRows(), want.NumRows()) << input;
  for (int c = 0; c < got.NumColumns(); ++c) {
    ASSERT_EQ(got.schema().type(c), want.schema().type(c)) << input;
    for (int64_t r = 0; r < got.NumRows(); ++r) {
      ASSERT_TRUE(SameCell(got.at(r, c), want.at(r, c)))
          << "row " << r << " col " << c << " of\n" << input;
    }
  }
}

void ExpectSameRelation(const EncodedRelation& got,
                        const EncodedRelation& want,
                        const std::string& input) {
  ASSERT_TRUE(got.schema() == want.schema()) << input;
  ASSERT_EQ(got.NumRows(), want.NumRows()) << input;
  for (int a = 0; a < got.NumAttributes(); ++a) {
    ASSERT_EQ(got.schema().type(a), want.schema().type(a)) << input;
    EXPECT_TRUE(got.codes(a) == want.codes(a)) << "codes of " << a << "\n"
                                               << input;
    EXPECT_TRUE(got.dictionary(a) == want.dictionary(a))
        << "dictionary of " << a << "\n" << input;
  }
  EXPECT_EQ(got.ByteSize(), want.ByteSize()) << input;
}

// EncodeCsvString == FromTable(ReadCsvString) == the reference, including
// the error, for one input.
void CheckAllPathsAgree(const std::string& text, const CsvOptions& options) {
  Result<Table> reference = ReferenceReadCsv(text, options);
  Result<Table> table = ReadCsvString(text, options);
  Result<EncodedRelation> encoded = EncodeCsvString(text, options);
  ASSERT_EQ(table.ok(), reference.ok()) << text;
  if (!reference.ok()) {
    EXPECT_EQ(table.status().ToString(), reference.status().ToString());
    ASSERT_FALSE(encoded.ok()) << text;
    EXPECT_EQ(encoded.status().ToString(), reference.status().ToString());
    return;
  }
  ExpectSameTable(*table, *reference, text);
  Result<EncodedRelation> from_table = EncodedRelation::FromTable(*table);
  ASSERT_TRUE(from_table.ok());
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString() << "\n" << text;
  ExpectSameRelation(*encoded, *from_table, text);
  ExpectSameRelation(*encoded, ReferenceEncode(*reference), text);
}

// ------------------------------------------------------ random inputs

// Field spellings chosen to collide under the typed orders: "01", "1",
// "+1" and " 1 " are one int; "1", "1.0", "1e0" one double; "-0" and "0"
// equal doubles with different bits; 20-digit ints overflow to double.
const char* const kInts[] = {"1", "01", "+1", " 1 ", "2", "-3", "0", "-0",
                             "10", "9223372036854775807",
                             "-9223372036854775808"};
const char* const kNumbers[] = {"1.0", "2.5", "1e0", "-0.0", "0.0", "inf",
                                "-inf", "0x10", "1e400", "3"};
const char* const kOverflow[] = {"99999999999999999999", "1", "-2",
                                 "18446744073709551616", "5"};
const char* const kStrings[] = {"a", "b", "A", "ab", "a b", "  a",
                                "x,y", "q\"uote", "line\nbreak", "é", "nan"};

std::string RandomContent(Rng& rng, int flavor) {
  if (rng.Chance(0.1)) return rng.Chance(0.5) ? "" : "  ";  // NULL
  switch (flavor) {
    case 0:
      return kInts[rng.Uniform(std::size(kInts))];
    case 1:
      return rng.Chance(0.5) ? kInts[rng.Uniform(std::size(kInts))]
                             : kNumbers[rng.Uniform(std::size(kNumbers))];
    case 2:
      return kOverflow[rng.Uniform(std::size(kOverflow))];
    case 3:
      return kStrings[rng.Uniform(std::size(kStrings))];
    default:
      return rng.Chance(0.9) ? kInts[rng.Uniform(std::size(kInts))] : "nan";
  }
}

std::string Render(Rng& rng, const std::string& content, char delim) {
  bool must_quote = content.find_first_of(std::string("\"\n\r") + delim) !=
                    std::string::npos;
  if (must_quote || rng.Chance(0.15)) {
    std::string out = "\"";
    for (char c : content) {
      out += c;
      if (c == '"') out += c;  // "" escapes a quote
    }
    out += '"';
    if (rng.Chance(0.1)) out += " ";  // text after the closing quote
    return out;
  }
  std::string out = content;
  if (!out.empty() && rng.Chance(0.1)) {  // a stray \r is dropped
    out.insert(static_cast<size_t>(rng.Uniform(out.size() + 1)), "\r");
  }
  if (rng.Chance(0.1)) out = " " + out + "\t";
  return out;
}

std::string RandomCsv(Rng& rng, int cols, int64_t rows, char delim,
                      const std::vector<int>& flavors, bool header) {
  const std::string eol = rng.Chance(0.3) ? "\r\n" : "\n";
  std::string text;
  int64_t records = rows + (header ? 1 : 0);
  for (int64_t r = 0; r < records; ++r) {
    if (rng.Chance(0.05)) text += eol;  // blank line
    for (int c = 0; c < cols; ++c) {
      if (c > 0) text += delim;
      std::string content = header && r == 0 ? "c" + std::to_string(c)
                                             : RandomContent(rng, flavors[c]);
      text += Render(rng, content, delim);
    }
    if (r + 1 < records || rng.Chance(0.8)) text += eol;
  }
  return text;
}

std::vector<int> RandomFlavors(Rng& rng, int cols) {
  std::vector<int> flavors(cols);
  for (int& f : flavors) f = static_cast<int>(rng.Uniform(5));
  return flavors;
}

class CsvEncodeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvEncodeDifferentialTest, EncodeMatchesTablePathOnRandomCsv) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    CsvOptions options;
    options.has_header = rng.Chance(0.7);
    options.delimiter = rng.Chance(0.2) ? ';' : ',';
    options.infer_types = rng.Chance(0.9);
    if (rng.Chance(0.2)) options.max_rows = rng.Uniform(6);
    const int cols = 1 + static_cast<int>(rng.Uniform(5));
    const int64_t rows = rng.Uniform(40);
    std::string text = RandomCsv(rng, cols, rows, options.delimiter,
                                 RandomFlavors(rng, cols), options.has_header);
    if (rng.Chance(0.1)) text = "\xEF\xBB\xBF" + text;
    CheckAllPathsAgree(text, options);
  }
}

TEST_P(CsvEncodeDifferentialTest, MutatedCsvErrorsAgree) {
  // Random edits of valid CSV: unterminated quotes, ragged records and
  // stray structure must fail (or succeed) identically on every path.
  Rng rng(GetParam() + 5);
  const std::string alphabet = "\",;\n\r a1.";
  for (int trial = 0; trial < 120; ++trial) {
    CsvOptions options;
    options.has_header = rng.Chance(0.5);
    if (rng.Chance(0.2)) options.max_rows = rng.Uniform(4);
    const int cols = 1 + static_cast<int>(rng.Uniform(4));
    std::string text = RandomCsv(rng, cols, rng.Uniform(8), ',',
                                 RandomFlavors(rng, cols), options.has_header);
    for (int edit = 0, edits = 1 + static_cast<int>(rng.Uniform(3));
         edit < edits; ++edit) {
      const size_t at = static_cast<size_t>(rng.Uniform(text.size() + 1));
      if (rng.Chance(0.5) && at < text.size()) {
        text.erase(at, 1);
      } else {
        text.insert(at, 1, alphabet[rng.Uniform(alphabet.size())]);
      }
    }
    CheckAllPathsAgree(text, options);
  }
}

TEST_P(CsvEncodeDifferentialTest, AppendOfEncodedDeltaEqualsFromTable) {
  Rng rng(GetParam() + 9);
  for (int trial = 0; trial < 25; ++trial) {
    const int cols = 1 + static_cast<int>(rng.Uniform(4));
    std::string base_text = RandomCsv(rng, cols, 1 + rng.Uniform(30), ',',
                                      RandomFlavors(rng, cols), true);
    // Fresh flavors: the delta's inferred types often differ from the
    // base's (int base, double or string delta, and back).
    CsvOptions delta_options;
    delta_options.has_header = false;
    std::string delta_text = RandomCsv(rng, cols, 1 + rng.Uniform(12), ',',
                                       RandomFlavors(rng, cols), false);
    Result<Table> base_table = ReadCsvString(base_text);
    Result<Table> delta_table = ReadCsvString(delta_text, delta_options);
    ASSERT_TRUE(base_table.ok()) << base_table.status().ToString();
    if (!delta_table.ok()) continue;  // e.g. every delta line was blank

    auto base = LoadedDataset::Build("d", *EncodeCsvString(base_text));
    ASSERT_TRUE(base.ok());
    auto grown = LoadedDataset::Append(
        *base, *EncodeCsvString(delta_text, delta_options));
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();

    std::vector<std::vector<Value>> concat(cols);
    for (int c = 0; c < cols; ++c) {
      concat[c] = base_table->column(c);
      concat[c].insert(concat[c].end(), delta_table->column(c).begin(),
                       delta_table->column(c).end());
    }
    Table whole(base_table->schema(), std::move(concat));
    const std::string input = base_text + "+\n" + delta_text;
    ExpectSameRelation((*grown)->relation(), *EncodedRelation::FromTable(whole),
                       input);
    ExpectSameRelation((*grown)->relation(), ReferenceEncode(whole), input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvEncodeDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------ fixed inputs

TEST(CsvEncodeTest, EdgeCasesAgree) {
  const std::vector<std::string> inputs = {
      "",                                  // no records
      "\n\r\n\n",                          // only blank lines
      "a,b\n1\n",                          // ragged (short)
      "a\n1,2\n",                          // ragged (long)
      "a\n\"oops\n",                       // unterminated quote
      "a,b\n1,2\n3\n\"x\n",                // unterminated beats ragged
      "a\n\"\"\n\"\"\n",                   // quoted empty fields are NULL
      "a,b\n\"\"\r\"x\",1\n",              // quote reopens after a stray \r
      "a,b\n\"x\"y\"z\",1\n",              // text after a closing quote
      "a,b\r\n 01 ,\"p\"\r\n+1,q\r\n1,p",  // int collisions, no final EOL
      "a\n1\n1.0\n1e0\n-0\n0\n",           // double collisions, -0 vs 0
      "a\n99999999999999999999\n1\n",      // int64 overflow -> double
      "a\n1\nnan\n2\n",                    // NaN -> string column
      "a,b\n,\n,\n",                       // all-NULL columns
      "\xEF\xBB\xBF" "a,b\n1,2\n",         // byte-order mark
      "a,\n1,2\n",                         // empty header name
  };
  for (const std::string& text : inputs) {
    CheckAllPathsAgree(text, CsvOptions());
    CsvOptions no_header;
    no_header.has_header = false;
    CheckAllPathsAgree(text, no_header);
    CsvOptions one_row;
    one_row.max_rows = 1;
    CheckAllPathsAgree(text, one_row);
  }
}

TEST(CsvEncodeTest, TooManyColumnsFailsLikeFromTable) {
  std::string text;
  for (int c = 0; c < 65; ++c) text += (c > 0 ? ",c" : "c") + std::to_string(c);
  text += "\n";
  for (int c = 0; c < 65; ++c) text += c > 0 ? ",1" : "1";
  text += "\n";
  Result<Table> table = ReadCsvString(text);
  ASSERT_TRUE(table.ok());
  Result<EncodedRelation> want = EncodedRelation::FromTable(*table);
  Result<EncodedRelation> got = EncodeCsvString(text);
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().ToString(), want.status().ToString());
}

TEST(CsvEncodeTest, PhaseTimesAreReported) {
  CsvIngestTimes times;
  ASSERT_TRUE(EncodeCsvString("a,b\n1,x\n2,y\n", CsvOptions(), &times).ok());
  EXPECT_GE(times.parse_seconds, 0.0);
  EXPECT_GE(times.encode_seconds, 0.0);
}

TEST(CsvEncodeTest, MissingFileIsIoError) {
  Result<EncodedRelation> rel = EncodeCsvFile("/nonexistent/path/nope.csv");
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kIoError);
  EXPECT_EQ(rel.status().ToString(),
            ReadCsvFile("/nonexistent/path/nope.csv").status().ToString());
}

}  // namespace
}  // namespace fastod
