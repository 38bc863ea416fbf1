// CSV import/export with type inference.
//
// The evaluation datasets in the paper (flight, ncvoter, hepatitis, dbtesma)
// are CSV files; this reader lets users run discovery on their own data.
// Supports RFC-4180-style quoting ("a,b" fields, "" escapes), configurable
// delimiter, optional header row, and per-column type inference
// (int -> double -> string; empty fields become NULL).
//
// Production ingest is one pass, CSV bytes -> EncodedRelation, with no
// Table in between (EncodeCsvString / EncodeCsvFile):
//
//   1. One tokenizer walks the bytes. Unquoted fields stay slices of the
//      input; only quoted fields and fields holding a stray '\r' are
//      unescaped into a scratch buffer.
//   2. Each column interns its trimmed field bytes in a flat hash table
//      (data/encode.h, FirstSeenIds); each row keeps one uint32 local id
//      per column.
//   3. Each column's type is inferred once over its d distinct values,
//      each of which is parsed once into a typed key (int64, double or
//      bytes).
//   4. AssignCodes sorts the d keys and remaps the row ids to codes:
//      O(n + d log d) per column.
//
// ReadCsvString / ReadCsvFile build a Table from the same tokenizer and
// interning; they remain for generators, tests and tools that want Values.
// EncodeCsvString(text) is byte-identical to
// EncodedRelation::FromTable(*ReadCsvString(text)), including errors.
//
// Input rules shared by both paths:
//   * A leading UTF-8 byte-order mark (EF BB BF) is skipped, so it never
//     becomes part of the first attribute name.
//   * Fields are trimmed of ASCII spaces, tabs, CR and LF; an empty field
//     is NULL.
//   * A column is int when every non-NULL field parses as an int64, else
//     double when every one parses as a double other than NaN, else
//     string. "nan" (any NaN spelling) never counts as a double: NaN
//     would break the Value total order that codes are assigned by.
#ifndef FASTOD_DATA_CSV_H_
#define FASTOD_DATA_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/encode.h"
#include "data/table.h"

namespace fastod {

struct CsvOptions {
  char delimiter = ',';
  /// If true, the first record provides attribute names; otherwise columns
  /// are named col0, col1, ...
  bool has_header = true;
  /// If true, infer int/double column types where every non-empty field
  /// parses; otherwise every column is string-typed.
  bool infer_types = true;
  /// Maximum number of data rows to read (-1 = all).
  int64_t max_rows = -1;
};

/// Wall-clock split of one EncodeCsv call, as recorded in the csv.parse
/// and encode trace spans: reading, tokenizing and interning, then
/// typing, sorting the distinct values and remapping the rows.
struct CsvIngestTimes {
  double parse_seconds = 0.0;
  double encode_seconds = 0.0;
};

/// Parses and encodes CSV text in one pass (see the file comment). Fails
/// on malformed CSV and on more than AttributeSet::kMaxAttributes
/// columns. `times`, when non-null, receives the phase split.
Result<EncodedRelation> EncodeCsvString(std::string_view text,
                                        const CsvOptions& options = {},
                                        CsvIngestTimes* times = nullptr);

/// Reads a CSV file and encodes it like EncodeCsvString.
Result<EncodedRelation> EncodeCsvFile(const std::string& path,
                                      const CsvOptions& options = {},
                                      CsvIngestTimes* times = nullptr);

/// Parses CSV text into a Table.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options = CsvOptions());

/// Reads and parses a CSV file.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = CsvOptions());

/// Serializes a table to CSV (always writes a header row; quotes fields
/// containing the delimiter, quotes, or newlines).
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace fastod

#endif  // FASTOD_DATA_CSV_H_
