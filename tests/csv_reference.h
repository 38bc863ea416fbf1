// The two-step CSV ingest that one-pass EncodeCsvString replaced, kept as
// an independent reference: tests/csv_encode_test.cc checks the library
// against it, and bench/bench_micro_partition.cc times it as the baseline
// of the ingest speedup. Header-only (CMake globs tests/*_test.cc).
//
// ReferenceReadCsv splits the text character by character into
// vector<vector<string>> records, infers each column's type over its rows
// and builds a Table row by row. ReferenceEncode comparison-sorts all n
// rows of each column. Both follow today's input rules (a leading UTF-8
// byte-order mark is skipped; a NaN field is not a double).
#ifndef FASTOD_TESTS_CSV_REFERENCE_H_
#define FASTOD_TESTS_CSV_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "data/csv.h"
#include "data/encode.h"

namespace fastod {

inline Result<std::vector<std::vector<std::string>>> ReferenceTokenizeCsv(
    std::string_view text, char delim) {
  if (text.starts_with("\xEF\xBB\xBF")) text.remove_prefix(3);
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool started = false;  // the current record has content
  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    started = false;
  };
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c != '"') {
        field += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"' && field.empty()) {
      in_quotes = started = true;
    } else if (c == delim) {
      end_field();
      started = true;
    } else if (c == '\n') {
      if (started || !field.empty()) end_record();
    } else if (c != '\r') {
      field += c;
      started = true;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (started || !field.empty()) end_record();
  return records;
}

inline Result<Table> ReferenceReadCsv(std::string_view text,
                                      const CsvOptions& options) {
  auto records = ReferenceTokenizeCsv(text, options.delimiter);
  if (!records.ok()) return records.status();
  if (records->empty()) {
    return Status::InvalidArgument("CSV input contains no records");
  }
  const size_t cols = (*records)[0].size();
  for (const auto& rec : *records) {
    if (rec.size() != cols) {
      return Status::InvalidArgument(
          "ragged CSV: expected " + std::to_string(cols) +
          " fields, found a record with " + std::to_string(rec.size()));
    }
  }
  const size_t first = options.has_header ? 1 : 0;
  size_t last = records->size();
  if (options.max_rows >= 0) {
    last = std::min(last, first + static_cast<size_t>(options.max_rows));
  }
  std::vector<AttributeDef> defs(cols);
  for (size_t c = 0; c < cols; ++c) {
    defs[c].name = options.has_header ? std::string(Trim((*records)[0][c]))
                                      : "col" + std::to_string(c);
    bool all_int = true;
    bool all_double = true;
    bool any = false;
    for (size_t r = first; r < last; ++r) {
      std::string_view f = Trim((*records)[r][c]);
      if (f.empty()) continue;  // NULL, no evidence
      any = true;
      if (all_int && !ParseInt(f).has_value()) all_int = false;
      if (!all_int && all_double) {
        std::optional<double> v = ParseDouble(f);
        if (!v.has_value() || std::isnan(*v)) {
          all_double = false;
          break;
        }
      }
    }
    defs[c].type = !options.infer_types || !any ? DataType::kString
                   : all_int                    ? DataType::kInt
                   : all_double                 ? DataType::kDouble
                                                : DataType::kString;
  }
  TableBuilder builder{Schema(defs)};
  for (size_t r = first; r < last; ++r) {
    std::vector<Value> row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      std::string_view f = Trim((*records)[r][c]);
      if (f.empty()) {
        row.push_back(Value::Null());
      } else if (defs[c].type == DataType::kInt) {
        row.push_back(Value::Int(*ParseInt(f)));
      } else if (defs[c].type == DataType::kDouble) {
        row.push_back(Value::Double(*ParseDouble(f)));
      } else {
        row.push_back(Value::Str(std::string(f)));
      }
    }
    if (Status s = builder.AddRow(std::move(row)); !s.ok()) return s;
  }
  return builder.Build();
}

// Sorts all n rows of each column (stable row-id tiebreak) and interns
// the first row of each run of equal values.
inline EncodedRelation ReferenceEncode(const Table& table) {
  std::vector<EncodedColumn> columns;
  std::vector<int32_t> order(table.NumRows());
  for (int c = 0; c < table.NumColumns(); ++c) {
    const std::vector<Value>& col = table.column(c);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      int cmp = Value::Compare(col[a], col[b]);
      return cmp != 0 ? cmp < 0 : a < b;
    });
    std::vector<uint32_t> codes(col.size());
    ValueDictionary::Builder dict;
    int32_t code = -1;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i == 0 || Value::Compare(col[order[i - 1]], col[order[i]]) != 0) {
        ++code;
        dict.Add(col[order[i]]);
      }
      codes[order[i]] = static_cast<uint32_t>(code);
    }
    columns.push_back({CodeColumn(std::move(codes), code + 1), dict.Build()});
  }
  return *EncodedRelation::FromColumns(table.schema(), std::move(columns));
}

}  // namespace fastod

#endif  // FASTOD_TESTS_CSV_REFERENCE_H_
