#include "data/csv.h"

#include "common/fault.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"

namespace fastod {

namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

enum class FieldEnd { kDelimiter, kNewline, kEndOfText };

// The CSV tokenizer. Calls on_field(content) for every field of every
// record, then on_record() after each record's last field. Blank lines
// are skipped. Outside quotes '\r' is dropped; a '"' opens a quoted
// section only while the field is still empty, and inside one "" is a
// literal quote. Content is a slice of `text` unless the field needed
// unescaping, in which case it views a scratch buffer that the next
// field overwrites. Fails only on an unterminated quoted field.
template <typename OnField, typename OnRecord>
Status Tokenize(std::string_view text, char delim, OnField&& on_field,
                OnRecord&& on_record) {
  std::string scratch;
  const char* p = text.data();
  const char* const end = p + text.size();
  bool record_started = false;
  while (true) {
    std::string_view field;
    bool touched = false;  // the field holds content or a quote
    FieldEnd field_end = FieldEnd::kEndOfText;
    const char* q = p;
    bool plain = q == end || *q != '"';
    if (plain) {
      while (q < end && *q != delim && *q != '\n' && *q != '\r') ++q;
      plain = q == end || *q != '\r' || delim == '\r';
    }
    if (plain) {
      field = std::string_view(p, q - p);
      touched = q > p;
      if (q < end) field_end = *q == delim ? FieldEnd::kDelimiter
                                           : FieldEnd::kNewline;
      p = q == end ? end : q + 1;
    } else {
      scratch.clear();
      q = p;
      bool in_quotes = false;
      while (q < end) {
        if (in_quotes) {
          const void* hit = std::memchr(q, '"', end - q);
          const char* quote = hit == nullptr ? end
                                             : static_cast<const char*>(hit);
          scratch.append(q, quote);
          q = quote;
          if (q == end) break;
          if (q + 1 < end && q[1] == '"') {
            scratch += '"';  // escaped quote
            q += 2;
          } else {
            in_quotes = false;
            ++q;
          }
          continue;
        }
        const char c = *q;
        if (c == '"' && scratch.empty()) {
          in_quotes = true;
          touched = true;
          ++q;
          continue;
        }
        if (c == delim) {
          field_end = FieldEnd::kDelimiter;
          ++q;
          break;
        }
        if (c == '\n') {
          field_end = FieldEnd::kNewline;
          ++q;
          break;
        }
        if (c != '\r') {  // '\r' is swallowed; "\r\n" ends at the '\n'
          scratch += c;
          touched = true;
        }
        ++q;
      }
      if (in_quotes) {
        return Status::InvalidArgument("unterminated quoted CSV field");
      }
      field = scratch;
      p = q;
    }
    record_started = record_started || touched;
    switch (field_end) {
      case FieldEnd::kDelimiter:
        on_field(field);
        record_started = true;
        break;
      case FieldEnd::kNewline:
        if (record_started) {
          on_field(field);
          on_record();
          record_started = false;
        }
        break;
      case FieldEnd::kEndOfText:
        if (record_started) {
          on_field(field);
          on_record();
        }
        return Status::Ok();
    }
  }
}

// One column's interned field bytes: the distinct trimmed values in
// first-seen order, back to back in `bytes`, and every row's local id.
struct InternedColumn {
  std::vector<uint32_t> ids;
  std::string bytes;
  std::vector<size_t> offsets{0};  // value i is bytes[offsets[i], [i+1])
  FirstSeenIds index;
  int32_t null_id = -1;  // the empty value's id, if any

  uint32_t size() const { return static_cast<uint32_t>(offsets.size() - 1); }

  std::string_view value(uint32_t id) const {
    return std::string_view(bytes.data() + offsets[id],
                            offsets[id + 1] - offsets[id]);
  }

  void Add(std::string_view field) {
    field = Trim(field);
    bool inserted = false;
    const uint32_t id = index.Intern(
        InternHash(field), [&](uint32_t seen) { return value(seen) == field; },
        &inserted);
    if (inserted) {
      bytes.append(field);
      offsets.push_back(bytes.size());
      if (field.empty()) null_id = static_cast<int32_t>(id);
    }
    ids.push_back(id);
  }
};

int64_t CountNewlines(std::string_view text) {
  int64_t count = 0;
  for (const char *p = text.data(), *end = p + text.size();
       (p = static_cast<const char*>(std::memchr(p, '\n', end - p))) !=
       nullptr;
       ++p) {
    ++count;
  }
  return count;
}

struct InternedCsv {
  std::vector<std::string> names;
  std::vector<InternedColumn> columns;
};

// Tokenizes `text` and interns every data field of the first max_rows
// rows. Records past max_rows are still tokenized, so ragged records and
// unterminated quotes anywhere in the input are reported.
Result<InternedCsv> TokenizeAndIntern(std::string_view text,
                                      const CsvOptions& options) {
  if (FASTOD_FAULT_POINT("csv.read")) {
    return Status::IoError("injected fault: csv.read");
  }
  if (text.starts_with(kUtf8Bom)) text.remove_prefix(kUtf8Bom.size());

  InternedCsv out;
  const bool header = options.has_header;
  int64_t records = 0;  // completed records
  size_t field = 0;     // index of the next field in the current record
  size_t num_cols = 0;  // fixed by the first record
  int64_t rows = 0;     // data rows interned
  Status ragged;
  auto take_row = [&] {
    return ragged.ok() && (options.max_rows < 0 || rows < options.max_rows);
  };
  auto on_field = [&](std::string_view f) {
    if (records == 0) {
      if (header) {
        out.names.emplace_back(Trim(f));
      } else {
        out.columns.emplace_back();
        if (take_row()) out.columns.back().Add(f);
      }
    } else if (field < num_cols && take_row()) {
      out.columns[field].Add(f);
    }
    ++field;
  };
  auto on_record = [&] {
    if (records == 0) {
      num_cols = field;
      if (header) out.columns.resize(num_cols);
      // Size every id column for the rows the text can hold.
      int64_t capacity = CountNewlines(text) + 1;
      if (options.max_rows >= 0) {
        capacity = std::min(capacity, options.max_rows);
      }
      for (InternedColumn& column : out.columns) column.ids.reserve(capacity);
      if (!header && take_row()) ++rows;
    } else if (field != num_cols) {
      if (ragged.ok()) {
        ragged = Status::InvalidArgument(
            "ragged CSV: expected " + std::to_string(num_cols) +
            " fields, found a record with " + std::to_string(field));
      }
    } else if (take_row()) {
      ++rows;
    }
    ++records;
    field = 0;
  };
  if (Status s = Tokenize(text, options.delimiter, on_field, on_record);
      !s.ok()) {
    return s;
  }
  if (records == 0) {
    return Status::InvalidArgument("CSV input contains no records");
  }
  if (!ragged.ok()) return ragged;
  if (!header) {
    for (size_t c = 0; c < num_cols; ++c) {
      out.names.push_back("col" + std::to_string(c));
    }
  }
  for (InternedColumn& column : out.columns) column.index = FirstSeenIds();
  return out;
}

// A column's distinct values parsed once into typed keys, indexed by
// local id: `ints` for an int column, `doubles` for a double column, the
// interned bytes themselves for a string column.
struct TypedKeys {
  DataType type = DataType::kString;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
};

TypedKeys ParseKeys(const InternedColumn& column, bool infer_types) {
  TypedKeys keys;
  const uint32_t d = column.size();
  const bool any_value = d > (column.null_id >= 0 ? 1u : 0u);
  if (!infer_types || !any_value) return keys;
  auto parse_all = [&](auto parse, auto& out) {
    out.resize(d);
    for (uint32_t id = 0; id < d; ++id) {
      if (static_cast<int32_t>(id) == column.null_id) continue;
      auto v = parse(column.value(id));
      if (!v.has_value()) return false;
      out[id] = *v;
    }
    return true;
  };
  if (parse_all([](std::string_view f) { return ParseInt(f); }, keys.ints)) {
    keys.type = DataType::kInt;
    return keys;
  }
  keys.ints = {};
  if (parse_all(
          [](std::string_view f) -> std::optional<double> {
            std::optional<double> v = ParseDouble(f);
            if (v.has_value() && std::isnan(*v)) return std::nullopt;
            return v;
          },
          keys.doubles)) {
    keys.type = DataType::kDouble;
    return keys;
  }
  keys.doubles = {};
  return keys;
}

EncodedColumn EncodeColumn(InternedColumn& column, const TypedKeys& keys) {
  const int32_t d = static_cast<int32_t>(column.size());
  switch (keys.type) {
    case DataType::kInt:
      return AssignCodes(
          std::move(column.ids), d, column.null_id,
          [&](uint32_t a, uint32_t b) { return keys.ints[a] <=> keys.ints[b]; },
          [&](ValueDictionary::Builder& dict, uint32_t id) {
            dict.AddInt(keys.ints[id]);
          });
    case DataType::kDouble:
      return AssignCodes(
          std::move(column.ids), d, column.null_id,
          [&](uint32_t a, uint32_t b) {
            return keys.doubles[a] <=> keys.doubles[b];
          },
          [&](ValueDictionary::Builder& dict, uint32_t id) {
            dict.AddDouble(keys.doubles[id]);
          });
    default:
      return AssignCodes(
          std::move(column.ids), d, column.null_id,
          [&](uint32_t a, uint32_t b) {
            return column.value(a) <=> column.value(b);
          },
          [&](ValueDictionary::Builder& dict, uint32_t id) {
            dict.AddString(column.value(id));
          });
  }
}

Value ValueOf(const InternedColumn& column, const TypedKeys& keys,
              uint32_t id) {
  if (static_cast<int32_t>(id) == column.null_id) return Value::Null();
  switch (keys.type) {
    case DataType::kInt:
      return Value::Int(keys.ints[id]);
    case DataType::kDouble:
      return Value::Double(keys.doubles[id]);
    default:
      return Value::Str(std::string(column.value(id)));
  }
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::string bytes;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    bytes.append(buffer, static_cast<size_t>(in.gcount()));
  }
  return bytes;
}

bool NeedsQuoting(const std::string& s, char delim) {
  for (char c : s) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<EncodedRelation> EncodeCsvString(std::string_view text,
                                        const CsvOptions& options,
                                        CsvIngestTimes* times) {
  WallTimer timer;
  Result<InternedCsv> interned = TokenizeAndIntern(text, options);
  if (times != nullptr) times->parse_seconds = timer.ElapsedSeconds();
  if (!interned.ok()) return interned.status();
  timer.Restart();
  std::vector<AttributeDef> defs;
  std::vector<EncodedColumn> columns;
  defs.reserve(interned->columns.size());
  columns.reserve(interned->columns.size());
  for (size_t c = 0; c < interned->columns.size(); ++c) {
    InternedColumn& column = interned->columns[c];
    TypedKeys keys = ParseKeys(column, options.infer_types);
    defs.push_back({std::move(interned->names[c]), keys.type});
    columns.push_back(EncodeColumn(column, keys));
    column = InternedColumn();  // release the interned bytes early
  }
  Result<EncodedRelation> relation =
      EncodedRelation::FromColumns(Schema(std::move(defs)), std::move(columns));
  if (times != nullptr) times->encode_seconds = timer.ElapsedSeconds();
  return relation;
}

Result<EncodedRelation> EncodeCsvFile(const std::string& path,
                                      const CsvOptions& options,
                                      CsvIngestTimes* times) {
  WallTimer timer;
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  const double read_seconds = timer.ElapsedSeconds();
  Result<EncodedRelation> relation = EncodeCsvString(*bytes, options, times);
  if (times != nullptr) times->parse_seconds += read_seconds;
  return relation;
}

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  Result<InternedCsv> interned = TokenizeAndIntern(text, options);
  if (!interned.ok()) return interned.status();
  std::vector<AttributeDef> defs;
  std::vector<std::vector<Value>> columns;
  for (size_t c = 0; c < interned->columns.size(); ++c) {
    const InternedColumn& column = interned->columns[c];
    TypedKeys keys = ParseKeys(column, options.infer_types);
    std::vector<Value> distinct;
    distinct.reserve(column.size());
    for (uint32_t id = 0; id < column.size(); ++id) {
      distinct.push_back(ValueOf(column, keys, id));
    }
    std::vector<Value> cells;
    cells.reserve(column.ids.size());
    for (uint32_t id : column.ids) cells.push_back(distinct[id]);
    defs.push_back({std::move(interned->names[c]), keys.type});
    columns.push_back(std::move(cells));
  }
  return Table(Schema(std::move(defs)), std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return ReadCsvString(*bytes, options);
}

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  for (int c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out += delimiter;
    const std::string& name = table.schema().name(c);
    out += NeedsQuoting(name, delimiter) ? QuoteField(name) : name;
  }
  out += '\n';
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    // A lone NULL in a single-column table would render as a blank line,
    // which readers (including ours) skip; write a quoted empty field so
    // the record survives the round trip.
    if (table.NumColumns() == 1 && table.at(r, 0).is_null()) {
      out += "\"\"\n";
      continue;
    }
    for (int c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) out += delimiter;
      const Value& v = table.at(r, c);
      if (v.is_null()) continue;  // NULL renders as empty field
      std::string s = v.ToString();
      out += NeedsQuoting(s, delimiter) ? QuoteField(s) : s;
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << WriteCsvString(table, delimiter);
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

}  // namespace fastod
