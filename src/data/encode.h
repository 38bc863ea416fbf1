// Order-preserving dictionary encoding.
//
// Section 4.6 of the paper: "The values of the columns are replaced with
// integers 1, 2, ..., n, in a way that the equivalence classes do not change
// and the ordering is preserved." All discovery algorithms run over this
// encoded form: equal values share a code, and code order equals value
// order, so both split detection (equality) and swap detection (ordering)
// reduce to integer comparisons.
//
// The encoded image is columnar: one contiguous CodeColumn per attribute
// (4 bytes/row) plus the column's interned ValueDictionary (code ->
// value), which replaces retaining the raw Value table for rendering and
// for merge-encoding appended deltas.
//
// Every encoder runs the same code-assignment core, AssignCodes: rows are
// first interned to first-seen local ids (one hash probe per cell), then
// only the d distinct values are sorted and the row ids are remapped to
// codes in one pass — O(n + d log d) per column. CSV ingest
// (data/csv.h, EncodeCsvString) interns raw field bytes; FromTable
// interns Values. A Table is therefore only an input format for
// generators and tests, never a stage of production ingest.
//
// Codes follow the Value total order, which is a strict weak order only
// without NaN: a NaN double ties with every number. CSV ingest never
// produces NaN (a "nan" field makes its column a string column, see
// data/csv.h); hand-built Tables must not contain it either.
#ifndef FASTOD_DATA_ENCODE_H_
#define FASTOD_DATA_ENCODE_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "data/table.h"

namespace fastod {

/// Hashes a byte string for FirstSeenIds. Seeded once per process, so
/// crafted inputs cannot aim collisions at the table.
uint64_t InternHash(std::string_view bytes);

/// The interning half of the core: a flat open-addressing table from
/// values to first-seen local ids 0, 1, 2, ... It stores only ids and
/// hash tags; the caller keeps the values and supplies the equality test.
class FirstSeenIds {
 public:
  /// The id of the value hashed to `hash` for which `same(id)` holds.
  /// When there is none the value takes the next id (size() before the
  /// call) and `*inserted` is set.
  template <typename Same>
  uint32_t Intern(uint64_t hash, Same same, bool* inserted) {
    if ((static_cast<size_t>(size_) + 1) * 2 > slots_.size()) Grow();
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    size_t i = tag >> shift_;
    for (;; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if (slot == 0) break;
      if (static_cast<uint32_t>(slot >> 32) == tag) {
        const uint32_t id = static_cast<uint32_t>(slot) - 1;
        if (same(id)) {
          *inserted = false;
          return id;
        }
      }
    }
    slots_[i] = (uint64_t{tag} << 32) | (uint64_t{size_} + 1);
    *inserted = true;
    return size_++;
  }

  uint32_t size() const { return size_; }

 private:
  void Grow();

  // tag (high hash half) << 32 | id + 1; 0 marks an empty slot. The home
  // slot is the tag's top bits, so growing needs no rehash of values.
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  int shift_ = 32;
  uint32_t size_ = 0;
};

/// One encoded column: per-row codes plus the code -> value dictionary.
struct EncodedColumn {
  CodeColumn codes;
  ValueDictionary dictionary;
};

/// The code-assignment core. `ids` holds one local id per row in
/// [0, num_distinct), numbered in first-seen order (id i first occurs
/// before id i + 1). `null_id` is the id of NULL, or -1 when the column
/// has none; NULL takes code 0. `compare(a, b)` three-way compares the
/// values of two non-NULL ids under the Value total order (an int or a
/// `<=>` ordering: anything that compares against 0), and
/// `add(builder, id)` appends id's value to a dictionary builder.
///
/// The distinct values are sorted with a first-seen tiebreak, equal
/// values collapse into one code whose dictionary representative is the
/// first-seen one (the smallest row id carrying the value), and `ids` is
/// rewritten in place into codes. The result is exactly what a stable
/// sort of all n rows would assign.
template <typename Compare, typename Add>
EncodedColumn AssignCodes(std::vector<uint32_t> ids, int32_t num_distinct,
                          int32_t null_id, Compare compare, Add add) {
  std::vector<uint32_t> order;
  order.reserve(num_distinct);
  for (int32_t id = 0; id < num_distinct; ++id) {
    if (id != null_id) order.push_back(static_cast<uint32_t>(id));
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const auto cmp = compare(a, b);
    return cmp != 0 ? cmp < 0 : a < b;
  });
  std::vector<uint32_t> code_of(num_distinct);
  ValueDictionary::Builder dict;
  int32_t code = -1;  // last assigned
  if (null_id >= 0) {
    dict.AddNull();
    code_of[null_id] = static_cast<uint32_t>(++code);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || compare(order[i - 1], order[i]) != 0) {
      ++code;
      add(dict, order[i]);
    }
    code_of[order[i]] = static_cast<uint32_t>(code);
  }
  for (uint32_t& id : ids) id = code_of[id];
  return {CodeColumn(std::move(ids), code + 1), dict.Build()};
}

/// The integer-encoded image of a relation: per column, a dense code in
/// [0, NumDistinct) for every tuple. Codes are assigned in ascending value
/// order (ties = equal values share a code), under the Value total order
/// (NULLs first).
class EncodedRelation {
 public:
  EncodedRelation() = default;

  /// Encodes every column of `table` by interning its Values and running
  /// AssignCodes. Fails if the table has more than
  /// AttributeSet::kMaxAttributes columns.
  static Result<EncodedRelation> FromTable(const Table& table);

  /// Wraps precomputed code columns and their dictionaries (CSV ingest,
  /// and the append path in data/dataset_store.cc, which merges a
  /// delta's dictionaries into the parent version's). Fails on more than
  /// AttributeSet::kMaxAttributes columns; the caller guarantees codes
  /// are dense and order-preserving, exactly as FromTable would have
  /// assigned them.
  static Result<EncodedRelation> FromColumns(
      Schema schema, std::vector<EncodedColumn> columns);

  int NumAttributes() const { return static_cast<int>(codes_.size()); }
  int64_t NumRows() const { return num_rows_; }
  const Schema& schema() const { return schema_; }

  /// Code of every tuple on attribute `attr` (size NumRows()).
  const CodeColumn& codes(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < NumAttributes());
    return codes_[attr];
  }

  int32_t rank(int64_t row, int attr) const { return codes(attr)[row]; }

  /// Number of distinct values in column `attr`.
  int32_t NumDistinct(int attr) const { return codes(attr).num_distinct(); }

  /// Interned distinct values of column `attr`, code -> value.
  const ValueDictionary& dictionary(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < NumAttributes());
    return dicts_[attr];
  }

  /// Exact bytes across every code column and dictionary.
  int64_t ByteSize() const;

 private:
  Schema schema_;
  int64_t num_rows_ = 0;
  std::vector<CodeColumn> codes_;
  std::vector<ValueDictionary> dicts_;
};

}  // namespace fastod

#endif  // FASTOD_DATA_ENCODE_H_
