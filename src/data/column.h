// Columnar data plane primitives: interned value dictionaries and
// contiguous code columns.
//
// The discovery engines never touch Values on their hot paths; they run
// over per-column dense codes (data/encode.h). This header provides the
// two compact building blocks of that plane:
//
//   * CodeColumn — one contiguous uint32 allocation holding the dense
//     order-preserving code of every tuple, 4 bytes/row exactly. Codes
//     are bounded by the (int32) row count, so the indexing operator
//     returns them as int32_t and every downstream scan keeps using -1
//     sentinels unchanged; the raw uint32 view feeds radix passes.
//
//   * ValueDictionary — the interned sorted distinct values of one
//     column, code -> value. Immutable once built (reads need no lock),
//     with small flat storage: a tag byte and a 64-bit slot per entry
//     plus one shared string arena. The dictionary is what lets a
//     LoadedDataset drop its raw Value table entirely and still render
//     values (conditional bindings, reports) and merge-encode appended
//     deltas against a parent version.
#ifndef FASTOD_DATA_COLUMN_H_
#define FASTOD_DATA_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "data/value.h"

namespace fastod {

/// Dense order-preserving codes of one column, one contiguous uint32
/// array. Code order equals value order; equal values share a code.
class CodeColumn {
 public:
  CodeColumn() = default;
  CodeColumn(std::vector<uint32_t> codes, int32_t num_distinct)
      : codes_(std::move(codes)), num_distinct_(num_distinct) {
    codes_.shrink_to_fit();
  }

  /// Convenience for tests and the few callers that still assemble rank
  /// vectors by hand.
  static CodeColumn FromRanks(const std::vector<int32_t>& ranks,
                              int32_t num_distinct);

  int64_t size() const { return static_cast<int64_t>(codes_.size()); }

  /// Codes never exceed the int32 row count, so expose them signed: all
  /// sweep code compares against -1 sentinels without casts.
  int32_t operator[](int64_t row) const {
    FASTOD_DCHECK(row >= 0 && row < size());
    return static_cast<int32_t>(codes_[row]);
  }

  const uint32_t* data() const { return codes_.data(); }
  int32_t num_distinct() const { return num_distinct_; }

  /// Exact bytes of the contiguous allocation.
  int64_t ByteSize() const {
    return static_cast<int64_t>(codes_.capacity() * sizeof(uint32_t));
  }

  bool operator==(const CodeColumn& other) const = default;

 private:
  std::vector<uint32_t> codes_;
  int32_t num_distinct_ = 0;
};

/// The interned distinct values of one column in ascending value order
/// (code -> value). Storage is flat: one DataType tag byte and one
/// 64-bit slot per code (the integer, the bit-cast double, or the byte
/// offset of the string in the shared arena). Strings sort after every
/// other type, so their codes form a contiguous suffix and the arena
/// holds them back to back in code order.
class ValueDictionary {
 public:
  ValueDictionary() = default;

  class Builder {
   public:
    /// Appends the value for the next code. Values must arrive in
    /// ascending order — exactly the order AssignCodes (data/encode.h)
    /// discovers codes.
    void Add(const Value& value);
    void AddNull();
    void AddInt(int64_t value);
    void AddDouble(double value);
    void AddString(std::string_view value);
    /// Appends `source`'s entry for `code` without materializing a Value.
    void AddFrom(const ValueDictionary& source, int32_t code);
    ValueDictionary Build();

   private:
    // The flat arrays directly (ValueDictionary is incomplete here);
    // Build() moves them into place.
    std::vector<uint8_t> tags_;
    std::vector<int64_t> slots_;
    std::string arena_;
  };

  int32_t size() const { return static_cast<int32_t>(tags_.size()); }

  /// Materializes the value behind `code`.
  Value At(int32_t code) const;

  /// Three-way comparison of the interned value against `v` under the
  /// Value total order (<0, 0, >0).
  int Compare(int32_t code, const Value& v) const;

  /// Three-way comparison of this dictionary's value for `code` against
  /// `other`'s value for `other_code` under the Value total order (<0, 0,
  /// >0), read straight off the flat storage.
  int Compare(int32_t code, const ValueDictionary& other,
              int32_t other_code) const;

  /// Rendered form of the interned value ("NULL", "42", raw string).
  std::string ToString(int32_t code) const;

  /// Exact bytes across the flat arrays and the string arena.
  int64_t ByteSize() const {
    return static_cast<int64_t>(tags_.capacity() * sizeof(uint8_t) +
                                slots_.capacity() * sizeof(int64_t) +
                                arena_.capacity());
  }

  /// Byte-for-byte equality of the flat storage (doubles by bit pattern).
  bool operator==(const ValueDictionary& other) const = default;

 private:
  std::string_view StringAt(int32_t code) const;

  std::vector<uint8_t> tags_;   // DataType per code
  std::vector<int64_t> slots_;  // int / bit-cast double / arena offset
  std::string arena_;           // string payloads, in code order
};

}  // namespace fastod

#endif  // FASTOD_DATA_COLUMN_H_
