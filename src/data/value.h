// Typed cell values.
//
// Tables hold Value cells; the discovery algorithms never touch Values on
// their hot paths — they run over the order-preserving integer encoding
// produced by data/encode.h (Section 4.6 of the paper: "values of the
// columns are replaced with integers ... ordering is preserved").
#ifndef FASTOD_DATA_VALUE_H_
#define FASTOD_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace fastod {

enum class DataType {
  kNull,    // only as a cell state, not a column type
  kInt,     // 64-bit signed integer
  kDouble,  // IEEE double
  kString,  // byte string, ordered lexicographically
};

/// Returns a short lowercase name ("int", "double", ...).
const char* DataTypeName(DataType type);

/// Rank of a type in the cross-type total order below: null (0) <
/// numeric (1, ints and doubles alike) < string (2).
int TypeRank(DataType type);

/// A single typed cell. Small, copyable, with a total order:
///   null < all non-null; ints and doubles compare numerically with each
///   other; any number < any string. Within strings: lexicographic byte
///   order. This matches SQL ascending order with NULLS FIRST.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value Str(std::string v) { return Value(Rep(std::move(v))); }

  DataType type() const;
  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }

  /// Typed accessors; calling the wrong one is a bug (checked in debug).
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Numeric view: AsInt widened, or AsDouble. Only for numeric values.
  double NumericValue() const;

  /// Three-way comparison under the total order documented above.
  /// Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  bool operator==(const Value& other) const {
    return Compare(*this, other) == 0;
  }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Rendered form: "NULL", "42", "3.5", or the raw string.
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

}  // namespace fastod

#endif  // FASTOD_DATA_VALUE_H_
