#include "data/value.h"

#include <cstdio>

#include "common/macros.h"

namespace fastod {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kInt:
      return "int";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

DataType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt;
    case 2:
      return DataType::kDouble;
    case 3:
      return DataType::kString;
  }
  return DataType::kNull;
}

int64_t Value::AsInt() const {
  FASTOD_DCHECK(std::holds_alternative<int64_t>(rep_));
  return std::get<int64_t>(rep_);
}

double Value::AsDouble() const {
  FASTOD_DCHECK(std::holds_alternative<double>(rep_));
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  FASTOD_DCHECK(std::holds_alternative<std::string>(rep_));
  return std::get<std::string>(rep_);
}

double Value::NumericValue() const {
  if (std::holds_alternative<int64_t>(rep_)) {
    return static_cast<double>(std::get<int64_t>(rep_));
  }
  FASTOD_DCHECK(std::holds_alternative<double>(rep_));
  return std::get<double>(rep_);
}

int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kInt:
    case DataType::kDouble:
      return 1;
    case DataType::kString:
      return 2;
  }
  return 3;
}

int Value::Compare(const Value& a, const Value& b) {
  int ra = TypeRank(a.type());
  int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:  // both null
      return 0;
    case 1: {  // both numeric
      // Exact comparison when both are ints avoids double rounding for
      // values beyond 2^53.
      if (a.type() == DataType::kInt && b.type() == DataType::kInt) {
        int64_t x = a.AsInt();
        int64_t y = b.AsInt();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      double x = a.NumericValue();
      double y = b.NumericValue();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {  // both strings
      const std::string& x = a.AsString();
      const std::string& y = b.AsString();
      int c = x.compare(y);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return std::to_string(AsInt());
    case DataType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case DataType::kString:
      return AsString();
  }
  return "?";
}

}  // namespace fastod
