#include "data/column.h"

#include <bit>

namespace fastod {

CodeColumn CodeColumn::FromRanks(const std::vector<int32_t>& ranks,
                                 int32_t num_distinct) {
  std::vector<uint32_t> codes(ranks.size());
  for (size_t i = 0; i < ranks.size(); ++i) {
    FASTOD_DCHECK(ranks[i] >= 0 && ranks[i] < num_distinct);
    codes[i] = static_cast<uint32_t>(ranks[i]);
  }
  return CodeColumn(std::move(codes), num_distinct);
}

void ValueDictionary::Builder::Add(const Value& value) {
  switch (value.type()) {
    case DataType::kNull:
      AddNull();
      break;
    case DataType::kInt:
      AddInt(value.AsInt());
      break;
    case DataType::kDouble:
      AddDouble(value.AsDouble());
      break;
    case DataType::kString:
      AddString(value.AsString());
      break;
  }
}

void ValueDictionary::Builder::AddNull() {
  tags_.push_back(static_cast<uint8_t>(DataType::kNull));
  slots_.push_back(0);
}

void ValueDictionary::Builder::AddInt(int64_t value) {
  tags_.push_back(static_cast<uint8_t>(DataType::kInt));
  slots_.push_back(value);
}

void ValueDictionary::Builder::AddDouble(double value) {
  tags_.push_back(static_cast<uint8_t>(DataType::kDouble));
  slots_.push_back(std::bit_cast<int64_t>(value));
}

void ValueDictionary::Builder::AddString(std::string_view value) {
  tags_.push_back(static_cast<uint8_t>(DataType::kString));
  slots_.push_back(static_cast<int64_t>(arena_.size()));
  arena_ += value;
}

void ValueDictionary::Builder::AddFrom(const ValueDictionary& source,
                                       int32_t code) {
  if (static_cast<DataType>(source.tags_[code]) == DataType::kString) {
    AddString(source.StringAt(code));
    return;
  }
  tags_.push_back(source.tags_[code]);
  slots_.push_back(source.slots_[code]);
}

ValueDictionary ValueDictionary::Builder::Build() {
  ValueDictionary dict;
  dict.tags_ = std::move(tags_);
  dict.slots_ = std::move(slots_);
  dict.arena_ = std::move(arena_);
  dict.tags_.shrink_to_fit();
  dict.slots_.shrink_to_fit();
  dict.arena_.shrink_to_fit();
  return dict;
}

std::string_view ValueDictionary::StringAt(int32_t code) const {
  FASTOD_DCHECK(static_cast<DataType>(tags_[code]) == DataType::kString);
  size_t begin = static_cast<size_t>(slots_[code]);
  // Strings occupy a contiguous code suffix in arena order, so the next
  // entry's offset (or the arena end) bounds this one.
  size_t end = code + 1 < size() ? static_cast<size_t>(slots_[code + 1])
                                 : arena_.size();
  return std::string_view(arena_.data() + begin, end - begin);
}

Value ValueDictionary::At(int32_t code) const {
  FASTOD_DCHECK(code >= 0 && code < size());
  switch (static_cast<DataType>(tags_[code])) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt:
      return Value::Int(slots_[code]);
    case DataType::kDouble:
      return Value::Double(std::bit_cast<double>(slots_[code]));
    case DataType::kString:
      return Value::Str(std::string(StringAt(code)));
  }
  return Value::Null();
}

namespace {

template <typename T>
int ThreeWay(T x, T y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace

int ValueDictionary::Compare(int32_t code, const Value& v) const {
  return Value::Compare(At(code), v);
}

int ValueDictionary::Compare(int32_t code, const ValueDictionary& other,
                             int32_t other_code) const {
  const DataType a = static_cast<DataType>(tags_[code]);
  const DataType b = static_cast<DataType>(other.tags_[other_code]);
  const int ra = TypeRank(a);
  const int rb = TypeRank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (a == DataType::kNull) return 0;
  if (a == DataType::kString) {
    int c = StringAt(code).compare(other.StringAt(other_code));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const int64_t x = slots_[code];
  const int64_t y = other.slots_[other_code];
  if (a == DataType::kInt && b == DataType::kInt) return ThreeWay(x, y);
  // Mixed or double: compare numerically, as Value::NumericValue does.
  const double dx = a == DataType::kInt ? static_cast<double>(x)
                                        : std::bit_cast<double>(x);
  const double dy = b == DataType::kInt ? static_cast<double>(y)
                                        : std::bit_cast<double>(y);
  return ThreeWay(dx, dy);
}

std::string ValueDictionary::ToString(int32_t code) const {
  return At(code).ToString();
}

}  // namespace fastod
