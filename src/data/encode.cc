#include "data/encode.h"

#include <bit>
#include <chrono>
#include <cstring>

#include "od/attribute_set.h"

namespace fastod {

namespace {

// The murmur3 64-bit finalizer: a bijection with full avalanche.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashSeed() {
  static const uint64_t seed = Mix(
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      reinterpret_cast<uintptr_t>(&seed));
  return seed;
}

uint64_t HashWord(uint64_t word) { return Mix(HashSeed() ^ word); }

// Identity hash of a Value for FromTable's interning: the type tag plus
// the payload bits, so Int(1), Double(1.0) and Double(-0.0) stay apart
// until AssignCodes collapses the ones that compare equal.
uint64_t HashValue(const Value& v) {
  const uint64_t tag = static_cast<uint64_t>(v.type()) << 60;
  switch (v.type()) {
    case DataType::kNull:
      return HashWord(tag);
    case DataType::kInt:
      return HashWord(static_cast<uint64_t>(v.AsInt()) ^ tag);
    case DataType::kDouble:
      return HashWord(std::bit_cast<uint64_t>(v.AsDouble()) ^ tag);
    case DataType::kString:
      return InternHash(v.AsString());
  }
  return 0;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kInt:
      return a.AsInt() == b.AsInt();
    case DataType::kDouble:
      return std::bit_cast<uint64_t>(a.AsDouble()) ==
             std::bit_cast<uint64_t>(b.AsDouble());
    case DataType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

}  // namespace

uint64_t InternHash(std::string_view bytes) {
  uint64_t h = HashSeed() ^ (bytes.size() * 0x9E3779B97F4A7C15ULL);
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = Mix(h ^ word);
  }
  uint64_t tail = 0;
  if (n != 0) std::memcpy(&tail, p, n);
  return Mix(h ^ tail);
}

void FirstSeenIds::Grow() {
  const size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  shift_ = 32 - std::countr_zero(capacity);
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = static_cast<uint32_t>(slot >> 32) >> shift_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

Result<EncodedRelation> EncodedRelation::FromTable(const Table& table) {
  std::vector<EncodedColumn> columns;
  columns.reserve(table.NumColumns());
  for (int c = 0; c < table.NumColumns(); ++c) {
    const std::vector<Value>& col = table.column(c);
    std::vector<const Value*> distinct;  // first-seen order
    std::vector<uint32_t> ids;
    ids.reserve(col.size());
    FirstSeenIds index;
    int32_t null_id = -1;
    for (const Value& v : col) {
      bool inserted = false;
      uint32_t id = index.Intern(
          HashValue(v),
          [&](uint32_t seen) { return SameValue(*distinct[seen], v); },
          &inserted);
      if (inserted) {
        distinct.push_back(&v);
        if (v.is_null()) null_id = static_cast<int32_t>(id);
      }
      ids.push_back(id);
    }
    columns.push_back(AssignCodes(
        std::move(ids), static_cast<int32_t>(distinct.size()), null_id,
        [&](uint32_t a, uint32_t b) {
          return Value::Compare(*distinct[a], *distinct[b]);
        },
        [&](ValueDictionary::Builder& dict, uint32_t id) {
          dict.Add(*distinct[id]);
        }));
  }
  return FromColumns(table.schema(), std::move(columns));
}

Result<EncodedRelation> EncodedRelation::FromColumns(
    Schema schema, std::vector<EncodedColumn> columns) {
  FASTOD_CHECK(static_cast<int>(columns.size()) == schema.NumAttributes());
  if (schema.NumAttributes() > AttributeSet::kMaxAttributes) {
    return Status::InvalidArgument(
        "relation has " + std::to_string(schema.NumAttributes()) +
        " attributes; the discovery lattice supports at most " +
        std::to_string(AttributeSet::kMaxAttributes));
  }
  EncodedRelation rel;
  rel.num_rows_ = columns.empty() ? 0 : columns[0].codes.size();
  rel.schema_ = std::move(schema);
  rel.codes_.reserve(columns.size());
  rel.dicts_.reserve(columns.size());
  for (EncodedColumn& column : columns) {
    FASTOD_CHECK(column.codes.size() == rel.num_rows_);
    rel.codes_.push_back(std::move(column.codes));
    rel.dicts_.push_back(std::move(column.dictionary));
  }
  return rel;
}

int64_t EncodedRelation::ByteSize() const {
  int64_t bytes = 0;
  for (const CodeColumn& col : codes_) bytes += col.ByteSize();
  for (const ValueDictionary& dict : dicts_) bytes += dict.ByteSize();
  return bytes;
}

}  // namespace fastod
