#include "data/dataset_store.h"

#include "common/fault.h"

#include <algorithm>
#include <utility>


namespace fastod {

namespace {

int64_t PartitionBytes(const StrippedPartition& partition) {
  return static_cast<int64_t>(
      (partition.NumElements() + partition.NumClasses() + 1) *
      sizeof(int32_t));
}

/// Exact resident bytes of a dataset: the relation's contiguous code
/// columns and dictionary allocations plus the level-1 partitions.
int64_t DatasetBytes(const EncodedRelation& relation,
                     const std::vector<StrippedPartition>& singletons) {
  int64_t bytes = relation.ByteSize();
  for (const StrippedPartition& partition : singletons) {
    bytes += PartitionBytes(partition);
  }
  return bytes;
}

}  // namespace

Result<std::shared_ptr<const LoadedDataset>> LoadedDataset::Build(
    std::string id, EncodedRelation relation, std::string source) {
  // make_shared needs a public constructor; the explicit new keeps it
  // private to this factory.
  std::shared_ptr<LoadedDataset> dataset(new LoadedDataset());
  dataset->id_ = std::move(id);
  dataset->source_ = std::move(source);
  dataset->relation_ = std::move(relation);
  // Version 1 has no append block: the whole relation is "base".
  dataset->base_rows_ = dataset->relation_.NumRows();
  dataset->BuildSingletons();
  return std::shared_ptr<const LoadedDataset>(std::move(dataset));
}

Result<std::shared_ptr<const LoadedDataset>> LoadedDataset::Build(
    std::string id, Table table, std::string source) {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) return encoded.status();
  return Build(std::move(id), *std::move(encoded), std::move(source));
}

Result<std::shared_ptr<const LoadedDataset>> LoadedDataset::Append(
    const std::shared_ptr<const LoadedDataset>& base, EncodedRelation delta) {
  FASTOD_CHECK(base != nullptr);
  if (delta.NumAttributes() != base->NumAttributes()) {
    return Status::InvalidArgument(
        "append block has " + std::to_string(delta.NumAttributes()) +
        " columns; dataset '" + base->id() + "' has " +
        std::to_string(base->NumAttributes()));
  }
  const int64_t n = base->NumRows();
  const int64_t d = delta.NumRows();
  const int cols = base->NumAttributes();

  std::shared_ptr<LoadedDataset> grown(new LoadedDataset());
  grown->id_ = base->id_;
  grown->source_ = base->source_;
  grown->version_ = base->version_ + 1;
  grown->base_rows_ = n;

  // The base schema wins (delta column names, if the block came with a
  // header, are positional).
  std::vector<EncodedColumn> merged_columns;
  merged_columns.reserve(cols);
  for (int c = 0; c < cols; ++c) {
    const CodeColumn& old_codes = base->relation_.codes(c);
    const ValueDictionary& old_dict = base->relation_.dictionary(c);
    const ValueDictionary& delta_dict = delta.dictionary(c);
    const int32_t old_distinct = old_dict.size();
    const int32_t delta_distinct = delta_dict.size();

    // Merge the two sorted dictionaries in one linear walk: every old
    // code shifts up by the count of unseen delta values ordered before
    // it, every delta code maps to its merged code, and the merged
    // dictionary is built in the same pass (parent representatives win
    // ties, exactly like FromTable's smallest-row-id interning on the
    // concatenated column). The result is dense and order-preserving —
    // bit-for-bit what FromTable produces on the concatenated table.
    ValueDictionary::Builder dict_builder;
    std::vector<int32_t> shift(old_distinct, 0);
    std::vector<uint32_t> delta_code(delta_distinct, 0);
    int32_t next_code = 0;
    int32_t oi = 0;
    int32_t di = 0;
    while (oi < old_distinct || di < delta_distinct) {
      int cmp;
      if (oi >= old_distinct) {
        cmp = 1;
      } else if (di >= delta_distinct) {
        cmp = -1;
      } else {
        cmp = old_dict.Compare(oi, delta_dict, di);
      }
      if (cmp <= 0) {
        dict_builder.AddFrom(old_dict, oi);
        shift[oi] = next_code - oi;
        while (cmp == 0 && di < delta_distinct &&
               old_dict.Compare(oi, delta_dict, di) == 0) {
          delta_code[di++] = static_cast<uint32_t>(next_code);
        }
        ++oi;
      } else {
        dict_builder.AddFrom(delta_dict, di);
        delta_code[di++] = static_cast<uint32_t>(next_code);
      }
      ++next_code;
    }

    std::vector<uint32_t> merged(static_cast<size_t>(n + d));
    for (int64_t i = 0; i < n; ++i) {
      int32_t old_code = old_codes[i];
      merged[i] = static_cast<uint32_t>(old_code + shift[old_code]);
    }
    const CodeColumn& delta_codes = delta.codes(c);
    for (int64_t j = 0; j < d; ++j) merged[n + j] = delta_code[delta_codes[j]];
    merged_columns.push_back(
        {CodeColumn(std::move(merged), next_code), dict_builder.Build()});
  }

  Result<EncodedRelation> relation = EncodedRelation::FromColumns(
      base->relation_.schema(), std::move(merged_columns));
  if (!relation.ok()) return relation.status();
  grown->relation_ = *std::move(relation);
  grown->BuildSingletons();
  return std::shared_ptr<const LoadedDataset>(std::move(grown));
}

Result<std::shared_ptr<const LoadedDataset>> LoadedDataset::Append(
    const std::shared_ptr<const LoadedDataset>& base, Table delta) {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(delta);
  if (!encoded.ok()) return encoded.status();
  return Append(base, *std::move(encoded));
}

void LoadedDataset::BuildSingletons() {
  singletons_.reserve(relation_.NumAttributes());
  for (int a = 0; a < relation_.NumAttributes(); ++a) {
    singletons_.push_back(StrippedPartition::ForAttribute(relation_.codes(a)));
  }
  approx_bytes_ = DatasetBytes(relation_, singletons_);
}

DatasetStore::DatasetStore(int64_t budget_bytes)
    : budget_bytes_(budget_bytes < 0 ? 0 : budget_bytes) {}

DatasetStore& DatasetStore::Global() {
  static DatasetStore* store = new DatasetStore();
  return *store;
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::PutTable(
    const std::string& id, Table table, std::string source) {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) return encoded.status();
  return Put(id, *std::move(encoded), std::move(source));
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::Put(
    const std::string& id, EncodedRelation relation, std::string source) {
  Result<std::shared_ptr<const LoadedDataset>> dataset =
      LoadedDataset::Build(id, std::move(relation), std::move(source));
  if (!dataset.ok()) return dataset.status();
  return Insert(*std::move(dataset));
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::PutCsvFile(
    const std::string& id, const std::string& path,
    const CsvOptions& options) {
  Result<EncodedRelation> encoded = EncodeCsvFile(path, options);
  if (!encoded.ok()) return encoded.status();
  return Put(id, *std::move(encoded), "csv:" + path);
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::PutCsvString(
    const std::string& id, std::string_view text, const CsvOptions& options) {
  Result<EncodedRelation> encoded = EncodeCsvString(text, options);
  if (!encoded.ok()) return encoded.status();
  return Put(id, *std::move(encoded), "inline");
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::Insert(
    std::shared_ptr<const LoadedDataset> dataset) {
  if (FASTOD_FAULT_POINT("dataset_store.insert")) {
    return Status::ResourceExhausted(
        "injected fault: dataset_store.insert");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(dataset->id());
  if (it != datasets_.end()) {
    return Status::FailedPrecondition(
        "dataset '" + dataset->id() +
        "' already exists; erase it before reloading");
  }
  if (budget_bytes_ > 0) {
    // Decide fit against the *pinned* floor before evicting anything: an
    // insert that can never fit (oversized, or blocked by pinned
    // residents) must be refused without flushing healthy idle entries.
    int64_t pinned_bytes = 0;
    for (const auto& [id, entry] : datasets_) {
      if (entry.dataset.use_count() != 1) {
        pinned_bytes += entry.dataset->ApproxBytes();
      }
    }
    if (pinned_bytes + dataset->ApproxBytes() > budget_bytes_) {
      return Status::ResourceExhausted(
          "dataset '" + dataset->id() + "' (" +
          std::to_string(dataset->ApproxBytes()) +
          " bytes) does not fit the store budget (" +
          std::to_string(budget_bytes_) + " bytes, " +
          std::to_string(pinned_bytes) +
          " pinned); erase or unpin datasets first");
    }
    EvictFor(dataset->ApproxBytes());
  }
  Entry entry;
  entry.dataset = dataset;
  entry.last_used = ++clock_;
  total_bytes_ += dataset->ApproxBytes();
  datasets_.emplace(dataset->id(), std::move(entry));
  return dataset;
}

namespace {

void PruneHistory(
    std::vector<std::weak_ptr<const LoadedDataset>>& history) {
  history.erase(
      std::remove_if(history.begin(), history.end(),
                     [](const std::weak_ptr<const LoadedDataset>& slot) {
                       return slot.expired();
                     }),
      history.end());
}

}  // namespace

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::AppendRows(
    const std::string& id, Table delta) {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(delta);
  if (!encoded.ok()) return encoded.status();
  return AppendRows(id, *std::move(encoded));
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::AppendRows(
    const std::string& id, EncodedRelation delta) {
  if (FASTOD_FAULT_POINT("dataset_store.append")) {
    return Status::ResourceExhausted("injected fault: dataset_store.append");
  }
  std::shared_ptr<const LoadedDataset> base;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = datasets_.find(id);
    if (it == datasets_.end()) {
      return Status::NotFound("no dataset with id '" + id + "'");
    }
    base = it->second.dataset;
  }
  // Merge-encode outside the lock; concurrent sessions keep reading
  // `base` undisturbed, including while we splice the new version in.
  Result<std::shared_ptr<const LoadedDataset>> grown =
      LoadedDataset::Append(base, std::move(delta));
  if (!grown.ok()) return grown.status();

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(id);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + id +
                            "' was erased during the append");
  }
  Entry& entry = it->second;
  if (entry.dataset != base) {
    return Status::FailedPrecondition(
        "dataset '" + id +
        "' changed during the append; retry against the current version");
  }
  if (budget_bytes_ > 0) {
    int64_t pinned_bytes = 0;
    for (const auto& [other_id, other] : datasets_) {
      if (other_id == id) continue;
      if (other.dataset.use_count() != 1) {
        pinned_bytes += other.dataset->ApproxBytes();
      }
    }
    if (pinned_bytes + (*grown)->ApproxBytes() > budget_bytes_) {
      return Status::ResourceExhausted(
          "appending to dataset '" + id + "' would grow it to " +
          std::to_string((*grown)->ApproxBytes()) +
          " bytes, over the store budget (" + std::to_string(budget_bytes_) +
          " bytes, " + std::to_string(pinned_bytes) +
          " pinned elsewhere); erase or unpin datasets first");
    }
    // The superseded version leaves the accounting now (it survives only
    // under session pins, outside the budget); evict idle entries if the
    // grown version still does not fit. This entry cannot be victimized:
    // the local `base` reference keeps its use_count above 1.
    total_bytes_ -= base->ApproxBytes();
    EvictFor((*grown)->ApproxBytes());
    total_bytes_ += (*grown)->ApproxBytes();
  } else {
    total_bytes_ += (*grown)->ApproxBytes() - base->ApproxBytes();
  }
  PruneHistory(entry.history);
  entry.history.push_back(base);
  entry.dataset = *grown;
  entry.last_used = ++clock_;
  return *std::move(grown);
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::AppendCsvString(
    const std::string& id, std::string_view text, const CsvOptions& options) {
  Result<EncodedRelation> delta = EncodeCsvString(text, options);
  if (!delta.ok()) return delta.status();
  return AppendRows(id, *std::move(delta));
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::AppendCsvFile(
    const std::string& id, const std::string& path,
    const CsvOptions& options) {
  Result<EncodedRelation> delta = EncodeCsvFile(path, options);
  if (!delta.ok()) return delta.status();
  return AppendRows(id, *std::move(delta));
}

void DatasetStore::EvictFor(int64_t needed) {
  while (total_bytes_ + needed > budget_bytes_) {
    // LRU among unpinned entries. use_count()==1 means the store holds
    // the only reference: every outside copy is handed out under this
    // mutex, so the count cannot rise concurrently — only drop, which
    // just delays eviction to the next pass.
    auto victim = datasets_.end();
    for (auto it = datasets_.begin(); it != datasets_.end(); ++it) {
      if (it->second.dataset.use_count() != 1) continue;
      if (victim == datasets_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == datasets_.end()) return;  // everything pinned
    total_bytes_ -= victim->second.dataset->ApproxBytes();
    datasets_.erase(victim);
    ++evictions_;
  }
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::Get(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(id);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset with id '" + id + "'");
  }
  it->second.last_used = ++clock_;
  ++it->second.hits;
  return it->second.dataset;
}

Result<std::shared_ptr<const LoadedDataset>> DatasetStore::Get(
    const std::string& id, int64_t version) {
  if (version <= 0) return Get(id);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(id);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset with id '" + id + "'");
  }
  Entry& entry = it->second;
  if (entry.dataset->version() == version) {
    entry.last_used = ++clock_;
    ++entry.hits;
    return entry.dataset;
  }
  // Superseded versions: alive exactly while some session pins them. No
  // LRU bump — they are outside the budget, the store holds no reference.
  for (auto rit = entry.history.rbegin(); rit != entry.history.rend();
       ++rit) {
    std::shared_ptr<const LoadedDataset> held = rit->lock();
    if (held != nullptr && held->version() == version) {
      ++entry.hits;
      return held;
    }
  }
  return Status::NotFound(
      "version " + std::to_string(version) + " of dataset '" + id +
      "' is not resident (current is version " +
      std::to_string(entry.dataset->version()) +
      "; superseded versions live only while a session pins them)");
}

Status DatasetStore::Erase(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(id);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset with id '" + id + "'");
  }
  total_bytes_ -= it->second.dataset->ApproxBytes();
  datasets_.erase(it);
  return Status::Ok();
}

namespace {

DatasetInfo InfoOf(
    const std::string& id,
    const std::shared_ptr<const LoadedDataset>& dataset, int64_t hits,
    const std::vector<std::weak_ptr<const LoadedDataset>>& history) {
  DatasetInfo info;
  info.id = id;
  info.source = dataset->source();
  info.rows = dataset->NumRows();
  info.columns = dataset->NumAttributes();
  info.bytes = dataset->ApproxBytes();
  info.hits = hits;
  info.pinned = dataset.use_count() > 1;
  info.version = dataset->version();

  DatasetVersionInfo current;
  current.version = dataset->version();
  current.rows = dataset->NumRows();
  current.bytes = dataset->ApproxBytes();
  current.pinned = info.pinned;
  current.current = true;
  info.versions.push_back(current);
  // Retained (superseded) versions, newest first. A lockable slot means
  // some session still pins that version — it is alive but unbudgeted.
  for (auto rit = history.rbegin(); rit != history.rend(); ++rit) {
    std::shared_ptr<const LoadedDataset> held = rit->lock();
    if (held == nullptr) continue;
    DatasetVersionInfo old;
    old.version = held->version();
    old.rows = held->NumRows();
    old.bytes = held->ApproxBytes();
    old.pinned = true;
    info.retained_bytes += old.bytes;
    info.versions.push_back(old);
  }
  return info;
}

}  // namespace

bool DatasetStore::Contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return datasets_.find(id) != datasets_.end();
}

Result<DatasetInfo> DatasetStore::Info(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = datasets_.find(id);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset with id '" + id + "'");
  }
  return InfoOf(id, it->second.dataset, it->second.hits,
                it->second.history);
}

std::vector<DatasetInfo> DatasetStore::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DatasetInfo> out;
  out.reserve(datasets_.size());
  for (const auto& [id, entry] : datasets_) {
    out.push_back(InfoOf(id, entry.dataset, entry.hits, entry.history));
  }
  return out;
}

int64_t DatasetStore::RetainedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t bytes = 0;
  for (const auto& [id, entry] : datasets_) {
    for (const auto& slot : entry.history) {
      std::shared_ptr<const LoadedDataset> held = slot.lock();
      if (held != nullptr) bytes += held->ApproxBytes();
    }
  }
  return bytes;
}

void DatasetStore::SetBudgetBytes(int64_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  budget_bytes_ = budget_bytes < 0 ? 0 : budget_bytes;
  if (budget_bytes_ > 0) EvictFor(0);
}

int64_t DatasetStore::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_bytes_;
}

int64_t DatasetStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

int64_t DatasetStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(datasets_.size());
}

int64_t DatasetStore::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace fastod
