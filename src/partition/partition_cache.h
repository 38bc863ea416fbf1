// A level-aware cache of stripped partitions keyed by AttributeSet.
//
// The level-wise algorithms (FASTOD, TANE) compute Π*_X for every lattice
// node X as the product of two parent partitions from the previous level
// (Section 4.6: "only partitions from the previous level are needed").
// FASTOD's order-compatibility checks additionally read contexts two levels
// up (X \ {A,B} has |X| - 2 attributes), so the cache retains a sliding
// window of levels and evicts older ones to bound memory.
#ifndef FASTOD_PARTITION_PARTITION_CACHE_H_
#define FASTOD_PARTITION_PARTITION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "od/attribute_set.h"
#include "partition/stripped_partition.h"

namespace fastod {

// Thread-safety: reads (Get/Contains/NumCached/TotalElements) take a
// shared lock, writes (Put/EvictBelow) an exclusive one, so concurrent
// readers never see a torn map. The level-wise engines only put and
// evict between their per-node stages, on one thread, while no node
// reads. References returned by Get stay valid under concurrent Put
// (std::unordered_map never invalidates references on insert) and under
// the engines' eviction discipline: EvictBelow(v-1) is only called once
// every node that could read a level < v-1 partition has finished (see
// docs/CONCURRENCY.md). Overwriting an
// existing key while a reader holds its reference is NOT safe — the
// level-wise engines never do (each Π*_X is put exactly once).
class PartitionCache {
 public:
  PartitionCache() = default;
  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  /// Registers Π*_X at lattice level `level` (= |X|).
  void Put(int level, AttributeSet set, StrippedPartition partition);

  /// Π*_X, which must be present (guaranteed by level-wise construction:
  /// every subset of a live node is a live node of its level).
  const StrippedPartition& Get(AttributeSet set) const;

  /// True iff Π*_X is cached.
  bool Contains(AttributeSet set) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return partitions_.find(set) != partitions_.end();
  }

  /// Evicts every partition of level < `level`.
  void EvictBelow(int level);

  int64_t NumCached() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return static_cast<int64_t>(partitions_.size());
  }

  /// Total tuples held across cached partitions (memory telemetry).
  int64_t TotalElements() const;

  /// Lifetime lookup/insert traffic (search telemetry: a Get is a
  /// partition reuse, a Put is a partition the run had to build or copy).
  /// Counted with relaxed atomics so concurrent validation scans can
  /// read partitions without synchronizing on the counters.
  int64_t gets() const { return gets_.load(std::memory_order_relaxed); }
  int64_t puts() const { return puts_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    int level;
    StrippedPartition partition;
  };
  mutable std::shared_mutex mutex_;
  std::unordered_map<AttributeSet, Entry, AttributeSetHash> partitions_;
  mutable std::atomic<int64_t> gets_{0};
  std::atomic<int64_t> puts_{0};
};

}  // namespace fastod

#endif  // FASTOD_PARTITION_PARTITION_CACHE_H_
