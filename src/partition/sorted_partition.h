// Sorted partitions τ_A and swap checking (Section 4.6).
//
// Verifying X: A ~ B means verifying, inside every equivalence class of
// Π_X, that no pair of tuples s,t has s ≺_A t but t ≺_B s (a *swap*,
// Definition 5). Two interchangeable strategies are provided:
//
//  * Sort-based: sort each class by the A-rank and sweep A-groups in
//    ascending order, tracking the running maximum B-rank of strictly
//    smaller A-groups; a swap exists iff some group contains a B-rank below
//    that running maximum. O(Σ |class| log |class|) per check.
//
//  * τ-based (the paper's method): precompute the sorted partition τ_A —
//    all tuples ordered by A — once per attribute; then a single scan over
//    τ_A "hashes tuples into sorted buckets" per context class and applies
//    the same sweep. The bucket of a tuple comes from a class index over
//    all n rows, filled once per context (SetContext), so a context's
//    checks pay O(n) each for the scan and O(n) once for the index.
//
// A checker is bound to one context at a time, so the many checks that
// share a context (a lattice level's checks, grouped by context) share
// its set-up. The τ scan reads the class index and both code columns in
// τ_A order, i.e. at random, for every row; the sort touches only the
// context's elements, in class order. So the sort-based variant wins
// whenever stripping has removed any rows, and the τ-based one only for
// contexts that cover the whole relation (the empty context, and
// contexts of low-cardinality attributes). SwapChecker::kAuto switches on
// coverage; bench_ablation_validation quantifies the trade-off.
#ifndef FASTOD_PARTITION_SORTED_PARTITION_H_
#define FASTOD_PARTITION_SORTED_PARTITION_H_

#include <cstdint>
#include <vector>

#include "data/encode.h"
#include "partition/stripped_partition.h"

namespace fastod {

/// τ_A for every attribute: tuple ids in ascending A-rank order (ties by
/// tuple id). Computed once and shared by all swap checks.
class SortedPartitions {
 public:
  explicit SortedPartitions(const EncodedRelation& relation);

  /// Tuples sorted ascending by attribute `attr`.
  const std::vector<int32_t>& TupleOrder(int attr) const {
    FASTOD_DCHECK(attr >= 0 && attr < static_cast<int>(orders_.size()));
    return orders_[attr];
  }

 private:
  std::vector<std::vector<int32_t>> orders_;
};

enum class SwapCheckMethod {
  kAuto,       // heuristic choice per call
  kSortBased,  // per-class sort + sweep
  kTauBased,   // single scan over τ_A
};

/// Swap checker bound to an encoded relation. Thread-compatible: distinct
/// instances may be used concurrently; a single instance holds the bound
/// context and scratch buffers and must not be shared across threads.
class SwapChecker {
 public:
  SwapChecker(const EncodedRelation* relation,
              const SortedPartitions* sorted_partitions,
              SwapCheckMethod method = SwapCheckMethod::kAuto);

  /// Binds `context` for the Check() calls that follow: picks the method
  /// (kAuto: τ when the context covers every row) and, for
  /// τ, fills the class index once. `context` must outlive the binding.
  void SetContext(const StrippedPartition& context);

  /// True iff context : A ~ B holds for the bound context, i.e. no
  /// equivalence class contains a swap between attributes `a` and `b`.
  /// With opposite = true, checks that sorting each class by A
  /// *ascending* sorts it by B *descending* (bidirectional extension).
  bool Check(int a, int b, bool opposite = false);

  /// One-off check: SetContext(context_partition), then Check(a, b).
  bool IsOrderCompatible(const StrippedPartition& context_partition, int a,
                         int b);

  /// One-off directional check: SetContext, then Check(a, b, opposite).
  bool IsOrderCompatibleDirected(const StrippedPartition& context_partition,
                                 int a, int b, bool opposite);

  /// Counters for the ablation benchmarks.
  int64_t num_sort_checks() const { return num_sort_checks_; }
  int64_t num_tau_checks() const { return num_tau_checks_; }

 private:
  // flip_base < 0 means ascending B; otherwise B-ranks are reflected as
  // (flip_base - rank), turning descending compatibility into ascending.
  bool CheckSortBased(int a, int b, int32_t flip_base);
  bool CheckTauBased(int a, int b, int32_t flip_base);

  const EncodedRelation* relation_;
  const SortedPartitions* sorted_;
  SwapCheckMethod method_;

  // The bound context and the method chosen for it.
  const StrippedPartition* context_ = nullptr;
  bool use_tau_ = false;

  // Scratch reused across calls. class_of_ is the bound context's class
  // index when use_tau_.
  std::vector<int32_t> class_buffer_;
  std::vector<int32_t> class_of_;
  int64_t num_sort_checks_ = 0;
  int64_t num_tau_checks_ = 0;

  struct TauState {
    int32_t cur_a = -1;        // A-rank of the open group
    int32_t group_max_b = -1;  // max B-rank inside the open group
    int32_t run_max_b = -1;    // max B-rank over strictly smaller A-groups
  };
  std::vector<TauState> tau_states_;
};

}  // namespace fastod

#endif  // FASTOD_PARTITION_SORTED_PARTITION_H_
