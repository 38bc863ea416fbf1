#include "partition/sorted_partition.h"

#include <algorithm>
#include <numeric>

namespace fastod {

SortedPartitions::SortedPartitions(const EncodedRelation& relation) {
  const int64_t n = relation.NumRows();
  orders_.resize(relation.NumAttributes());
  for (int a = 0; a < relation.NumAttributes(); ++a) {
    const CodeColumn& codes = relation.codes(a);
    const int32_t num_distinct = relation.NumDistinct(a);
    const uint32_t* data = codes.data();
    // Counting sort: stable, so ties stay in ascending tuple order.
    std::vector<int32_t> counts(num_distinct + 1, 0);
    for (int64_t t = 0; t < n; ++t) ++counts[data[t] + 1];
    for (int32_t v = 0; v < num_distinct; ++v) counts[v + 1] += counts[v];
    orders_[a].resize(n);
    for (int64_t t = 0; t < n; ++t) {
      orders_[a][counts[data[t]]++] = static_cast<int32_t>(t);
    }
  }
}

SwapChecker::SwapChecker(const EncodedRelation* relation,
                         const SortedPartitions* sorted_partitions,
                         SwapCheckMethod method)
    : relation_(relation), sorted_(sorted_partitions), method_(method) {
  FASTOD_CHECK(relation_ != nullptr);
}

void SwapChecker::SetContext(const StrippedPartition& context) {
  context_ = &context;
  // τ-based scans all n tuples per check in τ_A order, with random reads
  // of the class index and both code columns; sort-based pays Σ c·log c
  // over context classes with reads in class order. τ pays only when no
  // row is a stripped singleton, i.e. the context covers every row
  // (measured with bench_ablation_validation; a half-coverage switch was
  // slower on flight- and ncvoter-like relations).
  use_tau_ = sorted_ != nullptr &&
             (method_ == SwapCheckMethod::kTauBased ||
              (method_ == SwapCheckMethod::kAuto &&
               context.NumElements() >= relation_->NumRows()));
  if (use_tau_) context.FillClassIndex(&class_of_);
}

bool SwapChecker::Check(int a, int b, bool opposite) {
  FASTOD_DCHECK(context_ != nullptr);
  const int32_t flip_base =
      opposite ? relation_->NumDistinct(b) - 1 : int32_t{-1};
  return use_tau_ ? CheckTauBased(a, b, flip_base)
                  : CheckSortBased(a, b, flip_base);
}

bool SwapChecker::IsOrderCompatible(const StrippedPartition& context, int a,
                                    int b) {
  return IsOrderCompatibleDirected(context, a, b, /*opposite=*/false);
}

bool SwapChecker::IsOrderCompatibleDirected(const StrippedPartition& context,
                                            int a, int b, bool opposite) {
  SetContext(context);
  return Check(a, b, opposite);
}

bool SwapChecker::CheckSortBased(int a, int b, int32_t flip_base) {
  ++num_sort_checks_;
  const StrippedPartition& context = *context_;
  const CodeColumn& ranks_a = relation_->codes(a);
  const CodeColumn& ranks_b = relation_->codes(b);
  for (int32_t c = 0; c < context.NumClasses(); ++c) {
    auto cls = context.Class(c);
    class_buffer_.assign(cls.begin(), cls.end());
    std::sort(class_buffer_.begin(), class_buffer_.end(),
              [&ranks_a](int32_t s, int32_t t) {
                return ranks_a[s] < ranks_a[t];
              });
    // Sweep A-groups in ascending order. Within a group (equal A) tuples do
    // not constrain each other; across groups every earlier B-rank must be
    // <= every later B-rank.
    auto rank_b = [&](int32_t t) {
      return flip_base < 0 ? ranks_b[t] : flip_base - ranks_b[t];
    };
    int32_t run_max_b = -1;
    size_t i = 0;
    while (i < class_buffer_.size()) {
      const int32_t group_a = ranks_a[class_buffer_[i]];
      int32_t group_min_b = rank_b(class_buffer_[i]);
      int32_t group_max_b = group_min_b;
      size_t j = i + 1;
      while (j < class_buffer_.size() &&
             ranks_a[class_buffer_[j]] == group_a) {
        group_min_b = std::min(group_min_b, rank_b(class_buffer_[j]));
        group_max_b = std::max(group_max_b, rank_b(class_buffer_[j]));
        ++j;
      }
      if (group_min_b < run_max_b) return false;  // swap
      run_max_b = std::max(run_max_b, group_max_b);
      i = j;
    }
  }
  return true;
}

bool SwapChecker::CheckTauBased(int a, int b, int32_t flip_base) {
  ++num_tau_checks_;
  const CodeColumn& ranks_a = relation_->codes(a);
  const CodeColumn& ranks_b = relation_->codes(b);
  tau_states_.assign(context_->NumClasses(), TauState{});
  // One scan over τ_a: tuples arrive in global ascending A order, hence in
  // ascending A order within every context class as well ("hashing into
  // sorted buckets", Table 2 of the paper). The sweep state advances per
  // class.
  for (int32_t t : sorted_->TupleOrder(a)) {
    const int32_t cls = class_of_[t];
    if (cls < 0) continue;  // stripped singleton
    TauState& st = tau_states_[cls];
    const int32_t ra = ranks_a[t];
    const int32_t rb = flip_base < 0 ? ranks_b[t] : flip_base - ranks_b[t];
    if (st.cur_a != ra) {
      // Close the previous A-group for this class.
      st.run_max_b = std::max(st.run_max_b, st.group_max_b);
      st.cur_a = ra;
      st.group_max_b = rb;
    } else {
      st.group_max_b = std::max(st.group_max_b, rb);
    }
    if (rb < st.run_max_b) return false;  // swap
  }
  return true;
}

}  // namespace fastod
