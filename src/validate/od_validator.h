// Standalone OD validation against a relation instance.
//
// OdValidator answers "does this dependency hold on this data?" for both
// canonical set-based ODs and list-based ODs, using the same partition
// machinery as the discovery algorithms (contexts are cached, so repeated
// checks over the same context are cheap). It is the tool a user reaches
// for to confirm a suspected business rule, and the building block of the
// ORDER baseline and the test oracles.
#ifndef FASTOD_VALIDATE_OD_VALIDATOR_H_
#define FASTOD_VALIDATE_OD_VALIDATOR_H_

#include <unordered_map>
#include <vector>

#include "data/encode.h"
#include "od/bidirectional.h"
#include "od/canonical_od.h"
#include "od/list_od.h"
#include "partition/sorted_partition.h"

namespace fastod {

class OdValidator {
 public:
  /// The relation must outlive the validator. `singletons`, when given,
  /// are prebuilt level-1 partitions (one per attribute, e.g. a
  /// LoadedDataset's) used to seed the context cache; borrowed contents
  /// are copied, so the pointer itself need not outlive the call.
  explicit OdValidator(
      const EncodedRelation* relation,
      const std::vector<StrippedPartition>* singletons = nullptr);

  /// X: [] -> A — A constant within every equivalence class of Π_X
  /// (equivalently, the FD X -> A holds).
  bool IsConstant(AttributeSet context, int attribute);

  /// X: A ~ B — no swap between A and B within any class of Π_X.
  bool IsOrderCompatible(AttributeSet context, int a, int b);

  bool Holds(const CanonicalOd& od);

  /// X ↦ Y under Definition 2, checked in O(n log n) by lexicographic sort
  /// and a single monotonicity sweep.
  bool Holds(const ListOd& od);

  /// Bidirectional extension: X: A ~ B with B taken descending — sorting
  /// any context class by A ascending sorts it by B descending.
  bool IsBidiOrderCompatible(AttributeSet context, int a, int b);

  /// Bidirectional list OD (mixed asc/desc specifications, SQL ORDER BY
  /// semantics).
  bool Holds(const BidirectionalListOd& od);

  /// X ~ Y (order compatibility of two order specifications): XY ↔ YX.
  bool AreOrderCompatible(const OrderSpec& lhs, const OrderSpec& rhs);

  /// X ↔ Y: X ↦ Y and Y ↦ X.
  bool AreOrderEquivalent(const OrderSpec& lhs, const OrderSpec& rhs);

  const EncodedRelation& relation() const { return *relation_; }

  /// Context partition Π*_X (computed on demand, cached).
  const StrippedPartition& ContextPartition(AttributeSet context);

 private:
  const EncodedRelation* relation_;
  SortedPartitions sorted_;
  SwapChecker swap_checker_;
  std::unordered_map<AttributeSet, StrippedPartition, AttributeSetHash>
      context_cache_;
};

}  // namespace fastod

#endif  // FASTOD_VALIDATE_OD_VALIDATOR_H_
