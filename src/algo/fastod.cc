#include "algo/fastod.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "algo/approximate.h"
#include "algo/lattice_level.h"
#include "algo/node_stages.h"
#include "api/od_sink.h"
#include "common/fault.h"
#include "common/timer.h"

namespace fastod {

namespace {

// A pair {A,B} with A < B packed into 12 bits (A*64+B). Cs+(X) is a sorted
// vector of these.
using PairId = uint16_t;

PairId MakePair(int a, int b) {
  FASTOD_DCHECK(a != b);
  if (a > b) std::swap(a, b);
  return static_cast<PairId>(a * 64 + b);
}
int PairFirst(PairId p) { return p / 64; }
int PairSecond(PairId p) { return p % 64; }

bool SortedContains(const std::vector<PairId>& v, PairId p) {
  return std::binary_search(v.begin(), v.end(), p);
}

struct Node {
  AttributeSet set;
  AttributeSet cc;            // Cc+(X), subset of R
  std::vector<PairId> cs;     // Cs+(X), sorted
};

using Level = LatticeLevel<Node>;

// One order-compatibility check X\{A,B}: A ~ B of a node. The node's
// validation step lists it; the level's swap stage decides it together
// with every other check of the level under the same context.
struct SwapCheck {
  enum Verdict : uint8_t {
    kUnchecked,   // not reached: the run stopped first
    kKeyPruned,   // superkey context (Lemma 13): valid, never minimal
    kAscending,   // A ~ B holds
    kDescending,  // only A ~ B-descending holds (bidirectional mode)
    kNeither,
  };
  PairId pair;
  Verdict verdict = kUnchecked;
};

// Per-node validation results, merged into the global result in canonical
// node order so that output is deterministic under any thread count.
struct NodeOutcome {
  int64_t num_constancy = 0;
  int64_t num_compatibility = 0;
  int64_t num_bidirectional = 0;
  std::vector<ConstancyOd> constancy;             // only if emit_ods
  std::vector<CompatibilityOd> compatibility;     // only if emit_ods
  std::vector<BidiCompatibilityOd> bidirectional; // only if emit_ods
  std::vector<SwapCheck> checks;                  // in Cs+ order
  int64_t constancy_checks = 0;
  int64_t swap_checks = 0;
  int64_t key_prune_hits = 0;
  int64_t partitions_read = 0;
};

// The whole per-run state of one discovery, so Discover() stays const and
// re-entrant on the Fastod object.
//
// The lattice is walked level by level. Each per-node stage of a level —
// candidate sets, validation, the join's partition products — is one
// NodeStages::ForEach over the level's nodes; the swap stage is one
// ForEach over the level's distinct check contexts. A stage writes only
// its own node's (or check's) slot and reads the level arrays, which no
// stage resizes; results are merged serially, in node order, on the
// thread that called Execute(). Emission order therefore does not depend
// on the thread count.
class Run {
 public:
  Run(const EncodedRelation& relation, const FastodOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : relation_(relation),
        options_(options),
        singletons_(singletons),
        full_set_(AttributeSet::FullSet(relation.NumAttributes())),
        sorted_(relation),
        stages_(options.num_threads, "fastod-od", options.control) {}

  FastodResult Execute() {
    WallTimer total_timer;
    // L0 = { {} } with Cc+({}) = R, Cs+({}) = {}; L1 = the singletons.
    previous_ = Level::Root(relation_.NumRows());
    previous_.nodes[0].cc = full_set_;
    current_ = Level::Singletons(relation_, singletons_);
    result_.partition_cache_puts = previous_.NumNodes() + current_.NumNodes();
    const int m = relation_.NumAttributes();
    int l = 1;
    while (!current_.nodes.empty()) {
      if (options_.max_level > 0 && l > options_.max_level) break;
      WallTimer level_timer;
      FastodLevelStats stats;
      stats.level = l;
      stats.nodes = current_.NumNodes();
      result_.total_nodes += stats.nodes;

      ComputeOds(l, &stats);
      // A stop inside the level leaves part of it unvalidated: keep the
      // partial outcomes, but neither prune nor join from it.
      if (stages_.stop() != NodeStages::kRunning) {
        FinishLevel(level_timer, &stats);
        break;
      }
      // The swap stage was the last reader of level l-2.
      grandparents_ = Level();
      PruneLevels(l, &stats);
      // Skip the apriori join for a level the max_level cap would refuse
      // anyway.
      Level next;
      if (options_.max_level == 0 || l < options_.max_level) {
        next = current_.Join(relation_, &stages_,
                             &result_.partition_cache_gets);
        result_.partition_cache_puts += next.NumNodes();
      }
      FinishLevel(level_timer, &stats);
      result_.levels_processed = l;
      if (options_.control != nullptr && m > 0) {
        options_.control->ReportProgress(static_cast<double>(l) / m);
      }
      // Also covers a stop during the join, which leaves `next` partial.
      if (stages_.StopRequested()) break;

      grandparents_ = std::move(previous_);
      previous_ = std::move(current_);
      current_ = std::move(next);
      ++l;
    }
    result_.timed_out = stages_.stop() == NodeStages::kTimedOut;
    result_.cancelled = stages_.stop() == NodeStages::kCancelled;
    // A clean finish is 100%; early exits keep the last level's fraction
    // so pollers never see a cancelled/timed-out run as complete.
    if (options_.control != nullptr &&
        stages_.stop() == NodeStages::kRunning) {
      options_.control->ReportProgress(1.0);
    }
    result_.seconds = total_timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  // Algorithm 3: candidate-set maintenance plus validation at level l.
  void ComputeOds(int l, FastodLevelStats* stats) {
    const int64_t num_nodes = current_.NumNodes();
    // Stage 1: derive Cc+ / Cs+ for every node from the previous level.
    if (options_.minimality_pruning) {
      stages_.ForEach(num_nodes,
                      [&](int64_t i) { ComputeCandidateSets(l, i); });
    }
    // Stage 2: per node, the constancy side and the list of swap checks.
    std::vector<NodeOutcome> outcomes(num_nodes);
    stages_.ForEach(num_nodes, [&](int64_t i) {
      // Per-node fault point: "fail" stops the run like a cancel, "throw"
      // unwinds through ParallelFor to the session, "sleep" perturbs
      // completion order for the determinism stress tests.
      if (FASTOD_FAULT_POINT("lattice.node")) {
        stages_.RequestStop(NodeStages::kCancelled);
        return;
      }
      ValidateNode(l, i, &outcomes[i]);
    });
    // Stage 3: every swap check of the level, grouped by context.
    RunSwapChecks(&outcomes);
    // Merge in node order: deterministic output for any thread count. A
    // sink streams here; emit_ods independently accumulates the vectors.
    for (int64_t i = 0; i < num_nodes; ++i) {
      MergeOutcome(&current_.nodes[i], &outcomes[i], stats);
    }
  }

  // Decides the level's swap checks. The context X\{A,B} of a check is
  // the parent of X\A without B, a node of the grandparent level, so
  // checks are grouped by that node's index in first-seen order. Each
  // work item binds one SwapChecker to one context — a τ class index is
  // filled once per context rather than per check. With a pool, a large
  // group is cut so one context cannot hold the level.
  void RunSwapChecks(std::vector<NodeOutcome>* outcomes) {
    std::vector<int32_t> group_of(grandparents_.NumNodes(), -1);
    std::vector<int32_t> contexts;
    std::vector<std::vector<SwapCheck*>> groups;
    size_t total = 0;
    for (size_t i = 0; i < outcomes->size(); ++i) {
      for (SwapCheck& check : (*outcomes)[i].checks) {
        const int32_t without_a =
            current_.Parent(i, PairFirst(check.pair));
        const int32_t context =
            previous_.Parent(without_a, PairSecond(check.pair));
        if (group_of[context] < 0) {
          group_of[context] = static_cast<int32_t>(groups.size());
          contexts.push_back(context);
          groups.emplace_back();
        }
        groups[group_of[context]].push_back(&check);
        ++total;
      }
    }
    result_.partition_cache_gets += static_cast<int64_t>(groups.size());
    struct Item {
      const StrippedPartition* context;
      std::span<SwapCheck* const> checks;
    };
    const size_t party = static_cast<size_t>(stages_.party());
    const size_t cap =
        party > 1 ? std::max<size_t>(1, total / (party * 8)) : total;
    std::vector<Item> items;
    for (size_t g = 0; g < groups.size(); ++g) {
      const StrippedPartition* context = &grandparents_.partitions[contexts[g]];
      const std::vector<SwapCheck*>& group = groups[g];
      for (size_t i = 0; i < group.size(); i += cap) {
        items.push_back(
            {context, {group.data() + i, std::min(cap, group.size() - i)}});
      }
    }
    stages_.ForEach(static_cast<int64_t>(items.size()), [&](int64_t i) {
      std::unique_ptr<SwapChecker> checker = TakeChecker();
      DecideChecks(*items[i].context, items[i].checks, checker.get());
      ReturnChecker(std::move(checker));
    });
  }

  // Decides checks that all share `context`. Exact validity asks the
  // bound checker; approximate validity (max_error > 0) the g3 error.
  void DecideChecks(const StrippedPartition& context,
                    std::span<SwapCheck* const> checks,
                    SwapChecker* checker) const {
    if (options_.minimality_pruning && options_.key_pruning &&
        context.IsSuperkey()) {
      for (SwapCheck* check : checks) check->verdict = SwapCheck::kKeyPruned;
      return;
    }
    const bool exact = options_.max_error <= 0.0;
    if (exact) checker->SetContext(context);
    auto holds = [&](int a, int b, bool opposite) {
      return exact ? checker->Check(a, b, opposite)
                   : CompatibilityError(relation_, context, a, b,
                                        opposite) <= options_.max_error;
    };
    for (SwapCheck* check : checks) {
      const int a = PairFirst(check->pair);
      const int b = PairSecond(check->pair);
      if (holds(a, b, /*opposite=*/false)) {
        check->verdict = SwapCheck::kAscending;
      } else if (options_.discover_bidirectional &&
                 holds(a, b, /*opposite=*/true)) {
        check->verdict = SwapCheck::kDescending;
      } else {
        check->verdict = SwapCheck::kNeither;
      }
    }
  }

  // Algorithm 4: delete nodes whose candidate sets are both empty. The
  // level is compacted before the join records indices into it.
  void PruneLevels(int l, FastodLevelStats* stats) {
    if (!options_.minimality_pruning || !options_.level_pruning || l < 2) {
      return;
    }
    stats->nodes_pruned = current_.RemoveIf([this](int64_t i) {
      return current_.nodes[i].cc.IsEmpty() && current_.nodes[i].cs.empty();
    });
  }

  // Cc+(X) and Cs+(X) from the (l-1)-subsets (Lemma 9 / Alg. 3 line 6).
  void ComputeCandidateSets(int l, int64_t i) {
    Node* node = &current_.nodes[i];
    // The k-th parent of X: X without its k-th attribute.
    auto parent = [&](int k) -> const Node& {
      return previous_.nodes[current_.parents[i * l + k]];
    };
    // Cc+(X) = ∩_{A∈X} Cc+(X\A)  (Lemma 9).
    AttributeSet cc = full_set_;
    for (int k = 0; k < l; ++k) cc = cc.Intersect(parent(k).cc);
    node->cc = cc;

    if (l == 2) {
      // Cs+({A,B}) is initialized to the single pair {A,B} (Alg. 3 line 4).
      int a = node->set.First();
      int b = node->set.Next(a);
      node->cs = {MakePair(a, b)};
      return;
    }
    if (l < 2) return;
    // Cs+(X) = { {A,B} ∈ ∪_{C∈X} Cs+(X\C) |
    //            ∀D ∈ X\{A,B}: {A,B} ∈ Cs+(X\D) }   (Alg. 3 line 6).
    std::vector<PairId> candidates;
    for (int k = 0; k < l; ++k) {
      candidates.insert(candidates.end(), parent(k).cs.begin(),
                        parent(k).cs.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<PairId> kept;
    for (PairId p : candidates) {
      const int a = PairFirst(p);
      const int b = PairSecond(p);
      bool in_all = true;
      int k = 0;
      for (int d = node->set.First(); d >= 0 && in_all;
           d = node->set.Next(d), ++k) {
        if (d == a || d == b) continue;
        if (!SortedContains(parent(k).cs, p)) in_all = false;
      }
      if (in_all) kept.push_back(p);
    }
    node->cs = std::move(kept);
  }

  void ValidateNode(int l, int64_t i, NodeOutcome* out) {
    if (options_.minimality_pruning) {
      ValidateNodeMinimal(l, i, out);
    } else {
      ValidateNodeExhaustive(l, i, out);
    }
  }

  // The constancy side of node X, and the swap checks its Cs+ still asks
  // for; RunSwapChecks decides them and MergeOutcome applies the verdicts.
  void ValidateNodeMinimal(int l, int64_t i, NodeOutcome* out) {
    Node* node = &current_.nodes[i];
    const StrippedPartition& node_partition = current_.partitions[i];
    ++out->partitions_read;
    // --- Constancy side: X\A: [] -> A for A ∈ X ∩ Cc+(X) (Lemma 7). ---
    AttributeSet fd_candidates = node->set.Intersect(node->cc);
    for (int a = fd_candidates.First(); a >= 0; a = fd_candidates.Next(a)) {
      const AttributeSet context = node->set.Without(a);
      const StrippedPartition& context_partition =
          previous_.partitions[current_.Parent(i, a)];
      ++out->partitions_read;
      bool valid;
      if (options_.key_pruning && context_partition.IsSuperkey()) {
        valid = true;  // Lemma 12: a superkey context forces constancy.
        ++out->key_prune_hits;
      } else {
        ++out->constancy_checks;
        valid = ConstancyHolds(context_partition, node_partition, a);
      }
      if (valid) {
        RecordConstancy(ConstancyOd{context, a}, out);
        node->cc = node->cc.Without(a);
        // Line 14 (drop R \ X) rests on Lemma 5 / Strengthen, which does
        // not survive threshold validity: two ε-repairs need not compose
        // into one. Exact mode only; approximate mode keeps the plain
        // subset-minimality candidates (cf. TANE's approximate variant).
        if (options_.max_error <= 0.0) {
          node->cc = node->cc.Intersect(node->set);
        }
      }
    }
    if (l < 2) return;
    // --- Compatibility side: X\{A,B}: A ~ B for {A,B} ∈ Cs+(X). ---
    // Line 18 reads only the previous level, never a verdict, so the
    // checks can be listed up front; key pruning (Lemma 13) is applied
    // per context by the swap stage.
    for (PairId p : node->cs) {
      const int a = PairFirst(p);
      const int b = PairSecond(p);
      // Line 18: drop pairs whose endpoints lost FD-candidacy (Propagate).
      if (!previous_.nodes[current_.Parent(i, b)].cc.Contains(a) ||
          !previous_.nodes[current_.Parent(i, a)].cc.Contains(b)) {
        continue;  // removed from Cs+
      }
      out->checks.push_back(SwapCheck{p});
    }
  }

  // The FASTOD-NoPruning configuration: validate every non-trivial OD at
  // this node and count all valid ones, minimal or not (Exp-5/6).
  void ValidateNodeExhaustive(int l, int64_t i, NodeOutcome* out) {
    const AttributeSet set = current_.nodes[i].set;
    const StrippedPartition& node_partition = current_.partitions[i];
    ++out->partitions_read;
    int k = 0;
    for (int a = set.First(); a >= 0; a = set.Next(a), ++k) {
      ++out->constancy_checks;
      ++out->partitions_read;
      if (ConstancyHolds(previous_.partitions[current_.parents[i * l + k]],
                         node_partition, a)) {
        RecordConstancy(ConstancyOd{set.Without(a), a}, out);
      }
    }
    if (l < 2) return;
    for (int a = set.First(); a >= 0; a = set.Next(a)) {
      for (int b = set.Next(a); b >= 0; b = set.Next(b)) {
        out->checks.push_back(SwapCheck{MakePair(a, b)});
      }
    }
  }

  // Applies the verdicts of one node's swap checks — ODs found, and the
  // pairs left in Cs+ — then accumulates the node's buffered outcome into
  // the run result, the level stats, and the sink.
  void MergeOutcome(Node* node, NodeOutcome* o, FastodLevelStats* stats) {
    std::vector<PairId> remaining;
    for (const SwapCheck& check : o->checks) {
      const int a = PairFirst(check.pair);
      const int b = PairSecond(check.pair);
      const AttributeSet context = node->set.Without(a).Without(b);
      switch (check.verdict) {
        case SwapCheck::kUnchecked:
          remaining.push_back(check.pair);
          break;
        case SwapCheck::kKeyPruned:  // removed from Cs+ without emitting
          ++o->key_prune_hits;
          break;
        case SwapCheck::kAscending:  // removed from Cs+ (line 22)
          ++o->swap_checks;
          RecordCompatibility(CompatibilityOd(context, a, b), o);
          break;
        case SwapCheck::kDescending:  // resolved with opposite polarity
          o->swap_checks += 2;
          RecordBidirectional(BidiCompatibilityOd(context, a, b), o);
          break;
        case SwapCheck::kNeither:
          o->swap_checks += options_.discover_bidirectional ? 2 : 1;
          remaining.push_back(check.pair);
          break;
      }
    }
    if (options_.minimality_pruning) node->cs = std::move(remaining);
    result_.num_constancy += o->num_constancy;
    result_.num_compatibility += o->num_compatibility;
    result_.num_bidirectional += o->num_bidirectional;
    stats->constancy_found += o->num_constancy;
    stats->compatibility_found += o->num_compatibility;
    stats->bidirectional_found += o->num_bidirectional;
    stats->constancy_checks += o->constancy_checks;
    stats->swap_checks += o->swap_checks;
    stats->key_prune_hits += o->key_prune_hits;
    result_.partition_cache_gets += o->partitions_read;
    if (options_.sink != nullptr) {
      for (const ConstancyOd& od : o->constancy) {
        options_.sink->OnConstancy(od);
      }
      for (const CompatibilityOd& od : o->compatibility) {
        options_.sink->OnCompatibility(od);
      }
      for (const BidiCompatibilityOd& od : o->bidirectional) {
        options_.sink->OnBidirectional(od);
      }
    }
    if (options_.emit_ods) {
      std::move(o->constancy.begin(), o->constancy.end(),
                std::back_inserter(result_.constancy_ods));
      std::move(o->compatibility.begin(), o->compatibility.end(),
                std::back_inserter(result_.compatibility_ods));
      std::move(o->bidirectional.begin(), o->bidirectional.end(),
                std::back_inserter(result_.bidirectional_ods));
    }
  }

  // Exact validity uses the O(1) partition-error identity of Section 4.6;
  // approximate validity (max_error > 0) uses the g3 removal errors.
  bool ConstancyHolds(const StrippedPartition& context_partition,
                      const StrippedPartition& node_partition, int a) const {
    if (options_.max_error <= 0.0) {
      return context_partition.Error() == node_partition.Error();
    }
    return ConstancyError(relation_, context_partition, a) <=
           options_.max_error;
  }

  // A swap work item borrows a SwapChecker so the checkers' scratch
  // buffers are reused across items: at most one checker per thread ever
  // exists.
  std::unique_ptr<SwapChecker> TakeChecker() {
    std::lock_guard<std::mutex> lock(checkers_mutex_);
    if (checkers_.empty()) {
      return std::make_unique<SwapChecker>(&relation_, &sorted_,
                                           options_.swap_method);
    }
    std::unique_ptr<SwapChecker> checker = std::move(checkers_.back());
    checkers_.pop_back();
    return checker;
  }

  void ReturnChecker(std::unique_ptr<SwapChecker> checker) {
    std::lock_guard<std::mutex> lock(checkers_mutex_);
    checkers_.push_back(std::move(checker));
  }

  // Per-node buffers are needed both to materialize (emit_ods) and to
  // stream (sink): streaming drains them at the deterministic merge.
  bool BufferOds() const {
    return options_.emit_ods || options_.sink != nullptr;
  }

  void RecordConstancy(ConstancyOd od, NodeOutcome* out) const {
    ++out->num_constancy;
    if (BufferOds()) out->constancy.push_back(od);
  }

  void RecordCompatibility(CompatibilityOd od, NodeOutcome* out) const {
    ++out->num_compatibility;
    if (BufferOds()) out->compatibility.push_back(od);
  }

  void RecordBidirectional(BidiCompatibilityOd od, NodeOutcome* out) const {
    ++out->num_bidirectional;
    if (BufferOds()) out->bidirectional.push_back(od);
  }

  void FinishLevel(const WallTimer& timer, FastodLevelStats* stats) {
    stats->seconds = timer.ElapsedSeconds();
    const int party = stages_.party();
    if (party > 1) {
      // Each node of the level is one work item dispatched to the pool.
      result_.tasks_ready += stats->nodes;
      result_.tasks_spawned += stats->nodes;
      const double busy = stages_.TakeBusySeconds();
      if (stats->seconds > 0.0) {
        stats->occupancy = std::min(1.0, busy / (stats->seconds * party));
      }
    }
    if (options_.collect_level_stats) result_.level_stats.push_back(*stats);
  }

  const EncodedRelation& relation_;
  const FastodOptions& options_;
  const std::vector<StrippedPartition>* singletons_;
  AttributeSet full_set_;
  SortedPartitions sorted_;
  NodeStages stages_;
  // Level l's swap stage reads partitions of l-2; nothing of it is read
  // afterwards, so it is dropped before the join builds l+1.
  Level grandparents_;  // level l-2, empty from the end of the swap stage
  Level previous_;      // level l-1 (final Cc+/Cs+)
  Level current_;       // level l
  FastodResult result_;

  std::mutex checkers_mutex_;
  std::vector<std::unique_ptr<SwapChecker>> checkers_;  // guarded by
                                                        // checkers_mutex_
};

}  // namespace

std::string FastodResult::CountsToString() const {
  return std::to_string(NumOds()) + " (" + std::to_string(num_constancy) +
         " + " + std::to_string(num_compatibility) +
         (num_bidirectional > 0
              ? " + " + std::to_string(num_bidirectional) + " bidi"
              : "") +
         ")";
}

Fastod::Fastod(FastodOptions options) : options_(options) {}

FastodResult Fastod::Discover(
    const EncodedRelation& relation,
    const std::vector<StrippedPartition>* singletons) const {
  Run run(relation, options_, singletons);
  return run.Execute();
}

Result<FastodResult> Fastod::Discover(const Table& table) const {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) return encoded.status();
  return Discover(*encoded);
}

}  // namespace fastod
