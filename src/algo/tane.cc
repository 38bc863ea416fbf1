#include "algo/tane.h"

#include <unordered_map>
#include <utility>

#include "algo/lattice_level.h"
#include "algo/node_stages.h"
#include "api/od_sink.h"
#include "common/fault.h"
#include "common/timer.h"
#include "od/attribute_set.h"

namespace fastod {

namespace {

struct Node {
  AttributeSet set;
  AttributeSet cc;  // Cc+(X)
};

using Level = LatticeLevel<Node>;

// One node's validation results, merged in node order.
struct NodeOutcome {
  std::vector<ConstancyOd> fds;
  int64_t partitions_read = 0;
};

class Run {
 public:
  Run(const EncodedRelation& relation, const TaneOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : relation_(relation),
        options_(options),
        singletons_(singletons),
        full_set_(AttributeSet::FullSet(relation.NumAttributes())),
        stages_(options.num_threads, "fastod-fd", options.control) {}

  TaneResult Execute() {
    WallTimer timer;
    previous_ = Level::Root(relation_.NumRows());
    previous_.nodes[0].cc = full_set_;
    current_ = Level::Singletons(relation_, singletons_);
    result_.partition_cache_puts = previous_.NumNodes() + current_.NumNodes();
    const int m = relation_.NumAttributes();
    int l = 1;
    while (!current_.nodes.empty()) {
      if (options_.max_level > 0 && l > options_.max_level) break;
      const int64_t num_nodes = current_.NumNodes();
      result_.total_nodes += num_nodes;
      if (stages_.party() > 1) {
        // Each node of the level is one work item dispatched to the pool.
        result_.tasks_ready += num_nodes;
        result_.tasks_spawned += num_nodes;
      }
      ComputeDependencies();
      // Pruning reads every sibling's final Cc+: a level cut short by a
      // stop keeps the FDs its validated nodes found and ends the run.
      if (stages_.stop() != NodeStages::kRunning) break;
      // Validation was the last reader of level l-1.
      previous_ = Level();
      Prune();
      // Skip the join for a level the max_level cap would refuse anyway.
      Level next;
      if (options_.max_level == 0 || l < options_.max_level) {
        next = current_.Join(relation_, &stages_,
                             &result_.partition_cache_gets);
        result_.partition_cache_puts += next.NumNodes();
      }
      result_.levels_processed = l;
      if (options_.control != nullptr && m > 0) {
        options_.control->ReportProgress(static_cast<double>(l) / m);
      }
      // Also covers a stop during the join, which leaves `next` partial.
      if (stages_.StopRequested()) break;
      previous_ = std::move(current_);
      current_ = std::move(next);
      ++l;
    }
    result_.timed_out = stages_.stop() == NodeStages::kTimedOut;
    result_.cancelled = stages_.stop() == NodeStages::kCancelled;
    // Early exits keep the last level's fraction; only a clean finish
    // reports 100%.
    if (options_.control != nullptr &&
        stages_.stop() == NodeStages::kRunning) {
      options_.control->ReportProgress(1.0);
    }
    result_.seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  // Derives Cc+(X) from the previous level and validates the candidate
  // FDs of one node. Reads only the immutable previous level and the
  // node's own partition; writes only its own node and outcome — safe to
  // run for all nodes concurrently.
  void ProcessNode(int64_t i, NodeOutcome* out) {
    Node* node = &current_.nodes[i];
    const int l = current_.size;
    AttributeSet cc = full_set_;
    for (int k = 0; k < l; ++k) {
      cc = cc.Intersect(previous_.nodes[current_.parents[i * l + k]].cc);
    }
    node->cc = cc;
    const StrippedPartition& node_partition = current_.partitions[i];
    ++out->partitions_read;
    AttributeSet candidates = node->set.Intersect(node->cc);
    for (int a = candidates.First(); a >= 0; a = candidates.Next(a)) {
      const StrippedPartition& context_partition =
          previous_.partitions[current_.Parent(i, a)];
      ++out->partitions_read;
      if (context_partition.Error() == node_partition.Error()) {
        out->fds.push_back(ConstancyOd{node->set.Without(a), a});
        node->cc = node->cc.Without(a);
        node->cc = node->cc.Intersect(node->set);
      }
    }
  }

  void ComputeDependencies() {
    const int64_t n = current_.NumNodes();
    std::vector<NodeOutcome> outcomes(n);
    stages_.ForEach(n, [&](int64_t i) {
      // Per-node fault point, as in FASTOD: "fail" stops the run like a
      // cancel, "throw" unwinds to the session, "sleep" perturbs
      // completion order.
      if (FASTOD_FAULT_POINT("lattice.node")) {
        stages_.RequestStop(NodeStages::kCancelled);
        return;
      }
      ProcessNode(i, &outcomes[i]);
    });
    // Merge in node order: deterministic FD emission for any thread
    // count.
    for (const NodeOutcome& outcome : outcomes) {
      for (const ConstancyOd& fd : outcome.fds) EmitFd(fd);
      result_.partition_cache_gets += outcome.partitions_read;
    }
  }

  // TANE pruning: delete Cc+-empty nodes; for (super)key nodes, emit the
  // remaining minimal FDs X -> A (A outside X) and delete the node.
  void Prune() {
    // Key-node minimality reads same-level siblings X ∪ {A} \ {B}, which
    // are no subset of X: they are found by set.
    std::unordered_map<AttributeSet, int32_t, AttributeSetHash> index;
    index.reserve(current_.nodes.size());
    for (int32_t i = 0; i < static_cast<int32_t>(current_.nodes.size());
         ++i) {
      index.emplace(current_.nodes[i].set, i);
    }
    current_.RemoveIf([&](int64_t i) {
      const Node& node = current_.nodes[i];
      if (node.cc.IsEmpty()) return true;
      ++result_.partition_cache_gets;
      if (!current_.partitions[i].IsSuperkey()) return false;
      AttributeSet outside = node.cc.Minus(node.set);
      for (int a = outside.First(); a >= 0; a = outside.Next(a)) {
        // X -> A is minimal iff A ∈ ∩_{B∈X} Cc+(X ∪ {A} \ {B}).
        bool minimal = true;
        for (int b = node.set.First(); b >= 0 && minimal;
             b = node.set.Next(b)) {
          auto it = index.find(node.set.With(a).Without(b));
          if (it == index.end() ||
              !current_.nodes[it->second].cc.Contains(a)) {
            minimal = false;
          }
        }
        if (minimal) {
          EmitFd(ConstancyOd{node.set, a});
        }
      }
      return true;  // delete key node
    });
  }

  void EmitFd(const ConstancyOd& fd) {
    ++result_.num_fds;
    if (options_.sink != nullptr) {
      options_.sink->OnConstancy(fd);
    }
    if (options_.emit_fds) {
      result_.fds.push_back(fd);
    }
  }

  const EncodedRelation& relation_;
  const TaneOptions& options_;
  const std::vector<StrippedPartition>* singletons_;
  AttributeSet full_set_;
  NodeStages stages_;
  Level previous_;  // level l-1, empty from the end of validation
  Level current_;   // level l
  TaneResult result_;
};

}  // namespace

Tane::Tane(TaneOptions options) : options_(options) {}

TaneResult Tane::Discover(
    const EncodedRelation& relation,
    const std::vector<StrippedPartition>* singletons) const {
  Run run(relation, options_, singletons);
  return run.Execute();
}

Result<TaneResult> Tane::Discover(const Table& table) const {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) return encoded.status();
  return Discover(*encoded);
}

}  // namespace fastod
