#include "algo/tane.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "algo/node_stages.h"
#include "api/od_sink.h"
#include "common/fault.h"
#include "od/attribute_set.h"
#include "partition/partition_cache.h"

namespace fastod {

namespace {

struct Node {
  AttributeSet set;
  AttributeSet cc;  // Cc+(X)
};

struct Level {
  std::vector<Node> nodes;
  std::unordered_map<AttributeSet, int32_t, AttributeSetHash> index;

  Node* Find(AttributeSet set) {
    auto it = index.find(set);
    return it == index.end() ? nullptr : &nodes[it->second];
  }
  void Add(Node node) {
    index.emplace(node.set, static_cast<int32_t>(nodes.size()));
    nodes.push_back(std::move(node));
  }
};

class Run {
 public:
  Run(const EncodedRelation& relation, const TaneOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : relation_(relation),
        options_(options),
        singletons_(singletons),
        full_set_(AttributeSet::FullSet(relation.NumAttributes())),
        stages_(options.num_threads, "fastod-fd", options.timeout_seconds,
                options.control) {}

  TaneResult Execute() {
    WallTimer timer;
    Initialize();
    const int m = relation_.NumAttributes();
    int l = 1;
    while (!current_.nodes.empty()) {
      if (options_.max_level > 0 && l > options_.max_level) break;
      const int64_t num_nodes = static_cast<int64_t>(current_.nodes.size());
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
      Prune();
      // Skip the join for a level the max_level cap would refuse anyway.
      Level next;
      if (options_.max_level == 0 || l < options_.max_level) {
        next = CalculateNextLevel(l);
      }
      result_.levels_processed = l;
      if (options_.control != nullptr && m > 0) {
        options_.control->ReportProgress(static_cast<double>(l) / m);
      }
      // Also covers a stop during the join, which leaves `next` partial.
      if (stages_.StopRequested()) break;
      previous_ = std::move(current_);
      current_ = std::move(next);
      cache_.EvictBelow(l);
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
    result_.partition_cache_gets = cache_.gets();
    result_.partition_cache_puts = cache_.puts();
    result_.seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  void Initialize() {
    const int64_t n = relation_.NumRows();
    Node root;
    root.set = AttributeSet::Empty();
    root.cc = full_set_;
    previous_.Add(std::move(root));
    cache_.Put(0, AttributeSet::Empty(), StrippedPartition::Universe(n));
    const std::vector<StrippedPartition>* prebuilt = singletons_;
    FASTOD_DCHECK(prebuilt == nullptr ||
                  static_cast<int>(prebuilt->size()) ==
                      relation_.NumAttributes());
    for (int a = 0; a < relation_.NumAttributes(); ++a) {
      Node node;
      node.set = AttributeSet::Single(a);
      current_.Add(std::move(node));
      cache_.Put(1, AttributeSet::Single(a),
                 prebuilt != nullptr
                     ? (*prebuilt)[a]
                     : StrippedPartition::ForAttribute(relation_.codes(a)));
    }
  }

  // Derives Cc+(X) from the previous level and validates the candidate
  // FDs of one node. Reads only the immutable previous level and the
  // partition cache; writes only its own node and `found` slot — safe to
  // run for all nodes concurrently.
  void ProcessNode(Node* node, std::vector<ConstancyOd>* found) {
    AttributeSet cc = full_set_;
    for (int a = node->set.First(); a >= 0; a = node->set.Next(a)) {
      Node* parent = previous_.Find(node->set.Without(a));
      FASTOD_DCHECK(parent != nullptr);
      cc = cc.Intersect(parent->cc);
    }
    node->cc = cc;
    const StrippedPartition& node_partition = cache_.Get(node->set);
    AttributeSet candidates = node->set.Intersect(node->cc);
    for (int a = candidates.First(); a >= 0; a = candidates.Next(a)) {
      const AttributeSet context = node->set.Without(a);
      const StrippedPartition& context_partition = cache_.Get(context);
      if (context_partition.Error() == node_partition.Error()) {
        found->push_back(ConstancyOd{context, a});
        node->cc = node->cc.Without(a);
        node->cc = node->cc.Intersect(node->set);
      }
    }
  }

  void ComputeDependencies() {
    const int64_t n = static_cast<int64_t>(current_.nodes.size());
    std::vector<std::vector<ConstancyOd>> found(n);
    stages_.ForEach(n, [&](int64_t i) {
      // Per-node fault point, as in FASTOD: "fail" stops the run like a
      // cancel, "throw" unwinds to the session, "sleep" perturbs
      // completion order.
      if (FASTOD_FAULT_POINT("lattice.node")) {
        stages_.RequestStop(NodeStages::kCancelled);
        return;
      }
      ProcessNode(&current_.nodes[i], &found[i]);
    });
    // Merge in node order: deterministic FD emission for any thread
    // count.
    for (const std::vector<ConstancyOd>& f : found) {
      for (const ConstancyOd& fd : f) EmitFd(fd);
    }
  }

  // TANE pruning: delete Cc+-empty nodes; for (super)key nodes, emit the
  // remaining minimal FDs X -> A (A outside X) and delete the node.
  void Prune() {
    Level pruned;
    for (Node& node : current_.nodes) {
      if (node.cc.IsEmpty()) continue;
      const StrippedPartition& partition = cache_.Get(node.set);
      if (partition.IsSuperkey()) {
        AttributeSet outside = node.cc.Minus(node.set);
        for (int a = outside.First(); a >= 0; a = outside.Next(a)) {
          // X -> A is minimal iff A ∈ ∩_{B∈X} Cc+(X ∪ {A} \ {B}).
          bool minimal = true;
          for (int b = node.set.First(); b >= 0 && minimal;
               b = node.set.Next(b)) {
            Node* sibling = current_.Find(node.set.With(a).Without(b));
            if (sibling == nullptr || !sibling->cc.Contains(a)) {
              minimal = false;
            }
          }
          if (minimal) {
            EmitFd(ConstancyOd{node.set, a});
          }
        }
        continue;  // delete key node
      }
      pruned.Add(std::move(node));
    }
    current_ = std::move(pruned);
  }

  Level CalculateNextLevel(int l) {
    Level next;
    struct Pending {
      AttributeSet set;
      AttributeSet parent_a;
      AttributeSet parent_b;
      StrippedPartition product;
    };
    std::vector<Pending> pending;
    std::unordered_map<AttributeSet, std::vector<int32_t>, AttributeSetHash>
        blocks;
    for (int32_t i = 0; i < static_cast<int32_t>(current_.nodes.size());
         ++i) {
      AttributeSet set = current_.nodes[i].set;
      int highest = -1;
      for (int a = set.First(); a >= 0; a = set.Next(a)) highest = a;
      blocks[set.Without(highest)].push_back(i);
    }
    std::vector<AttributeSet> keys;
    keys.reserve(blocks.size());
    for (const auto& [key, members] : blocks) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const AttributeSet& key : keys) {
      std::vector<int32_t>& members = blocks[key];
      std::sort(members.begin(), members.end(),
                [this](int32_t x, int32_t y) {
                  return current_.nodes[x].set < current_.nodes[y].set;
                });
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttributeSet a = current_.nodes[members[i]].set;
          const AttributeSet b = current_.nodes[members[j]].set;
          const AttributeSet candidate = a.Union(b);
          bool all_present = true;
          for (int x = candidate.First(); x >= 0 && all_present;
               x = candidate.Next(x)) {
            if (current_.Find(candidate.Without(x)) == nullptr) {
              all_present = false;
            }
          }
          if (!all_present) continue;
          Node node;
          node.set = candidate;
          next.Add(std::move(node));
          pending.push_back(Pending{candidate, a, b, {}});
        }
      }
    }
    // The products, the bulk of the join's cost at scale. Puts follow in
    // join order, so cache traffic is the same at every thread count.
    // Each product refines the parent with fewer elements by the other's
    // extra attribute.
    stages_.ForEach(static_cast<int64_t>(pending.size()), [&](int64_t i) {
      const AttributeSet a = pending[i].parent_a;
      const AttributeSet b = pending[i].parent_b;
      const StrippedPartition& pa = cache_.Get(a);
      const StrippedPartition& pb = cache_.Get(b);
      pending[i].product =
          pb.NumElements() < pa.NumElements()
              ? pb.Refine(relation_.codes(a.Minus(b).First()))
              : pa.Refine(relation_.codes(b.Minus(a).First()));
    });
    for (Pending& p : pending) {
      cache_.Put(l + 1, p.set, std::move(p.product));
    }
    return next;
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
  PartitionCache cache_;
  Level previous_;
  Level current_;
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
