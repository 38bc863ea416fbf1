// The dense level arrays shared by the level-wise lattice engines (FASTOD,
// TANE).
//
// A level holds its nodes in join order, each node's stripped partition
// Π*_X, and each node's direct subsets X\A as indices into the level
// below. The apriori join (Algorithm 2) finds every subset of a new node
// anyway, to check that all of them are live; it records the indices it
// finds, and from then on the engines reach parents (candidate sets,
// constancy contexts) and grandparents (FASTOD's swap contexts X\{A,B})
// by index. Only the join looks sets up.
#ifndef FASTOD_ALGO_LATTICE_LEVEL_H_
#define FASTOD_ALGO_LATTICE_LEVEL_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algo/node_stages.h"
#include "data/encode.h"
#include "od/attribute_set.h"
#include "partition/stripped_partition.h"

namespace fastod {

/// `Node` is the engine's per-node state; it must be default-constructible
/// and have an `AttributeSet set` member.
template <typename Node>
struct LatticeLevel {
  int size = 0;  // |X| of every node
  std::vector<Node> nodes;
  /// partitions[i] = Π*_X for X = nodes[i].set.
  std::vector<StrippedPartition> partitions;
  /// parents[i * size + k]: index, in the level below, of nodes[i].set
  /// without its k-th smallest attribute.
  std::vector<int32_t> parents;

  int64_t NumNodes() const { return static_cast<int64_t>(nodes.size()); }

  /// Index in the level below of node i's set without `attr`, a member.
  int32_t Parent(int64_t i, int attr) const {
    return parents[i * size + nodes[i].set.Rank(attr)];
  }

  /// L0 = { {} }, whose partition is one class of all rows.
  static LatticeLevel Root(int64_t num_rows) {
    LatticeLevel level;
    level.nodes.emplace_back();
    level.partitions.push_back(StrippedPartition::Universe(num_rows));
    return level;
  }

  /// L1 = the singletons: copied from `prebuilt` (one partition per
  /// attribute) when given, computed otherwise.
  static LatticeLevel Singletons(
      const EncodedRelation& relation,
      const std::vector<StrippedPartition>* prebuilt) {
    const int m = relation.NumAttributes();
    FASTOD_DCHECK(prebuilt == nullptr ||
                  static_cast<int>(prebuilt->size()) == m);
    LatticeLevel level;
    level.size = 1;
    for (int a = 0; a < m; ++a) {
      level.nodes.emplace_back().set = AttributeSet::Single(a);
      level.partitions.push_back(
          prebuilt != nullptr
              ? (*prebuilt)[a]
              : StrippedPartition::ForAttribute(relation.codes(a)));
      level.parents.push_back(0);
    }
    return level;
  }

  /// Deletes, in place and keeping order, every node i for which
  /// remove(i) is true. remove is called once per node, in node order,
  /// before anything moves, so it may read any node of the level.
  /// Returns the number deleted.
  template <typename Remove>
  int64_t RemoveIf(Remove remove) {
    const int64_t n = NumNodes();
    std::vector<uint8_t> removed(n);
    for (int64_t i = 0; i < n; ++i) removed[i] = remove(i);
    int64_t kept = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (removed[i]) continue;
      if (kept != i) {
        nodes[kept] = std::move(nodes[i]);
        partitions[kept] = std::move(partitions[i]);
        std::copy_n(parents.begin() + i * size, size,
                    parents.begin() + kept * size);
      }
      ++kept;
    }
    nodes.resize(kept);
    partitions.resize(kept);
    parents.resize(kept * size);
    return n - kept;
  }

  /// Algorithm 2: the apriori join. Nodes sharing all but their highest
  /// attribute pair up; a union joins the next level iff all its
  /// `size`-subsets are nodes of this level. Each new partition is the
  /// product of its two generating parents (Section 4.6): the one with
  /// fewer elements, refined by the other's extra attribute. The products
  /// run as one `stages` loop; each adds its two reads to
  /// `*partitions_read`. Node order depends only on the sets.
  LatticeLevel Join(const EncodedRelation& relation, NodeStages* stages,
                    int64_t* partitions_read) const {
    LatticeLevel next;
    next.size = size + 1;
    // Block key: the node's set minus its highest attribute. Two nodes in
    // the same block differ in one attribute.
    std::unordered_map<AttributeSet, int32_t, AttributeSetHash> index;
    std::unordered_map<AttributeSet, std::vector<int32_t>, AttributeSetHash>
        blocks;
    index.reserve(nodes.size());
    for (int32_t i = 0; i < static_cast<int32_t>(nodes.size()); ++i) {
      const AttributeSet set = nodes[i].set;
      index.emplace(set, i);
      int highest = -1;
      for (int a = set.First(); a >= 0; a = set.Next(a)) highest = a;
      blocks[set.Without(highest)].push_back(i);
    }
    // Deterministic iteration: sort block keys.
    std::vector<AttributeSet> keys;
    keys.reserve(blocks.size());
    for (const auto& [key, members] : blocks) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    std::vector<std::pair<int32_t, int32_t>> generators;
    for (const AttributeSet& key : keys) {
      std::vector<int32_t>& members = blocks[key];
      std::sort(members.begin(), members.end(), [this](int32_t x, int32_t y) {
        return nodes[x].set < nodes[y].set;
      });
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttributeSet candidate =
              nodes[members[i]].set.Union(nodes[members[j]].set);
          // All subsets must be live; record them as the new node's
          // parents, in attribute order.
          const size_t row = next.parents.size();
          for (int x = candidate.First(); x >= 0; x = candidate.Next(x)) {
            auto it = index.find(candidate.Without(x));
            if (it == index.end()) break;
            next.parents.push_back(it->second);
          }
          if (next.parents.size() - row != static_cast<size_t>(next.size)) {
            next.parents.resize(row);
            continue;
          }
          next.nodes.emplace_back().set = candidate;
          generators.emplace_back(members[i], members[j]);
        }
      }
    }
    const int64_t n = next.NumNodes();
    next.partitions.resize(n);
    std::vector<uint8_t> built(n);
    stages->ForEach(n, [&](int64_t i) {
      const auto [a, b] = generators[i];
      const AttributeSet set_a = nodes[a].set;
      const AttributeSet set_b = nodes[b].set;
      next.partitions[i] =
          partitions[b].NumElements() < partitions[a].NumElements()
              ? partitions[b].Refine(relation.codes(set_a.Minus(set_b).First()))
              : partitions[a].Refine(
                    relation.codes(set_b.Minus(set_a).First()));
      built[i] = 1;
    });
    *partitions_read += 2 * std::count(built.begin(), built.end(), 1);
    return next;
  }
};

}  // namespace fastod

#endif  // FASTOD_ALGO_LATTICE_LEVEL_H_
