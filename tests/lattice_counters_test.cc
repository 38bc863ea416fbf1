// Pins the search counters of the level-wise engines (FASTOD, TANE) on two
// generated relations: partitions read and stored, and FASTOD's per-level
// check and pruning counts. These numbers describe the search itself, so
// a change to how the lattice is bookkept — indices, partition storage,
// thread count — must leave every one of them as it is.
#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "data/encode.h"
#include "gen/generators.h"

namespace fastod {
namespace {

// Per level: constancy_checks, swap_checks, key_prune_hits, nodes_pruned.
using LevelCounts = std::array<int64_t, 4>;

struct CounterPin {
  const char* name;
  Table (*generate)();
  int64_t fastod_gets;
  int64_t fastod_puts;
  std::vector<LevelCounts> fastod_levels;
  int64_t tane_gets;
  int64_t tane_puts;
  int64_t tane_nodes;
  int64_t tane_fds;
};

Table Hepatitis() { return GenHepatitisLike(155, 16, 7); }
Table Flight() { return GenFlightLike(20000, 10, 7); }

const CounterPin kPins[] = {
    {"hepatitis_155x16",
     Hepatitis,
     232632,
     30798,
     {{16, 0, 0, 0},
      {210, 105, 0, 15},
      {1365, 1365, 0, 0},
      {5460, 8190, 0, 0},
      {15015, 30030, 0, 0},
      {29940, 75075, 90, 0},
      {40092, 130641, 1318, 0},
      {25644, 132450, 1774, 0},
      {4986, 59421, 607, 133},
      {166, 8337, 30, 738},
      {0, 228, 0, 187}},
     179966,
     18734,
     18733,
     4915},
    {"flight_20000x10",
     Flight,
     1544,
     333,
     {{10, 0, 0, 0},
      {56, 36, 16, 10},
      {135, 155, 0, 2},
      {160, 304, 0, 0},
      {91, 272, 0, 0},
      {19, 102, 0, 0},
      {0, 10, 0, 1}},
     791,
     128,
     127,
     19},
};

// Prints the pin by name: its raw bytes hold pointers, which would put
// addresses into the test names.
void PrintTo(const CounterPin& pin, std::ostream* os) { *os << pin.name; }

class LatticeCountersTest : public ::testing::TestWithParam<CounterPin> {};

TEST_P(LatticeCountersTest, FastodCountersArePinned) {
  const CounterPin& pin = GetParam();
  EncodedRelation rel = EncodedRelation::FromTable(pin.generate()).value();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    FastodOptions opt;
    opt.num_threads = threads;
    FastodResult r = Fastod(opt).Discover(rel);
    EXPECT_EQ(r.partition_cache_gets, pin.fastod_gets);
    EXPECT_EQ(r.partition_cache_puts, pin.fastod_puts);
    std::vector<LevelCounts> levels;
    for (const FastodLevelStats& s : r.level_stats) {
      levels.push_back({s.constancy_checks, s.swap_checks, s.key_prune_hits,
                        s.nodes_pruned});
    }
    EXPECT_EQ(levels, pin.fastod_levels);
  }
}

TEST_P(LatticeCountersTest, TaneCountersArePinned) {
  const CounterPin& pin = GetParam();
  EncodedRelation rel = EncodedRelation::FromTable(pin.generate()).value();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TaneOptions opt;
    opt.num_threads = threads;
    TaneResult r = Tane(opt).Discover(rel);
    EXPECT_EQ(r.partition_cache_gets, pin.tane_gets);
    EXPECT_EQ(r.partition_cache_puts, pin.tane_puts);
    EXPECT_EQ(r.total_nodes, pin.tane_nodes);
    EXPECT_EQ(r.num_fds, pin.tane_fds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedRelations, LatticeCountersTest, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<CounterPin>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fastod
