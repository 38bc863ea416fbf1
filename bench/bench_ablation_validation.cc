// Ablation of this implementation's own design choices (DESIGN.md Abl-1):
//  * swap-check strategy: per-class sort vs τ-scan vs adaptive (§4.6);
//  * key pruning on/off (Lemmas 12-13);
//  * level pruning on/off (Lemma 11).
// Output counts are identical across all configurations (the property
// tests prove it); only runtime moves.
#include "bench_util.h"
#include "gen/generators.h"

namespace {

using namespace fastod;
using namespace fastod::bench;

void Row(const char* dataset, const char* label,
         const EncodedRelation& rel, FastodOptions options) {
  AlgoCell cell = RunFastod(rel, options, 120.0);
  RecordJson(std::string("dataset=") + dataset + " config=" + label,
             cell.seconds);
  std::printf("  %-28s %-12s %s\n", label, cell.TimeString().c_str(),
              cell.counts.c_str());
}

void Dataset(const char* name, const Table& table) {
  auto rel = EncodedRelation::FromTable(table);
  if (!rel.ok()) return;
  std::printf("\n--- %s (%lld rows x %d attrs) ---\n", name,
              static_cast<long long>(table.NumRows()), table.NumColumns());

  FastodOptions base;
  base.swap_method = SwapCheckMethod::kSortBased;
  Row(name, "swap=sort (baseline)", *rel, base);
  FastodOptions tau = base;
  tau.swap_method = SwapCheckMethod::kTauBased;
  Row(name, "swap=tau", *rel, tau);
  FastodOptions adaptive = base;
  adaptive.swap_method = SwapCheckMethod::kAuto;
  Row(name, "swap=auto", *rel, adaptive);

  FastodOptions no_key = base;
  no_key.key_pruning = false;
  Row(name, "key pruning off", *rel, no_key);
  FastodOptions no_level = base;
  no_level.level_pruning = false;
  Row(name, "level pruning off", *rel, no_level);
  FastodOptions neither = base;
  neither.key_pruning = false;
  neither.level_pruning = false;
  Row(name, "key+level pruning off", *rel, neither);
}

}  // namespace

int main(int argc, char** argv) {
  int scale = ParseScale(argc, argv);
  BenchJson json("bench_ablation_validation", argc, argv);
  PrintHeader("Abl-1 — validation & pruning ablations (ours)",
              "configurations agree on output; swap strategy and the "
              "Lemma 11-13 rules trade only runtime");
  Dataset("flight-like", GenFlightLike(2000 * scale, 12, 42));
  Dataset("ncvoter-like", GenNcvoterLike(2000 * scale, 12, 42));
  Dataset("hepatitis-like", GenHepatitisLike(155, 14, 42));
  Dataset("dbtesma-like", GenDbtesmaLike(1000 * scale, 12, 42));
  return 0;
}
