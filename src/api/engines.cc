#include "api/engines.h"

#include <limits>
#include <utility>

#include "api/od_sink.h"
#include "api/registry.h"
#include "incremental/incremental_engine.h"
#include "report/report.h"

namespace fastod {

namespace {

FastodOptions ApproximateDefaults() {
  FastodOptions defaults;
  defaults.max_error = 0.01;
  return defaults;
}

// Copies the counters a finished FASTOD-family run accumulated into the
// generic telemetry shape (fastod and approximate share FastodResult).
obs::EngineStats StatsOf(const FastodResult& result) {
  obs::EngineStats stats;
  stats.levels_processed = result.levels_processed;
  stats.nodes_visited = result.total_nodes;
  stats.ods_emitted = result.NumOds();
  stats.partition_cache_gets = result.partition_cache_gets;
  stats.partition_cache_puts = result.partition_cache_puts;
  stats.tasks_ready = result.tasks_ready;
  stats.tasks_spawned = result.tasks_spawned;
  stats.tasks_stolen = result.tasks_stolen;
  stats.levels.reserve(result.level_stats.size());
  for (const FastodLevelStats& level : result.level_stats) {
    obs::LevelStats l;
    l.level = level.level;
    l.nodes = level.nodes;
    l.nodes_pruned = level.nodes_pruned;
    l.constancy_checks = level.constancy_checks;
    l.swap_checks = level.swap_checks;
    l.key_prune_hits = level.key_prune_hits;
    l.ods_found = level.constancy_found + level.compatibility_found +
                  level.bidirectional_found;
    l.seconds = level.seconds;
    l.occupancy = level.occupancy;
    stats.nodes_pruned += level.nodes_pruned;
    stats.constancy_checks += level.constancy_checks;
    stats.swap_checks += level.swap_checks;
    stats.key_prune_hits += level.key_prune_hits;
    stats.levels.push_back(l);
  }
  return stats;
}

}  // namespace

// ------------------------------------------------------------- fastod

FastodAlgorithm::FastodAlgorithm()
    : FastodAlgorithm("fastod",
                      "complete, minimal set-based canonical OD discovery "
                      "(Section 4 of the paper)",
                      FastodOptions()) {}

FastodAlgorithm::FastodAlgorithm(std::string name, std::string description,
                                 FastodOptions defaults)
    : Algorithm(std::move(name), std::move(description)),
      opts_(defaults),
      swap_method_choice_(static_cast<int>(defaults.swap_method)) {
  options().AddInt("threads", &opts_.num_threads,
                   "worker threads for intra-level parallelism", 1, 1024);
  AddTimeoutOption();
  options().AddInt("max-level", &opts_.max_level,
                   "stop after lattice level L (0 = none)", 0, 64);
  options().AddDouble("max-error", &opts_.max_error,
                      "approximate g3 threshold (0 = exact)", 0.0, 1.0);
  options().AddBool("bidirectional", &opts_.discover_bidirectional,
                    "also discover opposite-polarity compatibilities");
  options().AddBool("emit-ods", &opts_.emit_ods,
                    "materialize ODs (false = count only)");
  options().AddBool("minimality-pruning", &opts_.minimality_pruning,
                    "candidate-set pruning; false = no-pruning ablation");
  options().AddBool("level-pruning", &opts_.level_pruning,
                    "delete nodes with empty candidate sets (Lemma 11)");
  options().AddBool("key-pruning", &opts_.key_pruning,
                    "skip validations under superkey contexts (Lemmas "
                    "12-13)");
  options().AddBool("level-stats", &opts_.collect_level_stats,
                    "record per-level statistics (Exp-7)");
  options().AddEnum("swap-method", &swap_method_choice_,
                    "swap-check strategy (Section 4.6)",
                    {{"auto", static_cast<int>(SwapCheckMethod::kAuto)},
                     {"sort", static_cast<int>(SwapCheckMethod::kSortBased)},
                     {"tau", static_cast<int>(SwapCheckMethod::kTauBased)}},
                    "auto");
}

Status FastodAlgorithm::ExecuteInternal() {
  FastodOptions run = opts_;
  run.swap_method = static_cast<SwapCheckMethod>(swap_method_choice_);
  run.sink = sink();
  run.control = control();
  result_ = Fastod(run).Discover(relation(), prebuilt_singletons());
  mutable_stats() = StatsOf(result_);
  return Status::Ok();
}

Report FastodAlgorithm::BuildReport() const {
  Report report =
      NewReport(ReportKind::kCanonical, result_.seconds, result_.timed_out);
  report.constancy_ods = result_.constancy_ods;
  report.compatibility_ods = result_.compatibility_ods;
  report.bidirectional_ods = result_.bidirectional_ods;
  // With emit-ods=false the lists are empty but the counts are not.
  report.num_constancy = result_.num_constancy;
  report.num_compatibility = result_.num_compatibility;
  report.num_bidirectional = result_.num_bidirectional;
  report.count_only = !opts_.emit_ods;
  return report;
}

// -------------------------------------------------------- approximate

ApproximateAlgorithm::ApproximateAlgorithm()
    : FastodAlgorithm("approximate",
                      "FASTOD under g3 threshold validity: accept ODs whose "
                      "removal error is at most --max-error",
                      ApproximateDefaults()) {}

// --------------------------------------------------------------- tane

TaneAlgorithm::TaneAlgorithm()
    : Algorithm("tane",
                "TANE: minimal functional dependencies only (the Exp-4 "
                "comparator)") {
  options().AddInt("threads", &opts_.num_threads,
                   "worker threads for intra-level parallelism", 1, 1024);
  AddTimeoutOption();
  options().AddInt("max-level", &opts_.max_level,
                   "stop after lattice level L (0 = none)", 0, 64);
  // Named after fastod's "emit-ods", though it materializes FDs.
  options().AddBool("emit-ods", &opts_.emit_fds,
                    "materialize FDs (false = count only)");
}

Status TaneAlgorithm::ExecuteInternal() {
  TaneOptions run = opts_;
  run.sink = sink();
  run.control = control();
  result_ = Tane(run).Discover(relation(), prebuilt_singletons());
  obs::EngineStats& stats = mutable_stats();
  stats.levels_processed = result_.levels_processed;
  stats.nodes_visited = result_.total_nodes;
  stats.ods_emitted = result_.num_fds;
  stats.partition_cache_gets = result_.partition_cache_gets;
  stats.partition_cache_puts = result_.partition_cache_puts;
  stats.tasks_ready = result_.tasks_ready;
  stats.tasks_spawned = result_.tasks_spawned;
  stats.tasks_stolen = result_.tasks_stolen;
  return Status::Ok();
}

Report TaneAlgorithm::BuildReport() const {
  Report report =
      NewReport(ReportKind::kFunctional, result_.seconds, result_.timed_out);
  report.constancy_ods = result_.fds;
  report.num_constancy = result_.num_fds;
  report.count_only = !opts_.emit_fds;
  return report;
}

// -------------------------------------------------------------- order

OrderAlgorithm::OrderAlgorithm()
    : Algorithm("order",
                "ORDER (Langer & Naumann): list-based baseline, incomplete "
                "by Section 4.5 (the Exp-3 comparator)") {
  AddTimeoutOption();
  options().AddInt("max-level", &opts_.max_level,
                   "stop after list length L (0 = none)", 0, 64);
  options().AddBool("pruning", &opts_.enable_pruning,
                    "swap/split/subtree pruning (false = exhaustive)");
}

Status OrderAlgorithm::ExecuteInternal() {
  OrderOptions run = opts_;
  run.sink = sink();
  run.control = control();
  result_ = OrderBaseline(run).Discover(relation(), prebuilt_singletons());
  obs::EngineStats& stats = mutable_stats();
  stats.levels_processed = result_.levels_processed;
  stats.nodes_visited = result_.total_nodes;
  stats.candidates_checked = result_.candidates_checked;
  stats.candidates_pruned = result_.candidates_pruned;
  stats.ods_emitted = static_cast<int64_t>(result_.ods.size());
  return Status::Ok();
}

Report OrderAlgorithm::BuildReport() const {
  Report report =
      NewReport(ReportKind::kList, result_.seconds, result_.timed_out);
  report.list_ods = result_.ods;
  return report;
}

// -------------------------------------------------------- brute-force

BruteForceAlgorithm::BruteForceAlgorithm()
    : Algorithm("brute-force",
                "exhaustive canonical-OD oracle via the definitional "
                "checks; tiny relations only (<= 16 attributes)") {
  options().AddDouble("max-error", &max_error_,
                      "approximate g3 threshold (0 = exact)", 0.0, 1.0);
  options().AddBool("bidirectional", &bidirectional_,
                    "also discover opposite-polarity compatibilities");
}

Status BruteForceAlgorithm::ExecuteInternal() {
  if (relation().NumAttributes() > 16) {
    return Status::InvalidArgument(
        "brute-force oracle supports at most 16 attributes, got " +
        std::to_string(relation().NumAttributes()));
  }
  result_ = BruteForceDiscoverOds(relation(), max_error_, bidirectional_,
                                  prebuilt_singletons());
  mutable_stats().ods_emitted =
      static_cast<int64_t>(result_.constancy_ods.size() +
                           result_.compatibility_ods.size() +
                           result_.bidirectional_ods.size());
  if (sink() != nullptr) {
    // The oracle materializes regardless, so streaming tees.
    for (const ConstancyOd& od : result_.constancy_ods) {
      sink()->OnConstancy(od);
    }
    for (const CompatibilityOd& od : result_.compatibility_ods) {
      sink()->OnCompatibility(od);
    }
    for (const BidiCompatibilityOd& od : result_.bidirectional_ods) {
      sink()->OnBidirectional(od);
    }
  }
  return Status::Ok();
}

Report BruteForceAlgorithm::BuildReport() const {
  Report report = NewReport(ReportKind::kCanonical, execute_seconds(),
                            /*timed_out=*/false);
  report.constancy_ods = result_.constancy_ods;
  report.compatibility_ods = result_.compatibility_ods;
  report.bidirectional_ods = result_.bidirectional_ods;
  return report;
}

// -------------------------------------------------------- conditional

ConditionalAlgorithm::ConditionalAlgorithm()
    : Algorithm("conditional",
                "conditional ODs over attribute bindings (the Section 7 "
                "future-work extension)"),
      max_condition_cardinality_(opts_.max_condition_cardinality) {
  options().AddDouble("min-support", &opts_.min_support,
                      "minimum covered-tuple fraction", 0.0, 1.0);
  options().AddInt64("limit", &opts_.max_results,
                     "maximum conditional ODs to report", 1,
                     std::numeric_limits<int64_t>::max());
  // max_condition_cardinality is int32_t; stage through a plain int.
  options().AddInt64("max-condition-cardinality",
                     &max_condition_cardinality_,
                     "skip condition attributes with more distinct values",
                     1, std::numeric_limits<int32_t>::max());
}

Status ConditionalAlgorithm::ExecuteInternal() {
  ConditionalOdOptions run = opts_;
  run.max_condition_cardinality =
      static_cast<int32_t>(max_condition_cardinality_);
  ConditionalOdFinder finder(&relation(), prebuilt_singletons());
  result_ = finder.DiscoverConditional(run);
  mutable_stats().ods_emitted = static_cast<int64_t>(result_.size());
  if (sink() != nullptr) {
    for (const ConditionalOd& od : result_) sink()->OnConditional(od);
  }
  return Status::Ok();
}

Report ConditionalAlgorithm::BuildReport() const {
  Report report = NewReport(ReportKind::kConditional, execute_seconds(),
                            /*timed_out=*/false);
  report.min_support = opts_.min_support;
  for (const ConditionalOd& c : result_) {
    // A binding's interned dictionary entry *is* the original value.
    const ValueDictionary& dict = relation().dictionary(c.condition_attribute);
    ReportConditionalOd entry{c.condition_attribute, {}, c.od, c.support};
    for (int32_t rank : c.binding_ranks) {
      entry.bindings.push_back(rank >= 0 && rank < dict.size()
                                   ? dict.ToString(rank)
                                   : "#" + std::to_string(rank));
    }
    report.conditional_ods.push_back(std::move(entry));
  }
  return report;
}

// ----------------------------------------------------------- registry

void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry) {
  registry->Register("fastod", [] {
    return std::unique_ptr<Algorithm>(new FastodAlgorithm());
  });
  registry->Register("tane", [] {
    return std::unique_ptr<Algorithm>(new TaneAlgorithm());
  });
  registry->Register("order", [] {
    return std::unique_ptr<Algorithm>(new OrderAlgorithm());
  });
  registry->Register("brute-force", [] {
    return std::unique_ptr<Algorithm>(new BruteForceAlgorithm());
  });
  registry->Register("approximate", [] {
    return std::unique_ptr<Algorithm>(new ApproximateAlgorithm());
  });
  registry->Register("conditional", [] {
    return std::unique_ptr<Algorithm>(new ConditionalAlgorithm());
  });
  registry->Register("incremental", [] {
    return std::unique_ptr<Algorithm>(new IncrementalAlgorithm());
  });
}

}  // namespace fastod
