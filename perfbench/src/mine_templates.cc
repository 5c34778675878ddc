// mine_templates: the Figure 13 set-up. PaperShaped hospital (~26.9k log
// rows), collaborative groups built from days 1-6, Bridge-2 mining over the
// days 1-6 first-access slice with s = 1%, M = 5, T = 3 and every §3.2.1
// optimisation on. The query layer runs many small support queries of
// different shapes, so planning, estimation and plan-cache misses cost the
// most; it is the only workload that measures core/miner and graph.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "checks.h"
#include "common.h"
#include "core/miner.h"
#include "graph/hierarchy.h"

namespace perfbench {
namespace {

constexpr int kTrainFirstDay = 1;
constexpr int kTrainLastDay = 6;
constexpr int kBridgeLength = 2;
// The hospital is the same in every run: PaperShaped at the generator's
// default seed, the data set of the repository's Fig. 13 harness. The data
// seed alone moves the mining time by up to ~15% (README.md), so runs over
// different seeds would measure the data rather than the program. Nothing
// else in this workload is random.

struct Fixture {
  eba::CareWebData data;
  eba::MinerOptions options;
  size_t log_rows = 0;
  size_t mining_rows = 0;
  double generate_s = 0.0;
  double groups_s = 0.0;
  double warmup_s = 0.0;
  double rss_after_generate_mb = 0.0;
  double rss_after_warmup_mb = 0.0;
};

std::unique_ptr<Fixture> Setup(Tracer* tracer) {
  auto f = std::make_unique<Fixture>();
  const eba::CareWebConfig careweb = eba::CareWebConfig::PaperShaped();
  f->generate_s = TimedSpan(tracer, "careweb", "GenerateCareWeb", 0, 0, [&] {
    f->data = Unwrap(eba::GenerateCareWeb(careweb), "generate");
  });
  f->rss_after_generate_mb = CurrentRssMb();
  eba::Database& db = f->data.db;
  f->log_rows = Unwrap(db.GetTable("Log"), "log table")->num_rows();
  f->groups_s = TimedSpan(tracer, "graph", "BuildGroupsFromDays", 0, 0, [&] {
    Unwrap(eba::BuildGroupsFromDays(&db, "Log", kTrainFirstDay, kTrainLastDay,
                                    "Groups", eba::HierarchyOptions{}),
           "groups");
  });
  const eba::LogSlice train =
      Unwrap(eba::AddLogSlice(&db, "Log", "TrainFirst", kTrainFirstDay,
                              kTrainLastDay, /*first_only=*/true),
             "training slice");
  f->mining_rows = train.lids.size();

  f->options.log_table = "TrainFirst";
  f->options.support_fraction = 0.01;
  f->options.max_length = 5;
  f->options.max_tables = 3;
  f->options.excluded_tables = eba::ExcludedLogsFor(db, "TrainFirst");

  // One full mining pass builds every lazy hash index and statistic the
  // timed runs touch; a shorter pass would leave the longer paths' indexes
  // to the first timed run. Each mining run owns its plan cache, so there
  // is none to fill here.
  f->warmup_s = TimedSpan(tracer, "storage", "warmup", 0, 0, [&] {
    Unwrap(eba::TemplateMiner(&db, f->options).MineOneWay(),
           "warm-up mining");
  });
  f->rss_after_warmup_mb = CurrentRssMb();
  return f;
}

std::set<std::string> TemplateKeys(const eba::MiningResult& mined,
                                   const eba::Database& db) {
  std::set<std::string> keys;
  for (const auto& t : mined.templates) {
    keys.insert(Unwrap(t.tmpl.CanonicalKey(db), "canonical key"));
  }
  return keys;
}

}  // namespace

void RunMineTemplates(const RunConfig& config, Tracer* tracer,
                      Result* result) {
  std::unique_ptr<Fixture> f;
  const std::vector<double> setup_s =
      RepeatSetup(&f, [&] { return Setup(tracer); });
  const eba::Database& db = f->data.db;
  result->Context("log_rows", std::to_string(f->log_rows));
  result->Context("mining_log_rows", std::to_string(f->mining_rows));
  result->Context(
      "data_seed",
      std::to_string(eba::CareWebConfig::PaperShaped().seed) +
          " (generator default; --seed does not change the data)");
  result->Context("wal_flush_policy", "none (no WAL on this workload)");

  const eba::TemplateMiner miner(&db, f->options);
  // One timed mining run; its template set must equal the first one-way
  // run's (§5.3.3: every algorithm mines the same templates). `last_stats`
  // keeps the latest run's counters.
  std::optional<std::set<std::string>> reference;
  eba::MiningStats last_stats;
  auto mine = [&](const char* name, uint64_t rep, auto&& run,
                  std::vector<double>* seconds) {
    eba::StatusOr<eba::MiningResult> mined = eba::Status::Internal("not run");
    const double s =
        TimedSpan(tracer, "miner", name, 0, rep, [&] { mined = run(); });
    ++result->attempted;
    if (!mined.ok()) {
      ++result->failed;
      return;
    }
    seconds->push_back(s);
    std::set<std::string> keys = TemplateKeys(*mined, db);
    if (!reference) {
      reference = std::move(keys);
    } else {
      result->Check(std::string(name) + " vs MineOneWay",
                    CompareTemplateSets(*reference, keys));
    }
    last_stats = mined->stats;
  };
  auto one_way = [&] { return miner.MineOneWay(); };
  auto two_way = [&] { return miner.MineTwoWay(); };
  auto bridged = [&] { return miner.MineBridged(kBridgeLength); };
  std::vector<double> bridged_s, one_way_s, two_way_s;

  if (!config.trace) {
    const auto start = Clock::now();
    for (uint64_t rep = 1;
         SecondsSince(start) < config.seconds || bridged_s.size() < 3;
         ++rep) {
      mine("MineOneWay", rep, one_way, &one_way_s);
      mine("MineBridged(2)", rep, bridged, &bridged_s);
      mine("MineTwoWay", rep, two_way, &two_way_s);
    }
    result->Context("templates_mined",
                    std::to_string(reference ? reference->size() : 0));
    result->Context("mine_bridged_s_reps", JoinValues(bridged_s));
    result->Context("mine_one_way_s_reps", JoinValues(one_way_s));
    result->Context("mine_two_way_s_reps", JoinValues(two_way_s));
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    result->Add("op1_ms", 1000.0 * Median(bridged_s), "ms");
    result->Add("op2_ms", 1000.0 * Median(one_way_s), "ms");
    result->Add("op3_ms", 1000.0 * Median(two_way_s), "ms");
    result->Observe("mine_s", Median(bridged_s), "s");
    return;
  }

  // Traced run: MineBridged(2) only, odd repetitions with recording off so
  // traced and untraced times give the overhead.
  mine("MineOneWay", 0, one_way, &one_way_s);
  std::vector<double> traced_s, untraced_s;
  std::map<int, std::vector<double>> length_s;
  const auto start = Clock::now();
  for (uint64_t rep = 0; SecondsSince(start) < config.seconds || rep < 4;
       ++rep) {
    tracer->set_enabled(rep % 2 == 0);
    const size_t before = bridged_s.size();
    mine("MineBridged(2)", rep + 1, bridged, &bridged_s);
    if (bridged_s.size() == before) continue;
    (rep % 2 == 0 ? traced_s : untraced_s).push_back(bridged_s.back());
    for (const auto& timing : last_stats.timings) {
      length_s[timing.length].push_back(timing.cumulative_seconds);
    }
  }
  tracer->set_enabled(true);
  result->Context("templates_mined",
                  std::to_string(reference ? reference->size() : 0));
  result->Context("mine_bridged_s_reps", JoinValues(bridged_s));

  // The per-layer metrics every workload reports; the rest of this
  // workload's layer figures go to the record's observed block.
  const double support_queries =
      static_cast<double>(last_stats.support_queries);
  result->Add("careweb.generate_s", f->generate_s, "s");
  result->Add("storage.warmup_s", f->warmup_s, "s");
  result->Add("storage.rss_after_generate_mb", f->rss_after_generate_mb, "MB");
  result->Add("storage.rss_after_warmup_mb", f->rss_after_warmup_mb, "MB");
  result->Add("query.plan_cache_hit_rate",
              static_cast<double>(last_stats.plan_cache_hits) /
                  std::max(1.0, support_queries),
              "ratio");
  result->Add("trace.overhead_frac",
              Median(traced_s) / Median(untraced_s) - 1.0, "ratio");

  result->Observe("mine_s", Median(bridged_s), "s");
  result->Observe("graph.groups_build_s", f->groups_s, "s");
  for (const auto& [length, seconds] : length_s) {
    result->Observe("miner.length_s." + std::to_string(length),
                    Median(seconds), "s");
  }
  auto count = [&](const char* name, size_t value) {
    result->Observe(name, static_cast<double>(value), "count");
  };
  count("miner.support_queries", last_stats.support_queries);
  count("miner.support_cache_hits", last_stats.support_cache_hits);
  count("miner.plan_cache_hits", last_stats.plan_cache_hits);
  count("miner.candidates", last_stats.candidates_considered);
  count("miner.skipped_paths", last_stats.skipped_paths);
  result->Observe("miner.ms_per_support_query",
                  1000.0 * Median(bridged_s) / std::max(1.0, support_queries),
                  "ms");
}

}  // namespace perfbench
