// audit_full: closed loop, one caller repeating full-log ExplainAll over a
// Scaled(10) hospital (~168k log rows) with the five hand-crafted direct
// templates. The query layer and core/engine do nearly all the work; the
// WAL, net and the miner do none, and the five-plan cache always fits.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "checks.h"
#include "common.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "query/executor.h"
#include "query/plan_cache.h"

namespace perfbench {
namespace {

constexpr int kScaleFactor = 10;
// The hospital is the same in every run. Its data seed moves the cost per
// row by up to ~15% either way, and in opposite directions at 1 and 4
// threads (README.md), so runs over different seeds would measure the data
// rather than the program. Nothing else in this workload is random.

struct Fixture {
  eba::CareWebData data;
  std::optional<eba::ExplanationEngine> engine;
  /// Second audit path over the same database: ExplainNew from row 0.
  std::optional<eba::StreamingAuditor> replay;
  /// The warm-up replay's report, kept for the correctness check.
  eba::StreamingReport warm_replay;
  size_t log_rows = 0;
  double generate_s = 0.0;
  double warmup_s = 0.0;
  double rss_after_generate_mb = 0.0;
  double rss_after_warmup_mb = 0.0;
};

/// Generation, template registration and one untimed pass over both audit
/// paths, so lazy indexes, statistics and both plan caches are filled
/// before anything is timed.
std::unique_ptr<Fixture> Setup(size_t threads, Tracer* tracer) {
  auto f = std::make_unique<Fixture>();
  // The generator's default seed, not the run's (see kScaleFactor).
  const eba::CareWebConfig careweb = eba::CareWebConfig::Scaled(kScaleFactor);
  f->generate_s = TimedSpan(tracer, "careweb", "GenerateCareWeb", 0, 0, [&] {
    f->data = Unwrap(eba::GenerateCareWeb(careweb), "generate");
  });
  f->rss_after_generate_mb = CurrentRssMb();
  f->log_rows = Unwrap(f->data.db.GetTable("Log"), "log table")->num_rows();

  const auto templates =
      Unwrap(eba::TemplatesHandcraftedDirect(f->data.db, true), "templates");
  f->engine.emplace(
      Unwrap(eba::ExplanationEngine::Create(&f->data.db, "Log"), "engine"));
  f->replay.emplace(
      Unwrap(eba::StreamingAuditor::Create(&f->data.db, "Log"), "auditor"));
  for (const auto& tmpl : templates) {
    Check(f->engine->AddTemplate(tmpl), "engine template");
    Check(f->replay->AddTemplate(tmpl), "auditor template");
  }

  // Both thread counts of both paths, so no lazy per-thread-count state
  // is left for the first timed call.
  f->warmup_s = TimedSpan(tracer, "storage", "warmup", 0, 0, [&] {
    eba::ExplainAllOptions all;
    eba::StreamingOptions stream;
    for (size_t n : {size_t{1}, threads}) {
      all.num_threads = n;
      Unwrap(f->engine->ExplainAll(all), "warm-up ExplainAll");
      stream.num_threads = n;
      f->replay->ResetAudit();
      f->warm_replay =
          Unwrap(f->replay->ExplainNew(stream), "warm-up ExplainNew");
    }
  });
  f->rss_after_warmup_mb = CurrentRssMb();
  return f;
}

/// One stopwatch-timed full audit; a failed call is counted, not fatal.
std::optional<eba::ExplanationReport> TimedExplainAll(
    const eba::ExplanationEngine& engine, size_t threads, Tracer* tracer,
    uint64_t parent, uint64_t request_id, double* seconds, Result* result) {
  eba::ExplainAllOptions options;
  options.num_threads = threads;
  eba::StatusOr<eba::ExplanationReport> report =
      eba::Status::Internal("not run");
  *seconds = TimedSpan(tracer, "engine",
                       "ExplainAll.t" + std::to_string(threads), parent,
                       request_id,
                       [&] { report = engine.ExplainAll(options); });
  ++result->attempted;
  if (!report.ok()) {
    ++result->failed;
    return std::nullopt;
  }
  return std::move(report).value();
}

}  // namespace

void RunAuditFull(const RunConfig& config, Tracer* tracer, Result* result) {
  const size_t threads = std::min<size_t>(4, UsableCores());
  std::unique_ptr<Fixture> f;
  const std::vector<double> setup_s =
      RepeatSetup(&f, [&] { return Setup(threads, tracer); });
  result->Context("log_rows", std::to_string(f->log_rows));
  result->Context(
      "data_seed",
      std::to_string(eba::CareWebConfig::Scaled(kScaleFactor).seed) +
          " (generator default; --seed does not change the data)");
  result->Context("wal_flush_policy", "none (no WAL on this workload)");
  result->Context("threads_t4", std::to_string(threads));
  const eba::ExplanationEngine& engine = *f->engine;
  const size_t num_templates = engine.num_templates();

  // The first 1-thread report is the reference every later report (at
  // either thread count) must equal byte for byte.
  std::optional<eba::ExplanationReport> reference;
  auto check = [&](const std::optional<eba::ExplanationReport>& report,
                   const char* what) {
    if (!report) return;
    if (!reference) {
      reference = report;
      return;
    }
    result->Check(what, CompareReports(*reference, *report));
  };

  std::vector<double> t1_s, t4_s, replay_t1_s;
  // The second audit path, ResetAudit then ExplainNew from row 0, checked
  // against the reference report.
  auto replay = [&](size_t n, uint64_t parent, uint64_t rep) {
    eba::StreamingOptions options;
    options.num_threads = n;
    eba::StatusOr<eba::StreamingReport> report =
        eba::Status::Internal("not run");
    const double s = TimedSpan(
        tracer, "ingest", "ResetAudit+ExplainNew.t" + std::to_string(n),
        parent, rep, [&] {
          f->replay->ResetAudit();
          report = f->replay->ExplainNew(options);
        });
    ++result->attempted;
    if (!report.ok()) {
      ++result->failed;
    } else if (reference) {
      result->Check("ExplainNew from row 0 vs ExplainAll",
                    CompareReplay(*reference, *report));
    }
    return s;
  };
  const double rows = static_cast<double>(f->log_rows);
  const eba::PlanCache::Stats plan_at_start = engine.plan_cache()->stats();
  if (!config.trace) {
    const auto start = Clock::now();
    while (SecondsSince(start) < config.seconds || t1_s.size() < 3) {
      double s = 0.0;
      check(TimedExplainAll(engine, 1, tracer, 0, 0, &s, result),
            "ExplainAll t1 vs reference");
      t1_s.push_back(s);
      check(TimedExplainAll(engine, threads, tracer, 0, 0, &s, result),
            "ExplainAll t4 vs t1");
      t4_s.push_back(s);
      replay_t1_s.push_back(replay(1, 0, 0));
    }
    if (reference) {
      result->Check("warm-up ExplainNew from row 0 vs ExplainAll",
                    CompareReplay(*reference, f->warm_replay));
    }
    result->Context("explain_all_t1_s", JoinValues(t1_s));
    result->Context("explain_all_t4_s", JoinValues(t4_s));
    result->Context("replay_t1_s", JoinValues(replay_t1_s));
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    result->Add("op1_ms", 1000.0 * Median(t1_s), "ms");
    result->Add("op2_ms", 1000.0 * Median(t4_s), "ms");
    result->Add("op3_ms", 1000.0 * Median(replay_t1_s), "ms");
    result->Observe("audit_rows_per_s_t1", rows / Median(t1_s), "1/s");
    result->Observe("audit_rows_per_s_t4", rows / Median(t4_s), "1/s");
    result->Observe("ingest.replay_rows_per_s_t1", rows / Median(replay_t1_s),
                    "1/s");
    return;
  }

  // Traced run: every call into a layer gets a span, and each layer's time
  // is stopwatch-timed per repetition. Odd repetitions run with recording
  // off, so traced and untraced ExplainAll times give the overhead.
  eba::ThreadPool pool(threads - 1);
  eba::ExecutorOptions exec1;
  exec1.plan_cache = engine.plan_cache();
  eba::ExecutorOptions exec4 = exec1;
  exec4.num_threads = threads;
  exec4.pool = threads > 1 ? &pool : nullptr;
  std::vector<std::vector<double>> tmpl_t1(num_templates),
      tmpl_t4(num_templates);
  std::vector<double> replay_t4_s, traced_t1_s, untraced_t1_s;

  const auto start = Clock::now();
  for (uint64_t rep = 0; SecondsSince(start) < config.seconds || rep < 4;
       ++rep) {
    tracer->set_enabled(rep % 2 == 0);
    ScopedSpan root(tracer, "bench", "audit_full.rep", 0, rep + 1);
    double s = 0.0;
    check(TimedExplainAll(engine, 1, tracer, root.id(), rep + 1, &s, result),
          "ExplainAll t1 vs reference");
    t1_s.push_back(s);
    (rep % 2 == 0 ? traced_t1_s : untraced_t1_s).push_back(s);
    check(TimedExplainAll(engine, threads, tracer, root.id(), rep + 1, &s,
                          result),
          "ExplainAll t4 vs t1");
    t4_s.push_back(s);

    for (size_t i = 0; i < num_templates; ++i) {
      for (size_t n : {size_t{1}, threads}) {
        bool ok = false;
        const double ts = TimedSpan(
            tracer, "query",
            "ExplainedLids." + engine.templates()[i].name() + ".t" +
                std::to_string(n),
            root.id(), rep + 1,
            [&] { ok = engine.ExplainedLids(i, n == 1 ? exec1 : exec4).ok(); });
        ++result->attempted;
        if (!ok) ++result->failed;
        (n == 1 ? tmpl_t1 : tmpl_t4)[i].push_back(ts);
        if (threads == 1) break;
      }
    }
    replay_t1_s.push_back(replay(1, root.id(), rep + 1));
    replay_t4_s.push_back(replay(threads, root.id(), rep + 1));
  }
  tracer->set_enabled(true);

  // The per-layer metrics every workload reports; the rest of this
  // workload's layer figures go to the record's observed block.
  const eba::PlanCache::Stats plan = engine.plan_cache()->stats();
  const double plan_hits = static_cast<double>(plan.hits - plan_at_start.hits);
  const double plan_misses =
      static_cast<double>(plan.misses - plan_at_start.misses);
  result->Add("careweb.generate_s", f->generate_s, "s");
  result->Add("storage.warmup_s", f->warmup_s, "s");
  result->Add("storage.rss_after_generate_mb", f->rss_after_generate_mb, "MB");
  result->Add("storage.rss_after_warmup_mb", f->rss_after_warmup_mb, "MB");
  result->Add("query.plan_cache_hit_rate",
              plan_hits / std::max(1.0, plan_hits + plan_misses), "ratio");
  result->Add("trace.overhead_frac",
              Median(traced_t1_s) / Median(untraced_t1_s) - 1.0, "ratio");

  result->Observe("engine.explain_all_s_t1", Median(t1_s), "s");
  result->Observe("engine.explain_all_s_t4", Median(t4_s), "s");
  // Whatever the per-template evaluations do not account for: the lid-set
  // merge and the classification scan.
  double template_sum = 0.0;
  for (const auto& seconds : tmpl_t1) template_sum += Median(seconds);
  result->Observe("engine.merge_classify_s", Median(t1_s) - template_sum, "s");
  size_t long_pole = 0;
  for (size_t i = 0; i < num_templates; ++i) {
    const std::string& name = engine.templates()[i].name();
    result->Observe("query.template_s." + name, Median(tmpl_t1[i]), "s");
    result->Observe("query.template_s_t4." + name,
                    Median(tmpl_t4[i].empty() ? tmpl_t1[i] : tmpl_t4[i]), "s");
    if (Median(tmpl_t1[i]) > Median(tmpl_t1[long_pole])) long_pole = i;

    // Exact executor counts from one untimed evaluation of the template.
    eba::Executor executor(f->data.db.CreateSnapshot(), exec1);
    const auto& tmpl = engine.templates()[i];
    Check(executor.DistinctLids(tmpl.query(), tmpl.lid_attr()).status(),
          "DistinctLids");
    result->Observe("query.rows_emitted." + name,
                    static_cast<double>(executor.last_stats().rows_emitted),
                    "count");
    result->Observe(
        "query.peak_intermediate." + name,
        static_cast<double>(executor.last_stats().peak_intermediate), "count");
  }
  result->Context("long_pole_template", engine.templates()[long_pole].name());
  result->Observe("query.long_pole_share",
                  Median(tmpl_t1[long_pole]) / Median(t1_s), "ratio");
  result->Observe("ingest.replay_rows_per_s_t1", rows / Median(replay_t1_s),
                  "1/s");
  result->Observe("ingest.replay_rows_per_s_t4", rows / Median(replay_t4_s),
                  "1/s");
}

}  // namespace perfbench
