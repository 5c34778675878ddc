// Self-test of the benchmark's own logic: the tail-percentile rule,
// open-loop lateness accounting, span self time, set-up timing, and that
// every correctness check rejects a result with one lid flipped.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "checks.h"
#include "common.h"
#include "core/ingest.h"
#include "net/protocol.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the rule must sort
}

TEST(TailPercentile, WantedPercentileWhenTenSamplesLieBeyond) {
  const Tail tail = TailPercentile(OneTo(1000), 99.0);
  ASSERT_TRUE(tail.valid);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);  // 10 samples (991..1000) beyond
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(TailPercentile, FallsBackToHighestPercentileWithTenBeyond) {
  const Tail tail = TailPercentile(OneTo(500), 99.0);
  ASSERT_TRUE(tail.valid);
  EXPECT_DOUBLE_EQ(tail.value, 490.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 98.0);
}

TEST(TailPercentile, MedianAndTooFewSamples) {
  EXPECT_DOUBLE_EQ(TailPercentile(OneTo(100), 50.0).value, 50.0);
  EXPECT_FALSE(TailPercentile(OneTo(10), 99.0).valid);
  const Tail eleven = TailPercentile(OneTo(11), 99.0);
  ASSERT_TRUE(eleven.valid);
  EXPECT_DOUBLE_EQ(eleven.value, 1.0);
}

/// Fake clock for RunOpenLoop: sleeping jumps to the due time, requests
/// advance time by their service time.
struct FakeClock {
  double now = 0.0;
  double NowMs() const { return now; }
  void SleepUntilMs(double ms) { now = std::max(now, ms); }
};

TEST(OpenLoop, LatencyCountsFromDueTimeAndLagShowsTheStall) {
  FakeClock clock;
  // One request per ms; the first takes 5 ms, the rest 0.5 ms.
  const std::vector<double> due = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  OpenLoopLog log;
  RunOpenLoop(
      due, clock,
      [&](size_t i) {
        clock.now += i == 0 ? 5.0 : 0.5;
        return i != 9;  // the last one fails
      },
      &log);
  ASSERT_EQ(log.attempted(), 10u);
  EXPECT_EQ(log.failed(), 1u);
  const std::vector<double> latency = log.LatenciesMs();
  const std::vector<double> lag = log.LagsMs();
  EXPECT_DOUBLE_EQ(latency[0], 5.0);
  // Request 1 was due at 1 but sent at 5: it waited 4 ms and is charged
  // 4.5 ms, not its 0.5 ms service time.
  EXPECT_DOUBLE_EQ(lag[1], 4.0);
  EXPECT_DOUBLE_EQ(latency[1], 4.5);
  // The backlog drains by 0.5 ms per request: sent at 5.5 for due 2.
  EXPECT_DOUBLE_EQ(lag[2], 3.5);
  // The backlog has nearly drained by request 8.
  EXPECT_DOUBLE_EQ(lag[8], 0.5);
  EXPECT_EQ(latency.size(), 9u);  // failures are not latencies...
  const std::vector<double> with_failures = log.LatenciesWithFailuresMs();
  EXPECT_TRUE(std::isinf(with_failures[9]));  // ...they miss every limit
}

/// A fixture whose teardown is slow: the benchmark's own work, which set-up
/// time must not include.
struct SlowTeardown {
  ~SlowTeardown() {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
};

TEST(RepeatSetup, TearsTheLastFixtureDownOutsideTheTiming) {
  std::unique_ptr<SlowTeardown> fixture;
  size_t builds = 0;
  const std::vector<double> seconds = RepeatSetup(&fixture, [&] {
    ++builds;
    return std::make_unique<SlowTeardown>();
  });
  ASSERT_GE(seconds.size(), 3u);
  EXPECT_EQ(seconds.size(), builds);
  EXPECT_NE(fixture, nullptr);  // the last build is kept for the run
  for (double s : seconds) EXPECT_LT(s, 0.03);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans;
  auto add = [&](uint64_t id, uint64_t parent, const char* layer,
                 double start, double end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.layer = layer;
    s.start_ms = start;
    s.end_ms = end;
    spans.push_back(s);
  };
  add(1, 0, "bench", 0, 10);
  add(2, 1, "query", 1, 3);
  add(3, 1, "query", 2, 5);   // overlaps span 2 (parallel child)
  add(4, 1, "engine", 8, 12); // runs past its parent's end
  add(5, 4, "query", 9, 10);
  const auto self = SelfTimeByLayerMs(spans);
  // bench: 10 - |[1,5] ∪ [8,10]| = 10 - 6 = 4.
  EXPECT_DOUBLE_EQ(self.at("bench"), 4.0);
  EXPECT_DOUBLE_EQ(self.at("query"), 2.0 + 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(self.at("engine"), 4.0 - 1.0);
}

TEST(Spans, TracerRecordsOnlyWhileEnabled) {
  Tracer tracer(true);
  uint64_t parent = 0;
  {
    ScopedSpan outer(&tracer, "bench", "outer", 0, 7);
    parent = outer.id();
    ScopedSpan inner(&tracer, "query", "inner", outer.id(), 7);
  }
  tracer.set_enabled(false);
  { ScopedSpan ignored(&tracer, "query", "ignored"); }
  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_EQ(spans[1].request_id, 7u);
  EXPECT_LE(spans[0].start_ms, spans[1].start_ms);
  EXPECT_GE(spans[0].end_ms, spans[1].end_ms);
}

eba::ExplanationReport SampleReport() {
  eba::ExplanationReport r;
  r.log_size = 6;
  r.per_template_counts = {3, 1};
  r.explained_lids = {1, 2, 4};
  r.unexplained_lids = {3, 5, 6};
  return r;
}

TEST(Checks, ReportComparisonRejectsOneFlippedLid) {
  const eba::ExplanationReport a = SampleReport();
  EXPECT_EQ(CompareReports(a, a), "");
  eba::ExplanationReport b = a;
  b.explained_lids[1] = 3;  // lid 2 -> 3
  EXPECT_NE(CompareReports(a, b), "");
  b = a;
  b.unexplained_lids[0] = 2;
  EXPECT_NE(CompareReports(a, b), "");
}

TEST(Checks, ReplayComparisonRejectsOneFlippedLid) {
  const eba::ExplanationReport full = SampleReport();
  eba::StreamingReport replay;
  replay.audited_from = 0;
  replay.audited_to = full.log_size;
  replay.per_template_counts = full.per_template_counts;
  replay.explained_lids = full.explained_lids;
  replay.unexplained_lids = full.unexplained_lids;
  EXPECT_EQ(CompareReplay(full, replay), "");
  replay.explained_lids[2] = 5;
  EXPECT_NE(CompareReplay(full, replay), "");
}

TEST(Checks, PayloadComparisonRejectsOneFlippedLid) {
  eba::StreamingReport report;
  report.audited_from = 10;
  report.audited_to = 14;
  report.per_template_counts = {2};
  report.explained_lids = {11, 12};
  report.unexplained_lids = {13, 14};
  const std::string twin = eba::EncodeStreamingReport(report);
  EXPECT_EQ(CompareBytes(twin, twin), "");
  report.explained_lids[0] = 13;
  EXPECT_NE(CompareBytes(twin, eba::EncodeStreamingReport(report)), "");

  eba::ExplainResult explained;
  explained.explained = true;
  explained.template_names = {"repeat_access"};
  eba::ExplainResult not_explained;
  EXPECT_NE(CompareBytes(eba::EncodeExplainResult(explained),
                         eba::EncodeExplainResult(not_explained)),
            "");
}

TEST(Checks, RecoveredStateRejectsOneFlippedLid) {
  eba::CareWebData data =
      eba::GenerateCareWeb(eba::CareWebConfig::Tiny()).value();
  auto auditor = eba::StreamingAuditor::Create(&data.db, "Log").value();
  const auto templates =
      eba::TemplatesHandcraftedDirect(data.db, true).value();
  for (const auto& tmpl : templates) {
    ASSERT_TRUE(auditor.AddTemplate(tmpl).ok());
  }
  ASSERT_TRUE(auditor.ExplainNew().ok());
  const size_t rows = data.db.GetTable("Log").value()->num_rows();
  std::unordered_set<int64_t> twin = auditor.explained_lids();
  ASSERT_FALSE(twin.empty());
  EXPECT_EQ(CompareRecovered(auditor, twin, rows, rows), "");
  EXPECT_NE(CompareRecovered(auditor, twin, rows, rows + 1), "");
  const int64_t lid = *twin.begin();
  twin.erase(lid);
  twin.insert(-lid);  // one lid flipped to one the log does not have
  EXPECT_NE(CompareRecovered(auditor, twin, rows, rows), "");
}

TEST(Checks, TemplateSetComparisonRejectsOneChangedTemplate) {
  const std::set<std::string> a = {"k1", "k2"};
  EXPECT_EQ(CompareTemplateSets(a, a), "");
  EXPECT_NE(CompareTemplateSets(a, {"k1", "k3"}), "");
  EXPECT_NE(CompareTemplateSets(a, {"k1"}), "");
}

}  // namespace
}  // namespace perfbench
