// Shared plumbing of the repository benchmark: run configuration, the
// result record every workload fills, timing helpers, order statistics
// (medians and the tail-percentile rule), open-loop request accounting
// and machine facts.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_machine.h"
#include "bench_util.h"
#include "common/status.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// True for the traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory inside the checkout (durable stores, span dumps).
  std::string out_dir = ".bench_out";
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload produced. `metrics` are printed on the result
/// line; `context` and `observed` only go to the record file.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<Metric> observed;
  /// One line per failed correctness check.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Context(const std::string& key, const std::string& value) {
    context.emplace_back(key, value);
  }
  /// A measured number the record keeps beside the metrics, for figures
  /// that are not benchmark metrics (see README.md).
  void Observe(const std::string& name, double value,
               const std::string& unit) {
    observed.push_back({name, value, unit});
  }
  /// Records a correctness check; an empty `mismatch` means it passed.
  void Check(const std::string& what, const std::string& mismatch);
};

// Set-up steps whose failure leaves nothing to measure abort the run, with
// no result line, through the harnesses' helpers.
using eba::bench::Check;
using eba::bench::Unwrap;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `fn` inside a span and returns its wall time in seconds.
template <typename Fn>
double TimedSpan(Tracer* tracer, const char* layer, std::string name,
                 uint64_t parent, uint64_t request_id, Fn&& fn) {
  ScopedSpan span(tracer, layer, std::move(name), parent, request_id);
  const auto t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

// --- Order statistics ------------------------------------------------------

/// Median (mean of the middle pair for even sizes); 0 for an empty input.
double Median(std::vector<double> values);

/// `s` as a JSON string literal.
inline std::string JsonString(const std::string& s) {
  return "\"" + eba::bench::JsonEscape(s) + "\"";
}

/// The values joined with spaces, for the record's context.
std::string JoinValues(const std::vector<double>& values);

/// A tail percentile chosen by the benchmark's rule: the wanted percentile
/// when at least ten samples lie beyond its rank, else the highest
/// percentile that still leaves ten samples beyond it. `valid` is false when
/// there are too few samples for any such percentile.
struct Tail {
  bool valid = false;
  double value = 0.0;
  /// The percentile actually reported (== wanted when enough samples).
  double percentile = 0.0;
  size_t samples = 0;
};
Tail TailPercentile(std::vector<double> values, double wanted);

// --- Open-loop accounting --------------------------------------------------

/// One request of an open-loop schedule, in milliseconds on one time base.
struct RequestTiming {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool ok = true;
};

/// Latency counts from the moment a request was due, not from when it was
/// sent, so a stall is charged to every request it delayed; lag is how late
/// the generator sent it.
class OpenLoopLog {
 public:
  void Record(const RequestTiming& t) { timings_.push_back(t); }
  void Append(const OpenLoopLog& other);

  size_t attempted() const { return timings_.size(); }
  size_t failed() const;
  /// Due-to-done latencies of the successful requests.
  std::vector<double> LatenciesMs() const;
  /// Due-to-done latencies with every failed request counted as missing any
  /// limit (+infinity).
  std::vector<double> LatenciesWithFailuresMs() const;
  /// Due-to-sent lateness of every request.
  std::vector<double> LagsMs() const;
  /// Successful requests per second between the first due time and the
  /// last completion.
  double AchievedRate() const;
  const std::vector<RequestTiming>& timings() const { return timings_; }

 private:
  std::vector<RequestTiming> timings_;
};

/// Drives one synchronous connection through an open-loop schedule: waits
/// for each due time (not at all when already late), sends, and records.
/// `clock` provides NowMs() and SleepUntilMs(ms); `op(i)` issues request i
/// and returns whether it succeeded.
template <typename ClockT, typename Op>
void RunOpenLoop(const std::vector<double>& due_ms, ClockT& clock, Op&& op,
                 OpenLoopLog* log) {
  for (size_t i = 0; i < due_ms.size(); ++i) {
    clock.SleepUntilMs(due_ms[i]);
    RequestTiming t;
    t.due_ms = due_ms[i];
    t.sent_ms = clock.NowMs();
    t.ok = op(i);
    t.done_ms = clock.NowMs();
    log->Record(t);
  }
}

/// The real clock for RunOpenLoop: milliseconds since `base`.
class WallClock {
 public:
  explicit WallClock(Clock::time_point base) : base_(base) {}
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - base_)
        .count();
  }
  void SleepUntilMs(double ms) const;

 private:
  Clock::time_point base_;
};

// --- Machine facts ---------------------------------------------------------

/// Peak resident set of this process so far, MiB.
double PeakRssMb();
/// Current resident set, MiB.
double CurrentRssMb();
/// CPUs this process may run on.
size_t UsableCores();
/// Total size of the regular files under `dir`, bytes.
uint64_t DirectoryBytes(const std::string& dir);

/// Records the facts every result's context carries (workload, seed,
/// usable cores); the record adds the CPU model and build type.
void AddMachineContext(const RunConfig& config, Result* result);

// --- Set-up repetitions ----------------------------------------------------

/// Builds `*fixture` with `build()` at least three times and until three
/// seconds were spent, at most 40 times; returns each build's seconds. The
/// previous fixture is destroyed before each build, outside the timing.
template <typename T, typename Fn>
std::vector<double> RepeatSetup(std::unique_ptr<T>* fixture, Fn&& build) {
  constexpr size_t kMinReps = 3, kMaxReps = 40;
  constexpr double kBudgetS = 3.0;
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < kMinReps ||
         (total < kBudgetS && seconds.size() < kMaxReps)) {
    fixture->reset();
    const auto t0 = Clock::now();
    *fixture = build();
    seconds.push_back(SecondsSince(t0));
    total += seconds.back();
  }
  return seconds;
}

// --- Workloads -------------------------------------------------------------

void RunAuditFull(const RunConfig& config, Tracer* tracer, Result* result);
void RunServeDurable(const RunConfig& config, Tracer* tracer, Result* result);
void RunMineTemplates(const RunConfig& config, Tracer* tracer,
                      Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
