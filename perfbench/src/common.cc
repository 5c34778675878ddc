#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

namespace perfbench {

void Result::Check(const std::string& what, const std::string& mismatch) {
  if (mismatch.empty()) return;
  correct = false;
  errors.push_back(what + ": " + mismatch);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.6g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

Tail TailPercentile(std::vector<double> values, double wanted) {
  constexpr size_t min_beyond = 10;
  Tail tail;
  tail.samples = values.size();
  const size_t n = values.size();
  if (n <= min_beyond) return tail;
  std::sort(values.begin(), values.end());
  // Nearest rank: the p-th percentile is the ceil(p/100 * n)-th smallest
  // value, leaving n - rank samples beyond it.
  size_t rank = static_cast<size_t>(std::ceil(wanted / 100.0 * n - 1e-9));
  rank = std::max<size_t>(rank, 1);
  tail.percentile = wanted;
  if (n - std::min(rank, n) < min_beyond) {
    rank = n - min_beyond;
    tail.percentile = 100.0 * static_cast<double>(rank) / n;
  }
  tail.valid = true;
  tail.value = values[rank - 1];
  return tail;
}

void OpenLoopLog::Append(const OpenLoopLog& other) {
  timings_.insert(timings_.end(), other.timings_.begin(),
                  other.timings_.end());
}

size_t OpenLoopLog::failed() const {
  return static_cast<size_t>(
      std::count_if(timings_.begin(), timings_.end(),
                    [](const RequestTiming& t) { return !t.ok; }));
}

std::vector<double> OpenLoopLog::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(timings_.size());
  for (const RequestTiming& t : timings_) {
    if (t.ok) out.push_back(t.done_ms - t.due_ms);
  }
  return out;
}

std::vector<double> OpenLoopLog::LatenciesWithFailuresMs() const {
  std::vector<double> out;
  out.reserve(timings_.size());
  for (const RequestTiming& t : timings_) {
    out.push_back(t.ok ? t.done_ms - t.due_ms
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> OpenLoopLog::LagsMs() const {
  std::vector<double> out;
  out.reserve(timings_.size());
  for (const RequestTiming& t : timings_) out.push_back(t.sent_ms - t.due_ms);
  return out;
}

double OpenLoopLog::AchievedRate() const {
  if (timings_.empty()) return 0.0;
  double first_due = timings_.front().due_ms;
  double last_done = timings_.front().done_ms;
  for (const RequestTiming& t : timings_) {
    first_due = std::min(first_due, t.due_ms);
    last_done = std::max(last_done, t.done_ms);
  }
  const double span_s = (last_done - first_due) / 1000.0;
  const size_t ok = timings_.size() - failed();
  return span_s > 0 ? static_cast<double>(ok) / span_s : 0.0;
}

void WallClock::SleepUntilMs(double ms) const {
  const auto target =
      base_ + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(ms));
  if (target > Clock::now()) std::this_thread::sleep_until(target);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

size_t UsableCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void AddMachineContext(const RunConfig& config, Result* result) {
  result->Context("workload", config.workload);
  result->Context("seed", std::to_string(config.seed));
  result->Context("cores", std::to_string(UsableCores()));
  result->Context("trace", config.trace ? "1" : "0");
}

}  // namespace perfbench
