// Spans for the traced run. The benchmark records one span around each call
// it makes into a layer's public API (name, layer, start, end, parent span,
// request id); spans stay in memory until the run writes them out, and each
// layer's self time is computed from them afterwards.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  /// Spans caused by one request share it; 0 when not request-scoped.
  uint64_t request_id = 0;
  std::string layer;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Collects spans from any thread. A disabled tracer records nothing and
/// hands out span id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off for spans that begin afterwards (the traced
  /// run alternates to measure its own overhead).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  double NowMs() const;
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);

  /// Every recorded span, ordered by id.
  std::vector<Span> Spans() const;
  /// Writes the spans as JSON lines; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  const std::chrono::steady_clock::time_point base_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span for its lifetime when `tracer` is non-null and enabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, std::string name,
             uint64_t parent = 0, uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, to parent child spans on; 0 when not recording.
  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Self time per layer, milliseconds: each span's duration minus the part
/// of its interval covered by the union of its children's intervals.
std::map<std::string, double> SelfTimeByLayerMs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
