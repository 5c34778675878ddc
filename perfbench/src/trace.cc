#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), base_(std::chrono::steady_clock::now()) {}

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - base_)
      .count();
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request_id\": %llu, "
                 "\"layer\": %s, \"name\": %s, \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 JsonString(s.layer).c_str(), JsonString(s.name).c_str(),
                 s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* layer, std::string name,
                       uint64_t parent, uint64_t request_id)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.request_id = request_id;
  span_.layer = layer;
  span_.name = std::move(name);
  span_.start_ms = tracer_->NowMs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ms = tracer_->NowMs();
  tracer_->Record(std::move(span_));
}

std::map<std::string, double> SelfTimeByLayerMs(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Clip each child to the parent, then measure the union of the
      // clipped intervals (children on parallel threads may overlap).
      std::vector<std::pair<double, double>> parts;
      for (const auto& [begin, end] : it->second) {
        const double b = std::max(begin, s.start_ms);
        const double e = std::min(end, s.end_ms);
        if (e > b) parts.emplace_back(b, e);
      }
      std::sort(parts.begin(), parts.end());
      double run_begin = 0.0, run_end = -1.0;
      for (const auto& [b, e] : parts) {
        if (b > run_end) {
          if (run_end > run_begin) covered += run_end - run_begin;
          run_begin = b;
          run_end = e;
        } else {
          run_end = std::max(run_end, e);
        }
      }
      if (run_end > run_begin) covered += run_end - run_begin;
    }
    self[s.layer] += (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

}  // namespace perfbench
