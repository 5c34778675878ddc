// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload audit_full|serve_durable|mine_templates
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 the result line holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, computed from stopwatch timings
// and from spans recorded around every call into a layer. Every run checks
// its outputs; the full record (machine facts, context, errors) and, for a
// traced run, the spans go to files under --out. The last stdout line is
// the result object. The exit code is 0 only when every check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {
namespace {

// The metrics BENCHMARK.json declares. Every workload reports each of them
// (the untraced run the end-to-end ones, the traced run the per-layer ones);
// a workload's own figures go to the record's observed block.
const std::set<std::string> kEndToEnd = {"setup_s", "peak_rss_mb", "op1_ms",
                                         "op2_ms", "op3_ms"};
const std::set<std::string> kPerLayer = {
    "careweb.generate_s",          "storage.warmup_s",
    "storage.rss_after_generate_mb", "storage.rss_after_warmup_mb",
    "query.plan_cache_hit_rate",   "trace.overhead_frac"};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ResultLine(const Result& r) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(r.metrics) + "}";
}

std::string ContextJson(const Result& r) {
  std::string out = "{";
  for (size_t i = 0; i < r.context.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(r.context[i].first) + ": " +
           JsonString(r.context[i].second);
  }
  return out + "}";
}

/// Writes the full record: machine facts (core count, CPU model, build
/// type), context, counts, metrics, observed figures and check failures.
bool WriteRecord(const std::string& path, const Result& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\n", f);
  eba::bench::WriteMachineJson(f, "  ");
  std::string out = "  \"context\": " + ContextJson(r);
  out += ",\n  \"correct\": " + std::string(r.correct ? "true" : "false");
  out += ",\n  \"attempted\": " + std::to_string(r.attempted);
  out += ",\n  \"failed\": " + std::to_string(r.failed);
  out += ",\n  \"failed_frac\": " +
         JsonNumber(r.attempted == 0 ? 0.0
                                     : static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted));
  out += ",\n  \"metrics\": " + MetricsJson(r.metrics);
  out += ",\n  \"observed\": " + MetricsJson(r.observed);
  out += ",\n  \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(r.errors[i]);
  }
  out += "]\n}\n";
  std::fputs(out.c_str(), f);
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload audit_full|serve_durable|"
               "mine_templates --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(config.seconds > 0)) return Usage();
  void (*run)(const RunConfig&, Tracer*, Result*) = nullptr;
  if (config.workload == "audit_full") run = RunAuditFull;
  if (config.workload == "serve_durable") run = RunServeDurable;
  if (config.workload == "mine_templates") run = RunMineTemplates;
  if (run == nullptr) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 config.out_dir.c_str());
    return 1;
  }

  Tracer tracer(config.trace);
  Result result;
  AddMachineContext(config, &result);
  run(config, &tracer, &result);

  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  if (config.trace) {
    for (const auto& [layer, ms] : SelfTimeByLayerMs(tracer.Spans())) {
      result.Observe("self_s." + layer, ms / 1000.0, "s");
    }
    if (!tracer.WriteJsonLines(stem + ".spans.jsonl")) {
      std::fprintf(stderr, "perfbench: cannot write spans\n");
      return 1;
    }
  }
  std::set<std::string> names;
  for (const Metric& m : result.metrics) names.insert(m.name);
  if (names.size() != result.metrics.size() ||
      names != (config.trace ? kPerLayer : kEndToEnd)) {
    std::fprintf(stderr, "perfbench: %s did not report the declared metrics\n",
                 config.workload.c_str());
    return 1;
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  if (!WriteRecord(stem + ".json", result)) {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
    return 1;
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", error.c_str());
  }
  std::printf("# context %s\n# record %s.json\n%s\n",
              ContextJson(result).c_str(), stem.c_str(),
              ResultLine(result).c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
