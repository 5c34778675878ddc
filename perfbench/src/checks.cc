#include "checks.h"

#include <algorithm>
#include <string>

namespace perfbench {
namespace {

std::string CompareLids(const char* what, const std::vector<int64_t>& a,
                        const std::vector<int64_t>& b) {
  if (a == b) return "";
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  std::string out = std::string(what) + " differ at position " +
                    std::to_string(i) + " (sizes " + std::to_string(a.size()) +
                    " vs " + std::to_string(b.size());
  if (i < n) {
    out += ", lid " + std::to_string(a[i]) + " vs " + std::to_string(b[i]);
  }
  return out + ")";
}

}  // namespace

std::string CompareReports(const eba::ExplanationReport& expected,
                           const eba::ExplanationReport& actual) {
  if (expected.log_size != actual.log_size) {
    return "log sizes differ: " + std::to_string(expected.log_size) + " vs " +
           std::to_string(actual.log_size);
  }
  if (expected.per_template_counts != actual.per_template_counts) {
    return "per-template counts differ";
  }
  std::string diff = CompareLids("explained lids", expected.explained_lids,
                                 actual.explained_lids);
  if (!diff.empty()) return diff;
  return CompareLids("unexplained lids", expected.unexplained_lids,
                     actual.unexplained_lids);
}

std::string CompareReplay(const eba::ExplanationReport& full,
                          const eba::StreamingReport& replay) {
  if (replay.audited_from != 0 || replay.audited_to != full.log_size) {
    return "replay audited rows [" + std::to_string(replay.audited_from) +
           ", " + std::to_string(replay.audited_to) + "), log has " +
           std::to_string(full.log_size);
  }
  if (replay.per_template_counts != full.per_template_counts) {
    return "per-template counts differ";
  }
  std::string diff = CompareLids("explained lids", full.explained_lids,
                                 replay.explained_lids);
  if (!diff.empty()) return diff;
  return CompareLids("unexplained lids", full.unexplained_lids,
                     replay.unexplained_lids);
}

std::string CompareBytes(const std::string& twin, const std::string& served) {
  if (twin == served) return "";
  const size_t n = std::min(twin.size(), served.size());
  size_t i = 0;
  while (i < n && twin[i] == served[i]) ++i;
  return "payloads differ at byte " + std::to_string(i) + " (sizes " +
         std::to_string(twin.size()) + " vs " + std::to_string(served.size()) +
         ")";
}

std::string CompareRecovered(const eba::StreamingAuditor& recovered,
                             const std::unordered_set<int64_t>& twin_explained,
                             size_t recovered_log_rows,
                             size_t expected_log_rows) {
  if (recovered_log_rows != expected_log_rows) {
    return "recovered log has " + std::to_string(recovered_log_rows) +
           " rows, expected " + std::to_string(expected_log_rows);
  }
  if (!recovered.ExplainedSetEquals(twin_explained)) {
    return "explained set differs from the twin's (" +
           std::to_string(recovered.explained_count()) + " vs " +
           std::to_string(twin_explained.size()) + " lids)";
  }
  return "";
}

std::string CompareTemplateSets(const std::set<std::string>& expected,
                                const std::set<std::string>& actual) {
  if (expected == actual) return "";
  for (const std::string& key : expected) {
    if (actual.count(key) == 0) return "missing template " + key;
  }
  for (const std::string& key : actual) {
    if (expected.count(key) == 0) return "unexpected template " + key;
  }
  return "template sets differ";
}

}  // namespace perfbench
