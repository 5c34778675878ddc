// The benchmark's correctness checks. Each returns an empty string when the
// two results agree and otherwise describes the first difference, so a run
// can report exactly what diverged.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/engine.h"
#include "core/ingest.h"

namespace perfbench {

/// audit_full: two ExplainAll reports (e.g. at 1 and 4 threads) are equal.
std::string CompareReports(const eba::ExplanationReport& expected,
                           const eba::ExplanationReport& actual);

/// audit_full: an ExplainNew run from row 0 classifies every lid exactly as
/// ExplainAll does.
std::string CompareReplay(const eba::ExplanationReport& full,
                          const eba::StreamingReport& replay);

/// serve_durable: a served payload equals the in-process twin's encoding of
/// the same result, byte for byte.
std::string CompareBytes(const std::string& twin, const std::string& served);

/// serve_durable: the recovered auditor holds the twin's explained set and
/// exactly the rows that were seeded or acknowledged.
std::string CompareRecovered(const eba::StreamingAuditor& recovered,
                             const std::unordered_set<int64_t>& twin_explained,
                             size_t recovered_log_rows,
                             size_t expected_log_rows);

/// mine_templates: two mining runs found the same canonical template keys.
std::string CompareTemplateSets(const std::set<std::string>& expected,
                                const std::set<std::string>& actual);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
