#include "core/engine.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "log/access_log.h"
#include "storage/chunk.h"

namespace eba {

namespace {

/// The first element of the sorted range [first, last) not less than
/// `value`, galloping forward from `first`: O(log d) when the answer is d
/// elements in, so a scan whose values ascend walks the range once.
const int64_t* GallopLowerBound(const int64_t* first, const int64_t* last,
                                int64_t value) {
  size_t step = 1;
  while (static_cast<size_t>(last - first) > step && first[step] < value) {
    first += step;
    step *= 2;
  }
  return std::lower_bound(
      first, first + std::min(step + 1, static_cast<size_t>(last - first)),
      value);
}

}  // namespace

ExplanationEngine::ExplanationEngine(const Database* db, std::string log_table,
                                     QAttr lid_attr)
    : db_(db), log_table_(std::move(log_table)), lid_attr_(lid_attr) {}

StatusOr<ExplanationEngine> ExplanationEngine::Create(
    const Database* db, const std::string& log_table) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  EBA_ASSIGN_OR_RETURN(const Table* table, db->GetTable(log_table));
  int lid_col = table->schema().ColumnIndex("Lid");
  if (lid_col < 0) {
    return Status::InvalidArgument("log table '" + log_table +
                                   "' has no Lid column");
  }
  return ExplanationEngine(db, log_table, QAttr{0, lid_col});
}

Status ExplanationEngine::AddTemplate(const ExplanationTemplate& tmpl) {
  ExplanationTemplate bound = tmpl.WithLogTable(log_table_);
  EBA_RETURN_IF_ERROR(bound.query().Validate(*db_));
  if (bound.lid_attr() != lid_attr_) {
    return Status::InvalidArgument(
        "template lid attribute does not match engine log table");
  }
  templates_.push_back(std::move(bound));
  return Status::OK();
}

StatusOr<std::vector<ExplanationInstance>> ExplanationEngine::Explain(
    int64_t lid) const {
  return Explain(lid, db_->CreateSnapshot());
}

StatusOr<std::vector<ExplanationInstance>> ExplanationEngine::Explain(
    int64_t lid, const Database::Snapshot& snapshot) const {
  // Per-access explains are planning-bound (tiny frames): share the
  // engine's persistent plan cache so the serving loop replays compiled
  // plans instead of re-planning per request.
  ExecutorOptions options;
  options.plan_cache = plan_cache_.get();
  Executor executor(snapshot, options);
  std::vector<ExplanationInstance> instances;
  std::vector<Value> lids = {Value::Int64(lid)};
  for (const auto& tmpl : templates_) {
    EBA_ASSIGN_OR_RETURN(
        Relation rel,
        executor.MaterializeForLogIds(tmpl.query(), tmpl.lid_attr(), lids));
    for (auto& row : rel.rows) {
      instances.emplace_back(&tmpl, rel.attrs, std::move(row));
    }
  }
  std::stable_sort(instances.begin(), instances.end(),
                   ExplanationInstance::RankLess);
  return instances;
}

StatusOr<std::vector<int64_t>> ExplanationEngine::ExplainedLids(
    size_t index) const {
  return ExplainedLids(index, ExecutorOptions{});
}

StatusOr<std::vector<int64_t>> ExplanationEngine::ExplainedLids(
    size_t index, const ExecutorOptions& executor_options) const {
  return ExplainedLids(index, executor_options, db_->CreateSnapshot());
}

StatusOr<std::vector<int64_t>> ExplanationEngine::ExplainedLids(
    size_t index, const ExecutorOptions& executor_options,
    const Database::Snapshot& snapshot) const {
  if (index >= templates_.size()) {
    return Status::OutOfRange("template index out of range");
  }
  Executor executor(snapshot, executor_options);
  const auto& tmpl = templates_[index];
  // DistinctLids is the semi-join fast path: row ids flow through the whole
  // pipeline and the sorted lid vector is materialized straight from the
  // log's Lid column.
  return executor.DistinctLids(tmpl.query(), tmpl.lid_attr());
}

StatusOr<ExplanationReport> ExplanationEngine::ExplainAll() const {
  return ExplainAll(ExplainAllOptions{});
}

StatusOr<ExplanationReport> ExplanationEngine::ExplainAll(
    const ExplainAllOptions& options) const {
  return ExplainAll(options, db_->CreateSnapshot());
}

StatusOr<ExplanationReport> ExplanationEngine::ExplainAll(
    const ExplainAllOptions& options,
    const Database::Snapshot& snapshot) const {
  EBA_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(log_table_));
  EBA_RETURN_IF_ERROR(AccessLog::Wrap(table).status());

  ExplanationReport report;
  // Everything below — template evaluation AND the classification scan —
  // sees exactly the rows under the snapshot's log watermark, so a report
  // computed while the writer keeps appending equals the report over a
  // quiesced database stopped at the same watermark.
  const size_t log_rows = snapshot.BoundOf(table);
  report.log_size = log_rows;

  const size_t threads = std::max<size_t>(1, options.num_threads);

  // One pool serves both phases (spawn/join threads once per call); null
  // when serial, which ParallelFor runs inline. The calling thread
  // participates in every ParallelFor round, so the pool only needs
  // threads - 1 workers.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);

  // Template evaluation shares the engine's persistent plan cache (unless
  // the caller wired their own), so a repeated ExplainAll skips planning,
  // and the same pool drives probe-phase morsels inside each executor —
  // ParallelFor is nesting-safe, so template fan-out and probe fan-out
  // coexist on the same workers.
  ExecutorOptions exec = options.executor;
  if (exec.plan_cache == nullptr && options.use_engine_plan_cache) {
    exec.plan_cache = plan_cache_.get();
  }
  if (exec.pool == nullptr && pool != nullptr) {
    exec.pool = pool.get();
    if (exec.num_threads <= 1) exec.num_threads = threads;
  }

  // Phase 1: evaluate templates concurrently. Each slot is written by
  // exactly one worker; ExplainedLids constructs a private Executor, and the
  // shared read-only tables serialize lazy index construction internally.
  std::vector<StatusOr<std::vector<int64_t>>> per_template(
      templates_.size(),
      StatusOr<std::vector<int64_t>>(Status::Internal("not evaluated")));
  ParallelFor(pool.get(), templates_.size(), [&](size_t i) {
    per_template[i] = ExplainedLids(i, exec, snapshot);
  });

  // The per-template lid vectors are sorted and distinct; their union is
  // too.
  std::vector<int64_t> explained;
  for (auto& lids_or : per_template) {
    if (!lids_or.ok()) return lids_or.status();
    report.per_template_counts.push_back(lids_or->size());
    std::vector<int64_t> merged;
    merged.reserve(explained.size() + lids_or->size());
    std::set_union(explained.begin(), explained.end(), lids_or->begin(),
                   lids_or->end(), std::back_inserter(merged));
    explained.swap(merged);
  }

  // Phase 2: classify log rows against the merged lid set in contiguous
  // shards, then concatenate per-shard results in shard order. Each shard
  // merges its Lid column run against the union: lids usually ascend with
  // the row, so each search gallops on from the previous lid's position,
  // and a lid below its predecessor restarts from the front. Shard
  // boundaries never reorder rows, so the merged vectors match the serial
  // scan before the final sort — the report is thread-count invariant.
  // Shards align to column-chunk boundaries: a worker's scan stays within
  // the chunks it owns instead of sharing its edge chunks with neighbors.
  const Column& lid_col = table->column(static_cast<size_t>(lid_attr_.col));
  std::vector<ShardRange> shards = SplitShardsAligned(
      log_rows, threads, options.min_rows_per_shard, kColumnChunkRows);
  std::vector<std::vector<int64_t>> shard_explained(shards.size());
  std::vector<std::vector<int64_t>> shard_unexplained(shards.size());
  const int64_t* const union_begin = explained.data();
  const int64_t* const union_end = union_begin + explained.size();
  ParallelFor(pool.get(), shards.size(), [&](size_t s) {
    const int64_t* pos = union_begin;
    int64_t prev = std::numeric_limits<int64_t>::min();
    for (size_t r = shards[s].begin; r < shards[s].end; ++r) {
      const int64_t lid = lid_col.Int64At(r);
      if (lid < prev) pos = union_begin;
      prev = lid;
      pos = GallopLowerBound(pos, union_end, lid);
      if (pos != union_end && *pos == lid) {
        shard_explained[s].push_back(lid);
      } else {
        shard_unexplained[s].push_back(lid);
      }
    }
  });
  for (size_t s = 0; s < shards.size(); ++s) {
    report.explained_lids.insert(report.explained_lids.end(),
                                 shard_explained[s].begin(),
                                 shard_explained[s].end());
    report.unexplained_lids.insert(report.unexplained_lids.end(),
                                   shard_unexplained[s].begin(),
                                   shard_unexplained[s].end());
  }
  std::sort(report.explained_lids.begin(), report.explained_lids.end());
  std::sort(report.unexplained_lids.begin(), report.unexplained_lids.end());
  return report;
}

}  // namespace eba
