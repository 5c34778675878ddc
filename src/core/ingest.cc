#include "core/ingest.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "log/access_log.h"
#include "storage/chunk.h"

namespace eba {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// `*acc` = `*acc` ∪ `add`, both sorted and distinct.
void UnionInto(std::vector<int64_t>* acc, const std::vector<int64_t>& add) {
  const auto mid = static_cast<std::ptrdiff_t>(acc->size());
  acc->insert(acc->end(), add.begin(), add.end());
  std::inplace_merge(acc->begin(), acc->begin() + mid, acc->end());
  acc->erase(std::unique(acc->begin(), acc->end()), acc->end());
}

}  // namespace

StreamingAuditor::StreamingAuditor(Database* db, ExplanationEngine engine)
    : db_(db),
      engine_(std::move(engine)),
      audit_mu_(std::make_unique<Mutex>()),
      writer_mu_(std::make_unique<Mutex>()),
      snapshot_(db->CreateSnapshot()) {
  // The stored baseline is for drift comparison only; holding its pin
  // would block tail reclamation between audits.
  snapshot_.ReleasePin();
}

StatusOr<StreamingAuditor> StreamingAuditor::Create(
    Database* db, const std::string& log_table) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  EBA_ASSIGN_OR_RETURN(const Table* table, db->GetTable(log_table));
  // Wrap validates the full standard log schema up front (Create of the
  // engine only checks Lid), so ExplainNew's scan cannot fail later.
  EBA_RETURN_IF_ERROR(AccessLog::Wrap(table).status());
  EBA_ASSIGN_OR_RETURN(ExplanationEngine engine,
                       ExplanationEngine::Create(db, log_table));
  return StreamingAuditor(db, std::move(engine));
}

Status StreamingAuditor::AddTemplate(const ExplanationTemplate& tmpl) {
  return engine_.AddTemplate(tmpl);
}

namespace {

/// Row-atomic append shared by the log and foreign paths: on a validation
/// error, rows before the offender are already appended.
Status AppendToTable(Table* table, const std::vector<Row>& rows) {
  table->Reserve(table->num_rows() + rows.size());
  for (const Row& row : rows) {
    EBA_RETURN_IF_ERROR(table->AppendRow(row));
  }
  return Status::OK();
}

}  // namespace

Status StreamingAuditor::AppendTableLocked(const std::string& table_name,
                                           Table* table,
                                           const std::vector<Row>& rows) {
  if (durable_ == nullptr) return AppendToTable(table, rows);
  // Durable appends are batch-atomic: validate everything up front so the
  // WAL never commits a row the apply step could reject, then write-ahead,
  // then apply (which cannot fail post-validation).
  for (const Row& row : rows) {
    EBA_RETURN_IF_ERROR(table->ValidateRow(row));
  }
  EBA_RETURN_IF_ERROR(durable_->wal->AppendRecord(
      kWalAppendBatch, EncodeAppendPayload(table_name, rows)));
  EBA_RETURN_IF_ERROR(durable_->wal->Commit());
  table->Reserve(table->num_rows() + rows.size());
  for (const Row& row : rows) {
    table->AppendValidatedRow(row);  // pre-validated above
  }
  return Status::OK();
}

Status StreamingAuditor::AppendAccessBatch(const std::vector<Row>& rows) {
  MutexLock lock(*writer_mu_);
  return AppendAccessBatchLocked(rows);
}

Status StreamingAuditor::AppendAccessBatchLocked(const std::vector<Row>& rows) {
  EBA_ASSIGN_OR_RETURN(Table* table, db_->GetTable(engine_.log_table()));
  EBA_RETURN_IF_ERROR(AppendTableLocked(engine_.log_table(), table, rows));
  rows_appended_.Add(rows.size());
  batches_appended_.Increment();
  return Status::OK();
}

Status StreamingAuditor::AppendRows(const std::string& table_name,
                                    const std::vector<Row>& rows) {
  MutexLock lock(*writer_mu_);
  if (table_name == engine_.log_table()) return AppendAccessBatchLocked(rows);
  EBA_ASSIGN_OR_RETURN(Table* table, db_->GetTable(table_name));
  EBA_RETURN_IF_ERROR(AppendTableLocked(table_name, table, rows));
  foreign_rows_appended_.Add(rows.size());
  return Status::OK();
}

void StreamingAuditor::ResetAudit() {
  MutexLock lock(*audit_mu_);
  ResetAuditLocked();
}

void StreamingAuditor::ResetAuditLocked() {
  explained_.clear();
  audited_rows_ = 0;
  prefix_max_lid_.reset();
}

Status StreamingAuditor::EnableDurability(const DurabilityOptions& options) {
  MutexLock audit_lock(*audit_mu_);
  MutexLock writer_lock(*writer_mu_);
  if (durable_ != nullptr) {
    return Status::FailedPrecondition("durability already enabled");
  }
  auto d = std::make_unique<DurableState>();
  d->options = options;
  d->env = options.env != nullptr ? options.env : RealEnv();
  d->store = std::make_unique<CheckpointStore>(d->env, options.dir);
  EBA_RETURN_IF_ERROR(d->store->Init());
  durable_ = std::move(d);
  // Seed the store with a full image of the current database + audit state;
  // this also opens the first WAL.
  Status s = CheckpointLocked(/*full=*/true);
  if (!s.ok()) durable_.reset();  // don't leave a half-enabled layer behind
  return s;
}

Status StreamingAuditor::Checkpoint(bool full) {
  MutexLock audit_lock(*audit_mu_);
  MutexLock writer_lock(*writer_mu_);
  return CheckpointLocked(full);
}

Status StreamingAuditor::CheckpointLocked(bool full) {
  if (durable_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  DurableState& d = *durable_;
  if (!full) {
    const uint32_t interval = d.options.full_checkpoint_interval;
    if (interval > 0 && d.checkpoints_since_full + 1 >= interval) full = true;
    // Structural/catalog drift invalidates the base image's rows-only
    // delta; segments would silently resurrect overwritten cells.
    if (d.wal != nullptr && db_->CreateSnapshot()
                                .DriftSince(d.last_ckpt_snapshot)
                                .RequiresRebuild()) {
      full = true;
    }
  }

  AuditState audit;
  audit.audited_rows = audited_rows_;
  audit.explained_lids = explained_.ToSortedVector();
  // Watermarks as of the last completed audit (snapshot_), NOT current row
  // counts: rows appended since the last audit must re-surface as drift
  // after recovery or the delta pass would silently skip them.
  for (const auto& tv : snapshot_.tables()) {
    audit.audit_watermarks[tv.name] = tv.watermark;
  }

  // Floor the sequence at the live WAL's successor: after a recovery the
  // open WAL (seq = highest replayed + 1) can outrank CURRENT, and reusing
  // any sequence <= it would pair this checkpoint with an existing log file
  // whose stale records the next recovery would replay on top of the image.
  EBA_ASSIGN_OR_RETURN(
      const uint64_t seq,
      d.store->Prepare(*db_, audit, full, /*min_seq=*/d.wal_seq + 1));
  // The paired WAL must exist before the checkpoint becomes CURRENT:
  // recovery replays wal-<seq> and may legitimately find it empty, but not
  // missing work that only lived in the previous WAL after GC.
  EBA_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> wal,
      WalWriter::Open(d.env, d.store->WalPath(seq), d.options.sync));
  EBA_RETURN_IF_ERROR(d.store->Publish(seq));
  if (d.wal != nullptr) EBA_RETURN_IF_ERROR(d.wal->Close());
  d.wal = std::move(wal);
  d.wal_seq = seq;
  d.checkpoints_since_full = full ? 0 : d.checkpoints_since_full + 1;
  d.last_ckpt_snapshot = db_->CreateSnapshot();
  d.last_ckpt_snapshot.ReleasePin();  // drift baseline only
  return Status::OK();
}

Status StreamingAuditor::AdoptRecoveredState(CheckpointContents&& ckpt,
                                             Env* env,
                                             const DurabilityOptions& options,
                                             uint64_t new_wal_seq) {
  MutexLock audit_lock(*audit_mu_);
  MutexLock writer_lock(*writer_mu_);
  explained_.Insert(std::move(ckpt.audit.explained_lids));
  audited_rows_ = static_cast<size_t>(ckpt.audit.audited_rows);
  prefix_max_lid_.reset();  // derived by the converging ExplainNew
  // Current generation/epochs (the recovered tables are this auditor's
  // reality now) but the *checkpointed* audit watermarks, so appends that
  // happened after the last audit — checkpointed rows and replayed WAL rows
  // alike — classify as drift for the converging ExplainNew.
  Database::Snapshot snap = db_->CreateSnapshot();
  snap.ReleasePin();  // drift baseline only
  for (const auto& tv : snap.tables()) {
    const auto it = ckpt.audit.audit_watermarks.find(tv.name);
    snap.SetWatermark(
        tv.name,
        it != ckpt.audit.audit_watermarks.end() ? it->second : 0);
  }
  snapshot_ = std::move(snap);

  auto d = std::make_unique<DurableState>();
  d->options = options;
  d->env = env;
  d->store = std::make_unique<CheckpointStore>(env, options.dir);
  EBA_ASSIGN_OR_RETURN(
      d->wal, WalWriter::Open(env, d->store->WalPath(new_wal_seq),
                              options.sync));
  d->wal_seq = new_wal_seq;
  // chain_length counts the full root plus each incremental link.
  d->checkpoints_since_full =
      static_cast<uint32_t>(ckpt.chain_length > 0 ? ckpt.chain_length - 1 : 0);
  d->last_ckpt_snapshot = db_->CreateSnapshot();
  d->last_ckpt_snapshot.ReleasePin();
  durable_ = std::move(d);
  return Status::OK();
}

StatusOr<StreamingAuditor> StreamingAuditor::RecoverFrom(
    Database* db, const std::string& log_table,
    const DurabilityOptions& options, RecoveryStats* stats) {
  RecoveryStats local_stats;
  RecoveryStats& out = stats != nullptr ? *stats : local_stats;
  out = RecoveryStats{};
  Env* env = options.env != nullptr ? options.env : RealEnv();

  CheckpointStore store(env, options.dir);
  {
    StatusOr<uint64_t> current = store.CurrentSeq();
    if (!current.ok()) {
      if (!current.status().IsNotFound()) return current.status();
      // Nothing durable yet: a fresh start over the caller's database.
      EBA_ASSIGN_OR_RETURN(StreamingAuditor auditor, Create(db, log_table));
      EBA_RETURN_IF_ERROR(auditor.EnableDurability(options));
      return auditor;
    }
  }

  const auto ckpt_start = std::chrono::steady_clock::now();
  EBA_ASSIGN_OR_RETURN(CheckpointContents ckpt, store.LoadNewest());
  out.recovered = true;
  out.checkpoint_seq = ckpt.seq;
  out.checkpoint_load_seconds = SecondsSince(ckpt_start);
  out.db_load_seconds = ckpt.db_load_seconds;
  *db = std::move(ckpt.db);

  // Replay the WAL suffix (every log with seq >= the checkpoint's WALSEQ,
  // in sequence order). A torn/corrupt tail is legal only in the final log
  // — it is truncated away, never applied; damage mid-chain means a record
  // that was once durably committed is gone, which recovery must not paper
  // over.
  const auto replay_start = std::chrono::steady_clock::now();
  EBA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       env->ListDir(options.dir));
  std::vector<std::pair<uint64_t, std::string>> wals;
  for (const std::string& name : names) {
    if (!StartsWith(name, "wal-") || !EndsWith(name, ".log")) continue;
    errno = 0;
    char* end = nullptr;
    const unsigned long long seq =
        std::strtoull(name.c_str() + 4, &end, 10);
    if (end == name.c_str() + 4 || std::string(end) != ".log" ||
        errno == ERANGE) {
      continue;
    }
    if (seq >= ckpt.wal_seq) wals.emplace_back(seq, name);
  }
  std::sort(wals.begin(), wals.end());

  // The suffix must be an unbroken chain starting at the checkpoint's
  // WALSEQ: wal-<WALSEQ> is created before its checkpoint becomes CURRENT
  // and GC never removes it, so a hole means a log whose records were once
  // durably committed is gone — recovery must fail, not paper over it.
  if (wals.empty() || wals[0].first != ckpt.wal_seq) {
    return Status::Internal(
        "WAL chain broken: wal-" + std::to_string(ckpt.wal_seq) +
        ".log (the checkpoint's WALSEQ) is missing from " + options.dir);
  }
  for (size_t i = 1; i < wals.size(); ++i) {
    if (wals[i].first != wals[0].first + i) {
      return Status::Internal(
          "WAL chain broken: wal-" + std::to_string(wals[i - 1].first + 1) +
          ".log is missing from " + options.dir + " (found wal-" +
          std::to_string(wals[i].first) + ".log after wal-" +
          std::to_string(wals[i - 1].first) + ".log)");
    }
  }

  // Seed from the checkpoint's WALSEQ watermark, not its own sequence
  // number: the fresh WAL below must land at or above WALSEQ or the
  // `seq >= ckpt.wal_seq` filter would skip it on the next recovery.
  uint64_t max_wal_seq = ckpt.wal_seq;
  for (size_t i = 0; i < wals.size(); ++i) {
    max_wal_seq = std::max(max_wal_seq, wals[i].first);
    const std::string path = options.dir + "/" + wals[i].second;
    EBA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWalFile(env, path));
    if (wal.dropped_bytes > 0) {
      if (i + 1 < wals.size()) {
        return Status::Internal("corrupt WAL record mid-chain in " + path);
      }
      EBA_RETURN_IF_ERROR(env->TruncateFile(path, wal.valid_bytes));
      out.wal_bytes_truncated += wal.dropped_bytes;
    }
    ++out.wal_files_replayed;
    for (const WalRecord& record : wal.records) {
      if (record.type != kWalAppendBatch) {
        return Status::Internal("unknown WAL record type " +
                                std::to_string(record.type) + " in " + path);
      }
      EBA_ASSIGN_OR_RETURN(WalAppendBatch batch,
                           DecodeAppendPayload(record.payload));
      EBA_ASSIGN_OR_RETURN(Table * table, db->GetTable(batch.table_name));
      // Mirror the logging path's validate-once discipline: the batch was
      // validated before it was WAL-committed, so decode-time validation
      // here is the one explicit re-check — a failure means the schema no
      // longer matches a record that passed its CRC, which is damage, not a
      // bad client row.
      for (const Row& row : batch.rows) {
        const Status valid = table->ValidateRow(row);
        if (!valid.ok()) {
          return Status::Internal("WAL record in " + path +
                                  " no longer validates against table " +
                                  batch.table_name + ": " + valid.message());
        }
      }
      table->Reserve(table->num_rows() + batch.rows.size());
      for (const Row& row : batch.rows) {
        table->AppendValidatedRow(row);  // pre-validated above
      }
      ++out.wal_records_replayed;
      out.wal_rows_replayed += batch.rows.size();
    }
  }
  out.wal_replay_seconds = SecondsSince(replay_start);

  EBA_ASSIGN_OR_RETURN(StreamingAuditor auditor, Create(db, log_table));
  EBA_RETURN_IF_ERROR(
      auditor.AdoptRecoveredState(std::move(ckpt), env, options,
                                  max_wal_seq + 1));
  return auditor;
}

StatusOr<StreamingReport> StreamingAuditor::ExplainNew(
    const StreamingOptions& options) {
  // The audit lock serializes audits and state accessors only — appends
  // proceed concurrently on writer_mu_. The whole audit evaluates against
  // one snapshot pinned here: every scan, probe, and executor below is
  // clamped to its watermarks, so rows the writer lands mid-audit are
  // invisible now and re-surface as drift on the next call.
  MutexLock lock(*audit_mu_);
  EBA_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(engine_.log_table()));
  EBA_ASSIGN_OR_RETURN(AccessLog log, AccessLog::Wrap(table));

  const Database::Snapshot snapshot = db_->CreateSnapshot();
  StreamingReport report;
  const CatalogDrift drift = snapshot.DriftSince(snapshot_);
  if (drift.RequiresRebuild()) {
    // A structural mutation or catalog change can rewrite or remove the
    // evidence behind an already-granted explanation; the monotone-append
    // invariant is gone, so re-audit everything.
    ResetAuditLocked();
    report.full_reaudit = true;
  }
  const size_t from = audited_rows_;
  const size_t to = snapshot.BoundOf(table);
  report.audited_from = from;
  report.audited_to = to;

  const size_t threads = std::max<size_t>(1, options.num_threads);
  // Reuse the auditor's pool across audits (the serving loop calls
  // ExplainNew per batch; re-spawning threads - 1 workers each time would
  // rival the audit itself on small batches). Resized only when the
  // requested width changes; the calling thread participates in every
  // ParallelFor, so the pool holds threads - 1 workers.
  if (threads <= 1) {
    pool_.reset();
  } else if (pool_ == nullptr || pool_->num_threads() != threads - 1) {
    pool_ = std::make_unique<ThreadPool>(threads - 1);
  }
  ThreadPool* pool = pool_.get();

  ExecutorOptions exec = options.executor;
  if (exec.plan_cache == nullptr && options.use_engine_plan_cache) {
    exec.plan_cache = engine_.plan_cache();
  }
  if (exec.pool == nullptr && pool != nullptr) {
    exec.pool = pool;
    if (exec.num_threads <= 1) exec.num_threads = threads;
  }

  const auto& templates = engine_.templates();
  report.per_template_counts.assign(templates.size(), 0);
  report.per_template_delta_counts.assign(templates.size(), 0);

  // --- New lids, sorted and distinct; evaluation shards are row ranges
  // --- aligned to column chunks (the first absorbs an unaligned head).
  const Column& lid_col = table->column(static_cast<size_t>(log.lid_col()));
  std::vector<int64_t> new_lids;
  new_lids.reserve(to - from);
  for (size_t r = from; r < to; ++r) new_lids.push_back(lid_col.Int64At(r));
  SortUniqueLids(&new_lids);
  const std::vector<ShardRange> shards = SplitShardsAlignedRange(
      from, to, threads, options.min_rows_per_shard, kColumnChunkRows);

  // --- Older rows of recurring lids: a lid is explained when any of its
  // --- rows is, so rows below `from` carrying a batch lid join the seed.
  // --- Only a batch lid <= the largest lid below the watermark can have
  // --- such rows (when that max is unknown, after a recovery, every batch
  // --- lid is a candidate and the same pass re-derives it).
  std::vector<uint32_t> earlier_rows;
  if (from > 0 && !new_lids.empty()) {
    const auto recurring_end =
        prefix_max_lid_.has_value()
            ? std::upper_bound(new_lids.begin(), new_lids.end(),
                               *prefix_max_lid_)
            : new_lids.end();
    if (recurring_end != new_lids.begin()) {
      int64_t max_lid = lid_col.Int64At(0);
      for (size_t r = 0; r < from; ++r) {
        const int64_t lid = lid_col.Int64At(r);
        max_lid = std::max(max_lid, lid);
        if (lid >= new_lids.front() && lid <= recurring_end[-1] &&
            std::binary_search(new_lids.begin(), recurring_end, lid)) {
          earlier_rows.push_back(static_cast<uint32_t>(r));
        }
      }
      prefix_max_lid_ = max_lid;
    }
  }

  // --- Reverse semi-join delta pass: every appended table (non-log tables
  // --- in full; the log at self-join positions only — its variable-0 rows
  // --- are the new-row pass below). Candidates are the lids the appended
  // --- rows can newly explain; cost scales with each delta. Skipped when
  // --- nothing was audited yet (the new-row pass covers every row).
  std::vector<std::vector<int64_t>> per_template_delta(templates.size());
  if (from > 0) {
    // Flatten every (appended table, affected template) pair into one task
    // list so one ParallelFor wave covers mixed-table append batches.
    // Templates that never reference an appended table cannot change and
    // are skipped without touching the executor.
    struct DeltaTask {
      size_t template_index;
      const CatalogDrift::Append* appended;
      bool is_log;
    };
    std::vector<DeltaTask> tasks;
    for (const CatalogDrift::Append& appended : drift.appends) {
      const bool is_log = appended.table == engine_.log_table();
      if (!is_log) ++report.delta_tables;
      for (size_t i = 0; i < templates.size(); ++i) {
        const auto& vars = templates[i].query().vars;
        for (size_t v = is_log ? 1 : 0; v < vars.size(); ++v) {
          if (vars[v].table == appended.table) {
            tasks.push_back(DeltaTask{i, &appended, is_log});
            break;
          }
        }
      }
    }
    report.delta_queries = tasks.size();

    std::vector<StatusOr<std::vector<int64_t>>> results(
        tasks.size(),
        StatusOr<std::vector<int64_t>>(Status::Internal("not evaluated")));
    ParallelFor(pool, tasks.size(), [&](size_t k) {
      const DeltaTask& task = tasks[k];
      Executor executor(snapshot, exec);
      Executor::JoinedToOptions jopts;
      jopts.include_var0 = !task.is_log;
      results[k] = executor.DistinctLidsJoinedTo(
          templates[task.template_index].query(),
          templates[task.template_index].lid_attr(), task.appended->table,
          RowRange{static_cast<size_t>(task.appended->from_watermark),
                   static_cast<size_t>(task.appended->to_watermark)},
          jopts);
    });
    for (size_t k = 0; k < tasks.size(); ++k) {
      if (!results[k].ok()) return results[k].status();
      std::vector<int64_t>& sink = per_template_delta[tasks[k].template_index];
      sink.insert(sink.end(), results[k]->begin(), results[k]->end());
    }
  }

  // --- Evaluate every template with variable 0 seeded by each row shard
  // --- (shard 0 also carries the earlier rows): templates x shards tasks.
  // --- Results are sorted lid vectors; their union is exact at any thread
  // --- count even when a lid recurs across shards.
  const size_t num_shards = shards.size();
  const std::vector<uint32_t> no_rows;
  std::vector<StatusOr<std::vector<int64_t>>> results(
      templates.size() * num_shards,
      StatusOr<std::vector<int64_t>>(Status::Internal("not evaluated")));
  ParallelFor(pool, results.size(), [&](size_t k) {
    const size_t i = k / num_shards;
    const size_t s = k % num_shards;
    Executor executor(snapshot, exec);
    results[k] = executor.DistinctLidsForRows(
        templates[i].query(), templates[i].lid_attr(),
        RowRange{shards[s].begin, shards[s].end},
        s == 0 ? earlier_rows : no_rows);
  });
  for (size_t i = 0; i < templates.size(); ++i) {
    std::vector<int64_t> explained;
    for (size_t s = 0; s < num_shards; ++s) {
      StatusOr<std::vector<int64_t>>& result = results[i * num_shards + s];
      if (!result.ok()) return result.status();
      UnionInto(&explained, *result);
    }
    report.per_template_counts[i] = explained.size();
    UnionInto(&report.explained_lids, explained);
  }
  // Every seeded row carries a new lid: explained_lids ⊆ new_lids.
  std::set_difference(new_lids.begin(), new_lids.end(),
                      report.explained_lids.begin(),
                      report.explained_lids.end(),
                      std::back_inserter(report.unexplained_lids));

  // Fold the delta candidates in: only lids that were audited before and
  // unexplained until now count (already-explained lids must not be
  // double-counted, and new-suffix lids belong to the new-row pass above).
  for (size_t i = 0; i < templates.size(); ++i) {
    // One template can surface the same lid from several appended tables.
    std::vector<int64_t>& candidates = per_template_delta[i];
    SortUniqueLids(&candidates);
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&](int64_t lid) {
                         return explained_.Contains(lid) ||
                                std::binary_search(new_lids.begin(),
                                                   new_lids.end(), lid);
                       }),
        candidates.end());
    report.per_template_delta_counts[i] = candidates.size();
    UnionInto(&report.delta_explained_lids, candidates);
  }

  explained_.Insert(report.explained_lids);
  explained_.Insert(report.delta_explained_lids);
  if (!new_lids.empty()) {  // set above whenever from > 0
    prefix_max_lid_ = std::max(prefix_max_lid_.value_or(new_lids.back()),
                               new_lids.back());
  }
  audited_rows_ = to;
  // The next audit's drift baseline is what THIS audit actually saw — the
  // pinned snapshot, not live state. Rows appended while this audit ran sit
  // past these watermarks and will classify as drift next time.
  snapshot_ = snapshot;
  snapshot_.ReleasePin();
  {
    // Auto-checkpoint once enough WAL has accumulated: audit end is the
    // cheapest moment (the audit state is freshly consistent, and recovery
    // from here needs no converging re-audit of these rows). Checkpointing
    // needs the writer lock (stable WAL/image cut); audit_mu_ -> writer_mu_
    // is the auditor's fixed lock order.
    MutexLock writer_lock(*writer_mu_);
    if (durable_ != nullptr && durable_->wal != nullptr &&
        durable_->options.checkpoint_after_wal_bytes > 0 &&
        durable_->wal->bytes_logged() >=
            durable_->options.checkpoint_after_wal_bytes) {
      EBA_RETURN_IF_ERROR(CheckpointLocked(/*full=*/false));
    }
  }
  if (exec.plan_cache != nullptr) {
    const PlanCache::Stats cache_stats = exec.plan_cache->stats();
    report.plan_cache_hits = cache_stats.hits;
    report.plan_cache_misses = cache_stats.misses;
    report.plan_rebinds = cache_stats.rebinds;
  }
  return report;
}

}  // namespace eba
