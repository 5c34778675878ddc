// serve_durable: an AuditServer over TCP loopback with durability on
// (WAL + default auto-checkpoint threshold). The log is seeded
// with days 1-2 of Scaled(10) and the rest is streamed in while the server
// answers reads. Open loop over four connections:
//   - two connections send EXPLAIN at a fixed total rate, half the lids
//     drawn from recently appended rows and half uniformly;
//   - one sends APPEND_BATCH of fixed size at a fixed rate;
//   - one sends EXPLAIN_NEW on a fixed interval, with an APPEND_ROWS of
//     synthetic Appointments rows every few audits.
// After the nominal phase the EXPLAIN rate climbs a fixed ladder until the
// latency limit or the backlog check fails. The run ends with recovery:
// the server, auditor and database are dropped and the store is recovered.
// net, core/ingest, the WAL, checkpoints and delta audits do the work here;
// no full-log scan runs.
//
// Correctness: an in-process twin replays exactly what the server saw.
// Appends are acknowledged only after they are applied, and APPEND_ROWS
// shares the audit connection, so the state behind every served
// EXPLAIN_NEW is the seeded rows, the streamed prefix up to its audited_to,
// and every foreign batch sent before it. The twin rebuilds each of those
// states and must produce the same payload byte for byte.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "checks.h"
#include "common.h"
#include "common/random.h"
#include "core/ingest.h"
#include "log/access_log.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kScaleFactor = 10;
constexpr int kSeedDays = 2;
// WAL commits are written but not fsynced: kNone survives a process kill
// (the fault model the repository's durability tests exercise) and is the
// WAL's mode for measuring structural overhead. With kBatch the ack latency
// is the shared disk's fsync latency, whose spread across runs here (median
// ack 0.75-1.67 ms over ten runs) is wider than any bound the benchmark
// may set.
constexpr eba::WalSync kWalSync = eba::WalSync::kNone;

// Offered load of the nominal phase (perfbench/README.md derives it). The
// log is replayed at kAppendRate * kAppendBatchRows = 1350 rows/s, about
// 4800 times the generator's Scaled(10) arrival rate (~168k rows in 7 days);
// the speed-up is chosen so one 30 s run window writes ~2.2 MiB of WAL:
// two automatic checkpoints and ~6.5k rows of WAL left to replay, so every
// run recovers the same shape of store. The late Appointments rows
// follow the generator's missing-paperwork rate (missing_event_prob = 2% of
// ~2160 appointments/day, ~0.0018 per log row): 2.4 rows/s at this replay
// speed, one APPEND_ROWS of kForeignRows every kForeignEveryAudits audits.
// The EXPLAIN rate and the audit interval have no source in the repository
// and are assumed: about one EXPLAIN per 3.4 logged rows, at ~1.5% of the
// measured capacity so the p50 measures service and not queueing, and one
// misuse-detection pass per ~3 simulated minutes.
constexpr size_t kExplainConnections = 2;
constexpr double kExplainRate = 400.0;  // EXPLAIN/s over both connections
constexpr double kAppendRate = 150.0;   // APPEND_BATCH/s
constexpr size_t kAppendBatchRows = 9;
constexpr double kAuditIntervalMs = 40.0;   // EXPLAIN_NEW
constexpr size_t kForeignEveryAudits = 83;  // 8 rows / 3.32 s = 2.4 rows/s
constexpr size_t kForeignRows = 8;
/// Recent lids are drawn from the last this-many acknowledged rows.
constexpr size_t kRecentWindow = 256;
/// Share of the run's seconds spent at the nominal rate; the ladder gets
/// what is left.
constexpr double kNominalShare = 0.65;

// The capacity ladder: rung k offers 1000 * 1.08^k EXPLAIN/s for at least
// kRungMinRequests requests and kRungMinMs. The search visits every 5th
// rung until one fails, then the rungs in between. A rung passes when any
// of kRungAttempts tries passes, so one host stall does not end the climb;
// a rate the server cannot sustain fails every try.
constexpr double kLatencyLimitMs = 2.0;
constexpr double kLadderBase = 1000.0;
constexpr double kLadderStep = 1.08;
constexpr int kLadderCoarse = 5;
constexpr int kLadderMaxRung = 60;
constexpr size_t kRungMinRequests = 1000;
constexpr double kRungMinMs = 300.0;
constexpr int kRungAttempts = 3;

constexpr size_t kExplainSample = 200;
constexpr int kRecoveryReps = 7;

/// Kinds of request, for per-kind logs and request ids.
enum Kind { kExplain = 0, kAppendBatch, kAppendRows, kExplainNew, kKinds };
const char* const kKindNames[kKinds] = {"EXPLAIN", "APPEND_BATCH",
                                        "APPEND_ROWS", "EXPLAIN_NEW"};

/// One auditor over its own copy of the hospital.
struct Side {
  eba::CareWebData data;
  std::optional<eba::StreamingAuditor> auditor;
};

struct Fixture {
  Side server;
  std::unique_ptr<eba::AuditServer> handle;
  std::vector<std::unique_ptr<eba::AuditClient>> explainers;
  std::unique_ptr<eba::AuditClient> appender;
  std::unique_ptr<eba::AuditClient> auditor;

  std::vector<eba::ExplanationTemplate> templates;
  /// Log rows in stream order: the seeded days, then the backlog.
  std::vector<eba::AccessLog::Entry> stream;
  std::vector<eba::Row> backlog;
  size_t seed_rows = 0;

  std::string server_dir;
  std::string twin_dir;
  uint64_t dir_bytes_at_start = 0;
  uint64_t checkpoint_seq_at_start = 0;
  eba::PlanCache::Stats plan_stats_at_start;
  double generate_s = 0.0;
  double warmup_s = 0.0;
  double rss_after_generate_mb = 0.0;
  double rss_after_warmup_mb = 0.0;
};

eba::DurabilityOptions Durability(const std::string& dir) {
  eba::DurabilityOptions options;
  options.dir = dir;
  options.sync = kWalSync;
  return options;
}

/// Sequence number of the published checkpoint (0 when none).
uint64_t CurrentCheckpointSeq(const std::string& dir) {
  std::ifstream in(dir + "/CURRENT");
  std::string name;
  in >> name;
  if (name.rfind("ckpt-", 0) != 0) return 0;
  return std::strtoull(name.c_str() + 5, nullptr, 10);
}

eba::CareWebData Generate(const RunConfig& config) {
  eba::CareWebConfig careweb = eba::CareWebConfig::Scaled(kScaleFactor);
  careweb.seed = config.seed;
  return Unwrap(eba::GenerateCareWeb(careweb), "generate");
}

/// Seeds LogStream with the first kSeedDays days. The source table, with the
/// accesses still to come, leaves the database, so it holds only the
/// streamed log (templates parsed against it are rebound to LogStream when
/// registered).
void KeepSeededDays(eba::Database* db) {
  Unwrap(eba::AddLogSlice(db, "Log", "LogStream", 1, kSeedDays,
                          /*first_only=*/false),
         "log slice");
  Check(db->DropTable("Log"), "drop source log");
}

void CreateAuditor(Side* side,
                   const std::vector<eba::ExplanationTemplate>& templates) {
  side->auditor.emplace(Unwrap(
      eba::StreamingAuditor::Create(&side->data.db, "LogStream"), "auditor"));
  for (const auto& tmpl : templates) {
    Check(side->auditor->AddTemplate(tmpl), "template");
  }
}

/// The durable store, then one audit of the seeded rows and one per-access
/// explain: fills lazy indexes, statistics and the plan cache.
void EnableAndWarm(Side* side, const std::string& dir, int64_t lid) {
  Check(side->auditor->EnableDurability(Durability(dir)), "durability");
  Unwrap(side->auditor->ExplainNew(), "warm-up ExplainNew");
  Unwrap(side->auditor->engine().Explain(lid), "warm-up Explain");
}

/// The server side only: everything here is charged to setup_s.
std::unique_ptr<Fixture> Setup(const RunConfig& config, Tracer* tracer) {
  auto f = std::make_unique<Fixture>();
  const std::string root = config.out_dir + "/serve_durable";
  f->server_dir = root + "/server";
  f->twin_dir = root + "/twin";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);

  f->generate_s = TimedSpan(tracer, "careweb", "GenerateCareWeb", 0, 0,
                            [&] { f->server.data = Generate(config); });
  f->rss_after_generate_mb = CurrentRssMb();
  eba::Database& db = f->server.data.db;
  const eba::Table* log = Unwrap(
      static_cast<const eba::Database&>(db).GetTable("Log"), "log table");
  const eba::AccessLog source = Unwrap(eba::AccessLog::Wrap(log), "wrap log");
  std::vector<size_t> seeded = source.RowsInDayRange(1, kSeedDays);
  std::sort(seeded.begin(), seeded.end());
  f->seed_rows = seeded.size();
  for (size_t r : seeded) f->stream.push_back(source.Get(r));
  for (size_t r = 0; r < log->num_rows(); ++r) {
    if (std::binary_search(seeded.begin(), seeded.end(), r)) continue;
    f->stream.push_back(source.Get(r));
    f->backlog.push_back(log->GetRow(r));
  }
  f->templates =
      Unwrap(eba::TemplatesHandcraftedDirect(db, true), "templates");
  KeepSeededDays(&db);
  CreateAuditor(&f->server, f->templates);
  f->warmup_s = TimedSpan(tracer, "storage", "warmup", 0, 0, [&] {
    EnableAndWarm(&f->server, f->server_dir, f->stream.front().lid);
  });
  f->rss_after_warmup_mb = CurrentRssMb();

  TimedSpan(tracer, "net", "AuditServer::Start+Connect", 0, 0, [&] {
    eba::ServerOptions options;
    f->handle = Unwrap(eba::AuditServer::Start(&*f->server.auditor, options),
                       "start server");
    auto connect = [&] {
      return Unwrap(eba::AuditClient::Connect(eba::RealNetEnv(), "127.0.0.1",
                                              f->handle->port(), ""),
                    "connect");
    };
    for (size_t c = 0; c < kExplainConnections; ++c) {
      f->explainers.push_back(connect());
      Unwrap(f->explainers.back()->Explain(f->stream.front().lid),
             "warm-up EXPLAIN");
    }
    f->appender = connect();
    f->auditor = connect();
  });
  f->dir_bytes_at_start = DirectoryBytes(f->server_dir);
  f->checkpoint_seq_at_start = CurrentCheckpointSeq(f->server_dir);
  f->plan_stats_at_start = f->server.auditor->engine().plan_cache()->stats();
  return f;
}

/// The in-process twin: the server's starting state, rebuilt from the seed
/// outside the timed set-up.
void BuildTwin(const RunConfig& config, const Fixture& f, Side* twin) {
  twin->data = Generate(config);
  KeepSeededDays(&twin->data.db);
  CreateAuditor(twin, f.templates);
  EnableAndWarm(twin, f.twin_dir, f.stream.front().lid);
}

/// What the audit connection did, in order, for the twin to replay.
struct AuditEvent {
  /// Foreign rows sent with APPEND_ROWS, or empty for an EXPLAIN_NEW.
  std::vector<eba::Row> foreign_rows;
  /// The served EXPLAIN_NEW payload.
  std::string payload;
  bool ok = false;
};

/// State shared by the load threads while the server runs.
struct LoadState {
  /// Backlog rows acknowledged so far (the stream's visible prefix past the
  /// seeded rows).
  std::atomic<size_t> acked_rows{0};
  std::atomic<uint64_t> busy{0};
  std::atomic<uint64_t> append_errors{0};
  std::atomic<uint64_t> recent_draws{0};
  std::atomic<uint64_t> total_draws{0};
  uint64_t payload_bytes = 0;       // written by the appender thread only
  std::vector<size_t> batch_sizes;  // acked log batches, in order
  std::vector<AuditEvent> audit_events;
};

/// Draws an EXPLAIN lid: half from the most recent acknowledged rows, half
/// uniform over every visible row.
int64_t DrawLid(const Fixture& f, LoadState* state, eba::Random* rng) {
  const size_t acked = state->acked_rows.load();
  const size_t visible = f.seed_rows + acked;
  state->total_draws.fetch_add(1);
  if (rng->Uniform(2) == 0 && acked > 0) {
    state->recent_draws.fetch_add(1);
    const size_t window = std::min(acked, kRecentWindow);
    return f.stream[visible - 1 - rng->Uniform(window)].lid;
  }
  return f.stream[rng->Uniform(visible)].lid;
}

/// Appends with retry on admission-control refusals; every refusal is
/// counted as a failed request.
eba::Status AppendWithRetry(const std::function<eba::Status()>& send,
                            LoadState* state) {
  eba::Status s = send();
  for (int attempt = 0; eba::AuditClient::IsRetryableBusy(s) && attempt < 1000;
       ++attempt) {
    state->busy.fetch_add(1);
    std::this_thread::yield();
    s = send();
  }
  return s;
}

std::vector<double> EvenSchedule(double start_ms, double end_ms,
                                 double interval_ms) {
  std::vector<double> due;
  for (double t = start_ms; t < end_ms; t += interval_ms) due.push_back(t);
  return due;
}

/// Runs `requests` EXPLAINs at `rate` over the explain connections, split
/// round-robin, starting at `start_ms`. Returns one log per connection
/// merged into one.
OpenLoopLog ExplainPhase(Fixture* f, LoadState* state, const WallClock& clock,
                         double start_ms, double rate, size_t requests,
                         uint64_t seed, Tracer* tracer,
                         std::atomic<uint64_t>* request_ids,
                         std::vector<OpenLoopLog>* traced_split) {
  std::vector<OpenLoopLog> logs(kExplainConnections);
  std::vector<OpenLoopLog> traced(kExplainConnections),
      untraced(kExplainConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kExplainConnections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> due;
      for (size_t i = c; i < requests; i += kExplainConnections) {
        due.push_back(start_ms + 1000.0 * static_cast<double>(i) / rate);
      }
      eba::Random rng(seed * 1315423911ull + c + 1);
      eba::AuditClient* client = f->explainers[c].get();
      WallClock local = clock;
      std::vector<bool> was_traced;
      RunOpenLoop(
          due, local,
          [&](size_t i) {
            const int64_t lid = DrawLid(*f, state, &rng);
            const uint64_t id = request_ids->fetch_add(1) + 1;
            // Alternate requests are traced, so the traced run measures
            // its own overhead on identical traffic.
            const bool traced_request = tracer->enabled() && i % 2 == 0;
            was_traced.push_back(traced_request);
            ScopedSpan span(traced_request ? tracer : nullptr, "net",
                            kKindNames[kExplain], 0, id);
            return client->Explain(lid).ok();
          },
          &logs[c]);
      for (size_t i = 0; i < logs[c].timings().size(); ++i) {
        (was_traced[i] ? traced[c] : untraced[c])
            .Record(logs[c].timings()[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  OpenLoopLog merged;
  for (const auto& log : logs) merged.Append(log);
  if (traced_split != nullptr) {
    traced_split->resize(2);
    for (size_t c = 0; c < kExplainConnections; ++c) {
      (*traced_split)[0].Append(traced[c]);
      (*traced_split)[1].Append(untraced[c]);
    }
  }
  return merged;
}

/// A rung passes when its p99 due-to-done latency (failures counted as
/// misses) is within the limit and the generator did not fall behind
/// towards its end.
bool RungPasses(const OpenLoopLog& log) {
  const Tail p99 = TailPercentile(log.LatenciesWithFailuresMs(), 99.0);
  if (!p99.valid || !(p99.value <= kLatencyLimitMs)) return false;
  std::vector<RequestTiming> by_due = log.timings();
  std::sort(by_due.begin(), by_due.end(),
            [](const RequestTiming& a, const RequestTiming& b) {
              return a.due_ms < b.due_ms;
            });
  std::vector<double> last_lags;
  for (size_t i = by_due.size() - by_due.size() / 10; i < by_due.size(); ++i) {
    last_lags.push_back(by_due[i].sent_ms - by_due[i].due_ms);
  }
  return Median(last_lags) <= kLatencyLimitMs / 2;
}

}  // namespace

void RunServeDurable(const RunConfig& config, Tracer* tracer,
                     Result* result) {
  std::unique_ptr<Fixture> f;
  const std::vector<double> setup_s =
      RepeatSetup(&f, [&] { return Setup(config, tracer); });

  LoadState state;
  std::atomic<uint64_t> request_ids{0};
  const auto base = Clock::now() + std::chrono::milliseconds(20);
  const WallClock clock(base);
  const double nominal_ms = kNominalShare * config.seconds * 1000.0;
  // The writers keep one fixed schedule over the whole window, so every run
  // appends (and checkpoints and recovers) the same volume; the ladder runs
  // in what is left after the nominal phase.
  const double window_ms = config.seconds * 1000.0;

  std::vector<Kind> audit_kinds;
  std::vector<double> audit_due;
  for (size_t j = 0; j * kAuditIntervalMs < window_ms; ++j) {
    audit_due.push_back(static_cast<double>(j) * kAuditIntervalMs);
    audit_kinds.push_back(kExplainNew);
    if (j % kForeignEveryAudits == kForeignEveryAudits - 1) {
      audit_due.push_back((static_cast<double>(j) + 0.5) * kAuditIntervalMs);
      audit_kinds.push_back(kAppendRows);
    }
  }

  OpenLoopLog append_log, audit_log;
  std::thread appender([&] {
    WallClock local = clock;
    size_t next = 0;
    RunOpenLoop(
        EvenSchedule(0.0, window_ms, 1000.0 / kAppendRate), local,
        [&](size_t) {
          const size_t n = std::min(kAppendBatchRows, f->backlog.size() - next);
          if (n == 0) return false;
          const std::vector<eba::Row> rows(f->backlog.begin() + next,
                                           f->backlog.begin() + next + n);
          ScopedSpan span(tracer, "net", kKindNames[kAppendBatch], 0,
                          request_ids.fetch_add(1) + 1);
          const eba::Status s = AppendWithRetry(
              [&] { return f->appender->AppendAccessBatch(rows); }, &state);
          if (!s.ok()) {
            state.append_errors.fetch_add(1);
            return false;
          }
          next += n;
          state.batch_sizes.push_back(n);
          state.payload_bytes += eba::EncodeAppendPayload("LogStream", rows)
                                     .size();
          state.acked_rows.store(next);
          return true;
        },
        &append_log);
  });
  uint64_t foreign_payload_bytes = 0;
  std::thread auditor([&] {
    WallClock local = clock;
    eba::Random rng(config.seed * 2654435761ull + 7);
    RunOpenLoop(
        audit_due, local,
        [&](size_t i) {
          AuditEvent event;
          ScopedSpan span(tracer, "net", kKindNames[audit_kinds[i]], 0,
                          request_ids.fetch_add(1) + 1);
          if (audit_kinds[i] == kAppendRows) {
            const size_t visible = f->seed_rows + state.acked_rows.load();
            for (size_t k = 0; k < kForeignRows; ++k) {
              const eba::AccessLog::Entry& e =
                  f->stream[rng.Uniform(visible)];
              event.foreign_rows.push_back(
                  {eba::Value::Int64(e.patient),
                   eba::Value::Timestamp(e.time - 1800),
                   eba::Value::Int64(e.user)});
            }
            const eba::Status s = AppendWithRetry(
                [&] {
                  return f->auditor->AppendRows("Appointments",
                                                event.foreign_rows);
                },
                &state);
            event.ok = s.ok();
            if (!s.ok()) state.append_errors.fetch_add(1);
            foreign_payload_bytes +=
                eba::EncodeAppendPayload("Appointments", event.foreign_rows)
                    .size();
          } else {
            auto payload = f->auditor->ExplainNewRaw();
            event.ok = payload.ok();
            if (payload.ok()) event.payload = std::move(payload).value();
          }
          const bool ok = event.ok;
          state.audit_events.push_back(std::move(event));
          return ok;
        },
        &audit_log);
  });

  // Nominal phase, then the capacity ladder.
  std::vector<OpenLoopLog> traced_split;
  const size_t nominal_requests =
      static_cast<size_t>(kExplainRate * nominal_ms / 1000.0);
  const OpenLoopLog explain_log =
      ExplainPhase(f.get(), &state, clock, 0.0, kExplainRate,
                   nominal_requests, config.seed, tracer, &request_ids,
                   &traced_split);
  double max_rps = 0.0;
  int highest_pass = -1, lowest_fail = kLadderMaxRung + 1;
  size_t rung_retries = 0;
  auto rung_rate = [](int k) { return kLadderBase * std::pow(kLadderStep, k); };
  auto try_rung = [&](int k) {
    const double rate = rung_rate(k);
    const size_t requests = std::max(
        kRungMinRequests, static_cast<size_t>(rate * kRungMinMs / 1000.0));
    for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
      if (attempt > 0) ++rung_retries;
      const double start_ms = std::max(clock.NowMs(), nominal_ms) + 1.0;
      const OpenLoopLog rung =
          ExplainPhase(f.get(), &state, clock, start_ms, rate, requests,
                       config.seed + 1000 + k, tracer, &request_ids, nullptr);
      result->attempted += rung.attempted();
      result->failed += rung.failed();
      if (RungPasses(rung)) {
        highest_pass = k;
        max_rps = rung.AchievedRate();
        return;
      }
    }
    lowest_fail = k;
  };
  for (int k = 0; k <= kLadderMaxRung && lowest_fail > kLadderMaxRung &&
                  clock.NowMs() < window_ms;
       k += kLadderCoarse) {
    try_rung(k);
  }
  for (int k = highest_pass + 1; k < lowest_fail && clock.NowMs() < window_ms;
       ++k) {
    try_rung(k);
  }
  appender.join();
  auditor.join();
  const double recent_share =
      static_cast<double>(state.recent_draws.load()) /
      static_cast<double>(std::max<uint64_t>(1, state.total_draws.load()));

  const eba::ServerReport served = f->handle->ReportNow();
  const eba::PlanCache::Stats plan_stats =
      f->server.auditor->engine().plan_cache()->stats();

  // Per-access sample on a quiescent server, for the twin comparison.
  std::vector<int64_t> sample_lids;
  std::vector<std::string> sample_served;
  {
    eba::Random rng(config.seed * 97 + 3);
    for (size_t i = 0; i < kExplainSample; ++i) {
      sample_lids.push_back(DrawLid(*f, &state, &rng));
      auto served_result = f->explainers[0]->Explain(sample_lids.back());
      ++result->attempted;
      if (!served_result.ok()) {
        ++result->failed;
        sample_served.emplace_back();
      } else {
        sample_served.push_back(eba::EncodeExplainResult(*served_result));
      }
    }
  }
  f->explainers.clear();
  f->appender.reset();
  f->auditor.reset();
  f->handle->Stop();
  f->handle.reset();
  const uint64_t dir_bytes = DirectoryBytes(f->server_dir);
  const uint64_t dir_growth =
      dir_bytes - std::min(dir_bytes, f->dir_bytes_at_start);
  const uint64_t checkpoints =
      CurrentCheckpointSeq(f->server_dir) - f->checkpoint_seq_at_start;
  const size_t acked_rows = state.acked_rows.load();
  const size_t seed_rows = f->seed_rows;
  const double generate_s = f->generate_s;
  const double warmup_s = f->warmup_s;
  const double rss_after_generate_mb = f->rss_after_generate_mb;
  const double rss_after_warmup_mb = f->rss_after_warmup_mb;
  const size_t generated_rows = f->stream.size();
  const uint64_t plan_hits = plan_stats.hits - f->plan_stats_at_start.hits;
  const uint64_t plan_lookups =
      plan_hits + (plan_stats.misses - f->plan_stats_at_start.misses);

  // The server side leaves before the twin is built, so the two are never
  // resident together; recovery below reads only the stopped store.
  f->server.auditor.reset();
  f->server.data = eba::CareWebData{};

  // --- Twin replay: rebuild the state behind every served EXPLAIN_NEW. ---
  Side twin_side;
  BuildTwin(config, *f, &twin_side);
  eba::StreamingAuditor& twin = *twin_side.auditor;
  std::vector<double> twin_append_ms, twin_explain_new_ms, delta_rows;
  size_t twin_rows = 0;  // backlog rows applied to the twin
  size_t batch = 0, batch_used = 0;
  auto twin_append_to = [&](size_t target) {
    while (twin_rows < target && batch < state.batch_sizes.size()) {
      const size_t n = std::min(state.batch_sizes[batch] - batch_used,
                                target - twin_rows);
      const std::vector<eba::Row> rows(f->backlog.begin() + twin_rows,
                                       f->backlog.begin() + twin_rows + n);
      eba::Status s;
      twin_append_ms.push_back(
          1000.0 * TimedSpan(tracer, "ingest", "AppendAccessBatch", 0, 0,
                             [&] { s = twin.AppendAccessBatch(rows); }));
      Check(s, "twin append");
      twin_rows += n;
      batch_used += n;
      if (batch_used == state.batch_sizes[batch]) {
        ++batch;
        batch_used = 0;
      }
    }
  };
  size_t payload_mismatches = 0;
  for (const AuditEvent& event : state.audit_events) {
    if (!event.ok) continue;
    if (!event.foreign_rows.empty()) {
      Check(twin.AppendRows("Appointments", event.foreign_rows),
            "twin foreign append");
      continue;
    }
    const eba::StreamingReport served_report =
        Unwrap(eba::DecodeStreamingReport(event.payload), "decode report");
    twin_append_to(served_report.audited_to - seed_rows);
    eba::StatusOr<eba::StreamingReport> local =
        eba::Status::Internal("not run");
    twin_explain_new_ms.push_back(
        1000.0 * TimedSpan(tracer, "ingest", "ExplainNew", 0, 0,
                           [&] { local = twin.ExplainNew(); }));
    Check(local.status(), "twin ExplainNew");
    delta_rows.push_back(static_cast<double>(local->new_rows()));
    const std::string diff =
        CompareBytes(eba::EncodeStreamingReport(*local), event.payload);
    if (!diff.empty() && payload_mismatches++ == 0) {
      result->Check("served EXPLAIN_NEW vs twin", diff);
    }
  }
  twin_append_to(acked_rows);
  Check(twin.ExplainNew().status(), "twin converging ExplainNew");

  std::vector<double> point_ms;
  for (size_t i = 0; i < sample_lids.size(); ++i) {
    eba::StatusOr<std::vector<eba::ExplanationInstance>> instances =
        eba::Status::Internal("not run");
    point_ms.push_back(
        1000.0 * TimedSpan(tracer, "engine", "Explain", 0, 0, [&] {
          instances = twin.engine().Explain(sample_lids[i]);
        }));
    Check(instances.status(), "twin Explain");
    eba::ExplainResult local;
    local.explained = !instances->empty();
    for (const auto& instance : *instances) {
      local.template_names.push_back(instance.tmpl().name());
    }
    result->Check("served EXPLAIN lid " + std::to_string(sample_lids[i]) +
                      " vs twin",
                  CompareBytes(eba::EncodeExplainResult(local),
                               sample_served[i]));
  }
  const std::unordered_set<int64_t> twin_explained = twin.explained_lids();

  // --- Recovery: recover copies of the server's store. ---
  std::vector<double> recover_s, load_s, replay_s, converge_s, wal_rows;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    const std::string dir = f->server_dir + "-recover";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::copy(f->server_dir, dir, fs::copy_options::recursive, ec);
    Check(ec ? eba::Status::Internal(ec.message()) : eba::Status::OK(),
          "copy store");
    eba::Database db;
    std::optional<eba::StreamingAuditor> recovered;
    eba::RecoveryStats stats;
    double converge = 0.0;
    ScopedSpan root(tracer, "bench", "recover", 0, 0);
    const double total = TimedSpan(tracer, "ingest", "RecoverFrom+converge",
                                   root.id(), 0, [&] {
      recovered.emplace(Unwrap(eba::StreamingAuditor::RecoverFrom(
                                   &db, "LogStream", Durability(dir), &stats),
                               "recover"));
      for (const auto& tmpl : f->templates) {
        Check(recovered->AddTemplate(tmpl), "recovered template");
      }
      converge = TimedSpan(tracer, "ingest", "ExplainNew", 0, 0, [&] {
        Check(recovered->ExplainNew().status(), "converging ExplainNew");
      });
    });
    recover_s.push_back(total);
    load_s.push_back(stats.checkpoint_load_seconds);
    replay_s.push_back(stats.wal_replay_seconds);
    converge_s.push_back(converge);
    wal_rows.push_back(static_cast<double>(stats.wal_rows_replayed));
    const size_t log_rows =
        Unwrap(static_cast<const eba::Database&>(db).GetTable("LogStream"),
               "recovered log")
            ->num_rows();
    result->Check("recovered state vs twin",
                  CompareRecovered(*recovered, twin_explained, log_rows,
                                   seed_rows + acked_rows));
    recovered.reset();
    fs::remove_all(dir, ec);
  }
  twin_side.auditor.reset();
  f.reset();
  std::error_code ec;
  fs::remove_all(config.out_dir + "/serve_durable", ec);
  result->Context("recover_s_reps", JoinValues(recover_s));

  // --- Accounting ---
  const uint64_t busy = state.busy.load();
  const uint64_t append_errors = state.append_errors.load();
  result->attempted += explain_log.attempted() + append_log.attempted() +
                       audit_log.attempted() + busy;
  result->failed +=
      explain_log.failed() + append_log.failed() + audit_log.failed() + busy;
  result->Check("append errors",
                append_errors == 0
                    ? ""
                    : std::to_string(append_errors) + " appends failed");

  // Latencies come from requests due in the nominal phase only, so the
  // ladder's overload does not leak into them.
  auto nominal = [&](const OpenLoopLog& log, Kind kind,
                     const std::vector<Kind>* kinds) {
    OpenLoopLog out;
    for (size_t i = 0; i < log.timings().size(); ++i) {
      if (kinds != nullptr && (*kinds)[i] != kind) continue;
      if (log.timings()[i].due_ms < nominal_ms) out.Record(log.timings()[i]);
    }
    return out;
  };
  const OpenLoopLog explains = nominal(explain_log, kExplain, nullptr);
  const OpenLoopLog appends = nominal(append_log, kAppendBatch, nullptr);
  const OpenLoopLog audits = nominal(audit_log, kExplainNew, &audit_kinds);

  // The p50s are the benchmark's op1-op3; they and the tails, the ladder
  // and the recovery time are also recorded by name. The tails, the ladder
  // and recovery are not benchmark metrics: on a shared virtual machine
  // their run-to-run spread is wider than any bound the benchmark may set
  // (see README.md).
  struct Reported {
    const char* name;
    const OpenLoopLog* log;
    double percentile;
    const char* metric;
  };
  const Reported latencies[] = {
      {"explain_p50_ms", &explains, 50, "op1_ms"},
      {"explain_p99_ms", &explains, 99, nullptr},
      {"append_ack_p50_ms", &appends, 50, "op2_ms"},
      {"append_ack_p99_ms", &appends, 99, nullptr},
      {"audit_delta_p50_ms", &audits, 50, "op3_ms"},
      {"audit_delta_p95_ms", &audits, 95, nullptr},
  };
  std::vector<Metric> latency_metrics;
  for (const Reported& r : latencies) {
    const Tail tail = TailPercentile(r.log->LatenciesMs(), r.percentile);
    if (!tail.valid) {
      result->Check(r.name, "too few samples for any tail percentile");
      continue;
    }
    if (r.metric != nullptr) latency_metrics.push_back({r.metric, tail.value, "ms"});
    result->Observe(r.name, tail.value, "ms");
    result->Context(std::string(r.name) + ".percentile_used",
                    std::to_string(tail.percentile));
    result->Context(std::string(r.name) + ".samples",
                    std::to_string(tail.samples));
  }
  result->Observe("serve_max_rps", max_rps, "1/s");
  result->Observe("recover_s", Median(recover_s), "s");
  result->Context("log_rows_seeded", std::to_string(seed_rows));
  result->Context("wal_flush_policy",
                  "kNone (WAL written per group commit, not fsynced), "
                  "checkpoint after 1 MiB of WAL");
  result->Context("transport", "tcp loopback");
  result->Context("log_rows_final", std::to_string(seed_rows + acked_rows));
  result->Context("server.appends_rejected_busy",
                  std::to_string(served.appends_rejected_busy));
  result->Context("net.recent_lid_share", std::to_string(recent_share));
  // Simulated seconds of the generator's log replayed per second: acked
  // rows per second over the generator's rows per second of its days.
  const int kDays = eba::CareWebConfig::Scaled(kScaleFactor).num_days;
  result->Context("replay_speedup",
                  std::to_string(static_cast<double>(acked_rows) /
                                 (window_ms / 1000.0) /
                                 (static_cast<double>(generated_rows) /
                                  (kDays * 86400.0))));
  result->Context("log_rows_generated", std::to_string(generated_rows));
  result->Context("ladder_rung_retries", std::to_string(rung_retries));
  result->Context("ladder_highest_pass_rps",
                  highest_pass < 0 ? "none"
                                   : std::to_string(rung_rate(highest_pass)));

  if (!config.trace) {
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    for (const Metric& m : latency_metrics) {
      result->Add(m.name, m.value, m.unit);
    }
    return;
  }
  auto p50 = [](const OpenLoopLog& log) { return Median(log.LatenciesMs()); };
  // The per-layer metrics every workload reports; the rest of this
  // workload's layer figures go to the record's observed block.
  result->Add("careweb.generate_s", generate_s, "s");
  result->Add("storage.warmup_s", warmup_s, "s");
  result->Add("storage.rss_after_generate_mb", rss_after_generate_mb, "MB");
  result->Add("storage.rss_after_warmup_mb", rss_after_warmup_mb, "MB");
  result->Add("query.plan_cache_hit_rate",
              plan_lookups == 0 ? 0.0
                                : static_cast<double>(plan_hits) /
                                      static_cast<double>(plan_lookups),
              "ratio");
  result->Add("trace.overhead_frac",
              p50(traced_split[0]) / p50(traced_split[1]) - 1.0, "ratio");

  result->Observe("storage.dir_bytes_per_row_byte",
                  static_cast<double>(dir_growth) /
                      static_cast<double>(std::max<uint64_t>(
                          1, state.payload_bytes + foreign_payload_bytes)),
                  "ratio");
  result->Observe("checkpoint.count", static_cast<double>(checkpoints),
                  "count");
  result->Observe("recover.checkpoint_load_s", Median(load_s), "s");
  result->Observe("recover.wal_replay_s", Median(replay_s), "s");
  result->Observe("recover.converge_s", Median(converge_s), "s");
  result->Observe("recover.wal_rows_replayed", Median(wal_rows), "count");
  result->Observe("engine.explain_point_ms", Median(point_ms), "ms");
  result->Observe("ingest.append_ms", Median(twin_append_ms), "ms");
  result->Observe("ingest.explain_new_ms", Median(twin_explain_new_ms), "ms");
  result->Observe("ingest.delta_rows_per_audit", Median(delta_rows), "count");
  result->Observe("net.explain_overhead_ms", p50(explains) - Median(point_ms),
                  "ms");
  result->Observe("net.append_queue_ms",
                  p50(appends) - Median(twin_append_ms), "ms");
  result->Observe("net.busy_rejections", static_cast<double>(busy), "count");
  OpenLoopLog nominal_all = explains;
  nominal_all.Append(appends);
  nominal_all.Append(audits);
  result->Observe("net.generator_lag_p99_ms",
                  TailPercentile(nominal_all.LagsMs(), 99.0).value, "ms");
  result->Observe("net.recent_lid_share", recent_share, "ratio");
}

}  // namespace perfbench
