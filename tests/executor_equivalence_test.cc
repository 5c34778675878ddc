// Equivalence tests for the late-materialization executor: the boxed
// reference engine (ExecutorOptions::Engine::kBoxedReference) is the oracle,
// and the row-id frame engine — with and without cost-based join ordering —
// must return identical results across randomized path queries over the
// Figure 3 toy database and a generated CareWeb database, plus targeted
// unit tests for the distinct-lid semi-join fast path.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "careweb/generator.h"
#include "careweb/workload.h"
#include "common/date.h"
#include "common/random.h"
#include "core/engine.h"
#include "graph/schema_graph.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan_cache.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::UnwrapOrDie;

ExecutorOptions BoxedReference() {
  ExecutorOptions o;
  o.engine = ExecutorOptions::Engine::kBoxedReference;
  o.join_order = ExecutorOptions::JoinOrder::kDeclared;
  return o;
}

ExecutorOptions LateDeclared() {
  ExecutorOptions o;
  o.engine = ExecutorOptions::Engine::kLateMaterialization;
  o.join_order = ExecutorOptions::JoinOrder::kDeclared;
  return o;
}

ExecutorOptions LateCostBased() {
  ExecutorOptions o;
  o.engine = ExecutorOptions::Engine::kLateMaterialization;
  o.join_order = ExecutorOptions::JoinOrder::kCostBased;
  return o;
}

/// Rows of a relation as a sorted multiset (join order permutes row order,
/// so equivalence is on content).
std::vector<Row> SortedRows(Relation rel) {
  std::sort(rel.rows.begin(), rel.rows.end());
  return std::move(rel.rows);
}

std::string DescribeQuery(const Database& db, const PathQuery& q) {
  std::string out = "FROM ";
  for (const auto& v : q.vars) out += v.table + " " + v.alias + ", ";
  out += "| " + std::to_string(q.join_chain.size()) + " chain, " +
         std::to_string(q.extra_conditions.size()) + " extra, " +
         std::to_string(q.const_conditions.size()) + " const";
  (void)db;
  return out;
}

/// Generates a random executable path query: a restricted simple path grown
/// forward from Log.Patient (so variable 0 is always connected), decorated
/// with random literal/attribute conditions and a random projection.
struct QueryGenerator {
  const Database* db;
  SchemaGraph graph;
  PathRules rules;
  Random rng;

  QueryGenerator(const Database* database, uint64_t seed)
      : db(database), rng(seed) {
    graph = UnwrapOrDie(SchemaGraph::Build(*db));
    rules.start = AttrId{"Log", "Patient"};
    rules.end = AttrId{"Log", "User"};
    rules.max_length = 5;
    rules.max_tables = 3;
  }

  StatusOr<PathQuery> Next() {
    const int target_len = 1 + static_cast<int>(rng.Uniform(3));
    MiningPath path;
    for (int step = 0; step < target_len; ++step) {
      std::vector<MiningPath> extensions;
      for (const auto& edge : graph.edges()) {
        MiningPath candidate =
            path.empty() ? MiningPath({edge}) : path.Extend(edge);
        if (candidate.FirstAttr() != rules.start) continue;
        if (IsRestrictedSimplePath(*db, rules, candidate,
                                   /*anchored_forward=*/true)) {
          extensions.push_back(std::move(candidate));
        }
      }
      if (extensions.empty()) break;
      path = rng.Choice(extensions);
    }
    if (path.empty()) return Status::Internal("no extensions from start");
    EBA_ASSIGN_OR_RETURN(PathQuery q, PathToQuery(*db, rules, path));
    Decorate(&q);
    return q;
  }

  void Decorate(PathQuery* q) {
    // Literal decoration: an actual cell value of a random referenced
    // column, so the condition is satisfiable but selective.
    if (rng.Bernoulli(0.5)) {
      const int var = static_cast<int>(rng.Uniform(q->vars.size()));
      const Table* table =
          UnwrapOrDie(db->GetTable(q->vars[static_cast<size_t>(var)].table));
      if (table->num_rows() > 0) {
        const int col = static_cast<int>(rng.Uniform(table->num_columns()));
        const size_t row = static_cast<size_t>(rng.Uniform(table->num_rows()));
        Value literal = table->Get(row, static_cast<size_t>(col));
        const CmpOp op = rng.Bernoulli(0.7) ? CmpOp::kEq
                         : rng.Bernoulli(0.5) ? CmpOp::kLe
                                              : CmpOp::kGe;
        q->const_conditions.push_back(
            ConstCondition{QAttr{var, col}, op, std::move(literal)});
      }
    }
    // Attribute-attribute decoration between two same-type columns.
    if (rng.Bernoulli(0.3)) {
      std::vector<std::pair<QAttr, DataType>> attrs;
      for (size_t v = 0; v < q->vars.size(); ++v) {
        const Table* table = UnwrapOrDie(db->GetTable(q->vars[v].table));
        for (size_t c = 0; c < table->num_columns(); ++c) {
          attrs.push_back({QAttr{static_cast<int>(v), static_cast<int>(c)},
                           table->column(c).type()});
        }
      }
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto& a = attrs[rng.Uniform(attrs.size())];
        const auto& b = attrs[rng.Uniform(attrs.size())];
        if (a.first == b.first || a.second != b.second) continue;
        const CmpOp op = rng.Bernoulli(0.5) ? CmpOp::kEq : CmpOp::kLt;
        q->extra_conditions.push_back(VarCondition{a.first, op, b.first});
        break;
      }
    }
    // Random projection over referenced attributes (empty = all referenced).
    if (rng.Bernoulli(0.5)) {
      std::vector<QAttr> referenced = q->ReferencedAttrs();
      rng.Shuffle(&referenced);
      const size_t keep = 1 + rng.Uniform(referenced.size());
      referenced.resize(keep);
      q->projection = std::move(referenced);
    }
  }
};

/// Runs one query through the oracle, both frame configurations, and a
/// plan-cached frame executor (executed twice: the first run records the
/// compiled plan, the second replays it) and asserts identical result sets,
/// distinct values, and counts.
void ExpectEquivalent(const Database& db, const PathQuery& q, QAttr lid_attr) {
  Executor reference(&db, BoxedReference());
  Executor late(&db, LateDeclared());
  Executor late_cost(&db, LateCostBased());
  PlanCache cache;
  ExecutorOptions cached_options = LateCostBased();
  cached_options.plan_cache = &cache;
  Executor late_cached(&db, cached_options);
  const std::string desc = DescribeQuery(db, q);

  auto ref_rel = reference.Materialize(q);
  auto late_rel = late.Materialize(q);
  auto cost_rel = late_cost.Materialize(q);
  auto cached_rel = late_cached.Materialize(q);
  auto replay_rel = late_cached.Materialize(q);
  ASSERT_EQ(ref_rel.ok(), late_rel.ok()) << desc;
  ASSERT_EQ(ref_rel.ok(), cost_rel.ok()) << desc;
  ASSERT_EQ(ref_rel.ok(), cached_rel.ok()) << desc;
  ASSERT_EQ(ref_rel.ok(), replay_rel.ok()) << desc;
  if (ref_rel.ok()) {
    ASSERT_EQ(ref_rel->attrs, late_rel->attrs) << desc;
    ASSERT_EQ(ref_rel->attrs, cost_rel->attrs) << desc;
    // Same join order must give byte-identical row order, not just the same
    // multiset; cost-based ordering may permute rows.
    EXPECT_EQ(ref_rel->rows, late_rel->rows) << desc;
    // The cached executor runs the same cost-based plan: its recording run
    // matches the uncached cost-based executor row for row, and the replay
    // matches the recording byte for byte.
    EXPECT_EQ(cached_rel->rows, cost_rel->rows) << desc;
    EXPECT_EQ(replay_rel->rows, cached_rel->rows) << desc;
    EXPECT_TRUE(late_cached.last_stats().plan_cache_hit) << desc;
    EXPECT_EQ(SortedRows(std::move(*ref_rel)), SortedRows(std::move(*cost_rel)))
        << desc;
  }

  for (auto strategy : {Executor::SupportStrategy::kNaive,
                        Executor::SupportStrategy::kDedupFrontier}) {
    auto ref_vals = reference.DistinctValues(q, lid_attr, strategy);
    auto late_vals = late.DistinctValues(q, lid_attr, strategy);
    auto cost_vals = late_cost.DistinctValues(q, lid_attr, strategy);
    ASSERT_EQ(ref_vals.ok(), late_vals.ok()) << desc;
    ASSERT_EQ(ref_vals.ok(), cost_vals.ok()) << desc;
    if (ref_vals.ok()) {
      EXPECT_EQ(*ref_vals, *late_vals) << desc;
      EXPECT_EQ(*ref_vals, *cost_vals) << desc;
    }
  }

  auto ref_lids = reference.DistinctLids(q, lid_attr);
  auto late_lids = late.DistinctLids(q, lid_attr);
  auto cost_lids = late_cost.DistinctLids(q, lid_attr);
  auto cached_lids = late_cached.DistinctLids(q, lid_attr);
  auto replay_lids = late_cached.DistinctLids(q, lid_attr);
  ASSERT_EQ(ref_lids.ok(), late_lids.ok()) << desc;
  ASSERT_EQ(ref_lids.ok(), cost_lids.ok()) << desc;
  ASSERT_EQ(ref_lids.ok(), cached_lids.ok()) << desc;
  if (ref_lids.ok()) {
    EXPECT_EQ(*ref_lids, *late_lids) << desc;
    EXPECT_EQ(*ref_lids, *cost_lids) << desc;
    EXPECT_EQ(*ref_lids, *cached_lids) << desc;
    EXPECT_EQ(*ref_lids, *replay_lids) << desc;
  }
}

/// Property sweep over one database; `queries` counts executed (non-skipped)
/// queries. Oversized plans (estimator predicts a huge boxed intermediate)
/// are skipped so the oracle stays fast.
void RunPropertySweep(const Database& db, uint64_t seed, int queries) {
  QueryGenerator gen(&db, seed);
  CardinalityEstimator estimator(&db);
  const Table* log = UnwrapOrDie(db.GetTable("Log"));
  const int lid_col = log->schema().ColumnIndex("Lid");
  ASSERT_GE(lid_col, 0);
  const QAttr lid_attr{0, lid_col};

  int executed = 0;
  int attempts = 0;
  while (executed < queries && attempts < queries * 20) {
    ++attempts;
    auto q = gen.Next();
    if (!q.ok()) continue;
    auto est = estimator.EstimateRows(*q);
    if (!est.ok() || *est > 5e4) continue;
    ExpectEquivalent(db, *q, lid_attr);
    if (::testing::Test::HasFatalFailure()) return;
    ++executed;
  }
  EXPECT_EQ(executed, queries) << "generator starved after " << attempts
                               << " attempts";
}

TEST(ExecutorEquivalenceTest, RandomQueriesOnPaperToyDatabase) {
  Database db = BuildPaperToyDatabase();
  RunPropertySweep(db, /*seed=*/0x5eed0001, /*queries=*/60);
}

TEST(ExecutorEquivalenceTest, RandomQueriesOnCareWebDatabase) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  RunPropertySweep(data.db, /*seed=*/0x5eed0002, /*queries=*/60);
}

TEST(ExecutorEquivalenceTest, ExplainAllReportsMatchAcrossEngines) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&data.db, "Log"));
  for (auto& tmpl : UnwrapOrDie(TemplatesHandcraftedDirect(data.db, true))) {
    EBA_ASSERT_OK(engine.AddTemplate(tmpl));
  }
  ASSERT_GT(engine.num_templates(), 0u);

  ExplainAllOptions boxed;
  boxed.executor = BoxedReference();
  EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport reference,
                           engine.ExplainAll(boxed));

  for (const auto& options : {LateDeclared(), LateCostBased()}) {
    ExplainAllOptions late;
    late.executor = options;
    EBA_ASSERT_OK_AND_ASSIGN(ExplanationReport report, engine.ExplainAll(late));
    EXPECT_EQ(report.log_size, reference.log_size);
    EXPECT_EQ(report.per_template_counts, reference.per_template_counts);
    EXPECT_EQ(report.explained_lids, reference.explained_lids);
    EXPECT_EQ(report.unexplained_lids, reference.unexplained_lids);
  }
}

// --------------------- Semi-join fast path unit tests ---------------------

class SemiJoinTest : public ::testing::Test {
 protected:
  SemiJoinTest() : db_(BuildPaperToyDatabase()) {}

  /// Template (B): Appointments, Doctor_Info x2 — every non-log variable is
  /// dangling (never projected) when only distinct lids are requested.
  PathQuery TemplateB() {
    return UnwrapOrDie(ParsePathQuery(
        db_, "Log L, Appointments A, Doctor_Info I1, Doctor_Info I2",
        "L.Patient = A.Patient AND A.Doctor = I1.Doctor AND "
        "I1.Department = I2.Department AND I2.Doctor = L.User"));
  }
  QAttr Lid() { return QAttr{0, 0}; }

  Database db_;
};

TEST_F(SemiJoinTest, DistinctLidsTakesSemiJoinPath) {
  Executor late(&db_, LateDeclared());
  auto lids = UnwrapOrDie(late.DistinctLids(TemplateB(), Lid()));
  EXPECT_EQ(lids, (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(late.last_stats().used_semi_join);
  EXPECT_EQ(late.last_stats().joins_executed, 3u);
}

TEST_F(SemiJoinTest, DanglingVariableDedupBoundsIntermediate) {
  // Multiply the dangling Appointments variable: 6 duplicate appointments
  // explode the naive intermediate but the semi-join frontier stays at the
  // distinct (lid) domain after the dangling variable is dropped.
  Table* appt = db_.GetTable("Appointments").value();
  for (int i = 0; i < 6; ++i) {
    EBA_ASSERT_OK(appt->AppendRow(
        {Value::Int64(testing_util::kAlice),
         Value::Timestamp(Date::FromCivil(2011, 1, 1 + i).ToSeconds()),
         Value::Int64(testing_util::kDave)}));
  }
  PathQuery q = UnwrapOrDie(ParsePathQuery(
      db_, "Log L, Appointments A",
      "L.Patient = A.Patient AND A.Doctor = L.User"));

  Executor late(&db_, LateDeclared());
  EXPECT_EQ(UnwrapOrDie(late.CountDistinct(
                q, Lid(), Executor::SupportStrategy::kNaive)),
            1);
  const size_t naive_peak = late.last_stats().peak_intermediate;

  EXPECT_EQ(UnwrapOrDie(late.CountDistinct(
                q, Lid(), Executor::SupportStrategy::kDedupFrontier)),
            1);
  EXPECT_TRUE(late.last_stats().used_semi_join);
  EXPECT_LE(late.last_stats().peak_intermediate, naive_peak);

  // The boxed oracle agrees.
  Executor reference(&db_, BoxedReference());
  EXPECT_EQ(UnwrapOrDie(reference.CountDistinct(
                q, Lid(), Executor::SupportStrategy::kDedupFrontier)),
            1);
}

TEST_F(SemiJoinTest, CostBasedOrderRecordedInStats) {
  Executor late_cost(&db_, LateCostBased());
  (void)UnwrapOrDie(late_cost.DistinctLids(TemplateB(), Lid()));
  const ExecStats& stats = late_cost.last_stats();
  EXPECT_TRUE(stats.used_cost_based_order);
  ASSERT_EQ(stats.join_order.size(), 4u);  // 3 binding joins + 1 filter
  for (const auto& step : stats.join_order) {
    EXPECT_GE(step.condition_index, 0);
    EXPECT_LT(step.condition_index, 4);
    if (!step.is_filter) {
      EXPECT_GE(step.estimated_rows, 0.0);  // the estimator was consulted
    }
  }
}

TEST_F(SemiJoinTest, MaterializeForLogIdsMatchesReference) {
  PathQuery q = TemplateB();
  const std::vector<Value> lids = {Value::Int64(2), Value::Int64(1)};
  Executor reference(&db_, BoxedReference());
  Executor late(&db_, LateDeclared());
  Relation ref_rel = UnwrapOrDie(reference.MaterializeForLogIds(q, Lid(), lids));
  Relation late_rel = UnwrapOrDie(late.MaterializeForLogIds(q, Lid(), lids));
  EXPECT_EQ(ref_rel.attrs, late_rel.attrs);
  EXPECT_EQ(ref_rel.rows, late_rel.rows);
}

// ------------------ Join residuals and existence probes ------------------

/// A small hospital whose residual columns (User, Date, Action, Doctor,
/// Note) all hold NULLs, with several appointment paths per log row so a
/// join can both drop an old slot and run as an existence probe.
class ResidualTest : public ::testing::Test {
 protected:
  ResidualTest() {
    auto must = [](const Status& s) { EBA_CHECK_MSG(s.ok(), s.ToString()); };
    must(db_.CreateTable(AccessLog::StandardSchema("Log")));
    must(db_.CreateTable(TableSchema(
        "Appt", {ColumnDef{"Patient", DataType::kInt64, "patient", false},
                 ColumnDef{"Doctor", DataType::kInt64, "user", false},
                 ColumnDef{"Date", DataType::kTimestamp, "", false},
                 ColumnDef{"Note", DataType::kString, "", false}})));
    must(db_.CreateTable(TableSchema(
        "Dept", {ColumnDef{"Doctor", DataType::kInt64, "user", false},
                 ColumnDef{"Department", DataType::kInt64, "dept", false}})));
    Random rng(0x5eed0003);
    const int64_t base = Date::FromCivil(2010, 1, 1).ToSeconds();
    const char* const actions[] = {"view", "edit", "print"};
    auto maybe_null = [&](double p, Value v) {
      return rng.Bernoulli(p) ? Value::Null() : std::move(v);
    };
    auto date = [&] {
      return Value::Timestamp(base + rng.UniformRange(0, 20) * 3600);
    };
    auto action = [&] { return Value::String(actions[rng.Uniform(3)]); };
    Table* log = db_.GetTable("Log").value();
    for (int64_t lid = 1; lid <= 80; ++lid) {
      const Value user = Value::Int64(rng.UniformRange(10, 14));
      must(log->AppendRow({Value::Int64(lid), maybe_null(0.15, date()),
                           maybe_null(0.1, user),
                           Value::Int64(rng.UniformRange(1, 5)),
                           maybe_null(0.1, action())}));
    }
    Table* appt = db_.GetTable("Appt").value();
    for (int i = 0; i < 30; ++i) {
      must(appt->AppendRow(
          {Value::Int64(rng.UniformRange(1, 5)),
           maybe_null(0.1, Value::Int64(rng.UniformRange(10, 14))),
           maybe_null(0.15, date()), maybe_null(0.2, action())}));
    }
    // Doctor 10 sits in two departments; doctor 14's department is unknown.
    Table* dept = db_.GetTable("Dept").value();
    for (int64_t d : {10, 10, 11, 12, 13, 14}) {
      const Value department = d == 14 ? Value::Null() : Value::Int64(d % 2);
      must(dept->AppendRow({Value::Int64(d), department}));
    }
    must(dept->AppendRow({Value::Int64(10), Value::Int64(7)}));
  }

  PathQuery Query(const std::string& from, const std::string& where) {
    return UnwrapOrDie(ParsePathQuery(db_, from, where));
  }
  QAttr Lid() { return QAttr{0, 0}; }

  /// The bare Patient joins the residual queries extend.
  PathQuery SelfOnPatient() {
    return Query("Log L, Log L2", "L.Patient = L2.Patient");
  }
  PathQuery ApptOnPatient() {
    return Query("Log L, Appt A", "L.Patient = A.Patient");
  }

  /// rows_emitted of a declared-order Materialize run.
  size_t MaterializeEmitted(const PathQuery& q) {
    Executor late(&db_, LateDeclared());
    (void)UnwrapOrDie(late.Materialize(q));
    return late.last_stats().rows_emitted;
  }

  Database db_;
};

TEST_F(ResidualTest, SelfJoinWithThetaOnNewVariableMatchesReference) {
  const PathQuery repeat = Query(
      "Log L, Log L2",
      "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date");
  ExpectEquivalent(db_, repeat, Lid());
  ExpectEquivalent(db_,
                   Query("Log L, Log L2",
                         "L.Patient = L2.Patient AND L.Action = L2.Action AND "
                         "L.Date <= L2.Date"),
                   Lid());

  // The chain condition and the theta decoration run inside the probe, and
  // the existence probe emits each explained log row exactly once.
  Executor late(&db_, LateDeclared());
  const std::vector<int64_t> lids =
      UnwrapOrDie(late.DistinctLids(repeat, Lid()));
  ASSERT_FALSE(lids.empty());
  const ExecStats& stats = late.last_stats();
  ASSERT_EQ(stats.join_order.size(), 2u);
  EXPECT_FALSE(stats.join_order[0].is_filter);
  EXPECT_TRUE(stats.join_order[1].is_filter);
  EXPECT_EQ(stats.join_order[1].condition_index, 1);
  EXPECT_EQ(stats.rows_emitted, lids.size());
  EXPECT_EQ(stats.join_order.back().rows_after, lids.size());

  // Materialize keeps every surviving pair: nothing is filtered after the
  // probe, so the probe emits exactly the materialized rows.
  const Relation rel = UnwrapOrDie(late.Materialize(repeat));
  EXPECT_EQ(late.last_stats().rows_emitted, rel.rows.size());
  EXPECT_LT(rel.rows.size(), MaterializeEmitted(SelfOnPatient()));
}

TEST_F(ResidualTest, NullsInResidualColumnsMatchReference) {
  ExpectEquivalent(db_,
                   Query("Log L, Appt A",
                         "L.Patient = A.Patient AND A.Doctor = L.User AND "
                         "A.Date < L.Date"),
                   Lid());
  ExpectEquivalent(db_,
                   Query("Log L, Appt A",
                         "L.Patient = A.Patient AND A.Date >= L.Date"),
                   Lid());
  ExpectEquivalent(db_,
                   Query("Log L, Log L2",
                         "L.Patient = L2.Patient AND L2.Date >= L.Date AND "
                         "L2.User <= L.User"),
                   Lid());
}

TEST_F(ResidualTest, StringComparisonsOffRawPayloadsStayUnfused) {
  // A cross-column string equality and a string ordering compare decoded
  // dictionary strings, not raw payloads: they run as filter steps after
  // the join, so the probe emits every Patient pair.
  const PathQuery cross = Query(
      "Log L, Appt A", "L.Patient = A.Patient AND L.Action = A.Note");
  const PathQuery ordered = Query(
      "Log L, Log L2", "L.Patient = L2.Patient AND L.Action < L2.Action");
  ExpectEquivalent(db_, cross, Lid());
  ExpectEquivalent(db_, ordered, Lid());
  EXPECT_EQ(MaterializeEmitted(cross), MaterializeEmitted(ApptOnPatient()));
  EXPECT_EQ(MaterializeEmitted(ordered), MaterializeEmitted(SelfOnPatient()));

  // Same-column string equality compares dictionary codes and is fused.
  const PathQuery same = Query(
      "Log L, Log L2", "L.Patient = L2.Patient AND L.Action = L2.Action");
  ExpectEquivalent(db_, same, Lid());
  EXPECT_LT(MaterializeEmitted(same), MaterializeEmitted(SelfOnPatient()));
}

TEST_F(ResidualTest, ExistenceProbeThatDropsAnOldSlotStillDedups) {
  // Declared order: A binds, D1 binds (A is dropped), then D2 binds with
  // D2.Doctor = L.User as its residual — D1 is dropped and D2 is never
  // needed, so that probe is an existence probe over (L, D1) tuples whose
  // L may repeat across departments.
  const PathQuery q = Query(
      "Log L, Appt A, Dept D1, Dept D2",
      "L.Patient = A.Patient AND A.Doctor = D1.Doctor AND "
      "D1.Department = D2.Department AND D2.Doctor = L.User");
  ExpectEquivalent(db_, q, Lid());

  Executor late(&db_, LateDeclared());
  const std::vector<int64_t> lids = UnwrapOrDie(late.DistinctLids(q, Lid()));
  ASSERT_FALSE(lids.empty());
  // Precondition: some explained row has several witnesses.
  Executor reference(&db_, BoxedReference());
  PathQuery projected = q;
  projected.projection = {Lid()};
  ASSERT_GT(UnwrapOrDie(reference.Materialize(projected)).rows.size(),
            lids.size());
  // Lids are unique per row here, so a deduplicated final frame holds
  // exactly one tuple per explained lid.
  EXPECT_EQ(late.last_stats().join_order.back().rows_after, lids.size());
}

TEST_F(ResidualTest, ExplainAllClassifiesDuplicateAndSparseLids) {
  const std::vector<std::pair<std::string, std::string>> templates = {
      {"Log L, Appt A", "L.Patient = A.Patient AND A.Doctor = L.User"},
      {"Log L, Log L2",
       "L.Patient = L2.Patient AND L2.User = L.User AND L.Date > L2.Date"},
      {"Log L, Log L2", "L.Patient = L2.Patient AND L2.Lid > L.Lid"},
  };
  ExplanationEngine engine =
      UnwrapOrDie(ExplanationEngine::Create(&db_, "Log"));
  for (size_t i = 0; i < templates.size(); ++i) {
    EBA_ASSERT_OK(engine.AddTemplate(UnwrapOrDie(ExplanationTemplate::Parse(
        db_, "t" + std::to_string(i), templates[i].first,
        templates[i].second, "explained"))));
  }
  Table* log = db_.GetTable("Log").value();
  auto append = [&](int64_t lid) {
    return log->AppendRow({Value::Int64(lid), Value::Null(), Value::Int64(11),
                           Value::Int64(2), Value::String("view")});
  };
  // The report must equal a classification of every log row against the
  // union of the reference engine's per-template lids.
  auto expect_report_matches_reference = [&](const std::string& what) {
    Executor reference(&db_, BoxedReference());
    std::set<int64_t> explained;
    for (const auto& t : templates) {
      for (int64_t lid : UnwrapOrDie(
               reference.DistinctLids(Query(t.first, t.second), Lid()))) {
        explained.insert(lid);
      }
    }
    std::vector<int64_t> want_explained, want_unexplained;
    const Column& lids = log->column(0);
    for (size_t r = 0; r < log->num_rows(); ++r) {
      (explained.count(lids.Int64At(r)) ? want_explained : want_unexplained)
          .push_back(lids.Int64At(r));
    }
    std::sort(want_explained.begin(), want_explained.end());
    std::sort(want_unexplained.begin(), want_unexplained.end());
    for (size_t threads : {1, 4}) {
      ExplainAllOptions options;
      options.num_threads = threads;
      options.min_rows_per_shard = 1;
      const ExplanationReport report = UnwrapOrDie(engine.ExplainAll(options));
      EXPECT_EQ(report.explained_lids, want_explained) << what << threads;
      EXPECT_EQ(report.unexplained_lids, want_unexplained) << what << threads;
    }
  };

  // Lid 3 duplicated in the log, after larger lids: the classifying merge
  // must restart from the front of the explained set.
  EBA_ASSERT_OK(append(3));
  expect_report_matches_reference("duplicate ");
  // Two far-away lids: 2^40 is explained (2^41 comes later for the same
  // patient), which spreads the explained set far beyond the log size.
  EBA_ASSERT_OK(append(int64_t{1} << 40));
  EBA_ASSERT_OK(append(int64_t{1} << 41));
  expect_report_matches_reference("sparse ");
  // A negative lid below every other, then lids ascending again.
  EBA_ASSERT_OK(append(-7));
  EBA_ASSERT_OK(append(5));
  expect_report_matches_reference("descending ");
}

}  // namespace
}  // namespace eba
