// Tests for whole-database persistence: manifest + CSV round-trips
// preserving schemas, rows, domains, and join metadata.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "careweb/generator.h"
#include "common/crc32.h"
#include "storage/checkpoint.h"
#include "storage/persist.h"
#include "tests/test_util.h"

namespace eba {
namespace {

using testing_util::BuildPaperToyDatabase;
using testing_util::UnwrapOrDie;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << a.name();
  ASSERT_EQ(a.num_columns(), b.num_columns()) << a.name();
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const ColumnDef& da = a.schema().column(c);
    const ColumnDef& db_ = b.schema().column(c);
    EXPECT_EQ(da.name, db_.name);
    EXPECT_EQ(da.type, db_.type);
    EXPECT_EQ(da.domain, db_.domain);
    EXPECT_EQ(da.is_primary_key, db_.is_primary_key);
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    ASSERT_EQ(a.GetRow(r), b.GetRow(r)) << a.name() << " row " << r;
  }
}

TEST(PersistTest, ToyDatabaseRoundTrip) {
  Database db = BuildPaperToyDatabase();
  EBA_ASSERT_OK(db.AddAdminRelationship(AttrId{"Appointments", "Date"},
                                        AttrId{"Log", "Date"}));
  std::string dir = TempDir("eba_persist_toy");
  EBA_ASSERT_OK(SaveDatabase(db, dir));

  Database loaded = UnwrapOrDie(LoadDatabase(dir));
  EXPECT_EQ(loaded.TableNames(), db.TableNames());
  for (const std::string& name : db.TableNames()) {
    ExpectTablesEqual(*UnwrapOrDie(db.GetTable(name)),
                      *UnwrapOrDie(loaded.GetTable(name)));
  }
  EXPECT_TRUE(loaded.IsSelfJoinAllowed(AttrId{"Doctor_Info", "Department"}));
  ASSERT_EQ(loaded.admin_relationships().size(), 1u);
  EXPECT_EQ(loaded.admin_relationships()[0].a,
            (AttrId{"Appointments", "Date"}));
  std::filesystem::remove_all(dir);
}

TEST(PersistTest, CareWebRoundTripPreservesMetadata) {
  CareWebData data = UnwrapOrDie(GenerateCareWeb(CareWebConfig::Tiny()));
  std::string dir = TempDir("eba_persist_careweb");
  EBA_ASSERT_OK(SaveDatabase(data.db, dir));
  Database loaded = UnwrapOrDie(LoadDatabase(dir));

  EXPECT_TRUE(loaded.IsMappingTable("UserMap"));
  EXPECT_TRUE(loaded.IsSelfJoinAllowed(AttrId{"Users", "Department"}));
  EXPECT_EQ(loaded.TableNames(), data.db.TableNames());
  // Spot-check a large table fully and key dimension tables.
  ExpectTablesEqual(*UnwrapOrDie(data.db.GetTable("Log")),
                    *UnwrapOrDie(loaded.GetTable("Log")));
  ExpectTablesEqual(*UnwrapOrDie(data.db.GetTable("Users")),
                    *UnwrapOrDie(loaded.GetTable("Users")));
  std::filesystem::remove_all(dir);
}

TEST(PersistTest, ForeignKeysRoundTrip) {
  Database db;
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Parent", {ColumnDef{"id", DataType::kInt64, "d", true}})));
  EBA_ASSERT_OK(db.CreateTable(TableSchema(
      "Child", {ColumnDef{"ref", DataType::kInt64, "d", false}})));
  EBA_ASSERT_OK(db.AddForeignKey(AttrId{"Child", "ref"}, AttrId{"Parent", "id"}));
  std::string dir = TempDir("eba_persist_fk");
  EBA_ASSERT_OK(SaveDatabase(db, dir));
  Database loaded = UnwrapOrDie(LoadDatabase(dir));
  ASSERT_EQ(loaded.foreign_keys().size(), 1u);
  EXPECT_EQ(loaded.foreign_keys()[0].from, (AttrId{"Child", "ref"}));
  EXPECT_EQ(loaded.foreign_keys()[0].to, (AttrId{"Parent", "id"}));
  std::filesystem::remove_all(dir);
}

TEST(PersistTest, LoadErrors) {
  EXPECT_TRUE(LoadDatabase("/nonexistent/dir").status().IsNotFound());

  // Manifest referencing a missing CSV.
  std::string dir = TempDir("eba_persist_bad");
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/manifest.txt");
    out << "# eba database manifest v1\n"
        << "TABLE Ghost\nCOLUMN id int64 domain=d pk\nEND\n";
  }
  EXPECT_FALSE(LoadDatabase(dir).ok());

  // Unknown directive.
  {
    std::ofstream out(dir + "/manifest.txt");
    out << "# eba database manifest v1\nBOGUS x\n";
  }
  EXPECT_FALSE(LoadDatabase(dir).ok());

  // Missing header.
  {
    std::ofstream out(dir + "/manifest.txt");
    out << "MAPPING X\n";
  }
  EXPECT_FALSE(LoadDatabase(dir).ok());
  std::filesystem::remove_all(dir);
}

/// Writes a one-table (T: id int64, name string) directory with the given
/// manifest body + CSV contents.
std::string WriteOneTableDir(const std::string& name,
                             const std::string& manifest,
                             const std::string& csv) {
  const std::string dir = TempDir(name);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/manifest.txt") << manifest;
  std::ofstream(dir + "/T.csv") << csv;
  return dir;
}

TEST(PersistTest, LoadRejectsDuplicateTable) {
  const std::string dir = WriteOneTableDir(
      "eba_persist_dup_table",
      "# eba database manifest v1\n"
      "TABLE T\nCOLUMN id int64 domain=d pk\nEND\n"
      "TABLE T\nCOLUMN id int64 domain=d pk\nEND\n",
      "id\n1\n");
  const Status s = LoadDatabase(dir).status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate TABLE 'T'"), std::string::npos)
      << s.ToString();
  std::filesystem::remove_all(dir);
}

TEST(PersistTest, LoadRejectsDuplicateColumn) {
  const std::string dir = WriteOneTableDir(
      "eba_persist_dup_col",
      "# eba database manifest v1\n"
      "TABLE T\nCOLUMN id int64 domain=d pk\nCOLUMN id int64\nEND\n",
      "id,id\n1,2\n");
  const Status s = LoadDatabase(dir).status();
  ASSERT_FALSE(s.ok());
  // The error must name the table and the offending column, not crash.
  EXPECT_NE(s.message().find("table 'T'"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("duplicate column 'id'"), std::string::npos)
      << s.ToString();
  std::filesystem::remove_all(dir);
}

TEST(PersistTest, LoadRejectsTruncatedCsvRow) {
  const std::string dir = WriteOneTableDir(
      "eba_persist_truncated",
      "# eba database manifest v1\n"
      "TABLE T\nCOLUMN id int64 domain=d pk\nCOLUMN name string\nEND\n",
      "id,name\n1,alice\n2\n");  // row 2 lost its name field
  const Status s = LoadDatabase(dir).status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated row?"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("table 'T'"), std::string::npos) << s.ToString();
  std::filesystem::remove_all(dir);
}

TEST(PersistTest, LoadRejectsGarbageNumericField) {
  const std::string dir = WriteOneTableDir(
      "eba_persist_garbage",
      "# eba database manifest v1\n"
      "TABLE T\nCOLUMN id int64 domain=d pk\nCOLUMN name string\nEND\n",
      "id,name\n1,alice\nnot_a_number,bob\n");
  const Status s = LoadDatabase(dir).status();
  ASSERT_FALSE(s.ok());
  // The role-naming contract: table, column, and line of the bad value.
  EXPECT_NE(s.message().find("table 'T'"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("'id'"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("line 3"), std::string::npos) << s.ToString();
  std::filesystem::remove_all(dir);
}

TEST(PersistTest, LoadRejectsWrongCsvHeader) {
  const std::string dir = WriteOneTableDir(
      "eba_persist_header",
      "# eba database manifest v1\n"
      "TABLE T\nCOLUMN id int64 domain=d pk\nCOLUMN name string\nEND\n",
      "id\n1\n");  // header arity disagrees with the schema
  EXPECT_FALSE(LoadDatabase(dir).ok());
  std::filesystem::remove_all(dir);
}

// ----- Checkpoint manifest: the explained-lid (LIDS) line ----------------

/// Publishes a full checkpoint of the toy database whose audit state holds
/// `lids`, in store directory `dir`.
void PublishWithLids(const std::string& dir, const std::vector<int64_t>& lids) {
  Database db = BuildPaperToyDatabase();
  CheckpointStore store(RealEnv(), dir);
  EBA_ASSERT_OK(store.Init());
  AuditState audit;
  audit.audited_rows = 2;
  audit.explained_lids = lids;
  audit.audit_watermarks["Log"] = 2;
  EBA_ASSERT_OK(store.Publish(UnwrapOrDie(store.Prepare(db, audit, true))));
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Replaces `from` with `to` in the manifest of checkpoint 1 and re-seals
/// its CRC, so only the parser (not the checksum) can object.
void RewriteManifest(const std::string& dir, const std::string& from,
                     const std::string& to) {
  const std::string path = dir + "/ckpt-1/ckpt.txt";
  std::string text = ReadText(path);
  const size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  const std::string body = text.substr(0, text.rfind("\nCRC ") + 1);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%x", Crc32(body));
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << body << "CRC " << crc << "\n";
}

TEST(CheckpointManifestTest, ExplainedLidsRoundTrip) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> many;
  for (int64_t lid = 1; lid <= 110000; ++lid) many.push_back(lid);
  const std::vector<std::vector<int64_t>> cases = {
      {},
      {7},
      many,
      {-40, -3, -1, 0, 5},
      {kMin, kMin + 1, -1, 0, kMax - 1, kMax}};
  for (const std::vector<int64_t>& lids : cases) {
    const std::string dir = TempDir("eba_manifest_lids");
    PublishWithLids(dir, lids);
    const CheckpointContents loaded =
        UnwrapOrDie(CheckpointStore(RealEnv(), dir).LoadNewest());
    EXPECT_EQ(loaded.audit.explained_lids, lids) << lids.size() << " lids";
    EXPECT_EQ(loaded.audit.audited_rows, 2u);
    EXPECT_EQ(loaded.audit.audit_watermarks.at("Log"), 2u);
    std::filesystem::remove_all(dir);
  }
}

TEST(CheckpointManifestTest, MalformedLidsLineIsInternal) {
  // Each rewrite keeps the CRC valid; the LIDS parser must still refuse.
  const std::vector<std::pair<std::string, std::string>> rewrites = {
      {"LIDS 1 2 3", "LIDS 1 2x 3"},   // trailing garbage in a token
      {"LIDS 1 2 3", "LIDS 1 +2 3"},   // sign the writer never emits
      {"LIDS 1 2 3", "LIDS 1  2 3"},   // empty token
      {"LIDS 1 2 3", "LIDS 1 2 -"},    // sign without digits
      {"LIDS 1 2 3", "LIDS 1 2 99999999999999999999"},  // out of range
      {"LIDS 1 2 3", "LIDS 1 2"},      // fewer lids than EXPLAINED says
      {"LIDS 1 2 3", "LIDS,1 2 3"},    // not a LIDS directive
  };
  for (const auto& [from, to] : rewrites) {
    const std::string dir = TempDir("eba_manifest_malformed");
    PublishWithLids(dir, {1, 2, 3});
    RewriteManifest(dir, from, to);
    const StatusOr<CheckpointContents> loaded =
        CheckpointStore(RealEnv(), dir).LoadNewest();
    ASSERT_FALSE(loaded.ok()) << to;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal) << to;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace eba
