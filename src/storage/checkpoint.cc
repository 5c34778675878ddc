#include "storage/checkpoint.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string_view>

#include "common/crc32.h"
#include "common/string_util.h"
#include "storage/persist.h"
#include "storage/table.h"

namespace eba {

namespace {

constexpr char kManifestHeader[] = "# eba checkpoint v1";
constexpr char kCurrentFile[] = "CURRENT";

StatusOr<uint64_t> ParseU64(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("not a u64: '" + text + "'");
  }
  return static_cast<uint64_t>(v);
}


std::string CrcHex(uint32_t crc) {
  std::ostringstream out;
  out << std::hex << crc;
  return out.str();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string_view TrimView(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text[0]))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

/// Fields of one manifest line after the directive keyword.
std::vector<std::string> SplitFields(const std::string& text) {
  std::vector<std::string> fields;
  for (const auto& part : Split(text, ' ')) {
    if (!Trim(part).empty()) fields.push_back(Trim(part));
  }
  return fields;
}

}  // namespace

CheckpointStore::CheckpointStore(Env* env, std::string dir)
    : env_(env != nullptr ? env : RealEnv()), dir_(std::move(dir)) {}

Status CheckpointStore::Init() { return env_->CreateDirs(dir_); }

std::string CheckpointStore::CkptDir(uint64_t seq) const {
  return dir_ + "/ckpt-" + std::to_string(seq);
}

std::string CheckpointStore::WalPath(uint64_t seq) const {
  return dir_ + "/wal-" + std::to_string(seq) + ".log";
}

StatusOr<uint64_t> CheckpointStore::CurrentSeq() const {
  const std::string current_path = dir_ + "/" + kCurrentFile;
  if (!env_->FileExists(current_path)) {
    return Status::NotFound("no checkpoint published in '" + dir_ + "'");
  }
  EBA_ASSIGN_OR_RETURN(std::string content,
                       env_->ReadFileToString(current_path));
  const std::string name = Trim(content);
  if (!StartsWith(name, "ckpt-")) {
    return Status::Internal("corrupt CURRENT in '" + dir_ + "': " + name);
  }
  return ParseU64(name.substr(5));
}

Status CheckpointStore::WriteManifest(uint64_t seq, const Manifest& m) const {
  std::ostringstream body;
  body << kManifestHeader << "\n";
  body << "SEQ " << m.seq << "\n";
  if (m.has_base) body << "BASE " << m.base << "\n";
  body << "WALSEQ " << m.wal_seq << "\n";
  body << "AUDITED " << m.audit.audited_rows << "\n";
  for (const auto& [name, rows] : m.table_rows) {
    body << "TABLE " << name << " " << rows << "\n";
  }
  for (const auto& [name, seg] : m.segments) {
    body << "SEGMENT " << name << " " << seg.from_row << " " << seg.to_row
         << " " << seg.file << "\n";
  }
  for (const auto& [name, wm] : m.audit.audit_watermarks) {
    body << "WATERMARK " << name << " " << wm << "\n";
  }
  // One LIDS line, not one line per lid: recovery parses this section for
  // every explained access, so its cost is part of the gated time-to-recover
  // metric and must stay linear with a small constant.
  body << "EXPLAINED " << m.audit.explained_lids.size() << "\n";
  body << "LIDS";
  for (int64_t lid : m.audit.explained_lids) {
    body << ' ' << lid;
  }
  body << "\n";
  std::string text = body.str();
  text += "CRC " + CrcHex(Crc32(text)) + "\n";
  return env_->WriteFile(CkptDir(seq) + "/ckpt.txt", text);
}

StatusOr<CheckpointStore::Manifest> CheckpointStore::ReadManifest(
    uint64_t seq, bool with_lids) const {
  const std::string path = CkptDir(seq) + "/ckpt.txt";
  EBA_ASSIGN_OR_RETURN(std::string text, env_->ReadFileToString(path));

  const size_t crc_pos = text.rfind("\nCRC ");
  if (crc_pos == std::string::npos) {
    return Status::Internal("checkpoint manifest missing CRC: " + path);
  }
  // Parsed in place: the body is a view of the CRC-checked buffer, and so
  // is every line (the LIDS line holds one token per explained access).
  const std::string_view body(text.data(), crc_pos + 1);  // includes '\n'
  const std::string crc_text = Trim(text.substr(crc_pos + 5));
  errno = 0;
  char* end = nullptr;
  const unsigned long long stored = std::strtoull(crc_text.c_str(), &end, 16);
  if (end == crc_text.c_str() || *end != '\0' || errno == ERANGE ||
      static_cast<uint32_t>(stored) != Crc32(body)) {
    return Status::Internal("checkpoint manifest failed CRC: " + path);
  }

  Manifest m;
  int line_number = 0;
  auto parse_error = [&](const std::string& message) {
    return Status::Internal("checkpoint manifest " + path + " line " +
                            std::to_string(line_number) + ": " + message);
  };
  // The current line; `after(n)` is its trimmed text past the first n
  // characters (the directive keyword).
  std::string_view trimmed;
  auto directive = [&](std::string_view keyword) {
    return trimmed.substr(0, keyword.size()) == keyword;
  };
  auto after = [&](size_t n) {
    return std::string(TrimView(trimmed.substr(n)));
  };
  bool has_count = false;
  uint64_t count = 0;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    trimmed = TrimView(body.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_number;
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (directive("SEQ ")) {
      EBA_ASSIGN_OR_RETURN(m.seq, ParseU64(after(4)));
    } else if (directive("BASE ")) {
      m.has_base = true;
      EBA_ASSIGN_OR_RETURN(m.base, ParseU64(after(5)));
    } else if (directive("WALSEQ ")) {
      EBA_ASSIGN_OR_RETURN(m.wal_seq, ParseU64(after(7)));
    } else if (directive("AUDITED ")) {
      EBA_ASSIGN_OR_RETURN(m.audit.audited_rows, ParseU64(after(8)));
    } else if (directive("TABLE ")) {
      const auto fields = SplitFields(after(6));
      if (fields.size() != 2) return parse_error("TABLE needs name rows");
      EBA_ASSIGN_OR_RETURN(m.table_rows[fields[0]], ParseU64(fields[1]));
    } else if (directive("SEGMENT ")) {
      const auto fields = SplitFields(after(8));
      if (fields.size() != 4) {
        return parse_error("SEGMENT needs name from to file");
      }
      Manifest::Segment seg;
      EBA_ASSIGN_OR_RETURN(seg.from_row, ParseU64(fields[1]));
      EBA_ASSIGN_OR_RETURN(seg.to_row, ParseU64(fields[2]));
      seg.file = fields[3];
      m.segments[fields[0]] = std::move(seg);
    } else if (directive("WATERMARK ")) {
      const auto fields = SplitFields(after(10));
      if (fields.size() != 2) return parse_error("WATERMARK needs name wm");
      EBA_ASSIGN_OR_RETURN(m.audit.audit_watermarks[fields[0]],
                           ParseU64(fields[1]));
    } else if (directive("EXPLAINED ")) {
      EBA_ASSIGN_OR_RETURN(count, ParseU64(after(10)));
      has_count = true;
      if (with_lids) m.audit.explained_lids.reserve(count);
    } else if (directive("LIDS") &&
               (trimmed.size() == 4 || trimmed[4] == ' ')) {
      if (!with_lids) continue;
      // Hot during recovery: from_chars straight over the buffer, one
      // single-space-separated token per lid.
      const char* p = trimmed.data() + 4;
      const char* const line_end = trimmed.data() + trimmed.size();
      while (p < line_end) {
        if (*p != ' ') return parse_error("malformed LIDS separator");
        ++p;
        int64_t lid = 0;
        const auto [next, ec] = std::from_chars(p, line_end, lid);
        if (ec != std::errc() || (next < line_end && *next != ' ')) {
          return parse_error("malformed LIDS token");
        }
        m.audit.explained_lids.push_back(lid);
        p = next;
      }
    } else {
      return parse_error("unrecognized directive: " + std::string(trimmed));
    }
  }
  if (with_lids && has_count && m.audit.explained_lids.size() != count) {
    return Status::Internal("checkpoint manifest " + path + ": EXPLAINED " +
                            std::to_string(count) + " but LIDS holds " +
                            std::to_string(m.audit.explained_lids.size()));
  }
  return m;
}

StatusOr<uint64_t> CheckpointStore::Prepare(const Database& db,
                                            const AuditState& audit,
                                            bool full, uint64_t min_seq) {
  uint64_t base_seq = 0;
  bool has_current = false;
  {
    StatusOr<uint64_t> cur = CurrentSeq();
    if (cur.ok()) {
      has_current = true;
      base_seq = *cur;
    } else if (!cur.status().IsNotFound()) {
      return cur.status();
    }
  }
  const uint64_t seq = std::max(base_seq + 1, min_seq);

  Manifest base;
  if (!has_current) {
    full = true;
  } else if (!full) {
    StatusOr<Manifest> base_or = ReadManifest(base_seq, /*with_lids=*/false);
    if (!base_or.ok()) {
      full = true;  // unreadable base: fall back to a self-contained image
    } else {
      base = std::move(*base_or);
      // An incremental checkpoint only works when every table strictly grew
      // from the base (join metadata is carried by the full root, so table
      // churn or in-place rewrites demote to a full image).
      if (base.table_rows.size() != db.TableNames().size()) full = true;
      for (const std::string& name : db.TableNames()) {
        const auto it = base.table_rows.find(name);
        if (it == base.table_rows.end()) {
          full = true;
          break;
        }
        EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
        if (it->second > table->num_rows()) {
          full = true;
          break;
        }
      }
    }
  }

  const std::string ckpt_dir = CkptDir(seq);
  if (env_->FileExists(ckpt_dir)) {
    EBA_RETURN_IF_ERROR(env_->RemoveAll(ckpt_dir));  // unpublished leftover
  }
  EBA_RETURN_IF_ERROR(env_->CreateDirs(ckpt_dir));

  Manifest m;
  m.seq = seq;
  m.wal_seq = seq;
  m.audit = audit;
  std::sort(m.audit.explained_lids.begin(), m.audit.explained_lids.end());
  for (const std::string& name : db.TableNames()) {
    EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    m.table_rows[name] = table->num_rows();
  }

  if (full) {
    EBA_RETURN_IF_ERROR(SaveDatabase(db, ckpt_dir + "/db", env_));
  } else {
    m.has_base = true;
    m.base = base_seq;
    for (const std::string& name : db.TableNames()) {
      EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
      const uint64_t from = base.table_rows.at(name);
      const uint64_t to = table->num_rows();
      if (from == to) continue;
      Manifest::Segment seg;
      seg.from_row = from;
      seg.to_row = to;
      seg.file = "seg-" + name + ".csv";
      EBA_RETURN_IF_ERROR(env_->WriteFile(
          ckpt_dir + "/" + seg.file,
          table->ToCsvString(static_cast<size_t>(from),
                             static_cast<size_t>(to))));
      m.segments[name] = std::move(seg);
    }
  }

  EBA_RETURN_IF_ERROR(WriteManifest(seq, m));
  EBA_RETURN_IF_ERROR(env_->SyncDir(ckpt_dir));
  return seq;
}

Status CheckpointStore::Publish(uint64_t seq) {
  EBA_RETURN_IF_ERROR(env_->WriteFileAtomic(
      dir_ + "/" + kCurrentFile, "ckpt-" + std::to_string(seq) + "\n"));

  // Garbage-collect: keep only the new chain and its WAL suffix. Leftovers
  // from a crash mid-GC are harmless (recovery only follows CURRENT) and
  // are swept by the next Publish.
  std::set<uint64_t> chain;
  uint64_t wal_min = seq;
  uint64_t walk = seq;
  while (true) {
    EBA_ASSIGN_OR_RETURN(Manifest m, ReadManifest(walk, /*with_lids=*/false));
    chain.insert(walk);
    wal_min = m.wal_seq;
    if (!m.has_base) break;
    walk = m.base;
  }

  EBA_ASSIGN_OR_RETURN(std::vector<std::string> names, env_->ListDir(dir_));
  for (const std::string& name : names) {
    if (StartsWith(name, "ckpt-")) {
      StatusOr<uint64_t> n = ParseU64(name.substr(5));
      if (n.ok() && chain.count(*n) == 0) {
        EBA_RETURN_IF_ERROR(env_->RemoveAll(dir_ + "/" + name));
      }
    } else if (StartsWith(name, "wal-") && EndsWith(name, ".log")) {
      StatusOr<uint64_t> n =
          ParseU64(name.substr(4, name.size() - 4 - 4));
      if (n.ok() && *n < wal_min) {
        EBA_RETURN_IF_ERROR(env_->RemoveFile(dir_ + "/" + name));
      }
    }
  }
  return Status::OK();
}

StatusOr<CheckpointContents> CheckpointStore::LoadNewest() const {
  EBA_ASSIGN_OR_RETURN(uint64_t seq, CurrentSeq());

  // Walk the BASE chain down to the full root, newest first.
  std::vector<Manifest> chain;
  uint64_t walk = seq;
  while (true) {
    // Only the newest manifest's audit state is used.
    EBA_ASSIGN_OR_RETURN(Manifest m, ReadManifest(walk, walk == seq));
    const bool at_root = !m.has_base;
    const uint64_t next = m.base;
    chain.push_back(std::move(m));
    if (at_root) break;
    walk = next;
  }
  std::reverse(chain.begin(), chain.end());  // root (full) first

  const auto load_start = std::chrono::steady_clock::now();
  EBA_ASSIGN_OR_RETURN(Database db,
                       LoadDatabase(CkptDir(chain.front().seq) + "/db"));
  for (size_t i = 1; i < chain.size(); ++i) {
    for (const auto& [name, seg] : chain[i].segments) {
      EBA_ASSIGN_OR_RETURN(Table * table, db.GetTable(name));
      if (table->num_rows() != seg.from_row) {
        return Status::Internal(
            "checkpoint chain mismatch for table '" + name + "': have " +
            std::to_string(table->num_rows()) + " rows, segment starts at " +
            std::to_string(seg.from_row));
      }
      const std::string seg_path = CkptDir(chain[i].seq) + "/" + seg.file;
      EBA_ASSIGN_OR_RETURN(std::string csv, env_->ReadFileToString(seg_path));
      EBA_RETURN_IF_ERROR(table->AppendCsvString(csv, seg_path));
    }
  }
  for (const auto& [name, rows] : chain.back().table_rows) {
    EBA_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    if (table->num_rows() != rows) {
      return Status::Internal("checkpoint row-count mismatch for table '" +
                              name + "': have " +
                              std::to_string(table->num_rows()) +
                              ", manifest says " + std::to_string(rows));
    }
  }

  CheckpointContents out;
  out.db = std::move(db);
  out.audit = std::move(chain.back().audit);
  out.seq = chain.back().seq;
  out.wal_seq = chain.back().wal_seq;
  out.chain_length = chain.size();
  out.db_load_seconds = SecondsSince(load_start);
  return out;
}

}  // namespace eba
