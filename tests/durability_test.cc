// Durability & crash recovery (DESIGN.md §13).
//
// Two layers of coverage:
//
//  1. Unit tests of the WAL wire format, torn-tail vs mid-log corruption
//     classification, checkpoint atomicity, and the short-write error
//     path — all in-process.
//
//  2. A randomized crash-recovery matrix: this binary re-execs itself
//     (CCDB_CRASH_CHILD) as a child that applies a seeded mutation
//     schedule to a durable database with a crash/torn-write failpoint
//     armed at one durability boundary, acknowledging each applied
//     mutation to a side file. The parent then recovers the directory
//     in-process and asserts the crash-consistency contract:
//
//       - recovery succeeds (torn tails are truncated, never fatal);
//       - the recovered catalog is EXACTLY the acknowledged prefix of the
//         schedule, or that prefix plus the single in-flight mutation
//         (logged but not yet acknowledged — both are legal outcomes of a
//         crash between WAL append and acknowledgment);
//       - query answers against the recovered catalog are byte-identical
//         to a never-crashed reference database holding the same state;
//       - the recovered catalog version is strictly greater than every
//         version the child observed (monotonicity across crashes — memo
//         caches can never alias a pre-crash state).
//
//     ~24 schedules x 9 crash sites = 216 combos. Scratch directories
//     live under ./ccdb_durability_scratch and are kept on failure for
//     post-mortem (CI uploads them as an artifact).

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "engine/database.h"
#include "storage/catalog.h"
#include "storage/wal.h"

namespace ccdb {
namespace {

// ---------------------------------------------------------------------------
// Seeded mutation schedules, shared by the child driver and the parent's
// reference evaluation. All relations are arity-2 and linear so every
// query in the byte-identity check is a cheap Fourier–Motzkin round.

struct MutationOp {
  enum Kind { kDefine, kDrop } kind;
  std::string name;
  std::string definition;  // kDefine only
};

std::vector<MutationOp> GenerateSchedule(unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<MutationOp> ops;
  std::vector<std::string> live;
  const int length = 6 + static_cast<int>(rng() % 5);  // 6..10 ops
  int next_id = 0;
  for (int i = 0; i < length; ++i) {
    const bool drop = !live.empty() && rng() % 10 < 3;
    if (drop) {
      std::size_t victim = rng() % live.size();
      ops.push_back({MutationOp::kDrop, live[victim], ""});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      std::string name = "R" + std::to_string(next_id++);
      int a = 1 + static_cast<int>(rng() % 5);
      int b = static_cast<int>(rng() % 7) - 3;
      int c = static_cast<int>(rng() % 9) - 4;
      auto term = [](int coefficient, const std::string& rendered) {
        return std::string(coefficient < 0 ? " - " : " + ") +
               std::to_string(coefficient < 0 ? -coefficient : coefficient) +
               rendered;
      };
      std::string definition = name + "(x, y) := " + std::to_string(a) +
                               "*x" + term(b, "*y") + term(c, "") +
                               " <= 0 and x + 10 >= 0 and y + 10 >= 0";
      ops.push_back({MutationOp::kDefine, name, definition});
      live.push_back(name);
    }
  }
  return ops;
}

Status ApplyOp(ConstraintDatabase& db, const MutationOp& op) {
  if (op.kind == MutationOp::kDefine) return db.Define(op.definition);
  return db.Drop(op.name);
}

// Canonical query answers for every relation in the catalog: existential
// projection plus the serialized constraint form. Byte-identical across a
// recovered and a never-crashed database holding the same state.
std::string QueryFingerprint(const ConstraintDatabase& db) {
  std::ostringstream out;
  for (const std::string& name : db.RelationNames()) {
    out << db.catalog().Serialize();
    auto projected = db.Query("exists y (" + name + "(x, y) and x <= 2)");
    if (!projected.ok()) {
      out << name << ": error " << projected.status().ToString() << "\n";
      continue;
    }
    out << name << ": "
        << projected->relation.ToString(projected->column_names) << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Child driver: applies a schedule to a durable database, acknowledging
// progress to <dir>/acks.txt (flushed per line, so a crash loses at most
// the in-flight op). Runs before gtest init — see main() below.

int RunCrashChild() {
  const char* dir = std::getenv("CCDB_CRASH_DIR");
  const char* seed_env = std::getenv("CCDB_CRASH_SCHEDULE");
  if (dir == nullptr || seed_env == nullptr) {
    std::fprintf(stderr, "child: CCDB_CRASH_DIR / CCDB_CRASH_SCHEDULE unset\n");
    return 3;
  }
  const unsigned seed = static_cast<unsigned>(std::strtoul(seed_env, nullptr, 10));
  auto opened = ConstraintDatabase::OpenDurable(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "child: OpenDurable failed: %s\n",
                 opened.status().ToString().c_str());
    return 3;
  }
  ConstraintDatabase db = std::move(opened).value();
  std::ofstream acks(std::string(dir) + "/acks.txt", std::ios::app);
  const std::vector<MutationOp> schedule = GenerateSchedule(seed);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    acks << "try " << i << "\n" << std::flush;
    Status applied = ApplyOp(db, schedule[i]);
    if (applied.ok()) {
      acks << "ok " << i << " " << db.catalog().version() << "\n"
           << std::flush;
    } else {
      // Short-write injection: the op failed cleanly, the process keeps
      // going, and the failed op must NOT appear in the recovered state.
      acks << "fail " << i << "\n" << std::flush;
    }
  }
  return 0;
  // ~ConstraintDatabase runs the close-time checkpoint here; crash sites
  // armed at ckpt.* can fire during it, after every op was acked.
}

// What the child acknowledged before dying.
struct AckLog {
  std::vector<std::size_t> acked;   // ops applied, in order
  std::vector<std::size_t> failed;  // ops rejected cleanly (short writes)
  long last_tried = -1;
  std::uint64_t max_version = 0;
};

AckLog ReadAckLog(const std::string& dir) {
  AckLog log;
  std::ifstream in(dir + "/acks.txt");
  std::string word;
  while (in >> word) {
    if (word == "try") {
      in >> log.last_tried;
    } else if (word == "ok") {
      std::size_t index = 0;
      std::uint64_t version = 0;
      in >> index >> version;
      log.acked.push_back(index);
      log.max_version = std::max(log.max_version, version);
    } else if (word == "fail") {
      std::size_t index = 0;
      in >> index;
      log.failed.push_back(index);
    }
  }
  return log;
}

// ---------------------------------------------------------------------------
// Parent-side harness.

constexpr char kScratchRoot[] = "ccdb_durability_scratch";

std::string Shell(const std::string& command) { return command; }

void RemoveTree(const std::string& path) {
  std::system(Shell("rm -rf '" + path + "'").c_str());
}

std::string ReferenceSerialization(const std::vector<MutationOp>& schedule,
                                   const std::vector<std::size_t>& applied) {
  Catalog reference;
  for (std::size_t index : applied) {
    Status st = index < schedule.size()
                    ? (schedule[index].kind == MutationOp::kDefine
                           ? reference.AddRelationFromText(
                                 schedule[index].definition)
                           : reference.DropRelation(schedule[index].name))
    : Status::InvalidArgument("index out of range");
    if (!st.ok()) return "reference apply failed: " + st.ToString();
  }
  return reference.Serialize();
}

ConstraintDatabase ReferenceDatabase(const std::vector<MutationOp>& schedule,
                                     const std::vector<std::size_t>& applied) {
  ConstraintDatabase db;
  for (std::size_t index : applied) {
    Status st = ApplyOp(db, schedule[index]);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return db;
}

struct CrashSite {
  const char* spec;  // site=kind (fire_at appended per combo)
  bool can_crash;    // crash/torn kinds exit 42; short-write exits 0
};

constexpr CrashSite kCrashSites[] = {
    {"wal.append.pre=crash", true},
    {"wal.append.write=torn-write", true},
    {"wal.append.write=crash", true},
    {"wal.append.post=crash", true},
    {"wal.fsync.pre=crash", true},
    {"wal.append.write=short-write", false},
    {"ckpt.write=torn-write", true},
    {"ckpt.rename.pre=crash", true},
    {"ckpt.rename.post=crash", true},
};

// Runs one (schedule, crash site) combo end to end; returns a non-empty
// failure description on contract violation. `*crashed` reports whether
// the injected fault actually killed the child (exit 42).
// Absolute path of this test binary, for re-exec'ing the crash child.
// /proc/self/exe must be resolved here in the parent: handing the literal
// path to std::system would make the forked shell resolve it to sh itself.
std::string SelfExePath() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string RunCombo(unsigned seed, const CrashSite& site,
                     unsigned fire_at, const std::string& scratch,
                     bool* crashed) {
  RemoveTree(scratch);
  ::mkdir(kScratchRoot, 0755);
  ::mkdir(scratch.c_str(), 0755);
  const std::string dir = scratch + "/db";

  // Tiny checkpoint threshold: every mutation triggers a rotation, so the
  // ckpt.* sites fire mid-schedule, not only at close.
  std::ostringstream command;
  command << "CCDB_CRASH_CHILD=1"
          << " CCDB_CRASH_DIR='" << dir << "'"
          << " CCDB_CRASH_SCHEDULE=" << seed
          << " CCDB_FAILPOINTS='" << site.spec << "@" << fire_at << "'"
          << " CCDB_WAL_FSYNC=always"
          << " CCDB_WAL_CHECKPOINT_BYTES=64"
          << " '" << SelfExePath() << "' > '" << scratch
          << "/child.log' 2>&1";
  int raw = std::system(command.str().c_str());
  if (raw == -1 || !WIFEXITED(raw)) {
    return "child did not exit normally (raw status " + std::to_string(raw) +
           ")";
  }
  const int exit_code = WEXITSTATUS(raw);
  if (exit_code != 0 && exit_code != FailpointRegistry::kCrashExitCode) {
    return "child exited " + std::to_string(exit_code) +
           " (want 0 or the injected-crash code " +
           std::to_string(FailpointRegistry::kCrashExitCode) + ")";
  }
  // exit 0 with a crash kind armed means the failpoint never fired
  // (fire_at beyond the site's hits for this schedule) — still a valid
  // recovery case, just not a crash one; the caller counts real crashes.
  *crashed = exit_code == FailpointRegistry::kCrashExitCode;

  // Recover in-process, with no failpoints armed.
  DurabilityOptions options;
  options.fsync = WalFsyncPolicy::kAlways;
  auto recovered_or = ConstraintDatabase::OpenDurable(dir, {}, options);
  if (!recovered_or.ok()) {
    return "recovery failed: " + recovered_or.status().ToString();
  }
  ConstraintDatabase recovered = std::move(recovered_or).value();

  const std::vector<MutationOp> schedule = GenerateSchedule(seed);
  const AckLog acks = ReadAckLog(dir);

  // Contract 1: the recovered catalog is the acked mutation sequence, or
  // that sequence plus the in-flight op (WAL append may have landed just
  // before the crash beat the acknowledgment).
  const std::string recovered_text = recovered.catalog().Serialize();
  const std::string acked_text = ReferenceSerialization(schedule, acks.acked);
  std::vector<std::size_t> with_inflight = acks.acked;
  bool inflight_possible = false;
  if (acks.last_tried >= 0) {
    const auto tried = static_cast<std::size_t>(acks.last_tried);
    const bool resolved =
        (!acks.acked.empty() && acks.acked.back() == tried) ||
        (!acks.failed.empty() && acks.failed.back() == tried);
    if (!resolved) {
      with_inflight.push_back(tried);
      inflight_possible = true;
    }
  }
  const std::string inflight_text =
      inflight_possible ? ReferenceSerialization(schedule, with_inflight)
                        : acked_text;
  std::vector<std::size_t> matched;
  if (recovered_text == acked_text) {
    matched = acks.acked;
  } else if (inflight_possible && recovered_text == inflight_text) {
    matched = with_inflight;
  } else {
    return "recovered state is not a prefix of the applied schedule\n"
           "--- recovered ---\n" + recovered_text +
           "--- acked prefix ---\n" + acked_text +
           (inflight_possible
                ? "--- acked prefix + in-flight ---\n" + inflight_text
                : std::string());
  }

  // Contract 2: byte-identical query answers vs a never-crashed reference.
  ConstraintDatabase reference = ReferenceDatabase(schedule, matched);
  const std::string recovered_answers = QueryFingerprint(recovered);
  const std::string reference_answers = QueryFingerprint(reference);
  if (recovered_answers != reference_answers) {
    return "query answers diverge after recovery\n--- recovered ---\n" +
           recovered_answers + "--- reference ---\n" + reference_answers;
  }

  // Contract 3: version monotonicity across the crash.
  if (acks.max_version != 0 &&
      recovered.catalog().version() <= acks.max_version) {
    return "recovered catalog version " +
           std::to_string(recovered.catalog().version()) +
           " is not past the pre-crash maximum " +
           std::to_string(acks.max_version);
  }
  return "";
}

TEST(CrashRecoveryMatrix, RecoversAPrefixAtEveryCrashSite) {
  // 24 schedules x 9 sites = 216 combos; fire_at varies with the seed so
  // crashes land at different depths of each schedule. CI can widen the
  // sweep via CCDB_CRASH_SCHEDULES (see scripts/run_crash_matrix.sh).
  unsigned schedules = 24;
  if (const char* env = std::getenv("CCDB_CRASH_SCHEDULES")) {
    unsigned parsed = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (parsed > 0) schedules = parsed;
  }
  int combos = 0;
  int crashes = 0;
  for (unsigned seed = 0; seed < schedules; ++seed) {
    for (std::size_t s = 0; s < sizeof(kCrashSites) / sizeof(kCrashSites[0]);
         ++s) {
      const unsigned fire_at = 1 + (seed + static_cast<unsigned>(s)) % 6;
      const std::string scratch = std::string(kScratchRoot) + "/combo_" +
                                  std::to_string(seed) + "_" +
                                  std::to_string(s);
      bool crashed = false;
      std::string failure =
          RunCombo(seed, kCrashSites[s], fire_at, scratch, &crashed);
      ASSERT_EQ(failure, "")
          << "combo seed=" << seed << " site=" << kCrashSites[s].spec << "@"
          << fire_at << " scratch kept at " << scratch << "\n"
          << failure;
      RemoveTree(scratch);  // keep scratch only on failure
      ++combos;
      if (crashed) ++crashes;
    }
  }
  EXPECT_EQ(combos, static_cast<int>(schedules) * 9);
  if (schedules >= 24) {
    EXPECT_GE(combos, 200);
  }
  // Vacuity guard: a harness whose failpoints never fire proves nothing.
  // Most crash-kind combos must actually have killed the child mid-run.
  EXPECT_GE(crashes, combos / 2) << "too few injected crashes fired";
}

// ---------------------------------------------------------------------------
// WAL wire-format unit tests.

class DurabilityUnitTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().ClearAll(); }
  void TearDown() override { FailpointRegistry::Global().ClearAll(); }

  std::string TempPath(const std::string& leaf) {
    return ::testing::TempDir() + "/ccdb_wal_" + leaf;
  }
};

TEST_F(DurabilityUnitTest, Crc32MatchesKnownVector) {
  // The IEEE check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST_F(DurabilityUnitTest, FsyncPolicyParses) {
  EXPECT_EQ(ParseWalFsyncPolicy("always").value(), WalFsyncPolicy::kAlways);
  EXPECT_EQ(ParseWalFsyncPolicy("batch").value(), WalFsyncPolicy::kBatch);
  EXPECT_EQ(ParseWalFsyncPolicy("off").value(), WalFsyncPolicy::kOff);
  EXPECT_EQ(ParseWalFsyncPolicy("sometimes").status().code(),
            StatusCode::kInvalidArgument);
}

std::string WalFileWith(const std::vector<WalRecord>& records) {
  std::string contents = "CCDBWAL\x01";
  for (const WalRecord& record : records) {
    contents += EncodeWalRecord(record);
  }
  return contents;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

TEST_F(DurabilityUnitTest, RecordsRoundTripThroughTheFraming) {
  const std::string path = TempPath("roundtrip.log");
  WalRecord a{WalRecord::Op::kDefine, 5, "R(x, y) := x <= 0"};
  WalRecord b{WalRecord::Op::kDrop, 9, "R"};
  WriteFile(path, WalFileWith({a, b}));
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->records[0].op, WalRecord::Op::kDefine);
  EXPECT_EQ(replay->records[0].stamp, 5u);
  EXPECT_EQ(replay->records[0].payload, "R(x, y) := x <= 0");
  EXPECT_EQ(replay->records[1].op, WalRecord::Op::kDrop);
  EXPECT_EQ(replay->records[1].payload, "R");
  EXPECT_EQ(replay->max_stamp, 9u);
  std::remove(path.c_str());
}

TEST_F(DurabilityUnitTest, TornTailIsTruncatedNotFatal) {
  const std::string path = TempPath("torn.log");
  WalRecord a{WalRecord::Op::kDefine, 1, "R0(x, y) := x <= 0"};
  WalRecord b{WalRecord::Op::kDefine, 2, "R1(x, y) := y <= 0"};
  std::string intact = WalFileWith({a});
  std::string torn = WalFileWith({a, b});
  // Chop the second record mid-payload: a crash mid-append.
  torn.resize(intact.size() + 7);
  WriteFile(path, torn);
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, intact.size());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].payload, "R0(x, y) := x <= 0");
  std::remove(path.c_str());
}

TEST_F(DurabilityUnitTest, BadChecksumOnFinalRecordIsATornTail) {
  const std::string path = TempPath("tail_crc.log");
  WalRecord a{WalRecord::Op::kDefine, 1, "R0(x, y) := x <= 0"};
  WalRecord b{WalRecord::Op::kDefine, 2, "R1(x, y) := y <= 0"};
  std::string contents = WalFileWith({a, b});
  contents.back() ^= 0x40;  // corrupt the last payload byte
  WriteFile(path, contents);
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->torn_tail);
  ASSERT_EQ(replay->records.size(), 1u);
  std::remove(path.c_str());
}

TEST_F(DurabilityUnitTest, MidLogCorruptionIsRejectedWithTheOffset) {
  const std::string path = TempPath("midlog.log");
  WalRecord a{WalRecord::Op::kDefine, 1, "R0(x, y) := x <= 0"};
  WalRecord b{WalRecord::Op::kDefine, 2, "R1(x, y) := y <= 0"};
  std::string contents = WalFileWith({a, b});
  // Flip a byte inside the FIRST record's payload: bytes follow it, so
  // this cannot be a torn append.
  contents[8 + 8 + 4] ^= 0x01;
  WriteFile(path, contents);
  auto replay = ReadWal(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
  // The error names the offset of the corrupt record (the first record
  // starts right after the 8-byte magic).
  EXPECT_NE(replay.status().message().find("offset 8"), std::string::npos)
      << replay.status().message();
  std::remove(path.c_str());
}

TEST_F(DurabilityUnitTest, NonMonotoneStampsAreCorruption) {
  const std::string path = TempPath("stamps.log");
  WalRecord a{WalRecord::Op::kDefine, 7, "R0(x, y) := x <= 0"};
  WalRecord b{WalRecord::Op::kDefine, 7, "R1(x, y) := y <= 0"};
  WriteFile(path, WalFileWith({a, b}));
  auto replay = ReadWal(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("non-monotone"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Durable-database behavior, in-process.

class DurableDatabaseTest : public DurabilityUnitTest {
 protected:
  std::string NewDir(const std::string& leaf) {
    std::string dir = ::testing::TempDir() + "/ccdb_durable_" + leaf;
    std::system(("rm -rf '" + dir + "'").c_str());
    return dir;
  }
};

TEST_F(DurableDatabaseTest, SurvivesCloseAndReopen) {
  const std::string dir = NewDir("reopen");
  std::uint64_t version_before = 0;
  {
    auto db = ConstraintDatabase::OpenDurable(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Define("A(x, y) := x + y <= 3").ok());
    ASSERT_TRUE(db->Define("B(x, y) := x - y <= 1").ok());
    ASSERT_TRUE(db->Drop("A").ok());
    version_before = db->catalog().version();
  }  // destructor folds the WAL into a checkpoint
  auto reopened = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->catalog().HasRelation("A"));
  EXPECT_TRUE(reopened->catalog().HasRelation("B"));
  // Strictly monotone across the close/open boundary.
  EXPECT_GT(reopened->catalog().version(), version_before);
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, RecoversFromWalWithoutCheckpoint) {
  const std::string dir = NewDir("wal_only");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  // Hand-craft a WAL as a crashed process would leave it: records only,
  // no checkpoint, plus a torn half-record at the tail.
  std::string contents =
      WalFileWith({{WalRecord::Op::kDefine, 3, "A(x, y) := x + y <= 3"},
                   {WalRecord::Op::kDefine, 8, "B(x, y) := x - y <= 1"},
                   {WalRecord::Op::kDrop, 11, "A"}});
  contents += "\x99\x00\x00\x00";  // torn frame header
  WriteFile(dir + "/wal.log", contents);
  auto db = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE(db->catalog().HasRelation("A"));
  EXPECT_TRUE(db->catalog().HasRelation("B"));
  ASSERT_NE(db->recovery_info(), nullptr);
  EXPECT_TRUE(db->recovery_info()->torn_tail);
  EXPECT_EQ(db->recovery_info()->replayed_records, 3u);
  // Monotone past the largest stamp on disk.
  EXPECT_GT(db->catalog().version(), 11u);
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, MidLogCorruptionRefusesToOpen) {
  const std::string dir = NewDir("corrupt");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::string contents =
      WalFileWith({{WalRecord::Op::kDefine, 3, "A(x, y) := x + y <= 3"},
                   {WalRecord::Op::kDefine, 8, "B(x, y) := x - y <= 1"}});
  contents[8 + 8 + 4] ^= 0x01;  // first record's payload, bytes follow
  WriteFile(dir + "/wal.log", contents);
  auto db = ConstraintDatabase::OpenDurable(dir);
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().message().find("offset"), std::string::npos)
      << db.status().message();
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, CheckpointRotatesTheWal) {
  const std::string dir = NewDir("ckpt");
  auto db = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->Define("A(x, y) := x + y <= 3").ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  // After rotation the WAL holds no records; recovery must come from the
  // checkpoint alone.
  auto replay = ReadWal(dir + "/wal.log");
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records.size(), 0u);
  auto reopened = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->catalog().HasRelation("A"));
  EXPECT_NE(reopened->recovery_info()->checkpoint_file, "");
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, CorruptCheckpointFallsBackToOlderOne) {
  const std::string dir = NewDir("ckpt_fallback");
  {
    auto db = ConstraintDatabase::OpenDurable(dir);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->Define("A(x, y) := x + y <= 3").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  // Plant a newer, corrupt checkpoint: recovery must warn and fall back.
  WriteFile(dir + "/ckpt-99999999.ccdb", "# ccdb checkpoint v1\ngarbage\n");
  auto db = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(db->catalog().HasRelation("A"));
  EXPECT_EQ(db->recovery_info()->checkpoint_file.find("ckpt-99999999"),
            std::string::npos)
      << "fallback should skip the corrupt file, got "
      << db->recovery_info()->checkpoint_file;
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, ShortWriteFailsTheMutationCleanly) {
  const std::string dir = NewDir("short");
  auto db = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->Define("A(x, y) := x + y <= 3").ok());
  FailpointRegistry::Global().Set(
      "wal.append.write", {FailpointSpec::Kind::kShortWrite, 1});
  Status failed = db->Define("B(x, y) := x - y <= 1");
  EXPECT_FALSE(failed.ok());
  // The failed mutation is in neither the catalog nor the log, and the
  // log is not torn: the next mutation appends cleanly.
  EXPECT_FALSE(db->catalog().HasRelation("B"));
  ASSERT_TRUE(db->Define("C(x, y) := x <= 0").ok());
  auto reopened = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->catalog().HasRelation("A"));
  EXPECT_FALSE(reopened->catalog().HasRelation("B"));
  EXPECT_TRUE(reopened->catalog().HasRelation("C"));
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, CheckpointOnInMemoryDatabaseIsRejected) {
  ConstraintDatabase db;
  EXPECT_FALSE(db.durable());
  EXPECT_EQ(db.recovery_info(), nullptr);
  EXPECT_EQ(db.Checkpoint().code(), StatusCode::kInvalidArgument);
}

TEST_F(DurableDatabaseTest, InsertSurvivesCloseAndReopen) {
  const std::string dir = NewDir("insert_reopen");
  {
    auto db = ConstraintDatabase::OpenDurable(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Define("E(x, y) := x + y <= 1 and x >= 0").ok());
    ASSERT_TRUE(db->Insert("E(x, y) := x - y <= 0 and x >= 10").ok());
    // An insert into a missing relation or at the wrong arity never
    // reaches the WAL.
    EXPECT_FALSE(db->Insert("Nope(x) := x <= 0").ok());
    EXPECT_FALSE(db->Insert("E(x) := x <= 0").ok());
  }  // destructor folds Define + Insert into a checkpoint
  auto reopened = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto original = reopened->Contains("E", {Rational(BigInt(0)),
                                           Rational(BigInt(1))});
  auto inserted = reopened->Contains("E", {Rational(BigInt(10)),
                                           Rational(BigInt(11))});
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(inserted.ok());
  EXPECT_TRUE(*original) << "original tuples survive";
  EXPECT_TRUE(*inserted) << "inserted delta survives the reopen";
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, InsertReplaysFromWalWithoutCheckpoint) {
  const std::string dir = NewDir("insert_wal_only");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  // A crashed process's WAL: Define then Insert, no checkpoint. Replay
  // must append the kInsert payload's tuples onto the defined relation.
  WriteFile(dir + "/wal.log",
            WalFileWith(
                {{WalRecord::Op::kDefine, 3, "E(x, y) := x + y <= 1"},
                 {WalRecord::Op::kInsert, 7, "E(x, y) := x - y <= 0"}}));
  auto db = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->recovery_info()->replayed_records, 2u);
  auto rel = db->Relation("E");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->tuples().size(), 2u) << "defined tuple + inserted delta";
  RemoveTree(dir);
}

TEST_F(DurableDatabaseTest, PerRelationVersionsMonotoneAcrossReopen) {
  const std::string dir = NewDir("relation_versions");
  RelationVersion before;
  {
    auto db = ConstraintDatabase::OpenDurable(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->Define("E(x, y) := x + y <= 1").ok());
    auto defined =
        db->catalog().Snapshot()->GetRelationVersion("E");
    ASSERT_TRUE(defined.has_value());
    // An append-only insert bumps the change version, never the base
    // (the prefix-stability proof incremental fixpoints rely on).
    ASSERT_TRUE(db->Insert("E(x, y) := x - y <= 0 and x >= 5").ok());
    auto inserted =
        db->catalog().Snapshot()->GetRelationVersion("E");
    ASSERT_TRUE(inserted.has_value());
    EXPECT_GT(inserted->version, defined->version);
    EXPECT_EQ(inserted->base, defined->base);
    before = *inserted;
  }
  auto reopened = ConstraintDatabase::OpenDurable(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto recovered =
      reopened->catalog().Snapshot()->GetRelationVersion("E");
  ASSERT_TRUE(recovered.has_value());
  // Recovery re-stamps every per-relation version past everything the
  // previous process handed out: a memo cache keyed on (relation,
  // version) can never alias a pre-crash state.
  EXPECT_GT(recovered->version, before.version);
  RemoveTree(dir);
}

}  // namespace
}  // namespace ccdb

// Custom main: in child mode (CCDB_CRASH_CHILD) this binary is the crash
// driver, re-exec'd by the matrix test above; otherwise it runs gtest.
// Defining main here overrides the gtest_main the test link line carries.
int main(int argc, char** argv) {
  if (std::getenv("CCDB_CRASH_CHILD") != nullptr) {
    return ccdb::RunCrashChild();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
