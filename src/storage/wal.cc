#include "storage/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "base/config.h"
#include "base/failpoint.h"
#include "base/logging.h"
#include "base/metrics.h"

namespace ccdb {

namespace {

constexpr char kWalMagic[8] = {'C', 'C', 'D', 'B', 'W', 'A', 'L', '\x01'};
constexpr std::uint8_t kWalSchemaVersion = 1;
// u32 len | u32 crc
constexpr std::size_t kFrameHeaderBytes = 8;
// u8 schema | u8 op | u64 stamp
constexpr std::size_t kPayloadHeaderBytes = 10;
// Anything bigger than this in a length prefix is treated as framing
// corruption rather than an allocation request: the largest legitimate
// payload is a full catalog serialization, and 64 MiB of definitions is
// far beyond what this engine can evaluate anyway.
constexpr std::uint32_t kMaxWalPayloadBytes = 64u << 20;
// Batch-policy sync threshold.
constexpr std::uint64_t kBatchSyncBytes = 64u << 10;

constexpr char kCheckpointHeader[] = "# ccdb checkpoint v1";
constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".ccdb";
constexpr char kWalFileName[] = "wal.log";

void PutU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t GetU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t GetU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

// Full write()-until-done loop; EINTR-safe.
Status WriteAll(int fd, const char* data, std::size_t n,
                const std::string& what) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(what);
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

// The fault-injection-aware write used at every durability boundary:
// consults the registry (cheap when nothing is armed), and implements the
// torn-write (prefix + crash) and short-write (prefix + error) faults.
// Returns the number of bytes actually on disk through *written.
Status FaultableWrite(int fd, const char* site, const std::string& data,
                      std::size_t* written) {
  *written = 0;
  FailpointRegistry& registry = FailpointRegistry::Global();
  if (registry.HasArmed()) {
    Status injected = Status::Ok();
    IoFault fault = registry.HitIo(site, &injected);
    if (!injected.ok()) return injected;
    if (fault != IoFault::kNone) {
      // Land a strict prefix (half, rounded down) so the tail is torn.
      std::size_t prefix = data.size() / 2;
      Status ws = WriteAll(fd, data.data(), prefix, site);
      if (!ws.ok()) return ws;
      *written = prefix;
      if (fault == IoFault::kTornWrite) {
        // Crash after the partial write — the prefix is in the page cache
        // and survives process death, exactly a torn append.
        std::fprintf(stderr,
                     "ccdb: failpoint %s injected torn write + crash\n", site);
        std::_Exit(FailpointRegistry::kCrashExitCode);
      }
      return Status::Internal("failpoint " + std::string(site) +
                              " injected short write");
    }
  }
  Status ws = WriteAll(fd, data.data(), data.size(), site);
  if (!ws.ok()) return ws;
  *written = data.size();
  return Status::Ok();
}

// Consults a non-write durability site (pre/post boundaries): fires crash
// or an injected Status; torn/short kinds armed here degrade to Internal.
Status HitSite(const char* site) {
  FailpointRegistry& registry = FailpointRegistry::Global();
  if (!registry.HasArmed()) return Status::Ok();
  return registry.Hit(site);
}

Status SyncFd(int fd, const std::string& what) {
  if (::fdatasync(fd) != 0) return ErrnoStatus(what);
  return Status::Ok();
}

// fsync on the directory makes a rename/create durable against power loss.
// Best-effort: some filesystems refuse O_DIRECTORY fsync; a failure is
// logged, not fatal (the fault model the tests enforce is process crash).
void SyncDirBestEffort(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  if (::fsync(fd) != 0) {
    CCDB_LOG(WARN) << "directory fsync failed for " << dir << ": "
                   << std::strerror(errno);
  }
  ::close(fd);
}

std::string DirOf(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

StatusOr<std::string> ReadFileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string HexU32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return std::string(buf);
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n) {
  // Table-driven CRC-32 (IEEE reflected polynomial 0xEDB88320), the same
  // function zlib computes — table built once on first use.
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

StatusOr<WalFsyncPolicy> ParseWalFsyncPolicy(const std::string& name) {
  if (name == "always") return WalFsyncPolicy::kAlways;
  if (name == "batch") return WalFsyncPolicy::kBatch;
  if (name == "off") return WalFsyncPolicy::kOff;
  return Status::InvalidArgument("unknown WAL fsync policy \"" + name +
                                 "\" (always|batch|off)");
}

DurabilityOptions DurabilityOptions::FromEnv() {
  // Knob parsing (including the unknown-policy diagnostic) lives in
  // base/config.cc; this just maps the resolved strings onto the enum.
  const EngineConfig& config = EngineConfig::Process();
  DurabilityOptions options;
  StatusOr<WalFsyncPolicy> parsed = ParseWalFsyncPolicy(config.wal_fsync);
  if (parsed.ok()) options.fsync = parsed.value();
  options.checkpoint_bytes = config.wal_checkpoint_bytes;
  return options;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  payload.reserve(kPayloadHeaderBytes + record.payload.size());
  payload.push_back(static_cast<char>(kWalSchemaVersion));
  payload.push_back(static_cast<char>(record.op));
  PutU64(&payload, record.stamp);
  payload += record.payload;

  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<std::uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

StatusOr<WalReplay> ReadWal(const std::string& path) {
  // Read in place rather than moving the string out of the StatusOr: the
  // move trips a false -Wmaybe-uninitialized in GCC's optimised builds.
  StatusOr<std::string> read = ReadFileContents(path);
  if (!read.ok()) return read.status();
  const std::string& contents = *read;
  const auto* bytes = reinterpret_cast<const unsigned char*>(contents.data());
  const std::size_t size = contents.size();

  WalReplay replay;
  if (size < sizeof(kWalMagic)) {
    // Even the header is torn (crash during creation): treat the whole
    // file as a torn tail; the writer re-creates it from offset 0.
    replay.torn_tail = size > 0;
    replay.valid_bytes = 0;
    return replay;
  }
  if (std::memcmp(bytes, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Internal("WAL " + path +
                            " corrupt: bad magic at offset 0");
  }

  std::size_t offset = sizeof(kWalMagic);
  replay.valid_bytes = offset;
  while (offset < size) {
    const std::size_t record_start = offset;
    auto torn = [&]() -> StatusOr<WalReplay> {
      replay.torn_tail = true;
      replay.valid_bytes = record_start;
      return replay;
    };
    if (size - offset < kFrameHeaderBytes) return torn();
    const std::uint32_t payload_len = GetU32(bytes + offset);
    const std::uint32_t expected_crc = GetU32(bytes + offset + 4);
    if (payload_len < kPayloadHeaderBytes ||
        payload_len > kMaxWalPayloadBytes) {
      // An absurd length prefix is either a torn header (only if it ends
      // the file) or corruption. A torn append can only truncate bytes,
      // never rewrite the length field of a record with data after it.
      if (size - offset <= kFrameHeaderBytes) return torn();
      return Status::Internal(
          "WAL " + path + " corrupt: invalid record length " +
          std::to_string(payload_len) + " at offset " +
          std::to_string(record_start));
    }
    if (size - offset - kFrameHeaderBytes < payload_len) return torn();
    const unsigned char* payload = bytes + offset + kFrameHeaderBytes;
    const std::size_t record_end = offset + kFrameHeaderBytes + payload_len;
    if (Crc32(payload, payload_len) != expected_crc) {
      if (record_end == size) return torn();  // bad CRC on the final record
      return Status::Internal("WAL " + path +
                              " corrupt: checksum mismatch at offset " +
                              std::to_string(record_start));
    }
    if (payload[0] != kWalSchemaVersion) {
      return Status::Internal(
          "WAL " + path + " corrupt: unknown schema version " +
          std::to_string(payload[0]) + " at offset " +
          std::to_string(record_start));
    }
    WalRecord record;
    const std::uint8_t op = payload[1];
    if (op < static_cast<std::uint8_t>(WalRecord::Op::kDefine) ||
        op > static_cast<std::uint8_t>(WalRecord::Op::kInsert)) {
      return Status::Internal("WAL " + path + " corrupt: unknown op " +
                              std::to_string(op) + " at offset " +
                              std::to_string(record_start));
    }
    record.op = static_cast<WalRecord::Op>(op);
    record.stamp = GetU64(payload + 2);
    if (record.stamp <= replay.max_stamp) {
      // Stamps are reserved before append and appended in order; a
      // non-increasing stamp cannot come from this writer.
      return Status::Internal(
          "WAL " + path + " corrupt: non-monotone stamp " +
          std::to_string(record.stamp) + " at offset " +
          std::to_string(record_start));
    }
    record.payload.assign(
        reinterpret_cast<const char*>(payload + kPayloadHeaderBytes),
        payload_len - kPayloadHeaderBytes);
    replay.max_stamp = record.stamp;
    replay.records.push_back(std::move(record));
    offset = record_end;
    replay.valid_bytes = offset;
  }
  return replay;
}

WalWriter::WalWriter(int fd, std::string path, WalFsyncPolicy policy,
                     std::uint64_t bytes)
    : fd_(fd), path_(std::move(path)), policy_(policy), bytes_(bytes) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (policy_ != WalFsyncPolicy::kOff && unsynced_ > 0) {
      ::fdatasync(fd_);
    }
    ::close(fd_);
  }
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                     WalFsyncPolicy policy,
                                                     std::uint64_t resume_at) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  std::unique_ptr<WalWriter> writer(
      new WalWriter(fd, path, policy, resume_at));
  // Drop any torn tail recovery found, then position at the end.
  if (::ftruncate(fd, static_cast<off_t>(resume_at)) != 0) {
    return ErrnoStatus("truncate " + path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) return ErrnoStatus("seek " + path);
  if (resume_at < kHeaderBytes) {
    // Fresh (or fully-torn) log: write the magic header. No fault site
    // here — header creation is covered by the append sites.
    Status ws = WriteAll(fd, kWalMagic, sizeof(kWalMagic), "wal header");
    if (!ws.ok()) return ws;
    writer->bytes_ = kHeaderBytes;
    if (policy != WalFsyncPolicy::kOff) {
      CCDB_RETURN_IF_ERROR(SyncFd(fd, "sync " + path));
    }
  }
  return writer;
}

Status WalWriter::Append(const WalRecord& record) {
  CCDB_METRIC_COUNT("wal.appends", 1);
  CCDB_RETURN_IF_ERROR(HitSite("wal.append.pre"));
  const std::string frame = EncodeWalRecord(record);
  std::size_t written = 0;
  Status ws = FaultableWrite(fd_, "wal.append.write", frame, &written);
  if (!ws.ok()) {
    // Short write (injected or real, e.g. ENOSPC): truncate back to the
    // previous record boundary so the log has no torn middle and the next
    // append lands clean. If even the truncate fails the writer is wedged
    // and every later append will keep failing — which is the right
    // behavior for a full/broken disk.
    if (written > 0 &&
        ::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
      return Status::Internal("WAL append failed AND truncate-back failed: " +
                              ws.message());
    }
    if (written > 0 && ::lseek(fd_, 0, SEEK_END) < 0) {
      return ErrnoStatus("seek " + path_);
    }
    return ws;
  }
  bytes_ += frame.size();
  unsynced_ += frame.size();
  CCDB_RETURN_IF_ERROR(HitSite("wal.append.post"));
  switch (policy_) {
    case WalFsyncPolicy::kAlways:
      return Sync();
    case WalFsyncPolicy::kBatch:
      if (unsynced_ >= kBatchSyncBytes) return Sync();
      return Status::Ok();
    case WalFsyncPolicy::kOff:
      return Status::Ok();
  }
  return Status::Ok();
}

Status WalWriter::Sync() {
  if (unsynced_ == 0) return Status::Ok();
  CCDB_RETURN_IF_ERROR(HitSite("wal.fsync.pre"));
  CCDB_RETURN_IF_ERROR(SyncFd(fd_, "sync " + path_));
  unsynced_ = 0;
  return Status::Ok();
}

Status WalWriter::Reset() {
  if (::ftruncate(fd_, static_cast<off_t>(kHeaderBytes)) != 0) {
    return ErrnoStatus("truncate " + path_);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) return ErrnoStatus("seek " + path_);
  bytes_ = kHeaderBytes;
  unsynced_ = 0;
  if (policy_ != WalFsyncPolicy::kOff) {
    CCDB_RETURN_IF_ERROR(SyncFd(fd_, "sync " + path_));
  }
  return Status::Ok();
}

namespace {

// Renders a checkpoint file: a commented metadata header, the catalog
// serialization, and a trailing CRC line over everything before it. All
// metadata lines start with '#' so Catalog::Deserialize parses the body
// directly.
std::string RenderCheckpoint(const std::string& serialized,
                             std::uint64_t stamp) {
  std::string body = std::string(kCheckpointHeader) + "\n# version " +
                     std::to_string(stamp) + "\n" + serialized;
  std::uint32_t crc = Crc32(body.data(), body.size());
  return body + "# crc32 " + HexU32(crc) + "\n";
}

struct ParsedCheckpoint {
  std::uint64_t stamp = 0;
  Catalog catalog;
};

// Validates and parses one checkpoint file. Any defect — missing header,
// missing/mismatched CRC, malformed version, body that fails to parse —
// is a Status, never a crash; the caller falls back to an older file.
StatusOr<ParsedCheckpoint> LoadCheckpoint(const std::string& path) {
  CCDB_ASSIGN_OR_RETURN(std::string contents, ReadFileContents(path));
  // The CRC line is the last line of the file.
  if (contents.empty() || contents.back() != '\n') {
    return Status::Internal("checkpoint " + path + " corrupt: truncated");
  }
  std::size_t last_line_start = contents.find_last_of('\n', contents.size() - 2);
  last_line_start = last_line_start == std::string::npos ? 0 : last_line_start + 1;
  const std::string crc_line =
      contents.substr(last_line_start, contents.size() - last_line_start - 1);
  if (crc_line.rfind("# crc32 ", 0) != 0 || crc_line.size() != 16) {
    return Status::Internal("checkpoint " + path + " corrupt: missing crc");
  }
  const std::uint32_t expected =
      static_cast<std::uint32_t>(std::strtoul(crc_line.substr(8).c_str(),
                                              nullptr, 16));
  const std::string body = contents.substr(0, last_line_start);
  if (Crc32(body.data(), body.size()) != expected) {
    return Status::Internal("checkpoint " + path +
                            " corrupt: checksum mismatch");
  }
  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || line != kCheckpointHeader) {
    return Status::Internal("checkpoint " + path + " corrupt: bad header");
  }
  ParsedCheckpoint parsed;
  if (!std::getline(in, line) || line.rfind("# version ", 0) != 0) {
    return Status::Internal("checkpoint " + path +
                            " corrupt: missing version");
  }
  {
    const std::string v = line.substr(10);
    char* end = nullptr;
    errno = 0;
    unsigned long long stamp = std::strtoull(v.c_str(), &end, 10);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      return Status::Internal("checkpoint " + path +
                              " corrupt: malformed version \"" + v + "\"");
    }
    parsed.stamp = stamp;
  }
  // The body after the two metadata lines is a regular catalog
  // serialization ('#' lines are comments to Deserialize).
  CCDB_ASSIGN_OR_RETURN(parsed.catalog, Catalog::Deserialize(body));
  return parsed;
}

// Checkpoint files in `dir`, newest stamp first. Unparseable names are
// skipped.
std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  // Readdir without <filesystem>: checkpoint names are fully determined by
  // their stamp, so scan with POSIX dirent.
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return found;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(kCheckpointPrefix, 0) != 0) continue;
    if (name.size() <= std::strlen(kCheckpointPrefix) +
                           std::strlen(kCheckpointSuffix)) {
      continue;
    }
    if (name.compare(name.size() - std::strlen(kCheckpointSuffix),
                     std::strlen(kCheckpointSuffix),
                     kCheckpointSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kCheckpointPrefix),
                    name.size() - std::strlen(kCheckpointPrefix) -
                        std::strlen(kCheckpointSuffix));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                       dir + "/" + name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

// Leftover .tmp files from a crash mid-checkpoint are dead weight.
void RemoveStaleTemps(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> stale;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(kCheckpointPrefix, 0) == 0 &&
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stale.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  for (const std::string& path : stale) ::unlink(path.c_str());
}

}  // namespace

DurableStore::DurableStore(std::string dir, DurabilityOptions options)
    : dir_(std::move(dir)), options_(options) {}

StatusOr<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir, const DurabilityOptions& options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir " + dir);
  }
  std::unique_ptr<DurableStore> store(new DurableStore(dir, options));
  RemoveStaleTemps(dir);

  // 1. Newest valid checkpoint. Corrupt files are warned about and
  //    skipped — an older intact checkpoint plus the WAL still recovers
  //    everything that was acknowledged.
  std::uint64_t checkpoint_stamp = 0;
  for (const auto& [stamp, path] : ListCheckpoints(dir)) {
    StatusOr<ParsedCheckpoint> parsed = LoadCheckpoint(path);
    if (!parsed.ok()) {
      CCDB_LOG(ERROR) << "skipping " << path << ": "
                      << parsed.status().ToString();
      continue;
    }
    store->recovered_ = std::move(parsed.value().catalog);
    checkpoint_stamp = parsed.value().stamp;
    store->recovery_.checkpoint_file = path;
    store->recovery_.checkpoint_stamp = checkpoint_stamp;
    break;
  }

  // 2. WAL replay on top. Records the checkpoint already covers (stamp <=
  //    checkpoint stamp) are skipped — that window exists when a crash hit
  //    between checkpoint rename and WAL reset.
  const std::string wal_path = dir + "/" + kWalFileName;
  std::uint64_t resume_at = 0;
  std::uint64_t max_stamp = checkpoint_stamp;
  StatusOr<WalReplay> replayed = ReadWal(wal_path);
  if (replayed.ok()) {
    const WalReplay& replay = replayed.value();
    resume_at = replay.valid_bytes;
    store->recovery_.torn_tail = replay.torn_tail;
    max_stamp = std::max(max_stamp, replay.max_stamp);
    if (replay.torn_tail) {
      struct stat st;
      if (::stat(wal_path.c_str(), &st) == 0) {
        store->recovery_.torn_bytes =
            static_cast<std::uint64_t>(st.st_size) - replay.valid_bytes;
      }
      CCDB_LOG(WARN) << "WAL " << wal_path << " has a torn tail; dropping "
                     << store->recovery_.torn_bytes << " byte(s)";
    }
    // 3. Re-anchor the process-global version counter past every stamp on
    //    disk BEFORE replaying, so replayed mutations (and everything
    //    after) get strictly larger versions than any pre-crash state.
    Catalog::EnsureVersionAtLeast(max_stamp + 1);
    for (const WalRecord& record : replay.records) {
      if (record.stamp <= checkpoint_stamp) {
        ++store->recovery_.skipped_records;
        continue;
      }
      Status applied = Status::Ok();
      switch (record.op) {
        case WalRecord::Op::kDefine:
        case WalRecord::Op::kRegister:
          applied = store->recovered_.AddRelationFromText(record.payload);
          break;
        case WalRecord::Op::kDrop:
          applied = store->recovered_.DropRelation(record.payload);
          break;
        case WalRecord::Op::kInsert:
          applied = store->recovered_.InsertTuplesFromText(record.payload);
          break;
        case WalRecord::Op::kLoad: {
          StatusOr<Catalog> loaded = Catalog::Deserialize(record.payload);
          if (!loaded.ok()) {
            applied = loaded.status();
          } else {
            store->recovered_ = std::move(loaded.value());
          }
          break;
        }
      }
      if (!applied.ok()) {
        // A record that was logged but no longer applies means the log
        // and the checkpoint disagree — refuse to open rather than
        // silently diverge from the pre-crash state.
        return Status::Internal(
            "WAL replay failed at stamp " + std::to_string(record.stamp) +
            ": " + applied.message());
      }
      ++store->recovery_.replayed_records;
    }
  } else if (replayed.status().code() == StatusCode::kNotFound) {
    // No WAL yet (fresh directory, or crash right after checkpoint
    // creation renamed the log away — we never delete the WAL, so in
    // practice: fresh directory).
    Catalog::EnsureVersionAtLeast(max_stamp + 1);
  } else {
    // Mid-log corruption: refuse to open. The Status names the offset so
    // an operator can inspect/repair; silently dropping acknowledged
    // mutations would be worse than unavailability.
    return replayed.status();
  }

  // Final stamp: the checkpoint-rebuilt relations drew versions before
  // the counter was raised past the on-disk stamps; refresh so the
  // recovered catalog's version is itself beyond every pre-crash state.
  store->recovered_.RefreshVersion();
  CCDB_ASSIGN_OR_RETURN(
      store->wal_, WalWriter::Open(wal_path, options.fsync, resume_at));
  CCDB_METRIC_COUNT("wal.recoveries", 1);
  return store;
}

Catalog DurableStore::TakeCatalog() { return std::move(recovered_); }

Status DurableStore::LogMutation(WalRecord::Op op, std::string payload,
                                 std::uint64_t stamp) {
  WalRecord record;
  record.op = op;
  record.stamp = stamp;
  record.payload = std::move(payload);
  return wal_->Append(record);
}

Status DurableStore::WriteCheckpoint(const std::string& serialized,
                                     std::uint64_t stamp) {
  CCDB_METRIC_COUNT("wal.checkpoints", 1);
  const std::string final_path = dir_ + "/" + kCheckpointPrefix +
                                 std::to_string(stamp) + kCheckpointSuffix;
  const std::string tmp_path = dir_ + "/" + kCheckpointPrefix +
                               std::to_string(stamp) + ".tmp";
  const std::string contents = RenderCheckpoint(serialized, stamp);

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open " + tmp_path);
  std::size_t written = 0;
  Status ws = FaultableWrite(fd, "ckpt.write", contents, &written);
  if (!ws.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return ws;
  }
  Status hs = HitSite("ckpt.fsync.pre");
  if (!hs.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return hs;
  }
  if (::fsync(fd) != 0) {
    Status err = ErrnoStatus("fsync " + tmp_path);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return err;
  }
  ::close(fd);

  hs = HitSite("ckpt.rename.pre");
  if (!hs.ok()) {
    ::unlink(tmp_path.c_str());
    return hs;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    Status err = ErrnoStatus("rename " + tmp_path);
    ::unlink(tmp_path.c_str());
    return err;
  }
  SyncDirBestEffort(dir_);
  // --- Commit point: the new checkpoint is durable. A crash from here on
  // recovers from it (WAL records with stamp <= checkpoint stamp are
  // skipped), so the rotation below is pure cleanup.
  CCDB_RETURN_IF_ERROR(HitSite("ckpt.rename.post"));

  CCDB_RETURN_IF_ERROR(wal_->Reset());
  for (const auto& [old_stamp, old_path] : ListCheckpoints(dir_)) {
    if (old_stamp < stamp) ::unlink(old_path.c_str());
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, const std::string& content,
                       const char* site_ns) {
  const std::string ns(site_ns);
  const std::string tmp_path = path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open " + tmp_path);
  std::size_t written = 0;
  Status ws = FaultableWrite(fd, (ns + ".write").c_str(), content, &written);
  if (!ws.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return ws;
  }
  Status hs = HitSite((ns + ".fsync.pre").c_str());
  if (!hs.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return hs;
  }
  if (::fsync(fd) != 0) {
    Status err = ErrnoStatus("fsync " + tmp_path);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return err;
  }
  ::close(fd);
  hs = HitSite((ns + ".rename.pre").c_str());
  if (!hs.ok()) {
    ::unlink(tmp_path.c_str());
    return hs;
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    Status err = ErrnoStatus("rename " + tmp_path);
    ::unlink(tmp_path.c_str());
    return err;
  }
  SyncDirBestEffort(DirOf(path));
  return HitSite((ns + ".rename.post").c_str());
}

}  // namespace ccdb
