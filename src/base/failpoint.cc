#include "base/failpoint.h"

#include <cstdlib>

#include "base/logging.h"
#include "base/metrics.h"

namespace ccdb {

namespace {

Status MakeInjected(FailpointSpec::Kind kind, const std::string& site) {
  std::string message = "failpoint " + site + " injected";
  switch (kind) {
    case FailpointSpec::Kind::kError:
      return Status::Internal(message);
    case FailpointSpec::Kind::kExhaust:
      return Status::ResourceExhausted(message);
    case FailpointSpec::Kind::kUndefined:
      return Status::Undefined(message);
    case FailpointSpec::Kind::kNumericalFailure:
      return Status::NumericalFailure(message);
    case FailpointSpec::Kind::kCrash:
    case FailpointSpec::Kind::kTornWrite:
    case FailpointSpec::Kind::kShortWrite:
      // Crash is handled before MakeInjected; an IO kind fired at a
      // non-IO site degrades to a plain injected error.
      return Status::Internal(message);
  }
  return Status::Internal(message);
}

// Simulated kill -9 at the site: no destructors, no atexit hooks, no
// stream flushes — exactly the state a crashed process leaves behind.
// (Bytes already write()n are in the page cache and survive, which is the
// fault model: process death, not power loss.)
[[noreturn]] void CrashNow(const char* site) {
  std::fprintf(stderr, "ccdb: failpoint %s injected crash (exit %d)\n", site,
               FailpointRegistry::kCrashExitCode);
  std::_Exit(FailpointRegistry::kCrashExitCode);
}

StatusOr<FailpointSpec::Kind> ParseKind(const std::string& name) {
  if (name == "error") return FailpointSpec::Kind::kError;
  if (name == "exhaust") return FailpointSpec::Kind::kExhaust;
  if (name == "undefined") return FailpointSpec::Kind::kUndefined;
  if (name == "numfail") return FailpointSpec::Kind::kNumericalFailure;
  if (name == "crash") return FailpointSpec::Kind::kCrash;
  if (name == "torn-write" || name == "torn") {
    return FailpointSpec::Kind::kTornWrite;
  }
  if (name == "short-write" || name == "short") {
    return FailpointSpec::Kind::kShortWrite;
  }
  return Status::InvalidArgument(
      "unknown failpoint kind \"" + name +
      "\" (error|exhaust|undefined|numfail|crash|torn-write|short-write)");
}

}  // namespace

FailpointRegistry::FailpointRegistry() = default;

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = [] {
    auto* r = new FailpointRegistry();
    if (const char* env = std::getenv("CCDB_FAILPOINTS")) {
      Status status = r->Configure(env);
      if (!status.ok()) {
        CCDB_LOG(ERROR) << "CCDB_FAILPOINTS ignored: " << status.ToString();
      }
    }
    return r;
  }();
  return *registry;
}

Status FailpointRegistry::Configure(const std::string& config) {
  // Parse the whole spec before arming anything: a malformed entry must not
  // leave the registry half-configured.
  std::vector<std::pair<std::string, FailpointSpec>> parsed;
  std::size_t pos = 0;
  while (pos < config.size()) {
    std::size_t comma = config.find(',', pos);
    std::string entry = config.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? config.size() : comma + 1;
    // Trim spaces.
    std::size_t b = entry.find_first_not_of(" \t");
    if (b == std::string::npos) continue;  // empty entry tolerated
    std::size_t e = entry.find_last_not_of(" \t");
    entry = entry.substr(b, e - b + 1);

    std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("failpoint entry \"" + entry +
                                     "\" is not site=kind[@N]");
    }
    std::string site = entry.substr(0, eq);
    std::string rhs = entry.substr(eq + 1);
    FailpointSpec spec;
    std::size_t at = rhs.find('@');
    std::string kind_name = at == std::string::npos ? rhs : rhs.substr(0, at);
    CCDB_ASSIGN_OR_RETURN(spec.kind, ParseKind(kind_name));
    if (at != std::string::npos) {
      std::string count = rhs.substr(at + 1);
      if (count.empty() ||
          count.find_first_not_of("0123456789") != std::string::npos) {
        return Status::InvalidArgument("failpoint entry \"" + entry +
                                       "\" has a malformed hit count");
      }
      spec.fire_at = std::strtoull(count.c_str(), nullptr, 10);
      if (spec.fire_at == 0) {
        return Status::InvalidArgument("failpoint hit count must be >= 1 in \"" +
                                       entry + "\"");
      }
    }
    parsed.emplace_back(std::move(site), spec);
  }
  for (auto& [site, spec] : parsed) {
    Set(site, spec);
  }
  return Status::Ok();
}

void FailpointRegistry::Set(const std::string& site, FailpointSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  if (!state.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.armed = true;
  state.spec = spec;
  state.hits = 0;
  CCDB_LOG(INFO) << "failpoint armed: " << site << " fire_at=" << spec.fire_at;
}

void FailpointRegistry::Clear(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it != sites_.end() && it->second.armed) {
    it->second.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

std::uint64_t FailpointRegistry::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

std::vector<std::string> FailpointRegistry::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> armed;
  for (const auto& [site, state] : sites_) {
    if (state.armed) armed.push_back(site);
  }
  return armed;
}

Status FailpointRegistry::Hit(const char* site) {
  FailpointSpec::Kind fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteState& state = sites_[site];
    ++state.hits;
    if (!state.armed || state.hits != state.spec.fire_at) return Status::Ok();
    // One-shot: firing disarms the site so recovery paths (a retry, the
    // next query) run clean.
    state.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
    CCDB_METRIC_COUNT("failpoint.injected", 1);
    CCDB_LOG(INFO) << "failpoint fired: " << site << " at hit " << state.hits;
    fired = state.spec.kind;
  }
  if (fired == FailpointSpec::Kind::kCrash) CrashNow(site);
  return MakeInjected(fired, site);
}

IoFault FailpointRegistry::HitIo(const char* site, Status* injected) {
  *injected = Status::Ok();
  FailpointSpec::Kind fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteState& state = sites_[site];
    ++state.hits;
    if (!state.armed || state.hits != state.spec.fire_at) {
      return IoFault::kNone;
    }
    state.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
    CCDB_METRIC_COUNT("failpoint.injected", 1);
    CCDB_LOG(INFO) << "failpoint fired: " << site << " at hit " << state.hits;
    fired = state.spec.kind;
  }
  switch (fired) {
    case FailpointSpec::Kind::kCrash:
      CrashNow(site);
    case FailpointSpec::Kind::kTornWrite:
      return IoFault::kTornWrite;
    case FailpointSpec::Kind::kShortWrite:
      return IoFault::kShortWrite;
    default:
      // A Status kind armed at an IO site still injects — through the out
      // param, since the write API reports faults in bytes, not Status.
      *injected = MakeInjected(fired, site);
      return IoFault::kNone;
  }
}

}  // namespace ccdb
