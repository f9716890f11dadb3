#include "base/trace.h"

#include <fstream>
#include <utility>

#include "base/config.h"
#include "base/profile.h"

namespace ccdb {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  enabled_.store(EngineConfig::Process().trace, std::memory_order_relaxed);
  events_.reserve(1024);
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // intentionally leaked
  return *tracer;
}

std::int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(event);
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::ToChromeTraceJson() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ',';
    // Names/categories are static literals from CCDB_TRACE_SPAN call sites;
    // none contain characters needing JSON escaping.
    std::snprintf(buffer, sizeof(buffer),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
                  "\"dur\":%lld,\"pid\":1,\"tid\":%llu}",
                  e.name, e.category,
                  static_cast<long long>(e.timestamp_us),
                  static_cast<long long>(e.duration_us),
                  static_cast<unsigned long long>(e.thread_id));
    out += buffer;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << ToChromeTraceJson();
  return out ? Status::Ok()
             : Status::Internal("write to " + path + " failed");
}

std::uint64_t TraceSpan::CurrentThreadId() {
  static std::atomic<std::uint64_t> next_id{1};
  thread_local std::uint64_t id = next_id.fetch_add(1);
  return id;
}

void TraceSpan::OpenNode() {
  node_ = &parent_->children.emplace_back();
  node_->label = name_;
  tls_profile_parent = node_;
}

void TraceSpan::CloseNode() {
  node_->inclusive_us = ElapsedUs();
  tls_profile_parent = parent_;
  if (parent_ == nullptr) delete node_;  // a root nobody took
}

void TraceSpan::CollectProfile() {
  if (node_ != nullptr) return;
  node_ = new ProfileNode();
  node_->label = name_;
  tls_profile_parent = node_;
}

ProfileNode TraceSpan::TakeProfile() {
  if (node_ == nullptr) return ProfileNode();
  node_->inclusive_us = ElapsedUs();
  if (parent_ != nullptr) return *node_;
  ProfileNode tree = std::move(*node_);
  delete node_;
  node_ = nullptr;
  tls_profile_parent = nullptr;
  return tree;
}

void TraceSpan::SetLabel(std::string label) {
  if (node_ != nullptr) node_->label = std::move(label);
}

void TraceSpan::AddCounter(const char* name, std::uint64_t value) {
  if (node_ != nullptr) node_->AddCounter(name, value);
}

}  // namespace ccdb
