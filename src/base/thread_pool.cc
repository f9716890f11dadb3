#include "base/thread_pool.h"

#include <atomic>
#include <deque>
#include <utility>

#include "base/logging.h"
#include "base/metrics.h"
#include "base/profile.h"

namespace ccdb {

struct ThreadPool::WorkerSlot {
  std::mutex mu;
  std::deque<Task> deque;  // own work popped from the back, stolen from the front
};

/// Shared state of one ParallelFor call. Indices are claimed in order via
/// `next`; every index is eventually claimed (claiming never stops early),
/// but bodies are skipped once `failed` is set, so a failing batch drains
/// quickly. `done` counts claimed-and-finished (run or skipped) indices;
/// the batch is complete when done == count.
struct ThreadPool::Batch {
  std::size_t count = 0;
  const std::function<Status(std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};

  std::mutex mu;  // guards the failure slots and `finished` signalling
  std::condition_variable cv;
  // Lowest failing index wins; kept with its status / exception.
  std::size_t error_index = 0;
  Status error_status = Status::Ok();
  std::exception_ptr error_exception;

  void RecordFailure(std::size_t index, Status status,
                     std::exception_ptr exception) {
    std::lock_guard<std::mutex> lock(mu);
    if (!failed.load(std::memory_order_relaxed) || index < error_index) {
      error_index = index;
      error_status = std::move(status);
      error_exception = exception;
    }
    failed.store(true, std::memory_order_release);
  }

  void FinishOne() {
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }
};

void ThreadPool::DrainBatch(const std::shared_ptr<Batch>& batch) {
  while (true) {
    std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->count) return;
    if (!batch->failed.load(std::memory_order_acquire)) {
      try {
        Status status = (*batch->body)(i);
        if (!status.ok()) {
          batch->RecordFailure(i, std::move(status), nullptr);
        }
      } catch (...) {
        batch->RecordFailure(i, Status::Ok(), std::current_exception());
      }
      CCDB_METRIC_COUNT("threadpool.tasks_completed", 1);
    }
    batch->FinishOne();
  }
}

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  int workers = threads_ - 1;
  CCDB_METRIC_MAX("threadpool.threads",
                  static_cast<std::uint64_t>(threads_));
  slots_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Any tasks still queued are dropped deliberately: the pool's users
  // (ParallelFor) never destroy the pool with a batch in flight, and
  // fire-and-forget Submit tasks are documented as best-effort at
  // shutdown. Run what remains inline so nothing is silently lost.
  for (auto& slot : slots_) {
    for (Task& task : slot->deque) task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    CCDB_METRIC_COUNT("threadpool.tasks_inline", 1);
    task();
    return;
  }
  CCDB_METRIC_COUNT("threadpool.tasks_queued", 1);
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    target = next_slot_++ % slots_.size();
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(slots_[target]->mu);
    slots_[target]->deque.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::PopOrSteal(int self, Task* task) {
  WorkerSlot& own = *slots_[self];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.deque.empty()) {
      *task = std::move(own.deque.back());
      own.deque.pop_back();
      return true;
    }
  }
  std::size_t n = slots_.size();
  for (std::size_t offset = 1; offset < n; ++offset) {
    WorkerSlot& victim = *slots_[(self + offset) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.deque.empty()) {
      *task = std::move(victim.deque.front());
      victim.deque.pop_front();
      CCDB_METRIC_COUNT("threadpool.tasks_stolen", 1);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  while (true) {
    Task task;
    if (PopOrSteal(self, &task)) {
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        --pending_;
      }
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] { return stopping_ || pending_ > 0; });
    if (stopping_) return;
  }
}

Status ThreadPool::ParallelFor(
    std::size_t count, const std::function<Status(std::size_t)>& body) {
  ProfileNode* parent = tls_profile_parent;
  if (parent == nullptr) return RunBatch(count, body);
  // Under a profile collector each index gathers the spans its body opens
  // in a group of its own, whichever thread runs it; the groups splice
  // under the submitting thread's open span in index order.
  std::vector<ProfileNode> groups(count);
  Status status = RunBatch(count, [&](std::size_t i) -> Status {
    struct Restore {
      ProfileNode* saved = tls_profile_parent;
      ~Restore() { tls_profile_parent = saved; }
    } restore;
    tls_profile_parent = &groups[i];
    return body(i);
  });
  for (ProfileNode& group : groups) {
    for (ProfileNode& child : group.children) {
      parent->children.push_back(std::move(child));
    }
  }
  return status;
}

Status ThreadPool::RunBatch(
    std::size_t count, const std::function<Status(std::size_t)>& body) {
  if (count == 0) return Status::Ok();
  if (workers_.empty() || count == 1) {
    // Serial fast path: the exact loop a non-parallel build would run —
    // same iteration order, same early exit on the first failure.
    for (std::size_t i = 0; i < count; ++i) {
      Status status = body(i);
      if (!status.ok()) return status;
      CCDB_METRIC_COUNT("threadpool.tasks_completed", 1);
    }
    return Status::Ok();
  }

  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->body = &body;

  // One runner task per worker (capped by count): each drains the batch's
  // index counter until it runs dry. Runner tasks sit in the deques like
  // any other work, so sibling workers can steal them.
  std::size_t runners = workers_.size();
  if (runners > count - 1) runners = count - 1;
  for (std::size_t r = 0; r < runners; ++r) {
    Submit([batch] { DrainBatch(batch); });
  }
  // The caller is a runner too — this is what makes nested ParallelFor
  // deadlock-free: the innermost caller always drains its own batch.
  DrainBatch(batch);

  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&batch] {
      return batch->done.load(std::memory_order_acquire) >= batch->count;
    });
  }

  if (batch->failed.load(std::memory_order_acquire)) {
    if (batch->error_exception != nullptr) {
      std::rethrow_exception(batch->error_exception);
    }
    return batch->error_status;
  }
  return Status::Ok();
}

ThreadPool* ThreadPool::Resolve(ThreadPool* pool) {
  // A one-runner pool spawns no worker: ParallelFor is the plain loop.
  static auto* calling_thread = new ThreadPool(1);
  return pool != nullptr ? pool : calling_thread;
}

}  // namespace ccdb
