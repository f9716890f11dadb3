#ifndef CCDB_BASE_THREAD_POOL_H_
#define CCDB_BASE_THREAD_POOL_H_

/// Fixed-size work-stealing thread pool for the query pipeline.
///
/// QE over the reals is doubly exponential in the worst case, but its
/// dominant phases — CAD cell lifting, disjunct-wise elimination, and the
/// Datalog¬ inflationary fixpoint — are embarrassingly parallel per
/// cell/disjunct/rule. A ThreadPool of N threads means N concurrent
/// runners: the pool spawns N-1 worker threads and the thread calling
/// ParallelFor/ParallelMap participates as the Nth runner, so a pool of
/// size 1 spawns no threads at all and every "parallel" helper degenerates
/// to the exact serial loop (same iteration order, same charging order).
///
/// Determinism contract: ParallelFor/ParallelMap collect results into
/// index-addressed slots and callers merge them in canonical index order —
/// never completion order — so the output of a successful parallel stage
/// is bit-identical at every thread count. On failure, the reported error
/// is the failure of the LOWEST failing index (indices are claimed in
/// order, so the lowest failing index always runs), matching what the
/// serial loop would have returned.
///
/// Each worker owns a deque: it pushes/pops its own work LIFO and steals
/// FIFO from siblings when starved. Pool activity is folded into the
/// global metrics registry ("threadpool.tasks_queued", ".tasks_stolen",
/// ".tasks_completed", ".tasks_inline", "threadpool.task_us",
/// "threadpool.threads").
///
/// ParallelFor may be called from inside a pool task (nested parallelism):
/// the inner caller drains its own batch while waiting, so progress is
/// guaranteed even when every worker is busy with ancestor batches.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/status.h"

namespace ccdb {

class ThreadPool {
 public:
  /// A pool of `threads` concurrent runners (spawns threads-1 workers;
  /// values <= 1 spawn none and run everything inline on the caller).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total runners (caller + workers); >= 1.
  int threads() const { return threads_; }
  /// Spawned worker threads (threads() - 1).
  int workers() const { return static_cast<int>(workers_.size()); }

  /// The process-wide shared pool, sized by EngineConfig::Process().threads
  /// (the CCDB_THREADS knob) at first use (default 1 = serial). Never null.
  /// The pool of every database's default session (the facade) and of
  /// pipeline calls that pass none; opened sessions (engine/session.h) own
  /// pools sized by their session config.
  static ThreadPool* Shared();
  /// Replaces the shared pool with one of `threads` runners. Not
  /// thread-safe against concurrent users of the previous pool — call
  /// from a quiesced state (e.g. bench/test setup).
  static void ConfigureShared(int threads);
  /// EngineConfig::Process().threads (the CCDB_THREADS knob; 1 when
  /// unset/invalid).
  static int DefaultThreads();
  /// `pool` when non-null, else Shared(). The pipeline's options structs
  /// carry a nullable ThreadPool*; null means "use the process default".
  static ThreadPool* Resolve(ThreadPool* pool) {
    return pool != nullptr ? pool : Shared();
  }

  /// Enqueues a fire-and-forget task. With no workers the task runs
  /// inline before Submit returns.
  void Submit(std::function<void()> task);

  /// Runs body(0..count-1), each exactly once, distributing across the
  /// pool; the calling thread participates. Returns the lowest-index
  /// non-OK status (or rethrows the lowest-index exception). After the
  /// first failure, still-unclaimed indices are skipped; every claimed
  /// body finishes before ParallelFor returns.
  Status ParallelFor(std::size_t count,
                     const std::function<Status(std::size_t)>& body);

  /// Index-addressed map: out[i] = *body(i). The output vector is ordered
  /// by index regardless of completion order. Error semantics match
  /// ParallelFor; on failure the partial results are discarded.
  template <typename T>
  StatusOr<std::vector<T>> ParallelMap(
      std::size_t count,
      const std::function<StatusOr<T>(std::size_t)>& body) {
    std::vector<T> out(count);
    Status status = ParallelFor(count, [&](std::size_t i) -> Status {
      StatusOr<T> result = body(i);
      CCDB_RETURN_IF_ERROR(result.status());
      out[i] = *std::move(result);
      return Status::Ok();
    });
    CCDB_RETURN_IF_ERROR(status);
    return out;
  }

 private:
  struct Batch;
  struct WorkerSlot;

  using Task = std::function<void()>;

  // Runs batch indices on the calling thread until none remain claimable.
  static void DrainBatch(const std::shared_ptr<Batch>& batch);

  void WorkerLoop(int self);
  // Pops from the worker's own deque (LIFO); steals FIFO from siblings.
  bool PopOrSteal(int self, Task* task);

  int threads_ = 1;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::size_t pending_ = 0;  // queued, not yet popped (guarded by wake_mu_)
  bool stopping_ = false;    // guarded by wake_mu_
  std::size_t next_slot_ = 0;  // round-robin submit cursor (wake_mu_)
};

}  // namespace ccdb

#endif  // CCDB_BASE_THREAD_POOL_H_
