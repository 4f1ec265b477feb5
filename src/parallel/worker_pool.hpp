// Worker pools: the closed-batch pool behind cube-and-conquer enumeration and
// the long-lived pool behind the serve daemon. Each has exactly one queue.
//
// WorkerPool hands out task indices from one shared cursor over
// [0, numTasks): a worker claims the next index, runs it, and claims again
// until the cursor passes the end, so a worker that drew cheap shards simply
// claims more. A split yields at most 2^kDefaultSplitDepth tasks, so the
// shared cursor is never contended enough to measure. ServicePool keeps one
// mutex-guarded queue of jobs in two fairness classes.
//
// Blocking synchronization only — one annotated Mutex per pool, plus the
// batch pool's atomic cursor — which keeps both pools trivially
// ThreadSanitizer-clean. The locking protocol is machine-checked two ways:
// the queue state is GUARDED_BY a capability-annotated Mutex (base/sync.hpp),
// so clang's -Wthread-safety analysis proves every access path holds the
// lock, and tools/presat_analyze.py enforces that no std::thread is
// constructed outside worker_pool.cpp.
//
// The batch pool runs *closed* batches: run() blocks until every task
// finished and the workers joined, so a task body may reference stack-local
// state of the caller. Tasks receive (taskIndex, workerIndex) and must not
// touch shared mutable state — the enumeration layer gives each task an
// independent Solver/engine instance and a private result slot, indexed by
// task, which is what makes the merged result independent of scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "base/metrics.hpp"

namespace presat {

struct WorkerPoolStats {
  uint64_t tasksRun = 0;
  uint64_t tasksSkipped = 0;  // tasks left unclaimed because stop() tripped
  Histogram taskMicros;       // per-task wall time, microseconds
};

// Long-lived companion to WorkerPool for service workloads (src/serve/):
// where WorkerPool runs one closed batch and joins, ServicePool keeps its
// workers parked on a condition variable between submissions, so a daemon
// can dispatch request jobs onto pre-warmed threads for the lifetime of the
// process. Its threads are constructed in worker_pool.cpp, like the batch
// pool's.
//
// Admission and fairness live here too. A submitted job joins one of two
// class queues — interactive (small budgets, a human or a latency-sensitive
// caller is waiting) and batch (soak queries, unbounded budgets) — and
// workers take from them ROUND-ROBIN BETWEEN CLASSES, so a burst of
// hour-long soak requests can delay a small interactive query by at most one
// dequeue turn, never starve it. Within a class, FIFO. Admission is bounded:
// once the queued depth reaches the cap, submit() refuses and the server
// answers with a structured "overloaded" error (backpressure the client can
// see and retry on), rather than buffering unboundedly and falling over
// later.
//
// Lifecycle: the constructor spawns the workers; stop() wakes everyone, lets
// already-dequeued jobs finish, abandons still-queued ones (counted, like the
// batch pool's tasksSkipped), and joins. The destructor stops implicitly.
class ServicePool {
 public:
  // Spawns `numThreads` (< 1 clamped to 1) parked workers; at most
  // `maxQueueDepth` (< 1 clamped to 1) jobs wait at once.
  ServicePool(int numThreads, size_t maxQueueDepth);
  ~ServicePool();

  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  // Queues `job` in the given class. Returns false — dropping the job
  // without running it — when the queue is at capacity or stop() has begun;
  // both count as serve.rejects.overload.
  bool submit(bool interactive, std::function<void()> job);

  // Drains and joins: queued-but-unstarted jobs are abandoned (counted in
  // serve.pool.abandoned), in-flight ones run to completion. Idempotent.
  void stop();

  // Blocks until every submitted job has either run or been abandoned and no
  // worker is mid-job. Used by the server's clean-shutdown path (stop
  // accepting, then quiesce, then stop()).
  void quiesce();

  size_t queued() const;

  // The serve.* admission, queue and pool metrics.
  void exportMetrics(Metrics& m) const;

 private:
  // Opaque owner of the worker threads + queues; worker_pool.cpp defines it.
  // (unique_ptr keeps std::thread out of this header entirely.)
  std::unique_ptr<struct ServicePoolImpl> impl_;
};

class WorkerPool {
 public:
  // numThreads < 1 is clamped to 1.
  explicit WorkerPool(int numThreads);

  int numThreads() const { return numThreads_; }

  // Runs fn(task, worker) for every task in [0, numTasks), blocking until all
  // complete, on min(numThreads(), numTasks) workers, so `worker` is below
  // both. A task that throws aborts via the PRESAT_CHECK path — engines
  // report failure through their result slots, not exceptions.
  //
  // `stop` (optional) is the cooperative-cancellation hook: each worker
  // re-evaluates it before claiming another task and, once it returns true,
  // drains — in-flight tasks finish normally, unclaimed tasks are abandoned
  // and counted in tasksSkipped. run() still joins every worker before
  // returning, so the caller sees a quiescent pool either way. The batch-
  // closed invariant (no tasks left behind) is only enforced when no stop
  // predicate tripped.
  void run(size_t numTasks, const std::function<void(size_t task, int worker)>& fn,
           const std::function<bool()>& stop = nullptr);

  // Stats of every run() so far (aggregated across workers after each join,
  // so reading them between runs needs no synchronization).
  const WorkerPoolStats& stats() const { return stats_; }

  // Serializes the pool stats under the parallel.* metric names.
  void exportMetrics(Metrics& m) const;

 private:
  int numThreads_;
  WorkerPoolStats stats_;
};

}  // namespace presat
