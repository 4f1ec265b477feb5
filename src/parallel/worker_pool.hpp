// Work-stealing worker pool for cube-and-conquer enumeration.
//
// Deliberately simple concurrency: one mutex-guarded deque per worker
// (sharded, so workers do not contend on a single lock), tasks dealt
// round-robin up front, owners pop from the front of their own deque, and an
// idle worker steals from the BACK of a victim deque. Blocking
// synchronization only — no lock-free structures to audit — which keeps the
// pool trivially ThreadSanitizer-clean; a chase-lev deque is a drop-in
// upgrade behind this interface if profiles ever show lock contention.
//
// The locking protocol is machine-checked two ways: StealQueue's deque is
// GUARDED_BY its capability-annotated Mutex (base/sync.hpp), so clang's
// -Wthread-safety analysis proves every access path holds the lock, and
// tools/presat_analyze.py enforces that no other std::thread / raw deque
// sharing grows outside this file.
//
// The pool runs *closed* batches: run() blocks until every task finished and
// the workers joined, so a task body may reference stack-local state of the
// caller. Tasks receive (taskIndex, workerIndex) and must not touch shared
// mutable state — the enumeration layer gives each task an independent
// Solver/engine instance and a private result slot, which is what makes the
// merged result independent of scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "base/metrics.hpp"
#include "base/sync.hpp"
#include "base/thread_annotations.hpp"

namespace presat {

// One worker's share of the task pool. Owner pops the front (LIFO-ish
// locality over the round-robin deal), thieves pop the back (the task with
// the most work queued behind it). All access goes through these methods —
// the deque itself is lock-protected and never escapes.
class StealQueue {
 public:
  // Enqueues a task at the back (the deal phase; also safe mid-run).
  void push(size_t task) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    tasks_.push_back(task);
  }

  // Owner-side pop from the front. Always reports the depth observed at the
  // attempt (including the popped task) in `depthOut`, so the caller can feed
  // the queue-depth histogram even on a miss.
  bool popOwn(size_t& taskOut, size_t& depthOut) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    depthOut = tasks_.size();
    if (tasks_.empty()) return false;
    taskOut = tasks_.front();
    tasks_.pop_front();
    return true;
  }

  // Thief-side pop from the back.
  bool steal(size_t& taskOut) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (tasks_.empty()) return false;
    taskOut = tasks_.back();
    tasks_.pop_back();
    return true;
  }

  // Empties the queue, returning how many tasks were abandoned. Used after
  // the join barrier: nonzero is legal only once a stop predicate tripped
  // (graceful degradation) — the caller asserts the batch-closed contract.
  size_t drain() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    size_t n = tasks_.size();
    tasks_.clear();
    return n;
  }

 private:
  Mutex mutex_;
  std::deque<size_t> tasks_ GUARDED_BY(mutex_);
};

struct WorkerPoolStats {
  uint64_t tasksRun = 0;
  uint64_t steals = 0;        // tasks obtained from another worker's deque
  uint64_t tasksSkipped = 0;  // tasks drained un-run because stop() tripped
  Histogram queueDepth;       // own-deque depth observed at each pop attempt
  Histogram taskMicros;       // per-task wall time, microseconds
};

// Long-lived companion to WorkerPool for service workloads (src/serve/):
// where WorkerPool runs one closed batch and joins, ServicePool keeps its
// workers parked on a condition variable between submissions, so a daemon can
// dispatch request closures onto pre-warmed threads for the lifetime of the
// process. Same concurrency discipline as the batch pool — one annotated
// Mutex, no lock-free structures — and the same single-spawn-site rule: its
// threads are constructed in worker_pool.cpp only.
//
// Lifecycle: start(n) spawns the workers; submit() hands over a closure
// (rejected once stopping); stop() wakes everyone, lets already-DEQUEUED
// closures finish, abandons still-queued ones (counted, like the batch
// pool's tasksSkipped), and joins. The destructor stops implicitly.
// Queueing discipline is deliberately FIFO-dumb: admission control and
// fairness live in the serve scheduler, which decides what a submitted
// closure *does* at dequeue time.
class ServicePool {
 public:
  ServicePool();  // out-of-line: ServicePoolImpl is incomplete here
  ~ServicePool();

  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  // Spawns `numThreads` (< 1 clamped to 1) parked workers. Call once.
  void start(int numThreads);

  // Enqueues a closure for some worker to run. Returns false (dropping the
  // closure) once stop() has begun or before start() — callers translate
  // that into their own shutdown/overload handling.
  bool submit(std::function<void()> fn);

  // Drains and joins: queued-but-unstarted closures are abandoned (see
  // abandoned()), in-flight ones run to completion. Idempotent.
  void stop();

  // Blocks until every submitted closure has either run or been abandoned
  // and no worker is mid-closure. Used by the server's clean-shutdown path
  // (stop accepting, then quiesce, then stop()).
  void quiesce();

  int numThreads() const { return numThreads_; }
  uint64_t submitted() const;
  uint64_t completed() const;
  uint64_t abandoned() const;

 private:
  friend struct ServicePoolImpl;

  int numThreads_ = 0;
  // Opaque owner of the worker threads + queue; worker_pool.cpp defines it.
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
  // re-evaluates it before popping another task and, once it returns true,
  // drains — in-flight tasks finish normally, queued tasks are abandoned and
  // counted in tasksSkipped. run() still joins every worker before
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
