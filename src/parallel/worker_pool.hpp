// ServicePool: the long-lived worker pool behind the serve daemon
// (src/serve/), with one mutex-guarded queue of jobs in two fairness
// classes.
//
// Blocking synchronization only — one annotated Mutex — which keeps the pool
// trivially ThreadSanitizer-clean. The locking protocol is machine-checked
// two ways: the queue state is GUARDED_BY a capability-annotated Mutex
// (base/sync.hpp), so clang's -Wthread-safety analysis proves every access
// path holds the lock, and tools/presat_analyze.py enforces that no
// std::thread is constructed outside worker_pool.cpp.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "base/metrics.hpp"

namespace presat {

// ServicePool keeps its workers parked on a condition variable between
// submissions, so a daemon can dispatch request jobs onto pre-warmed threads
// for the lifetime of the process.
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
// already-dequeued jobs finish, abandons still-queued ones (counted in
// serve.pool.abandoned), and joins. The destructor stops implicitly.
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

}  // namespace presat
