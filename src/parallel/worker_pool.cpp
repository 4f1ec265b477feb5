#include "parallel/worker_pool.hpp"

#include <deque>
#include <thread>  // presat-analyze: raw-thread(the one permitted spawn site; see ServicePool)
#include <utility>
#include <vector>

#include "base/log.hpp"
#include "base/sync.hpp"
#include "base/thread_annotations.hpp"
#include "base/timer.hpp"

namespace presat {

// The shared state behind ServicePool: the two class queues plus the parked
// worker threads. Everything mutable sits behind one Mutex; workers sleep on
// `wake` and the quiesce() caller sleeps on `idle`.
struct ServicePoolImpl {
  struct Job {
    std::function<void()> fn;
    Timer waited;  // queue residency, submit -> dequeue
  };

  const int numThreads;        // presat-analyze: lockfree(immutable after construction)
  const size_t maxQueueDepth;  // presat-analyze: lockfree(immutable after construction)
  Mutex mu;
  std::deque<Job> interactive GUARDED_BY(mu);
  std::deque<Job> batch GUARDED_BY(mu);
  // Round-robin pointer: the class served by the LAST dequeue; the next
  // dequeue prefers the other class when it has work.
  bool lastServedInteractive GUARDED_BY(mu) = false;
  bool stopping GUARDED_BY(mu) = false;
  uint64_t admitted GUARDED_BY(mu) = 0;
  uint64_t rejectedOverload GUARDED_BY(mu) = 0;
  uint64_t completed GUARDED_BY(mu) = 0;
  uint64_t abandoned GUARDED_BY(mu) = 0;
  int busy GUARDED_BY(mu) = 0;           // workers currently running a job
  Histogram queueDepth GUARDED_BY(mu);   // depth observed at each submit
  Histogram queueWaitUs GUARDED_BY(mu);  // per-job queue residency, microseconds
  CondVar wake;  // presat-analyze: lockfree(condition variable, internally synchronized)
  CondVar idle;  // presat-analyze: lockfree(condition variable, internally synchronized)
  // presat-analyze: lockfree(owned and joined by the pool's owner thread only;
  // workers never touch the vector)
  std::vector<std::thread> threads;

  ServicePoolImpl(int n, size_t maxDepth)
      : numThreads(n < 1 ? 1 : n), maxQueueDepth(maxDepth < 1 ? 1 : maxDepth) {}

  size_t queued() const REQUIRES(mu) { return interactive.size() + batch.size(); }

  // Alternates classes: prefers the one NOT served last time, falling back
  // to whichever has work. The caller has checked that some queue does.
  Job takeNext() REQUIRES(mu) {
    bool takeInteractive = lastServedInteractive ? batch.empty() : !interactive.empty();
    std::deque<Job>& pick = takeInteractive ? interactive : batch;
    lastServedInteractive = takeInteractive;
    Job job = std::move(pick.front());
    pick.pop_front();
    queueWaitUs.record(static_cast<uint64_t>(job.waited.seconds() * 1e6));
    return job;
  }

  void workerMain() {
    for (;;) {
      Job job;
      {
        MutexLock lock(mu);
        while (queued() == 0 && !stopping) wake.wait(mu);
        if (queued() == 0) return;  // stopping and drained
        job = takeNext();
        ++busy;
      }
      job.fn();
      {
        MutexLock lock(mu);
        ++completed;
        --busy;
        if (queued() == 0 && busy == 0) idle.notifyAll();
      }
    }
  }
};

ServicePool::ServicePool(int numThreads, size_t maxQueueDepth)
    : impl_(std::make_unique<ServicePoolImpl>(numThreads, maxQueueDepth)) {
  impl_->threads.reserve(static_cast<size_t>(impl_->numThreads));
  // The pool's long-lived spawn site (presat_analyze rule raw-thread): every
  // worker parks between jobs and is joined in stop(), which the destructor
  // guarantees — no thread outlives the pool object.
  for (int w = 0; w < impl_->numThreads; ++w) {
    impl_->threads.emplace_back([this] { impl_->workerMain(); });
  }
}

ServicePool::~ServicePool() { stop(); }

bool ServicePool::submit(bool interactive, std::function<void()> job) {
  PRESAT_CHECK(job != nullptr);
  {
    MutexLock lock(impl_->mu);
    size_t depth = impl_->queued();
    impl_->queueDepth.record(depth);
    if (impl_->stopping || depth >= impl_->maxQueueDepth) {
      ++impl_->rejectedOverload;
      return false;
    }
    (interactive ? impl_->interactive : impl_->batch).push_back({std::move(job), Timer()});
    ++impl_->admitted;
  }
  impl_->wake.notifyOne();
  return true;
}

void ServicePool::stop() {
  {
    MutexLock lock(impl_->mu);
    if (impl_->stopping && impl_->threads.empty()) return;
    impl_->stopping = true;
    impl_->abandoned += impl_->queued();
    impl_->interactive.clear();
    impl_->batch.clear();
  }
  impl_->wake.notifyAll();
  for (std::thread& t : impl_->threads) t.join();
  impl_->threads.clear();
}

void ServicePool::quiesce() {
  MutexLock lock(impl_->mu);
  while (!(impl_->queued() == 0 && impl_->busy == 0)) impl_->idle.wait(impl_->mu);
}

size_t ServicePool::queued() const {
  MutexLock lock(impl_->mu);
  return impl_->queued();
}

void ServicePool::exportMetrics(Metrics& m) const {
  MutexLock lock(impl_->mu);
  m.setCounter("serve.admitted", impl_->admitted);
  m.setCounter("serve.rejects.overload", impl_->rejectedOverload);
  m.histogram("serve.queue_depth").merge(impl_->queueDepth);
  m.histogram("serve.queue_us").merge(impl_->queueWaitUs);
  m.setCounter("serve.workers", static_cast<uint64_t>(impl_->numThreads));
  m.setCounter("serve.pool.completed", impl_->completed);
  m.setCounter("serve.pool.abandoned", impl_->abandoned);
}

}  // namespace presat
