#include "parallel/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>  // presat-analyze: raw-thread(the one permitted spawn site; see WorkerPool::run)
#include <vector>

#include "base/log.hpp"

namespace presat {

namespace {

// One worker's task queue plus its privately-accumulated stats. The queue is
// shared (owner pops front, thieves steal back) behind StealQueue's lock; the
// stats are only ever written by the owning worker thread and only read after
// the join barrier in run().
struct WorkerShard {
  StealQueue queue;
  // presat-analyze: lockfree(owner-worker private during run(); the caller
  // aggregates only after the join barrier)
  WorkerPoolStats stats;
};

// Pops the next task for `self`: own queue first, then steals from a victim.
// Returns false when every queue is empty — the batch is closed, so
// empty-everywhere means done.
bool nextTask(std::vector<WorkerShard>& shards, size_t self, size_t& taskOut, bool& stolenOut) {
  WorkerShard& own = shards[self];
  size_t depth = 0;
  bool got = own.queue.popOwn(taskOut, depth);
  own.stats.queueDepth.record(depth);
  if (got) {
    stolenOut = false;
    return true;
  }
  // Steal scan: probe victims in a self-offset order so idle workers do not
  // all hammer shard 0.
  for (size_t i = 1; i < shards.size(); ++i) {
    if (shards[(self + i) % shards.size()].queue.steal(taskOut)) {
      stolenOut = true;
      return true;
    }
  }
  return false;
}

}  // namespace

// The shared state behind ServicePool: a FIFO of closures plus the parked
// worker threads. Everything mutable sits behind one Mutex; workers sleep on
// `wake` and the quiesce() caller sleeps on `idle`.
struct ServicePoolImpl {
  Mutex mu;
  std::deque<std::function<void()>> queue GUARDED_BY(mu);
  bool stopping GUARDED_BY(mu) = false;
  uint64_t submitted GUARDED_BY(mu) = 0;
  uint64_t completed GUARDED_BY(mu) = 0;
  uint64_t abandoned GUARDED_BY(mu) = 0;
  int busy GUARDED_BY(mu) = 0;  // workers currently running a closure
  CondVar wake;  // presat-analyze: lockfree(condition variable, internally synchronized)
  CondVar idle;  // presat-analyze: lockfree(condition variable, internally synchronized)
  // presat-analyze: lockfree(owned and joined by the pool's owner thread only;
  // workers never touch the vector)
  std::vector<std::thread> threads;

  void workerMain() {
    for (;;) {
      std::function<void()> fn;
      {
        MutexLock lock(mu);
        while (queue.empty() && !stopping) wake.wait(mu);
        if (queue.empty()) return;  // stopping and drained
        fn = std::move(queue.front());
        queue.pop_front();
        ++busy;
      }
      fn();
      {
        MutexLock lock(mu);
        ++completed;
        --busy;
        if (queue.empty() && busy == 0) idle.notifyAll();
      }
    }
  }
};

ServicePool::ServicePool() = default;

ServicePool::~ServicePool() { stop(); }

void ServicePool::start(int numThreads) {
  PRESAT_CHECK(impl_ == nullptr) << "ServicePool::start called twice";
  numThreads_ = numThreads < 1 ? 1 : numThreads;
  impl_ = std::make_unique<ServicePoolImpl>();
  impl_->threads.reserve(static_cast<size_t>(numThreads_));
  // The repo's other permitted spawn site (presat_analyze rule raw-thread):
  // every worker parks between closures and is joined in stop(), which the
  // destructor guarantees — no thread outlives the pool object.
  for (int w = 0; w < numThreads_; ++w) {
    impl_->threads.emplace_back([this] { impl_->workerMain(); });
  }
}

bool ServicePool::submit(std::function<void()> fn) {
  PRESAT_CHECK(fn != nullptr);
  if (impl_ == nullptr) return false;
  {
    MutexLock lock(impl_->mu);
    if (impl_->stopping) return false;
    impl_->queue.push_back(std::move(fn));
    ++impl_->submitted;
  }
  impl_->wake.notifyOne();
  return true;
}

void ServicePool::stop() {
  if (impl_ == nullptr) return;
  {
    MutexLock lock(impl_->mu);
    if (impl_->stopping && impl_->threads.empty()) return;
    impl_->stopping = true;
    impl_->abandoned += impl_->queue.size();
    impl_->queue.clear();
  }
  impl_->wake.notifyAll();
  for (std::thread& t : impl_->threads) t.join();
  impl_->threads.clear();
}

void ServicePool::quiesce() {
  if (impl_ == nullptr) return;
  MutexLock lock(impl_->mu);
  while (!(impl_->queue.empty() && impl_->busy == 0)) impl_->idle.wait(impl_->mu);
}

uint64_t ServicePool::submitted() const {
  if (impl_ == nullptr) return 0;
  MutexLock lock(impl_->mu);
  return impl_->submitted;
}

uint64_t ServicePool::completed() const {
  if (impl_ == nullptr) return 0;
  MutexLock lock(impl_->mu);
  return impl_->completed;
}

uint64_t ServicePool::abandoned() const {
  if (impl_ == nullptr) return 0;
  MutexLock lock(impl_->mu);
  return impl_->abandoned;
}

WorkerPool::WorkerPool(int numThreads) : numThreads_(numThreads < 1 ? 1 : numThreads) {}

void WorkerPool::run(size_t numTasks, const std::function<void(size_t task, int worker)>& fn,
                     const std::function<bool()>& stop) {
  PRESAT_CHECK(fn != nullptr);
  // No more workers than tasks: an extra worker would only spin up to find
  // nothing to steal.
  size_t workers = std::max<size_t>(1, std::min(static_cast<size_t>(numThreads_), numTasks));
  std::vector<WorkerShard> shards(workers);
  // Round-robin deal: contiguous task indices land on different workers, so
  // the adjacent (similar-size) subcubes of one region spread out.
  for (size_t t = 0; t < numTasks; ++t) {
    shards[t % workers].queue.push(t);
  }

  auto workerMain = [&shards, &fn, &stop](size_t self) {
    WorkerPoolStats& stats = shards[self].stats;
    size_t task = 0;
    bool stolen = false;
    while (!(stop != nullptr && stop()) && nextTask(shards, self, task, stolen)) {
      auto start = std::chrono::steady_clock::now();
      fn(task, static_cast<int>(self));
      auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      stats.taskMicros.record(static_cast<uint64_t>(micros));
      stats.tasksRun += 1;
      if (stolen) stats.steals += 1;
    }
  };

  if (workers == 1) {
    // Single-threaded runs stay on the calling thread: no thread spawn cost,
    // and engine PRESAT_CHECK failures surface with the caller's stack.
    workerMain(0);
  } else {
    // The repo's single thread-spawn site (presat_analyze rule raw-thread):
    // every worker is joined below, so no thread outlives the batch.
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back(workerMain, w);  // presat-analyze: raw-thread(WorkerPool is the pool)
    }
    for (std::thread& t : threads) t.join();
  }

  // Once a stop predicate has tripped, abandoned queue entries are the
  // expected graceful-degradation outcome; without one the batch-closed
  // contract still holds exactly.
  bool stopped = stop != nullptr && stop();
  for (WorkerShard& shard : shards) {
    size_t abandoned = shard.queue.drain();
    PRESAT_CHECK(stopped || abandoned == 0) << "worker pool left tasks behind";
    stats_.tasksSkipped += abandoned;
    stats_.tasksRun += shard.stats.tasksRun;
    stats_.steals += shard.stats.steals;
    stats_.queueDepth.merge(shard.stats.queueDepth);
    stats_.taskMicros.merge(shard.stats.taskMicros);
  }
}

void WorkerPool::exportMetrics(Metrics& m) const {
  m.setCounter("parallel.jobs", static_cast<uint64_t>(numThreads_));
  m.setCounter("parallel.tasks", stats_.tasksRun);
  m.setCounter("parallel.steals", stats_.steals);
  m.setCounter("parallel.tasks_skipped", stats_.tasksSkipped);
  m.histogram("parallel.queue_depth").merge(stats_.queueDepth);
  m.histogram("parallel.task_us").merge(stats_.taskMicros);
}

}  // namespace presat
