// Governor: the runtime enforcer of a Budget.
//
// One Governor instance governs one query end to end — it is shared (by
// plain pointer) across the CDCL solver, all enumeration engines, the BDD
// node allocator, the fixpoint loops, and every parallel worker shard, so
// all of them draw from the same deadline, the same tracked-byte pool, and
// the same conflict cap, and all of them observe the same latched trip.
//
// Thread safety: every member is safe to call concurrently. State is a
// handful of relaxed atomics; the trip reason is latched with a CAS so the
// FIRST reason to fire wins and every later poll reports it unchanged.
//
// Cost model: poll() on an untripped governor is a few relaxed loads plus —
// only when a deadline is set — a steady_clock read every kClockPeriod
// polls. Engines poll once per search-loop iteration; with no Budget fields
// set the engines skip governor wiring entirely, keeping the hot path
// identical to the ungoverned build (the bench-regression lane asserts
// this stays within noise).
#pragma once

#include <atomic>
#include <cstdint>

#include "base/timer.hpp"
#include "govern/budget.hpp"

namespace presat {

class Metrics;

class Governor {
 public:
  explicit Governor(const Budget& budget) : budget_(budget) {}

  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  // Cooperative checkpoint. Returns kComplete while within budget; once any
  // limit fires (or trip() is called) it latches and every subsequent poll
  // returns the same first reason. Also the hook point for the injected
  // govern.deadline / govern.memory / govern.cancel fault sites.
  Outcome poll();

  // True once any trip reason has latched. Cheaper than poll(): one relaxed
  // load, no limit checks — the form worker threads use as a stop predicate.
  bool tripped() const { return loadReason() != Outcome::kComplete; }

  // The latched stop reason (kComplete if still running).
  Outcome reason() const { return loadReason(); }

  // Latch `why` as the stop reason unless one is already latched. Used by
  // the cancel token path, fault injection, and worker-shard faults.
  void trip(Outcome why);

  // Tracked-byte accounting. charge()/release() are called by the memory
  // ledgers wrapping the solver clause arena, the solution graph + memo, and
  // the BDD node pool; the ceiling itself is enforced at the next poll().
  void charge(uint64_t bytes);
  void release(uint64_t bytes);
  uint64_t trackedBytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t peakTrackedBytes() const { return peakBytes_.load(std::memory_order_relaxed); }

  // Conflict accounting toward Budget::conflictLimit (the CDCL solver and
  // the success-driven engine both report here).
  void countConflicts(uint64_t n) { conflicts_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t conflicts() const { return conflicts_.load(std::memory_order_relaxed); }

  const Budget& budget() const { return budget_; }

  // Emits the govern.* block: tracked/peak bytes, conflicts, poll count,
  // configured limits, and an "outcome" label with the latched reason.
  void exportMetrics(Metrics& m) const;

 private:
  // Deadline clock reads are decimated to one in kClockPeriod polls.
  static constexpr uint64_t kClockPeriod = 32;

  Outcome loadReason() const {
    return static_cast<Outcome>(reason_.load(std::memory_order_relaxed));
  }

  Budget budget_;
  Timer timer_;
  // The governor is deliberately lock-free: poll() sits inside every engine's
  // search loop, and a mutex here would serialize all worker shards on one
  // cache line. The members below are independent monotone counters plus one
  // CAS-latched flag, so relaxed ordering suffices — the only cross-field
  // protocol is "reason_ latches first writer wins", which trip()'s
  // compare_exchange provides on its own.
  // presat-analyze: lockfree(relaxed monotone byte counter; ceiling enforced
  // at the next poll, never read-modify-write dependent on another field)
  std::atomic<uint64_t> bytes_{0};
  // presat-analyze: lockfree(CAS max-loop in charge(); monotone, report-only)
  std::atomic<uint64_t> peakBytes_{0};
  // presat-analyze: lockfree(relaxed monotone conflict counter; compared
  // against an immutable Budget limit at poll)
  std::atomic<uint64_t> conflicts_{0};
  // presat-analyze: lockfree(relaxed poll tick, used only to decimate
  // steady_clock reads; occasional off-by-a-few is harmless)
  std::atomic<uint64_t> polls_{0};
  // presat-analyze: lockfree(trip latch: compare_exchange from kComplete so
  // the FIRST reason wins and later polls read it unchanged)
  std::atomic<uint8_t> reason_{static_cast<uint8_t>(Outcome::kComplete)};
};

// RAII view onto a Governor's tracked-byte pool for one owning structure
// (a solver's clause arena, a solution graph, a BDD node pool). Remembers
// how much it charged and releases the remainder on destruction or
// re-attach, so a structure's bytes can never leak out of the pool when it
// is torn down mid-query. Null-governor ledgers are free no-ops, keeping
// ungoverned hot paths unchanged.
class MemoryLedger {
 public:
  MemoryLedger() = default;
  ~MemoryLedger() { attach(nullptr); }

  MemoryLedger(const MemoryLedger&) = delete;
  MemoryLedger& operator=(const MemoryLedger&) = delete;

  // Releases everything charged so far, then accounts to `governor` (which
  // may be null to detach).
  void attach(Governor* governor) {
    if (governor_ != nullptr && held_ != 0) governor_->release(held_);
    held_ = 0;
    governor_ = governor;
  }

  void charge(uint64_t bytes) {
    if (governor_ == nullptr) return;
    governor_->charge(bytes);
    held_ += bytes;
  }

  void release(uint64_t bytes) {
    if (governor_ == nullptr) return;
    if (bytes > held_) bytes = held_;  // never release more than we charged
    governor_->release(bytes);
    held_ -= bytes;
  }

  Governor* governor() const { return governor_; }
  uint64_t held() const { return held_; }

 private:
  Governor* governor_ = nullptr;
  uint64_t held_ = 0;
};

}  // namespace presat
