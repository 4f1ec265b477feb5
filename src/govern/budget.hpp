// Resource-governance vocabulary: the Budget a caller grants a query, the
// cooperative CancelToken that can revoke it, and the structured Outcome
// every engine reports instead of a bare success bit.
//
// The degradation contract (see DESIGN.md "Resource governance"): when a
// budget trips mid-run, every engine stops at the next cooperative
// checkpoint and returns the cubes enumerated so far. Partial cube sets are
// sound under-approximations — each returned cube contains only genuine
// solutions, counts become lower bounds, and disjointness guarantees are
// preserved — so a caller can always act on what it got.
#pragma once

#include <atomic>
#include <cstdint>

namespace presat {

// Why an engine stopped. kComplete is the only value for which the result
// set is exact; every other value marks a sound partial result plus the
// dominant reason enumeration ended early.
enum class Outcome : uint8_t {
  kComplete = 0,   // ran to exhaustion; result is exact
  kDeadline = 1,   // wall-clock deadline expired
  kMemory = 2,     // tracked-byte ceiling (or an injected allocation fault)
  kConflicts = 3,  // Budget::conflictLimit reached
  kCancelled = 4,  // CancelToken tripped (caller or a faulted worker shard)
  kCubeCap = 5,    // AllSatOptions::maxCubes truncated the enumeration
};

const char* outcomeName(Outcome outcome);

// Merge rule for combining per-shard / per-step outcomes: kComplete is the
// identity; otherwise the more urgent stop reason wins (cancellation over
// resource exhaustion over caps).
Outcome combineOutcomes(Outcome a, Outcome b);

// Lock-free cooperative cancellation flag. cancel() may be called from any
// thread (including a signal-ish watchdog); workers observe it at their next
// governor poll. Latched: once cancelled, stays cancelled until reset().
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }
  void reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  // presat-analyze: lockfree(single latched flag; release store in cancel(),
  // acquire load in cancelled(), so whatever the canceller published is
  // visible to workers that observe the trip)
  std::atomic<bool> cancelled_{false};
};

// Resource limits for one query. Zero means unlimited for every numeric
// field; a null cancel token means not cancellable. A Budget is plain data —
// attach it to a Governor (govern/governor.hpp) to enforce it.
struct Budget {
  double deadlineSeconds = 0.0;   // wall-clock, measured from Governor construction
  uint64_t memLimitBytes = 0;     // ceiling on governor-tracked bytes (clause
                                  // arena + solution graph + memo + BDD pool)
  uint64_t conflictLimit = 0;     // the one conflict cap, across the whole
                                  // query (every engine, solver call and
                                  // shard)
  CancelToken* cancel = nullptr;  // not owned; may outlive many Budgets

  bool unlimited() const {
    return deadlineSeconds <= 0.0 && memLimitBytes == 0 && conflictLimit == 0 &&
           cancel == nullptr;
  }
};

// Thrown only by the BDD manager's node allocator when a governor trips:
// the hash-consed recursion (ite/exists/compose) has no way to return a
// partial node, so it unwinds to the engine boundary, which catches and
// reports a sound partial Outcome. SAT-based engines never throw — they
// observe the trip via Governor::poll() and unwind by returning.
struct GovernorStop {
  Outcome reason = Outcome::kCancelled;
};

}  // namespace presat
