// Engine observability: named counters, gauges, histograms, and string
// labels, with deterministic JSON export.
//
// Every enumeration engine fills a Metrics object alongside its typed stats
// struct, so callers (presat_cli --stats json, the BENCH_*.json trajectory
// files) see one uniform schema regardless of engine:
//
//   {
//     "labels":     { "engine": "success-driven" },
//     "counters":   { "memo.hits": 62, "memo.misses": 3, ... },
//     "gauges":     { "time.seconds": 0.0033 },
//     "histograms": { "frontier.size": { "count": 65, "sum": 130, "max": 4,
//                                        "mean": 2.0,
//                                        "buckets": [ { "le": 1, "n": 12 },
//                                                     { "le": 3, "n": 40 },
//                                                     { "le": 7, "n": 13 } ] } }
//   }
//
// Keys are stored in ordered maps so the JSON is byte-stable across runs —
// required for diffing trajectory files. Empty sections are omitted.
//
// Key discipline (enforced by tools/presat_analyze.py, which also emits the
// checked-in tools/metrics_registry.json index of every registration site):
// literal keys are dotted names matching [a-z][a-z0-9_]*(.[a-z0-9_]+)* —
// lowercase segments joined by dots, e.g. "parallel.task_us" — and a key
// keeps ONE kind (counter, gauge, histogram, or label) across the whole
// repo, because the JSON schema files one section per kind and a collision
// would silently split a key across sections.
//
// Threading: Metrics is thread-COMPATIBLE, not thread-safe — no locks, no
// atomics, by design. Every engine, worker shard, and bench case fills its
// own private instance; cross-thread aggregation happens strictly after the
// WorkerPool join barrier via merge(). presat_analyze's sync rules keep it
// that way: adding a shared mutable Metrics would need a GUARDED_BY-annotated
// mutex or an explicit lockfree waiver to pass the analyze lane.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace presat {

// JSON string escaping (control chars, quote, backslash; UTF-8 passes
// through untouched). The metrics export and presat_serve's responses share
// it.
std::string jsonEscape(const std::string& s);

// Power-of-two bucketed histogram for size distributions (frontier sizes,
// cone sizes, clause lengths). Bucket i counts values whose bit width is i,
// i.e. bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3}, bucket 3 = {4..7},
// and so on; values wider than 2^32-1 land in the last bucket.
class Histogram {
 public:
  static constexpr int kBuckets = 33;

  void record(uint64_t value);
  void merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }
  uint64_t bucket(int i) const { return buckets_[i]; }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

class Metrics {
 public:
  // Counters: monotonically accumulated unsigned totals.
  void inc(const std::string& name, uint64_t delta = 1) { counters_[name] += delta; }
  void setCounter(const std::string& name, uint64_t value) { counters_[name] = value; }
  uint64_t counter(const std::string& name) const;

  // Gauges: point-in-time doubles (timings, ratios).
  void setGauge(const std::string& name, double value) { gauges_[name] = value; }
  double gauge(const std::string& name) const;

  // Labels: string dimensions identifying the emitter (engine name, bench
  // case). Labels never aggregate; merge() keeps the receiver's value.
  void setLabel(const std::string& name, const std::string& value) { labels_[name] = value; }
  std::string label(const std::string& name) const;

  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  const Histogram* findHistogram(const std::string& name) const;

  // Aggregates `other` into this: counters add, gauges add (total time across
  // sub-queries), histograms merge, and labels keep existing entries.
  void merge(const Metrics& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && labels_.empty();
  }

  // Deterministic JSON. indent > 0 pretty-prints with that many spaces per
  // level; indent <= 0 emits one compact line (the JSONL trajectory format).
  std::string toJson(int indent = 2) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::string> labels_;
};

}  // namespace presat
