// Tests for the observability layer: counter/gauge/label/histogram
// behaviour, merge semantics, and the deterministic JSON export.
#include <gtest/gtest.h>

#include "base/metrics.hpp"

namespace presat {
namespace {

TEST(Histogram, BucketsByBitWidth) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(7);
  h.record(8);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2,3}
  EXPECT_EQ(h.bucket(3), 2u);  // {4..7}
  EXPECT_EQ(h.bucket(4), 1u);  // {8..15}
  EXPECT_DOUBLE_EQ(h.mean(), 25.0 / 7.0);
}

TEST(Histogram, MergeAddsEverything) {
  Histogram a;
  Histogram b;
  a.record(3);
  b.record(5);
  b.record(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 108u);
  EXPECT_EQ(a.max(), 100u);
}

TEST(Metrics, CountersGaugesLabels) {
  Metrics m;
  EXPECT_TRUE(m.empty());
  m.inc("x");
  m.inc("x", 4);
  m.setCounter("y", 7);
  m.setGauge("t", 0.5);
  m.setLabel("engine", "test");
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.counter("x"), 5u);
  EXPECT_EQ(m.counter("y"), 7u);
  EXPECT_EQ(m.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(m.gauge("t"), 0.5);
  EXPECT_EQ(m.label("engine"), "test");
  EXPECT_EQ(m.label("missing"), "");
}

TEST(Metrics, JsonIsDeterministicAndOrdered) {
  Metrics m;
  m.setCounter("zeta", 1);
  m.setCounter("alpha", 2);
  m.setLabel("engine", "x");
  std::string a = m.toJson();
  std::string b = m.toJson();
  EXPECT_EQ(a, b);
  // std::map ordering: alpha before zeta regardless of insertion order.
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
  EXPECT_NE(a.find("\"labels\""), std::string::npos);
  // Empty sections are omitted entirely.
  EXPECT_EQ(a.find("\"gauges\""), std::string::npos);
  EXPECT_EQ(a.find("\"histograms\""), std::string::npos);
}

TEST(Metrics, CompactJsonIsOneLine) {
  Metrics m;
  m.setCounter("c", 1);
  m.setGauge("g", 2.25);
  m.histogram("h").record(3);
  std::string line = m.toJson(0);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"c\":1"), std::string::npos);
  EXPECT_NE(line.find("\"g\":2.25"), std::string::npos);
}

TEST(Metrics, JsonEscapesStrings) {
  Metrics m;
  m.setLabel("weird", "a\"b\\c\n");
  std::string json = m.toJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);
}

TEST(Metrics, EmptyMetricsIsEmptyObject) {
  Metrics m;
  EXPECT_EQ(m.toJson(0), "{}");
}

}  // namespace
}  // namespace presat
