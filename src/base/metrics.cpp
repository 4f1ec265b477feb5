#include "base/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace presat {

namespace {

// Bit width of v: 0 for 0, otherwise floor(log2(v)) + 1.
int bucketIndex(uint64_t v) {
  int w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return std::min(w, Histogram::kBuckets - 1);
}

std::string formatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Emits pretty or compact JSON depending on whether indent > 0.
class JsonOut {
 public:
  explicit JsonOut(int indent) : indent_(std::max(indent, 0)) {}

  void open(char brace) {
    out_ << brace;
    ++depth_;
    first_ = true;
  }
  void close(char brace) {
    --depth_;
    if (!first_) newline(depth_);
    out_ << brace;
    first_ = false;
  }
  void key(const std::string& name) {
    comma();
    newline(depth_);
    out_ << '"' << jsonEscape(name) << "\":";
    if (indent_ > 0) out_ << ' ';
  }
  void value(const std::string& raw) { out_ << raw; }
  void element(const std::string& raw) {
    comma();
    newline(depth_);
    out_ << raw;
  }
  std::string str() const { return out_.str(); }

 private:
  void comma() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  void newline(int depth) {
    if (indent_ == 0) return;
    out_ << '\n' << std::string(static_cast<size_t>(depth * indent_), ' ');
  }

  std::ostringstream out_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;
};

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void Histogram::record(uint64_t value) {
  ++buckets_[bucketIndex(value)];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

uint64_t Metrics::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double Metrics::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::string Metrics::label(const std::string& name) const {
  auto it = labels_.find(name);
  return it == labels_.end() ? std::string() : it->second;
}

const Histogram* Metrics::findHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Metrics::merge(const Metrics& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauges_[name] += v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
  for (const auto& [name, v] : other.labels_) labels_.emplace(name, v);
}

std::string Metrics::toJson(int indent) const {
  JsonOut out(indent);
  out.open('{');
  if (!labels_.empty()) {
    out.key("labels");
    out.open('{');
    for (const auto& [name, v] : labels_) {
      out.key(name);
      std::string quoted = "\"";
      quoted += jsonEscape(v);
      quoted += '"';
      out.value(quoted);
    }
    out.close('}');
  }
  if (!counters_.empty()) {
    out.key("counters");
    out.open('{');
    for (const auto& [name, v] : counters_) {
      out.key(name);
      out.value(std::to_string(v));
    }
    out.close('}');
  }
  if (!gauges_.empty()) {
    out.key("gauges");
    out.open('{');
    for (const auto& [name, v] : gauges_) {
      out.key(name);
      out.value(formatDouble(v));
    }
    out.close('}');
  }
  if (!histograms_.empty()) {
    out.key("histograms");
    out.open('{');
    for (const auto& [name, h] : histograms_) {
      out.key(name);
      out.open('{');
      out.key("count");
      out.value(std::to_string(h.count()));
      out.key("sum");
      out.value(std::to_string(h.sum()));
      out.key("max");
      out.value(std::to_string(h.max()));
      out.key("mean");
      out.value(formatDouble(h.mean()));
      out.key("buckets");
      out.open('[');
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        if (h.bucket(i) == 0) continue;
        // Bucket i holds values of bit width i: upper bound 2^i - 1.
        uint64_t le = i == 0 ? 0 : (i >= 64 ? ~0ull : (1ull << i) - 1);
        out.element("{\"le\": " + std::to_string(le) + ", \"n\": " + std::to_string(h.bucket(i)) +
                    "}");
      }
      out.close(']');
      out.close('}');
    }
    out.close('}');
  }
  out.close('}');
  return out.str();
}

}  // namespace presat
