#include "support/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/config.hpp"
#include "support/str.hpp"

namespace gp::metrics {

namespace {

std::atomic<bool>& enabled_flag() {
  // First use takes GP_METRICS from the gp::config() snapshot;
  // set_enabled() overwrites afterwards.
  static std::atomic<bool> flag{gp::config().metrics};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_seq_cst);
}

namespace detail {

u32 shard_id() {
  static std::atomic<u32> next{0};
  thread_local const u32 id =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return id;
}

}  // namespace detail

void Histogram::observe(u64 v) {
  if (!enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[static_cast<size_t>(std::bit_width(v))].fetch_add(
      1, std::memory_order_relaxed);
  u64 cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

u64 Histogram::quantile(double q) const {
  const u64 n = count();
  if (n == 0) return 0;
  const u64 rank =
      std::max<u64>(1, static_cast<u64>(std::ceil(q * static_cast<double>(n))));
  u64 seen = 0;
  for (int bits = 0; bits < 64; ++bits) {
    seen += bucket(bits);
    if (seen >= rank) return std::min((u64{1} << bits) - 1, max());
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_)
    s.histograms[name] = {h->count(), h->sum(),         h->max(),
                          h->mean(),  h->quantile(0.5), h->quantile(0.99)};
  return s;
}

std::string Registry::to_json() const {
  const Snapshot s = snapshot();
  std::string j = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    if (!first) j += ", ";
    first = false;
    j += "\"" + json_escape(name) + "\": " + std::to_string(v);
  }
  j += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    if (!first) j += ", ";
    first = false;
    j += "\"" + json_escape(name) + "\": " + std::to_string(v);
  }
  j += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    if (!first) j += ", ";
    first = false;
    char mean[40];
    std::snprintf(mean, sizeof mean, "%.2f", h.mean);
    j += "\"" + json_escape(name) + "\": {\"count\": " +
         std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
         ", \"max\": " + std::to_string(h.max) + ", \"mean\": " + mean +
         ", \"p50\": " + std::to_string(h.p50) +
         ", \"p99\": " + std::to_string(h.p99) + "}";
  }
  j += "}}";
  return j;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry& registry() {
  static Registry* r = new Registry();  // leaked: see header
  return *r;
}

}  // namespace gp::metrics
