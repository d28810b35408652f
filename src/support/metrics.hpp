// Process-wide metrics registry: named counters, gauges and histograms for
// always-on, low-overhead pipeline accounting (HPCToolkit-style "measure
// everything, pay almost nothing").
//
// Per-stage counters live in per-session Stats structs, each naming them
// once in a CounterField table; core::Session is the one place that
// publishes them here (publish(), once per stage attempt). The registry is
// the *process-wide* rollup of those plus sites that count directly:
// solver checks, thread-pool tasks, store I/O, across every concurrent
// session. Such sites cache a reference once and pay per event:
//
//   static metrics::Counter& c = metrics::registry().counter("solver.checks");
//   c.add();
//
// Cost model (the reason this can stay on in release builds):
//  - disabled (GP_METRICS=0): one relaxed atomic bool load + branch;
//  - enabled: one relaxed fetch_add on a thread-sharded cache line —
//    counters keep 16 cache-line-padded slots indexed by a thread-local id,
//    so concurrent lanes never contend on one line. value() sums the
//    shards; totals are exact (sum over threads == sequential run, the
//    tsan suite asserts it).
//
// GP_METRICS (default on; "0"/"false" disables) is resolved through
// gp::Config on first use; set_enabled() overrides it at runtime (CLI
// flags, benchmarks, tests).
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/common.hpp"

namespace gp::metrics {

/// Is collection on? Single relaxed load — the whole disabled fast path.
bool enabled();
/// Override the GP_METRICS knob at runtime (benchmarks flipping modes,
/// gp_pipeline flags, tests). Affects every instrumentation site at once.
void set_enabled(bool on);

namespace detail {
constexpr u32 kShards = 16;
/// Dense per-thread shard index in [0, kShards): spreads concurrent
/// increments across cache lines without any coordination.
u32 shard_id();
}  // namespace detail

/// Monotonic event count. Thread-sharded; exact under any interleaving.
class Counter {
 public:
  void add(u64 n = 1) {
    if (!enabled()) return;
    slots_[detail::shard_id()].v.fetch_add(n, std::memory_order_relaxed);
  }
  u64 value() const {
    u64 sum = 0;
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<u64> v{0};
  };
  std::array<Slot, detail::kShards> slots_;
};

/// Last-written level (pool sizes, in-flight sessions). set()/add() are
/// cheap enough for per-stage use; not sharded — gauges are written rarely.
class Gauge {
 public:
  void set(i64 v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  void add(i64 d) {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  i64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> v_{0};
};

/// Power-of-two-bucketed distribution (bucket = bit width of the value) —
/// enough resolution for "how big are pools / how long are jobs" questions
/// without per-observation allocation.
class Histogram {
 public:
  void observe(u64 v);
  u64 count() const { return count_.load(std::memory_order_relaxed); }
  u64 sum() const { return sum_.load(std::memory_order_relaxed); }
  u64 max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const u64 n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  /// Count of observations in the bucket for values of `bits` bit width
  /// (bits in [0, 64]; bucket 0 holds the value 0).
  u64 bucket(int bits) const {
    return buckets_[static_cast<size_t>(bits)].load(std::memory_order_relaxed);
  }
  /// Upper bound on the q-quantile (q in [0, 1], nearest rank): the top of
  /// the bucket holding that observation, capped at max(). 0 when empty.
  u64 quantile(double q) const;
  void reset();

 private:
  std::array<std::atomic<u64>, 65> buckets_{};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> max_{0};
};

struct HistogramSummary {
  u64 count = 0;
  u64 sum = 0;
  u64 max = 0;
  double mean = 0;
  u64 p50 = 0;  // Histogram::quantile bounds
  u64 p99 = 0;
};

/// Read-only copy of every instrument at one moment.
struct Snapshot {
  std::map<std::string, u64> counters;
  std::map<std::string, i64> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

/// Name -> instrument map. Registration (the name lookup) takes a mutex;
/// instrument references are stable for the process lifetime, so hot sites
/// resolve once into a function-local static and never lock again.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  Snapshot snapshot() const;
  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {"name": {"count":..,"sum":..,"max":..,"mean":..,
  /// "p50":..,"p99":..}}}.
  /// Names are json-escaped; zero-valued counters are kept (a zero is
  /// informative: the site was registered but never fired).
  std::string to_json() const;
  /// Zero every instrument (tests and benchmark reps). Instruments stay
  /// registered; cached references remain valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry (intentionally leaked: instrumentation sites
/// may fire from worker threads during late shutdown).
Registry& registry();

/// One named u64 counter of a stage's Stats. Each Stats lists its counters
/// once (`static constexpr CounterField<Stats> kCounters[]`); its +=, the
/// registry rollup and the campaign per-job JSON all iterate that table.
template <class S>
struct CounterField {
  const char* name;
  u64 S::*field;
};

/// a += b over every counter in S::kCounters.
template <class S>
void add_counters(S& a, const S& b) {
  for (const CounterField<S>& f : S::kCounters) a.*f.field += b.*f.field;
}

/// Add every counter of `stats` to the registry as "<prefix>.<name>".
template <class S>
void publish(const std::string& prefix, const S& stats) {
  if (!enabled()) return;
  Registry& reg = registry();
  for (const CounterField<S>& f : S::kCounters)
    reg.counter(prefix + "." + f.name).add(stats.*f.field);
}

}  // namespace gp::metrics
