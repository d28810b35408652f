// Unit tests for the observability layer: the process-wide metrics
// registry (support/metrics) and the scoped-span tracer with its Chrome
// trace_event exporter (support/trace).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/metrics.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace gp {
namespace {

// Every test runs with both subsystems explicitly enabled and leaves the
// registry/rings clean: the process-wide singletons are shared across the
// whole binary.
class Observability : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::registry().reset();
    trace::set_enabled(true);
    trace::reset();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
    metrics::registry().reset();
  }
};

TEST_F(Observability, CounterAddsAndResets) {
  metrics::Counter& c = metrics::registry().counter("t.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(Observability, CounterIsDisabledCheap) {
  metrics::Counter& c = metrics::registry().counter("t.disabled");
  metrics::set_enabled(false);
  c.add(7);
  EXPECT_EQ(c.value(), 0u);  // disabled adds are dropped, not deferred
  metrics::set_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(Observability, RegistryReturnsStableReferences) {
  metrics::Counter& a = metrics::registry().counter("t.same");
  metrics::Counter& b = metrics::registry().counter("t.same");
  EXPECT_EQ(&a, &b);
  a.add();
  EXPECT_EQ(b.value(), 1u);
}

TEST_F(Observability, GaugeSetAddValue) {
  metrics::Gauge& g = metrics::registry().gauge("t.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST_F(Observability, HistogramBucketsByBitWidthAndTracksMoments) {
  metrics::Histogram& h = metrics::registry().histogram("t.hist");
  h.observe(0);
  h.observe(1);
  h.observe(5);   // bit_width 3
  h.observe(5);
  h.observe(300);  // bit_width 9
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 311u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 311.0 / 5.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST_F(Observability, HistogramQuantileIsBucketUpperBound) {
  metrics::Histogram& h = metrics::registry().histogram("t.q");
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (const u64 v : {0, 1, 5, 5, 300}) h.observe(v);
  EXPECT_EQ(h.quantile(0.5), 7u);     // 3rd of 5 lies in the [4, 7] bucket
  EXPECT_EQ(h.quantile(0.99), 300u);  // [256, 511] bucket, capped at max
  EXPECT_EQ(h.quantile(0.0), 0u);
}

TEST_F(Observability, SnapshotAndJsonCoverAllInstrumentKinds) {
  metrics::registry().counter("t.c").add(3);
  metrics::registry().gauge("t.g").set(-2);
  metrics::registry().histogram("t.h").observe(16);

  const metrics::Snapshot s = metrics::registry().snapshot();
  EXPECT_EQ(s.counters.at("t.c"), 3u);
  EXPECT_EQ(s.gauges.at("t.g"), -2);
  EXPECT_EQ(s.histograms.at("t.h").count, 1u);
  EXPECT_EQ(s.histograms.at("t.h").max, 16u);

  const std::string j = metrics::registry().to_json();
  EXPECT_NE(j.find("\"t.c\": 3"), std::string::npos) << j;
  EXPECT_NE(j.find("\"t.g\": -2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"count\": 1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"p50\": 16, \"p99\": 16"), std::string::npos) << j;
}

TEST_F(Observability, MetricNamesAreJsonEscapedInOutput) {
  metrics::registry().counter("weird\"name\\with\nstuff").add();
  const std::string j = metrics::registry().to_json();
  EXPECT_NE(j.find("weird\\\"name\\\\with\\nstuff"), std::string::npos) << j;
  EXPECT_EQ(j.find("with\nstuff"), std::string::npos) << j;
}

TEST_F(Observability, SpanRecordsNameCatSessionAndDuration) {
  {
    trace::Span span("mystage", "stage", 42);
  }
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "mystage");
  EXPECT_STREQ(events[0].cat, "stage");
  EXPECT_EQ(events[0].session, 42u);
  EXPECT_GT(events[0].tid, 0u);
}

TEST_F(Observability, DisabledSpanRecordsNothing) {
  trace::set_enabled(false);
  {
    trace::Span span("ghost");
  }
  trace::set_enabled(true);
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST_F(Observability, LongNamesTruncateNotOverflow) {
  const std::string big(200, 'x');
  {
    trace::Span span(big, "stage", 0);
  }
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name).size(),
            sizeof(trace::Event::name) - 1);
}

TEST_F(Observability, RingWrapKeepsNewestAndCountsDropped) {
  trace::set_ring_capacity(64);
  // A fresh thread gets a fresh ring at the new capacity (the calling
  // thread's ring was created at the default size by an earlier test).
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      trace::Event e;
      std::snprintf(e.name, sizeof e.name, "ev%03d", i);
      e.ts_us = static_cast<u64>(1000 + i);
      trace::record(e);
    }
  });
  t.join();
  const auto events = trace::snapshot();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_GE(trace::dropped(), 36u);
  EXPECT_EQ(trace::recorded(), 100u);
  // Oldest surviving event is #36; the newest is #99.
  EXPECT_STREQ(events.front().name, "ev036");
  EXPECT_STREQ(events.back().name, "ev099");
}

TEST_F(Observability, ExportChromeJsonIsWellFormed) {
  {
    trace::Span a("alpha", "stage", 1);
    trace::Span b("beta\"quoted", "io", 2);
  }
  const std::string path = ::testing::TempDir() + "gp_trace_test.json";
  ASSERT_TRUE(trace::export_chrome_json(path).ok());

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string j = ss.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("\"alpha\""), std::string::npos);
  EXPECT_NE(j.find("beta\\\"quoted"), std::string::npos) << j;
  // Timestamps are rebased to the earliest span.
  EXPECT_NE(j.find("\"ts\": 0"), std::string::npos) << j;
  std::remove(path.c_str());
}

TEST_F(Observability, SnapshotDoesNotClearResetDoes) {
  {
    trace::Span span("keepme");
  }
  EXPECT_EQ(trace::snapshot().size(), 1u);
  EXPECT_EQ(trace::snapshot().size(), 1u);
  trace::reset();
  EXPECT_TRUE(trace::snapshot().empty());
  EXPECT_EQ(trace::recorded(), 0u);
}

TEST_F(Observability, SnapshotRestoresEnabledState) {
  (void)trace::snapshot();
  EXPECT_TRUE(trace::enabled());
  trace::set_enabled(false);
  (void)trace::snapshot();
  EXPECT_FALSE(trace::enabled());
}

}  // namespace
}  // namespace gp
