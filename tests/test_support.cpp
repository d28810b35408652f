#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "support/common.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace gp {
namespace {

TEST(BitUtil, TruncateMasksHighBits) {
  EXPECT_EQ(truncate(0xffffffffffffffffULL, 8), 0xffu);
  EXPECT_EQ(truncate(0x1234, 4), 0x4u);
  EXPECT_EQ(truncate(0xdeadbeef, 64), 0xdeadbeefULL);
  EXPECT_EQ(truncate(0xdeadbeef, 32), 0xdeadbeefULL);
  EXPECT_EQ(truncate(0x1, 1), 1u);
}

TEST(BitUtil, SignExtend) {
  EXPECT_EQ(sign_extend(0xff, 8), 0xffffffffffffffffULL);
  EXPECT_EQ(sign_extend(0x7f, 8), 0x7fULL);
  EXPECT_EQ(sign_extend(0x80000000ULL, 32), 0xffffffff80000000ULL);
  EXPECT_EQ(sign_extend(0x7fffffffULL, 32), 0x7fffffffULL);
  EXPECT_EQ(sign_extend(1, 1), 0xffffffffffffffffULL);
  EXPECT_EQ(sign_extend(0, 1), 0u);
}

TEST(BitUtil, SignExtendIdempotentAt64) {
  EXPECT_EQ(sign_extend(0xdeadbeefcafef00dULL, 64), 0xdeadbeefcafef00dULL);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<i64> seen;
  for (int i = 0; i < 500; ++i) {
    i64 v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Str, Hex) {
  EXPECT_EQ(hex(0), "0x0");
  EXPECT_EQ(hex(0x401000), "0x401000");
  EXPECT_EQ(hex_byte(0x0f), "0f");
}

TEST(Str, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Error, CheckThrows) {
  EXPECT_THROW(GP_CHECK(false, "boom"), Error);
  EXPECT_NO_THROW(GP_CHECK(true, "fine"));
}

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(
      hits.size(), [&](int, u64 i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, LaneIdsAreDenseAndBounded) {
  ThreadPool pool(7);
  const int max_lanes = 3;
  std::atomic<u32> lane_mask{0};
  std::atomic<int> active{0}, peak{0};
  pool.run(
      200,
      [&](int lane, u64) {
        EXPECT_GE(lane, 0);
        EXPECT_LT(lane, max_lanes);
        lane_mask.fetch_or(1u << lane);
        int now = active.fetch_add(1) + 1;
        int p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        active.fetch_sub(1);
      },
      max_lanes);
  EXPECT_LE(peak.load(), max_lanes);
  EXPECT_NE(lane_mask.load(), 0u);
}

TEST(ThreadPool, CallerParticipatesWithZeroWorkers) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::atomic<int> n{0};
  pool.run(
      64, [&](int lane, u64) {
        EXPECT_EQ(lane, 0);
        n.fetch_add(1);
      },
      8);
  EXPECT_EQ(n.load(), 64);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(
                   100,
                   [&](int, u64 i) {
                     if (i == 17) fail("boom");
                   },
                   4),
               Error);
}

TEST(ThreadPool, NestedRunDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.run(
      4,
      [&](int, u64) {
        pool.run(
            8, [&](int, u64) { n.fetch_add(1); }, 2);
      },
      3);
  EXPECT_EQ(n.load(), 32);
}

// Regression for a lost wakeup: the stop flag and the queued-task count
// were once published without holding the mutex the workers wait on, so a
// worker between its wait predicate check and the wait itself could sleep
// through the notify and hang the destructor's join. That loop hung within
// a few thousand iterations; a hang fails through the ctest TIMEOUT.
TEST(ThreadPool, LifecycleStress) {
  for (int iter = 0; iter < 3000; ++iter) {
    ThreadPool pool(3);
    std::atomic<int> n{0};
    pool.run(
        8, [&](int, u64) { n.fetch_add(1); }, 4);
    ASSERT_EQ(n.load(), 8) << "iteration " << iter;
  }
}

// Several external callers share one small pool; every item issues a
// nested run(), and one caller's item throws. Every caller must return (a
// hang fails through the ctest TIMEOUT), only the throwing caller may see
// the exception, and every other run() executes each item exactly once.
TEST(ThreadPool, ConcurrentCallersNestAndContainOneThrow) {
  constexpr int kCallers = 4;
  constexpr u64 kItems = 32, kInner = 4;
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(kCallers * kItems * kInner);
    std::vector<int> threw(kCallers, 0);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c)
      callers.emplace_back([&, c] {
        try {
          pool.run(
              kItems,
              [&](int, u64 i) {
                if (c == 0 && i == 5) fail("boom");
                pool.run(
                    kInner,
                    [&](int, u64 j) {
                      hits[(c * kItems + i) * kInner + j].fetch_add(1);
                    },
                    2);
              },
              3);
        } catch (const Error&) {
          threw[c] = 1;
        }
      });
    for (std::thread& t : callers) t.join();
    ASSERT_EQ(threw, std::vector<int>({1, 0, 0, 0})) << "round " << round;
    for (u64 k = kItems * kInner; k < hits.size(); ++k)
      ASSERT_EQ(hits[k].load(), 1) << "round " << round << " slot " << k;
  }
}

TEST(ThreadPool, SharedPoolKeepsThreeWorkers) {
  EXPECT_GE(ThreadPool::shared().workers(), 3);
}

TEST(Config, FromEnvParsesEveryKnobFresh) {
  setenv("GP_THREADS", "5", 1);
  setenv("GP_STORE_DIR", "/tmp/gp-config-test", 1);
  setenv("GP_FAULT", "solver=0.5", 1);
  setenv("GP_DEADLINE_MS", "1500", 1);
  setenv("GP_SOLVER_CHECKS", "42", 1);
  const Config cfg = Config::from_env();
  EXPECT_EQ(cfg.threads, 5);
  EXPECT_EQ(cfg.store_dir, "/tmp/gp-config-test");
  EXPECT_EQ(cfg.fault_spec, "solver=0.5");
  EXPECT_DOUBLE_EQ(cfg.governor.deadline_seconds, 1.5);
  EXPECT_EQ(cfg.governor.max_solver_checks, 42u);

  // from_env() is a fresh parse every call: a later setenv is observed.
  setenv("GP_THREADS", "2", 1);
  EXPECT_EQ(Config::from_env().threads, 2);

  for (const char* knob : {"GP_THREADS", "GP_STORE_DIR", "GP_FAULT",
                           "GP_DEADLINE_MS", "GP_SOLVER_CHECKS"})
    unsetenv(knob);
  const Config clean = Config::from_env();
  EXPECT_GE(clean.threads, 1);  // hardware fallback, never 0
  EXPECT_TRUE(clean.store_dir.empty());
  EXPECT_EQ(clean.governor.max_solver_checks, 0u);  // unlimited
}

TEST(Config, InvalidValuesKeepDefaults) {
  setenv("GP_THREADS", "0", 1);  // below minimum: hardware fallback
  const Config cfg = Config::from_env();
  EXPECT_GE(cfg.threads, 1);
  setenv("GP_THREADS", "junk", 1);  // unparsable: hardware fallback
  EXPECT_GE(Config::from_env().threads, 1);
  unsetenv("GP_THREADS");
}

TEST(Config, ObservabilityKnobs) {
  setenv("GP_METRICS", "0", 1);
  setenv("GP_TRACE", "1", 1);
  setenv("GP_TRACE_BUF", "4096", 1);
  Config cfg = Config::from_env();
  EXPECT_FALSE(cfg.metrics);
  EXPECT_TRUE(cfg.trace);
  EXPECT_EQ(cfg.trace_buf, 4096u);

  // "false"/"off" (any case) also disable; unset restores the defaults.
  setenv("GP_METRICS", "False", 1);
  setenv("GP_TRACE", "off", 1);
  cfg = Config::from_env();
  EXPECT_FALSE(cfg.metrics);
  EXPECT_FALSE(cfg.trace);

  unsetenv("GP_METRICS");
  unsetenv("GP_TRACE");
  unsetenv("GP_TRACE_BUF");
  cfg = Config::from_env();
  EXPECT_TRUE(cfg.metrics);   // metrics default on
  EXPECT_FALSE(cfg.trace);    // tracing default off
  EXPECT_EQ(cfg.trace_buf, 8192u);
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hash_table"), "hash_table");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("pwn\"]}"), "pwn\\\"]}");
}

TEST(JsonEscape, EscapesControlCharacters) {
  // The old campaign-local escaper turned "a\nb" into the invalid literal
  // `a\b`; the shared one must produce a two-character escape.
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(GovernorOptions, SplitAcrossDividesCountedBudgets) {
  GovernorOptions g;
  g.max_solver_checks = 100;
  g.max_sym_steps = 3;
  g.max_expr_nodes = 0;
  g.deadline_seconds = 2.0;
  const GovernorOptions share = g.split_across(4);
  EXPECT_EQ(share.max_solver_checks, 25u);
  EXPECT_EQ(share.max_sym_steps, 1u);  // floor is 1, not 0 (= unlimited)
  EXPECT_EQ(share.max_expr_nodes, 0u);  // unlimited stays unlimited
  EXPECT_DOUBLE_EQ(share.deadline_seconds, 2.0);  // deadline is shared
}

}  // namespace
}  // namespace gp
