// Unit tests for the shared resource governor (support/governor) and the
// deterministic fault-injection harness (support/fault).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/config.hpp"
#include "support/fault.hpp"
#include "support/governor.hpp"
#include "support/status.hpp"

namespace gp {
namespace {

TEST(Status, DefaultIsOkAndMergeKeepsFirstFailure) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::Ok);

  s.merge(Status::deadline_exceeded("first"));
  EXPECT_EQ(s.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(s.message(), "first");

  // Later failures do not overwrite the first recorded reason.
  s.merge(Status::cancelled("second"));
  EXPECT_EQ(s.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(s.message(), "first");

  // Merging Ok into a failure is a no-op too.
  s.merge(Status());
  EXPECT_EQ(s.code(), StatusCode::DeadlineExceeded);
}

TEST(Status, ToStringNamesTheCode) {
  EXPECT_EQ(Status().to_string(), "ok");
  EXPECT_EQ(Status::budget_exhausted("sym steps").to_string(),
            "budget-exhausted: sym steps");
}

TEST(StatusResult, ValueAndErrorPaths) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(-1), 7);

  Result<int> bad(Status::fault_injected("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::FaultInjected);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(GovernorDeadline, NeverExpiresWhenUnlimited) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
}

TEST(GovernorDeadline, ExpiresAndCombines) {
  const Deadline past = Deadline::after_seconds(-1.0);
  EXPECT_TRUE(past.expired());
  const Deadline far = Deadline::after_seconds(3600.0);
  EXPECT_FALSE(far.expired());

  // earlier() picks the tighter bound; unlimited never wins.
  EXPECT_TRUE(Deadline::earlier(past, far).expired());
  EXPECT_TRUE(Deadline::earlier(far, past).expired());
  EXPECT_FALSE(Deadline::earlier(Deadline::never(), far).expired());
  EXPECT_FALSE(Deadline::earlier(far, Deadline::never()).unlimited());
  EXPECT_TRUE(
      Deadline::earlier(Deadline::never(), Deadline::never()).unlimited());
}

TEST(GovernorCancelToken, CopiesShareTheFlag) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_FALSE(b.cancelled());
  a.cancel();
  EXPECT_TRUE(b.cancelled());
}

TEST(GovernorBudget, ZeroLimitMeansUnlimited) {
  Budget b;
  EXPECT_TRUE(b.unlimited());
  EXPECT_FALSE(b.exhausted());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.try_consume());
}

TEST(GovernorBudget, ConsumesExactlyLimitUnits) {
  Budget b(5);
  EXPECT_TRUE(b.try_consume(3));
  EXPECT_FALSE(b.try_consume(3));  // only 2 left: claim nothing
  EXPECT_EQ(b.used(), 3u);
  EXPECT_TRUE(b.try_consume(2));
  EXPECT_TRUE(b.exhausted());
  EXPECT_FALSE(b.try_consume());
  EXPECT_EQ(b.used(), 5u);
}

TEST(GovernorBudget, ConcurrentConsumersNeverOversubscribe) {
  Budget b(10'000);
  std::vector<std::thread> workers;
  std::atomic<u64> granted{0};
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&] {
      while (b.try_consume()) granted.fetch_add(1);
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(granted.load(), 10'000u);
  EXPECT_EQ(b.used(), 10'000u);
}

TEST(Governor, PollReportsCancellationBeforeDeadline) {
  GovernorOptions opts;
  opts.deadline_seconds = -1.0;  // <= 0: no deadline
  Governor idle(opts);
  EXPECT_TRUE(idle.poll().ok());
  EXPECT_FALSE(idle.should_stop());

  idle.cancel();
  EXPECT_EQ(idle.poll().code(), StatusCode::Cancelled);
  EXPECT_TRUE(idle.should_stop());

  Governor late;
  late.set_deadline(Deadline::after_seconds(-1.0));
  EXPECT_EQ(late.poll().code(), StatusCode::DeadlineExceeded);
  late.cancel();  // cancellation outranks the deadline in poll()
  EXPECT_EQ(late.poll().code(), StatusCode::Cancelled);
}

TEST(Governor, OptionsMapToBudgets) {
  GovernorOptions opts;
  opts.max_solver_checks = 2;
  opts.max_sym_steps = 3;
  opts.max_expr_nodes = 4;
  Governor g(opts);
  EXPECT_EQ(g.solver_checks().limit(), 2u);
  EXPECT_EQ(g.sym_steps().limit(), 3u);
  EXPECT_EQ(g.expr_nodes().limit(), 4u);
  EXPECT_TRUE(g.deadline().unlimited());
}

TEST(GovernorOptions, FromEnvParsesKnobs) {
  setenv("GP_DEADLINE_MS", "1500", 1);
  setenv("GP_SOLVER_CHECKS", "77", 1);
  setenv("GP_SYM_STEPS", "88", 1);
  setenv("GP_EXPR_NODES", "99", 1);
  const GovernorOptions opts = Config::from_env().governor;
  unsetenv("GP_DEADLINE_MS");
  unsetenv("GP_SOLVER_CHECKS");
  unsetenv("GP_SYM_STEPS");
  unsetenv("GP_EXPR_NODES");
  EXPECT_DOUBLE_EQ(opts.deadline_seconds, 1.5);
  EXPECT_EQ(opts.max_solver_checks, 77u);
  EXPECT_EQ(opts.max_sym_steps, 88u);
  EXPECT_EQ(opts.max_expr_nodes, 99u);

  const GovernorOptions unset = Config::from_env().governor;
  EXPECT_EQ(unset.deadline_seconds, 0);
  EXPECT_EQ(unset.max_solver_checks, 0u);
  EXPECT_EQ(unset.max_sym_steps, 0u);
  EXPECT_EQ(unset.max_expr_nodes, 0u);
}

TEST(Fault, ParseSpecAcceptsTheDocumentedGrammar) {
  const auto r =
      fault::parse_spec("seed=42,decode=0.01,solver=0.5,emu=1,alloc=0");
  ASSERT_TRUE(r.ok());
  const fault::Spec& s = r.value();
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.rate(fault::Point::Decode), 0.01);
  EXPECT_DOUBLE_EQ(s.rate(fault::Point::Solver), 0.5);
  EXPECT_DOUBLE_EQ(s.rate(fault::Point::Emu), 1.0);
  EXPECT_DOUBLE_EQ(s.rate(fault::Point::Alloc), 0.0);
  EXPECT_TRUE(s.any());
}

TEST(Fault, ParseSpecRejectsTyposAndBadRates) {
  EXPECT_FALSE(fault::parse_spec("decoed=0.1").ok());
  EXPECT_FALSE(fault::parse_spec("decode=1.5").ok());
  EXPECT_FALSE(fault::parse_spec("decode=-0.1").ok());
  EXPECT_FALSE(fault::parse_spec("decode=abc").ok());
  EXPECT_FALSE(fault::parse_spec("decode").ok());
  EXPECT_FALSE(fault::parse_spec("seed=notanumber").ok());
}

TEST(Fault, UnknownPointNamesTheTypoAndListsEveryValidPoint) {
  const auto r = fault::parse_spec("wirte=0.5");
  ASSERT_FALSE(r.ok());
  const std::string& msg = r.status().message();
  EXPECT_NE(msg.find("wirte"), std::string::npos) << msg;
  // The error must enumerate the full grammar so a chaos-run typo is
  // self-diagnosing — including the I/O and socket points.
  for (const char* name : {"decode", "solver", "emu", "alloc", "write",
                           "read", "rename", "accept", "sock_read",
                           "sock_write", "journal_append", "journal_replay",
                           "job_crash"})
    EXPECT_NE(msg.find(name), std::string::npos) << "missing " << name;
  EXPECT_EQ(fault::valid_point_names(),
            "decode, solver, emu, alloc, write, read, rename, accept, "
            "sock_read, sock_write, journal_append, journal_replay, "
            "job_crash");
}

TEST(Fault, ParseSpecAcceptsTheIoPoints) {
  const auto r = fault::parse_spec("seed=3,write=0.25,read=0.5,rename=1");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().rate(fault::Point::ShortWrite), 0.25);
  EXPECT_DOUBLE_EQ(r.value().rate(fault::Point::ReadCorrupt), 0.5);
  EXPECT_DOUBLE_EQ(r.value().rate(fault::Point::RenameFail), 1.0);
}

TEST(Fault, ParseSpecAcceptsTheSocketPoints) {
  const auto r =
      fault::parse_spec("seed=3,accept=0.25,sock_read=0.5,sock_write=1");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().rate(fault::Point::Accept), 0.25);
  EXPECT_DOUBLE_EQ(r.value().rate(fault::Point::SockRead), 0.5);
  EXPECT_DOUBLE_EQ(r.value().rate(fault::Point::SockWrite), 1.0);
}

TEST(Fault, GrammarAndRegisteredPointsCannotDrift) {
  // Every key the error-message grammar advertises must round-trip through
  // the parser, and every registered Point must be reachable by its
  // advertised name. Adding an enum value without its point_name case (or
  // vice versa) fails here instead of surfacing as a confusing chaos-run
  // rejection.
  const std::string names = fault::valid_point_names();
  size_t start = 0, listed = 0;
  while (start < names.size()) {
    size_t end = names.find(", ", start);
    if (end == std::string::npos) end = names.size();
    const std::string name = names.substr(start, end - start);
    ++listed;
    const auto parsed = fault::parse_spec(name + "=0.5");
    ASSERT_TRUE(parsed.ok()) << "advertised key '" << name
                             << "' rejected by parse_spec";
    EXPECT_TRUE(parsed.value().any()) << name;
    start = end + 2;
  }
  EXPECT_EQ(listed, static_cast<size_t>(fault::Point::kCount));
  for (size_t i = 0; i < static_cast<size_t>(fault::Point::kCount); ++i) {
    const std::string name = fault::point_name(static_cast<fault::Point>(i));
    EXPECT_NE(names.find(name), std::string::npos)
        << "point " << name << " missing from valid_point_names()";
  }
}

TEST(Fault, DisabledByDefaultAndNeverFires) {
  fault::disable();
  EXPECT_FALSE(fault::enabled());
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fault::should_fire(fault::Point::Solver));
}

TEST(Fault, DeterministicPerSeedAndRoughlyAtRate) {
  auto draw = [](u64 seed, int trials) {
    fault::Spec spec;
    spec.seed = seed;
    spec.rates[static_cast<size_t>(fault::Point::Decode)] = 0.25;
    fault::ScopedSpec scoped(spec);
    std::vector<bool> fired;
    for (int i = 0; i < trials; ++i)
      fired.push_back(fault::should_fire(fault::Point::Decode));
    return fired;
  };

  const auto a = draw(7, 4000);
  const auto b = draw(7, 4000);
  EXPECT_EQ(a, b);  // same seed => identical firing pattern

  const auto c = draw(8, 4000);
  EXPECT_NE(a, c);  // different seed => different pattern

  int fires = 0;
  for (const bool f : a) fires += f;
  EXPECT_GT(fires, 4000 / 4 - 300);
  EXPECT_LT(fires, 4000 / 4 + 300);
  EXPECT_FALSE(fault::enabled());  // ScopedSpec restored the disabled state
}

TEST(Fault, RateOneAlwaysFiresAndCountsTrials) {
  fault::Spec spec;
  spec.rates[static_cast<size_t>(fault::Point::Emu)] = 1.0;
  fault::ScopedSpec scoped(spec);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(fault::should_fire(fault::Point::Emu));
  EXPECT_EQ(fault::trials(fault::Point::Emu), 10u);
  EXPECT_EQ(fault::trials(fault::Point::Decode), 0u);
}

}  // namespace
}  // namespace gp
