#include "solver/solver.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "support/fault.hpp"
#include "support/metrics.hpp"

namespace gp::solver {
namespace {

/// Process-wide rollup: one relaxed add per outcome, visible in campaign
/// summaries and --report. Every check() counts exactly one outcome, so
/// solver.checks == solver.sat + solver.unsat + solver.unknown.
void count_outcome(SatResult r) {
  static metrics::Counter& sat = metrics::registry().counter("solver.sat");
  static metrics::Counter& unsat =
      metrics::registry().counter("solver.unsat");
  static metrics::Counter& unknown =
      metrics::registry().counter("solver.unknown");
  switch (r) {
    case SatResult::Sat: sat.add(); break;
    case SatResult::Unsat: unsat.add(); break;
    case SatResult::Unknown: unknown.add(); break;
  }
}

/// A caller tag's latency histograms: the whole query, blasting the
/// constraints and variables, and the SAT search.
struct Timings {
  metrics::Histogram& check_us;
  metrics::Histogram& blast_us;
  metrics::Histogram& solve_us;
  explicit Timings(const std::string& caller)
      : check_us(metrics::registry().histogram(caller + ".check_us")),
        blast_us(metrics::registry().histogram(caller + ".blast_us")),
        solve_us(metrics::registry().histogram(caller + ".solve_us")) {}
};

/// The histograms of a caller tag; nullptr for untagged.
const Timings* timings(Caller c) {
  static const Timings subsume("solver.subsume");
  static const Timings concretize("solver.concretize");
  switch (c) {
    case Caller::Subsume: return &subsume;
    case Caller::Concretize: return &concretize;
    case Caller::None: break;
  }
  return nullptr;
}

u64 micros(std::chrono::steady_clock::duration d) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

}  // namespace

SatResult Solver::check(std::span<const ExprRef> constraints, Model* model) {
  {
    static metrics::Counter& checks =
        metrics::registry().counter("solver.checks");
    checks.add();
  }

  // Constant-only fast path (free: no budget consumed, always conclusive).
  bool all_const_true = true;
  for (const ExprRef c : constraints) {
    GP_CHECK(ctx_.width(c) == 1, "constraint must be width 1");
    if (ctx_.is_const(c, 0)) {
      count_outcome(SatResult::Unsat);
      return SatResult::Unsat;
    }
    if (!ctx_.is_const(c)) all_const_true = false;
  }
  if (all_const_true) {
    if (model) *model = Model{};
    count_outcome(SatResult::Sat);
    return SatResult::Sat;
  }

  auto unknown = [] {
    count_outcome(SatResult::Unknown);
    return SatResult::Unknown;
  };
  // Governed exhaustion and injected solver timeouts both surface as
  // UNKNOWN before any bit-blasting happens.
  if (governor_) {
    if (governor_->should_stop()) return unknown();
    if (!governor_->solver_checks().try_consume()) return unknown();
  }
  if (fault::enabled() && fault::should_fire(fault::Point::Solver))
    return unknown();

  // check_us covers the whole query: blasting, the solve, model extraction
  // and freeing the CNF; blast_us and solve_us time the first two.
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  Clock::time_point blasted, solved;
  SatResult r = SatResult::Unknown;
  Model m;
  {
    BitBlaster bb(ctx_);
    std::vector<ExprRef> vars;
    for (const ExprRef c : constraints) {
      bb.assert_true(c);
      for (const ExprRef v : ctx_.variables(c)) vars.push_back(v);
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    // Blast all variables before solving so model extraction never has to
    // add clauses mid-model.
    for (const ExprRef v : vars) (void)bb.model_value(v);

    blasted = Clock::now();
    r = bb.solve(conflict_budget_, governor_);
    solved = Clock::now();
    if (r == SatResult::Sat && model)
      for (const ExprRef v : vars) m[v] = bb.model_value(v);
  }
  if (const Timings* t = timings(caller_)) {
    t->check_us.observe(micros(Clock::now() - t0));
    t->blast_us.observe(micros(blasted - t0));
    t->solve_us.observe(micros(solved - blasted));
  }
  if (r == SatResult::Unknown) return unknown();
  count_outcome(r);
  if (r == SatResult::Sat && model) *model = std::move(m);
  return r;
}

}  // namespace gp::solver
