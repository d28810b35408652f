#include "solver/solver.hpp"

#include <algorithm>
#include <chrono>

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

/// The check-latency histogram of a caller tag; nullptr for untagged.
metrics::Histogram* check_us(Caller c) {
  static metrics::Histogram& subsume =
      metrics::registry().histogram("solver.subsume.check_us");
  static metrics::Histogram& concretize =
      metrics::registry().histogram("solver.concretize.check_us");
  switch (c) {
    case Caller::Subsume: return &subsume;
    case Caller::Concretize: return &concretize;
    case Caller::None: break;
  }
  return nullptr;
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

  // The latency observation covers the whole query: blasting, the solve,
  // model extraction and freeing the CNF.
  const auto t0 = std::chrono::steady_clock::now();
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

    r = bb.solve(conflict_budget_, governor_);
    if (r == SatResult::Sat && model)
      for (const ExprRef v : vars) m[v] = bb.model_value(v);
  }
  if (metrics::Histogram* h = check_us(caller_))
    h->observe(static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  if (r == SatResult::Unknown) return unknown();
  count_outcome(r);
  if (r == SatResult::Sat && model) *model = std::move(m);
  return r;
}

}  // namespace gp::solver
