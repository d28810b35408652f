#include "solver/solver.hpp"

#include <algorithm>
#include <chrono>

#include "support/fault.hpp"
#include "support/metrics.hpp"

namespace gp::solver {
namespace {

u64 key_of(const std::vector<ExprRef>& constraints) {
  std::vector<ExprRef> sorted(constraints);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  u64 h = 0x243f6a8885a308d3ULL;
  for (const ExprRef e : sorted)
    h ^= e + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Process-wide rollup alongside the per-Solver counters: one relaxed add
/// per outcome, visible in campaign summaries and --report.
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

SatResult Solver::check_impl(const std::vector<ExprRef>& constraints,
                             std::optional<Model>* model) {
  ++queries_;
  {
    static metrics::Counter& checks =
        metrics::registry().counter("solver.checks");
    checks.add();
  }
  last_unknown_ = false;

  // Constant-only fast path (free: no budget consumed, always conclusive).
  bool all_const_true = true;
  for (const ExprRef c : constraints) {
    GP_CHECK(ctx_.width(c) == 1, "constraint must be width 1");
    if (ctx_.is_const(c, 0)) {
      memo_[key_of(constraints)] = Memo::Unsat;
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

  auto unknown = [&] {
    last_unknown_ = true;
    ++unknowns_;
    count_outcome(SatResult::Unknown);
    return SatResult::Unknown;
  };
  // Governed exhaustion and injected solver timeouts both surface as
  // UNKNOWN before any bit-blasting happens; UNKNOWN is never memoized, so
  // a later run with budget left can still answer.
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
  memo_[key_of(constraints)] = r == SatResult::Sat ? Memo::Sat : Memo::Unsat;
  if (r == SatResult::Sat && model) *model = std::move(m);
  return r;
}

std::optional<Model> Solver::check_sat(
    const std::vector<ExprRef>& constraints) {
  std::optional<Model> model;
  check_impl(constraints, &model);
  return model;
}

SatResult Solver::check(const std::vector<ExprRef>& constraints) {
  const u64 key = key_of(constraints);
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++cache_hits_;
    static metrics::Counter& hits =
        metrics::registry().counter("solver.cache_hits");
    hits.add();
    last_unknown_ = false;
    return it->second == Memo::Sat ? SatResult::Sat : SatResult::Unsat;
  }
  return check_impl(constraints, nullptr);
}

bool Solver::is_sat(const std::vector<ExprRef>& constraints) {
  return check(constraints) == SatResult::Sat;
}

bool Solver::prove_valid(ExprRef e) {
  if (ctx_.is_const(e)) return ctx_.const_val(e) == 1;
  // Proven valid only when the negation is conclusively UNSAT; an UNKNOWN
  // refutation attempt proves nothing.
  return check({ctx_.bnot(e)}) == SatResult::Unsat;
}

bool Solver::prove_equal(ExprRef a, ExprRef b) {
  if (a == b) return true;
  if (ctx_.width(a) != ctx_.width(b)) return false;
  if (ctx_.is_const(a) && ctx_.is_const(b))
    return ctx_.const_val(a) == ctx_.const_val(b);
  return check({ctx_.ne(a, b)}) == SatResult::Unsat;
}

bool Solver::prove_implies(ExprRef antecedent, ExprRef consequent) {
  if (consequent == ctx_.t()) return true;
  if (antecedent == ctx_.f()) return true;
  if (antecedent == consequent) return true;
  return check({antecedent, ctx_.bnot(consequent)}) == SatResult::Unsat;
}

}  // namespace gp::solver
