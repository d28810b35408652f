// Subsumption testing (paper Sec. IV-C): winnow the gadget pool to one
// representative per functionality class by checking, for gadget pairs,
//     (pre_2 -> pre_1) AND (post_1 == post_2)                    (eq. 1)
// i.e. g1 does the same thing as g2 under a looser pre-condition, so g2 is
// redundant. Ties (mutual subsumption) keep the shorter gadget.
//
// Pairwise solver checks over tens of thousands of gadgets would be
// quadratic; candidates are first bucketed by a cheap semantic fingerprint
// (end kind, clobber/control masks, stack delta) so the solver only ever
// compares within a bucket — this is where the paper's observed ~3x pool
// reduction comes from.
#pragma once

#include "gadget/gadget.hpp"
#include "solver/solver.hpp"
#include "support/metrics.hpp"

namespace gp::subsume {

/// Default max_solver_checks of minimize(). Session's winnow runs under it
/// and folds it into the subsume checkpoint key, so changing the budget
/// also re-keys every stored minimized pool.
constexpr u64 kSolverCheckBudget = 20'000;

struct Stats {
  u64 input = 0;
  u64 kept = 0;
  u64 removed = 0;
  /// Budget units: semantic pair tests charged against max_solver_checks.
  /// Most are settled by prefilters without a solver query, so this is not
  /// the solver call count (the registry's solver.checks is).
  u64 solver_checks = 0;
  u64 structural_hits = 0;  // removed without touching the solver
  /// The solver-check budget ran out: the remainder of the pool was
  /// winnowed in structural-only mode (sound — keeping both gadgets of an
  /// unchecked pair just leaves the pool larger).
  bool budget_exhausted = false;
  /// Pairs whose solver query came back UNKNOWN (conflict budget, governed
  /// deadline, or an injected solver fault). Inconclusive means "not
  /// subsumed": both gadgets stay in the pool.
  u64 solver_unknown = 0;
  /// Ok for a full winnow; otherwise the first degradation reason
  /// (deadline, cancellation, or an exhausted global budget).
  Status status;
  double reduction_factor() const {
    return kept ? static_cast<double>(input) / static_cast<double>(kept) : 1.0;
  }

  static constexpr metrics::CounterField<Stats> kCounters[] = {
      {"input", &Stats::input},
      {"kept", &Stats::kept},
      {"removed", &Stats::removed},
      {"solver_checks", &Stats::solver_checks},
      {"structural_hits", &Stats::structural_hits},
      {"solver_unknown", &Stats::solver_unknown},
  };

  Stats& operator+=(const Stats& o) {
    metrics::add_counters(*this, o);
    budget_exhausted |= o.budget_exhausted;
    status.merge(o.status);
    return *this;
  }
};

/// Returns the minimized pool. `stats` (optional) receives counters.
///
/// `threads`: the lane count (a Session passes its Engine's
/// Config::threads; capped at ThreadPool::granted_lanes); 1 is the exact
/// sequential path. Parallel mode processes fingerprint buckets
/// concurrently — each worker lane owns a clone of `ctx` (identical refs,
/// private interner) and each bucket its own Solver — and splits
/// `max_solver_checks` across lanes via an atomic counter. Results are
/// identical to the sequential run whenever the budget is not exhausted;
/// once it is, which pairs got a solver check before the cutoff depends on
/// scheduling (the surviving pool is sound either way, at worst slightly
/// larger).
///
/// `governor` (optional; must outlive the call) is polled per candidate on
/// every lane: deadline expiry or cancellation drops the stage into
/// structural-only mode (never an incorrect removal), UNKNOWN solver
/// answers keep both gadgets, and the reason lands in Stats::status.
std::vector<gadget::Record> minimize(solver::Context& ctx,
                                     std::vector<gadget::Record> pool,
                                     Stats* stats = nullptr,
                                     u64 max_solver_checks = kSolverCheckBudget,
                                     int threads = 1,
                                     Governor* governor = nullptr);

/// Three-valued answer of a pair test. Unknown: a solver query was cut
/// before it proved or refuted the pair, which minimize() counts in
/// Stats::solver_unknown and treats as "not subsumed".
enum class Verdict : u8 { No, Yes, Unknown };

/// Does g1 subsume g2 (eq. 1)? Exposed for tests.
Verdict subsumes(solver::Context& ctx, solver::Solver& solver,
                 const gadget::Record& g1, const gadget::Record& g2);

}  // namespace gp::subsume
