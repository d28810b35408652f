#include "subsume/subsume.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace gp::subsume {

using gadget::Record;
using solver::ExprRef;

namespace {

/// Randomized refutation: try to falsify "pre -> claim" on sampled points.
/// Returns true if a counterexample was found (so the implication is
/// definitely false and the solver call can be skipped); false means
/// "inconclusive, ask the solver". Obfuscated pools are dominated by pairs
/// that differ, so this filter removes almost all bit-blasting.
bool refuted_by_sampling(solver::Context& ctx, ExprRef pre, ExprRef claim) {
  Rng rng(0x5eedULL ^ (static_cast<u64>(pre) << 32) ^ claim);
  std::vector<ExprRef> vars = ctx.variables(pre);
  for (const ExprRef v : ctx.variables(claim)) vars.push_back(v);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  std::unordered_map<ExprRef, u64> env;
  for (int trial = 0; trial < 12; ++trial) {
    for (const ExprRef v : vars) {
      // Mix small structured values with full-width noise.
      switch (rng.below(4)) {
        case 0: env[v] = rng.below(4); break;
        case 1: env[v] = 0; break;
        default: env[v] = rng.next(); break;
      }
    }
    if (ctx.eval(pre, env) != 1) continue;  // sample misses the premise
    if (ctx.eval(claim, env) != 1) return true;
  }
  return false;
}

/// Conjunction of a pre-condition list (width-1 expr).
ExprRef conj(solver::Context& ctx, const std::vector<ExprRef>& cs) {
  ExprRef acc = ctx.t();
  for (const ExprRef c : cs) acc = ctx.band(acc, c);
  return acc;
}

/// Cheap bucket fingerprint: gadgets in different buckets can never satisfy
/// post_1 == post_2 (different transfer kind / touched registers / stack
/// shape), so eq. 1 is only ever checked within a bucket.
u64 fingerprint(const Record& r) {
  u64 h = static_cast<u64>(r.end);
  h = h * 1000003 + r.clobbered;
  h = h * 1000003 + r.controlled;
  h = h * 1000003 +
      static_cast<u64>(r.stack_delta ? *r.stack_delta + 4096 : 0xffff);
  h = h * 1000003 + r.writes.size();
  return h;
}

/// Does `antecedent` imply `consequent` (both width 1)? Asked as a
/// refutation: Yes only when {antecedent, !consequent} is conclusively
/// UNSAT, Unknown when that query was cut before an answer.
Verdict implies(solver::Context& ctx, solver::Solver& solver,
                ExprRef antecedent, ExprRef consequent) {
  if (consequent == ctx.t() || antecedent == ctx.f() ||
      antecedent == consequent)
    return Verdict::Yes;
  const ExprRef refutation[] = {antecedent, ctx.bnot(consequent)};
  switch (solver.check(refutation)) {
    case solver::SatResult::Unsat: return Verdict::Yes;
    case solver::SatResult::Sat: return Verdict::No;
    case solver::SatResult::Unknown: break;
  }
  return Verdict::Unknown;
}

/// Structural post-state equality: identical interned exprs for every
/// clobbered register, the transfer target, and all memory writes.
bool post_equal_structural(const Record& a, const Record& b) {
  if (a.end != b.end) return false;
  if (a.clobbered != b.clobbered) return false;
  if (a.next_rip != b.next_rip) return false;
  for (int i = 0; i < x86::kNumRegs; ++i)
    if (a.final_regs[i] != b.final_regs[i]) return false;
  if (a.writes.size() != b.writes.size()) return false;
  for (size_t i = 0; i < a.writes.size(); ++i) {
    if (a.writes[i].addr != b.writes[i].addr ||
        a.writes[i].value != b.writes[i].value ||
        a.writes[i].width != b.writes[i].width)
      return false;
  }
  return true;
}

/// Solver-backed post-state equality under the joint pre-conditions.
/// Checked component-by-component with the cheap structural test first, so
/// a mismatch in any single register bails out after one small query — the
/// difference between minutes and milliseconds on obfuscated pools.
Verdict post_equal_solver(solver::Context& ctx, solver::Solver& solver,
                          const Record& a, const Record& b) {
  if (a.next_rip == solver::kNoExpr || b.next_rip == solver::kNoExpr) {
    if (a.next_rip != b.next_rip) return Verdict::No;
  }
  if (a.writes.size() != b.writes.size()) return Verdict::No;
  for (size_t i = 0; i < a.writes.size(); ++i)
    if (a.writes[i].width != b.writes[i].width) return Verdict::No;

  const ExprRef pre = ctx.band(conj(ctx, a.precond), conj(ctx, b.precond));
  auto equal_under_pre = [&](ExprRef x, ExprRef y) {
    if (x == y) return Verdict::Yes;  // interned: structurally identical
    const ExprRef claim = ctx.eq(x, y);
    if (refuted_by_sampling(ctx, pre, claim)) return Verdict::No;
    // Very large expression pairs that survive sampling are treated as
    // unequal rather than bit-blasted (keeping both gadgets is sound).
    if (ctx.dag_size(x) + ctx.dag_size(y) > 400) return Verdict::No;
    return implies(ctx, solver, pre, claim);
  };

  // The first component that is not proven equal decides the pair.
  Verdict v = Verdict::Yes;
  for (int i = 0; i < x86::kNumRegs && v == Verdict::Yes; ++i)
    v = equal_under_pre(a.final_regs[i], b.final_regs[i]);
  if (v == Verdict::Yes && a.next_rip != solver::kNoExpr)
    v = equal_under_pre(a.next_rip, b.next_rip);
  for (size_t i = 0; i < a.writes.size() && v == Verdict::Yes; ++i) {
    v = equal_under_pre(a.writes[i].addr, b.writes[i].addr);
    if (v == Verdict::Yes)
      v = equal_under_pre(a.writes[i].value, b.writes[i].value);
  }
  return v;
}

}  // namespace

Verdict subsumes(solver::Context& ctx, solver::Solver& solver,
                 const Record& g1, const Record& g2) {
  // pre_2 -> pre_1 (g1's pre-condition is no stronger than g2's).
  const ExprRef pre1 = conj(ctx, g1.precond);
  const ExprRef pre2 = conj(ctx, g2.precond);
  if (pre1 != ctx.t()) {
    if (refuted_by_sampling(ctx, pre2, pre1)) return Verdict::No;
    if (const Verdict v = implies(ctx, solver, pre2, pre1); v != Verdict::Yes)
      return v;
  }
  if (post_equal_structural(g1, g2)) return Verdict::Yes;
  return post_equal_solver(ctx, solver, g1, g2);
}

namespace {

/// Winnow one fingerprint bucket to its representatives. `ctx` is the main
/// context in sequential mode or a worker lane's clone in parallel mode
/// (record refs are valid in either; new terms from solver queries land in
/// whichever context is passed). `keep[i]` receives whether the i-th
/// candidate of the (sorted) group survived. `checks` is the solver-check
/// budget every lane claims from; a limit of 0 means structural-only (it
/// is never consumed, so Budget's "0 = unlimited" never applies).
void winnow_group(solver::Context& ctx, std::vector<Record>& group,
                  Budget& checks, Stats& stats, std::vector<u8>& keep,
                  Governor* governor) {
  solver::Solver solver(ctx, /*conflict_budget=*/50'000, governor,
                        solver::Caller::Subsume);
  // Prefer shorter gadgets as representatives.
  std::sort(group.begin(), group.end(),
            [](const Record& a, const Record& b) {
              if (a.n_insts != b.n_insts) return a.n_insts < b.n_insts;
              return a.addr < b.addr;
            });
  keep.assign(group.size(), 0);
  // Cleared the first time the budget runs out: from then on this group is
  // winnowed structurally only, with no per-pair budget polling.
  bool solver_ok = checks.limit() > 0;
  std::vector<const Record*> reps;
  for (size_t i = 0; i < group.size(); ++i) {
    Record& cand = group[i];
    // The governor is polled once per candidate on every lane, so a
    // deadline/cancellation reaches thread-pool workers promptly. Expiry
    // demotes the rest of the group to structural-only mode — never an
    // incorrect removal, at worst a larger surviving pool.
    if (solver_ok && governor) {
      const Status s = governor->poll();
      if (!s.ok()) {
        solver_ok = false;
        stats.budget_exhausted = true;
        stats.status.merge(s);
      }
    }
    bool redundant = false;
    for (const Record* rep : reps) {
      // Fast path first: identical interned post-state and trivially
      // comparable pre-conditions.
      if (post_equal_structural(*rep, cand) &&
          rep->precond == cand.precond) {
        redundant = true;
        ++stats.structural_hits;
        break;
      }
      if (!solver_ok) continue;  // structural-only mode
      if (!checks.try_consume()) {
        // Budget exhausted: short-circuit to structural-only mode for the
        // rest of this group instead of spinning over every remaining
        // representative re-testing the budget.
        solver_ok = false;
        stats.budget_exhausted = true;
        continue;
      }
      ++stats.solver_checks;
      Verdict verdict = Verdict::No;
      try {
        verdict = subsumes(ctx, solver, *rep, cand);
      } catch (const ResourceExhausted& e) {
        // The expr-node budget died while building the query terms:
        // inconclusive, so keep the candidate and go structural-only.
        solver_ok = false;
        stats.status.merge(e.status());
        break;
      }
      if (verdict == Verdict::Unknown) ++stats.solver_unknown;
      if (verdict == Verdict::Yes) {
        redundant = true;
        break;
      }
    }
    if (redundant) {
      ++stats.removed;
    } else {
      keep[i] = 1;
      reps.push_back(&cand);
    }
  }
}

}  // namespace

std::vector<Record> minimize(solver::Context& ctx, std::vector<Record> pool,
                             Stats* stats, u64 max_solver_checks,
                             int threads, Governor* governor) {
  Stats local;
  local.input = pool.size();

  std::unordered_map<u64, std::vector<Record>> buckets;
  std::vector<u64> order;  // insertion (= pool) order of fingerprints
  for (Record& r : pool) {
    const u64 fp = fingerprint(r);
    auto [it, fresh] = buckets.try_emplace(fp);
    if (fresh) order.push_back(fp);
    it->second.push_back(std::move(r));
  }
  std::vector<std::vector<Record>*> groups;
  for (const u64 fp : order) groups.push_back(&buckets[fp]);

  Budget checks(max_solver_checks);
  std::vector<std::vector<u8>> keeps(groups.size());

  const int nthreads = ThreadPool::granted_lanes(threads);
  if (nthreads <= 1 || groups.size() <= 1) {
    for (size_t gi = 0; gi < groups.size(); ++gi)
      winnow_group(ctx, *groups[gi], checks, local, keeps[gi], governor);
  } else {
    // Work on the biggest buckets first (the pool claims items in index
    // order) so one giant bucket doesn't trail every small one.
    std::vector<u32> by_size(groups.size());
    for (u32 gi = 0; gi < by_size.size(); ++gi) by_size[gi] = gi;
    std::stable_sort(by_size.begin(), by_size.end(), [&](u32 a, u32 b) {
      return groups[a]->size() > groups[b]->size();
    });
    // One context clone per lane (identical refs, private interner), one
    // Solver per bucket, one shared Budget across all lanes.
    std::vector<std::unique_ptr<solver::Context>> lane_ctx(
        static_cast<size_t>(nthreads));
    std::vector<Stats> lane_stats(static_cast<size_t>(nthreads));
    ThreadPool::shared().run(
        groups.size(),
        [&](int lane, u64 item) {
          trace::Span span("subsume.bucket", "shard");
          const u32 gi = by_size[item];
          auto& lc = lane_ctx[static_cast<size_t>(lane)];
          if (!lc) lc = std::make_unique<solver::Context>(ctx.clone());
          winnow_group(*lc, *groups[gi], checks,
                       lane_stats[static_cast<size_t>(lane)], keeps[gi],
                       governor);
        },
        nthreads);
    for (const Stats& s : lane_stats) local += s;
  }

  // Deterministic assembly: groups in pool order, survivors in each
  // group's sorted order — the same output order as the sequential scan.
  std::vector<Record> kept;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    std::vector<Record>& group = *groups[gi];
    for (size_t i = 0; i < group.size(); ++i)
      if (keeps[gi][i]) kept.push_back(std::move(group[i]));
  }

  local.kept = kept.size();
  if (stats) *stats = local;
  return kept;
}

}  // namespace gp::subsume
