#include "planner/planner.hpp"

#include <algorithm>
#include <chrono>

#include "support/rng.hpp"
#include <queue>
#include <set>

#include "support/trace.hpp"

namespace gp::planner {

using gadget::Record;
using payload::Chain;
using payload::Goal;
using solver::ExprRef;
using x86::Reg;

namespace {
/// The Stats counter of concretizations that failed for reason `why`.
u64& refutation_counter(Stats& s, payload::Refutation why) {
  using payload::Refutation;
  switch (why) {
    case Refutation::BadFlow: return s.concretize_bad_flow;
    case Refutation::TooBig: return s.concretize_too_big;
    case Refutation::Unsat: return s.concretize_unsat;
    case Refutation::Unknown: return s.concretize_unknown;
    case Refutation::ResourceCut: return s.concretize_resource_cut;
    case Refutation::ValidationFailed: return s.concretize_validation_failed;
    case Refutation::None: break;
  }
  fail("refutation_counter: a failed concretization must name a reason");
}
}  // namespace

void Options::append_key(serial::Writer& w) const {
  w.put_u32(kPlannerVersion);
  w.put_u32(static_cast<u32>(max_expansions));
  w.put_u32(static_cast<u32>(max_chains));
  w.put_u32(static_cast<u32>(max_candidates_per_goal));
  w.put_u32(static_cast<u32>(kMaxPlanGadgets));
  w.put_u32(static_cast<u32>(kMaxOpenGoals));
  w.put_u32(static_cast<u32>(kMaxConcretizeFailures));
  w.put_u32(static_cast<u32>(kRestarts));
  w.put_u64(concretize.stack_base);
  w.put_u64(payload::kMaxPayload);
  w.put_u32(static_cast<u32>(payload::kValidationTrials));
  w.put_bool(use_cond_gadgets);
  w.put_bool(use_indirect_gadgets);
  w.put_bool(use_direct_merged);
}

bool Planner::admissible(const Record& g, const Options& opts) const {
  return planner::admissible(
      g, {opts.use_cond_gadgets, opts.use_indirect_gadgets,
          opts.use_direct_merged});
}

bool Planner::goal_const_match(Reg reg, u64 value) const {
  if (!goal_) return false;
  for (const payload::RegTarget& t : goal_->regs)
    if (t.reg == reg && t.kind == payload::RegTarget::Kind::Const &&
        t.value == value)
      return true;
  return false;
}

std::optional<std::vector<int>> Planner::linearize(const Plan& p) {
  const int n = static_cast<int>(p.alpha.size());
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indeg(n, 0);
  std::set<std::pair<int, int>> seen;
  for (const auto& [before, after] : p.beta) {
    if (before == after) return std::nullopt;
    if (!seen.insert({before, after}).second) continue;
    succ[before].push_back(after);
    ++indeg[after];
  }
  // Kahn; ties broken by insertion order (older steps first) to keep
  // producer-before-consumer chains stable.
  std::vector<int> order;
  std::vector<int> ready;
  for (int i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const int i = *std::min_element(ready.begin(), ready.end());
    ready.erase(std::find(ready.begin(), ready.end(), i));
    order.push_back(i);
    for (const int j : succ[i])
      if (--indeg[j] == 0) ready.push_back(j);
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;  // cycle
  return order;
}

bool Planner::reg_usable(Reg reg, const Options& opts) {
  auto it = usable_by_reg_.find(static_cast<int>(reg));
  if (it != usable_by_reg_.end()) return it->second;
  bool usable = false;
  for (const Candidate& c : index_->candidates(reg)) {
    if (!admissible(lib_[c.gadget], opts)) continue;
    if (c.position_filtered()) continue;
    if ((c.flags & Candidate::kConstValue) &&
        !goal_const_match(reg, c.const_value))
      continue;
    usable = true;
    break;
  }
  usable_by_reg_.emplace(static_cast<int>(reg), usable);
  return usable;
}

std::vector<Planner::Plan> Planner::expand(const Plan& p,
                                           const Options& opts) {
  std::vector<Plan> out;
  if (p.delta.empty() ||
      static_cast<int>(p.alpha.size()) >= kMaxPlanGadgets)
    return out;

  // Paper: pick an open pre-condition, find gadgets that can fulfil it.
  const auto [reg, consumer] = p.delta.back();

  // Candidate profiles, prescored in lib_.controlling(reg) order.
  const std::span<const Candidate> cands = index_->candidates(reg);
  ++stats_.index_hits;

  // Rank candidates: fewest register dependencies first (a self-dependent
  // setter like `add rax, rcx; ret` technically "sets" rax but re-opens the
  // same goal — lowest priority), then shortest. The failure_cost term is
  // per-goal search state, so it stays out of the precomputed base score.
  struct Scored {
    const Candidate* c;
    int score;
  };
  std::vector<Scored> ranked;
  ranked.reserve(cands.size());
  for (const Candidate& c : cands) {
    const auto fc = failure_count_.find(c.gadget);
    const int failure_cost =
        fc == failure_count_.end() ? 0 : 12 * fc->second;
    ranked.push_back({&c, c.base_score + failure_cost});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score < b.score;
                   });
  // Restart diversification: round 0 takes the ranking as-is; later rounds
  // shuffle the top tier with a per-round seed so different provider
  // combinations get tried.
  if (rotation_ > 0 && ranked.size() > 1) {
    // Shuffle only the reasonable tier: candidates whose score is within
    // the self-loop/pointer-conflict penalty band stay put at the bottom.
    size_t tier = 0;
    while (tier < ranked.size() && tier < 16 && ranked[tier].score < 1000)
      ++tier;
    if (tier > 1) {
      Rng rng(0x1234 + 7919u * static_cast<u64>(rotation_) +
              static_cast<u64>(reg));
      for (size_t i = tier - 1; i > 0; --i)
        std::swap(ranked[i], ranked[rng.below(i + 1)]);
    }
  }

  int taken = 0;
  for (const auto& [cp, score] : ranked) {
    if (taken >= opts.max_candidates_per_goal) break;
    const Candidate& c = *cp;
    const u32 gi = c.gadget;
    const Record& g = lib_[gi];
    if (!admissible(g, opts)) continue;
    // A chain's inner gadget must transfer control onward to a place the
    // payload can choose: not a syscall, not a ret with a symbolic stack
    // delta and no attacker-aimable rsp (a pivot such as lea rsp,[rbp-K]
    // with a popped rbp stays usable; the composition solver aims it into
    // the payload), and not a constant target (a resolved jump table would
    // force a specific successor address).
    if (c.position_filtered()) continue;
    // A constant-valued setter cannot be steered; it only ever serves a
    // terminal goal whose target is that exact constant.
    if ((c.flags & Candidate::kConstValue) &&
        !(consumer < 0 && goal_const_match(reg, c.const_value)))
      continue;

    Plan base = p;
    base.delta.pop_back();
    const int self = static_cast<int>(base.alpha.size());
    base.alpha.push_back({gi, reg, consumer});
    base.n_constraints +=
        static_cast<int>(g.precond.size()) + static_cast<int>(c.dag_size);

    // Causal ordering: this step before its consumer.
    if (consumer >= 0) base.beta.push_back({self, consumer});

    // Open pre-conditions of the new gadget: every initial register its
    // path condition, indirect transfer target, or provided-value
    // expression depends on (precomputed, in first-encounter order) must
    // be put under control by some earlier gadget (register-transfer
    // chaining).
    if (c.flags & Candidate::kNeedsTruncated) ++stats_.needs_truncated;
    bool needs_unmet = false;
    for (u8 ni = 0; ni < c.n_needs; ++ni) {
      const Reg rr = static_cast<Reg>(c.needs[ni]);
      if (!reg_usable(rr, opts)) {
        // Unsatisfiable dependency: this candidate is a dead end.
        needs_unmet = true;
      } else {
        base.delta.push_back({rr, self});
      }
    }

    if (needs_unmet) {
      ++stats_.dead_ends;
      continue;
    }
    if (static_cast<int>(base.delta.size()) > kMaxOpenGoals) {
      ++stats_.dead_ends;
      continue;
    }
    // A plan at the gadget cap with goals still open can never complete.
    if (!base.delta.empty() &&
        static_cast<int>(base.alpha.size()) >= kMaxPlanGadgets) {
      ++stats_.dead_ends;
      continue;
    }
    // Threat analysis (epsilon). A causal link (P provides r to C) is
    // threatened by any other step B that clobbers r; the resolution is
    // demotion (B before P) or promotion (C before B). Consumers of -1
    // (the terminal syscall) admit only demotion — nothing runs after it.
    struct Threat {
      int clobberer, producer, consumer;
    };
    std::vector<Threat> threats;
    auto link_of = [&](int step) {
      return std::tuple<Reg, int>(base.alpha[step].provides,
                                  base.alpha[step].consumer);
    };
    for (int b = 0; b < static_cast<int>(base.alpha.size()); ++b) {
      const Record& bg = lib_[base.alpha[b].gadget];
      for (int pstep = 0; pstep < static_cast<int>(base.alpha.size());
           ++pstep) {
        if (pstep == b) continue;
        // Only threats involving the new step are new; older pairs were
        // resolved in the parent plan.
        if (b != self && pstep != self) continue;
        const auto [r, cons] = link_of(pstep);
        if (r == Reg::NONE || !bg.clobbers(r)) continue;
        if (cons == b) continue;  // consumer may clobber after consuming
        // A clobber is only a threat when the clobbering value cannot be
        // steered: if B writes a payload-controllable (non-constant) value
        // into r, the composition solver simply picks the value the
        // consumer needs, and B acts as the new producer.
        const ExprRef rv = bg.final_regs[static_cast<int>(r)];
        if (bg.can_set(r) && !ctx_.is_const(rv)) continue;
        threats.push_back({b, pstep, cons});
      }
    }

    // Enumerate resolution combinations (bounded; plans are small).
    std::vector<std::vector<std::pair<int, int>>> resolutions{{}};
    for (const Threat& t : threats) {
      std::vector<std::vector<std::pair<int, int>>> next;
      for (const auto& partial : resolutions) {
        auto demoted = partial;
        demoted.push_back({t.clobberer, t.producer});
        next.push_back(std::move(demoted));
        if (t.consumer >= 0) {
          auto promoted = partial;
          promoted.push_back({t.consumer, t.clobberer});
          next.push_back(std::move(promoted));
        }
      }
      resolutions = std::move(next);
      if (resolutions.size() > 4) resolutions.resize(4);
    }
    // Keep only the first acyclic resolution: beta variants almost always
    // linearize to the same gadget sequence, and the restart rounds provide
    // better diversity than threat-ordering permutations.
    bool produced = false;
    for (const auto& extra : resolutions) {
      Plan probe = base;
      for (const auto& e : extra) probe.beta.push_back(e);
      if (linearize(probe)) {
        out.push_back(std::move(probe));
        produced = true;
        break;
      }
    }
    if (!produced) {
      ++stats_.dead_ends;
      continue;
    }
    ++taken;
    ++stats_.successors;
  }
  if (out.empty()) ++stats_.dead_ends;
  return out;
}

bool Planner::terminal_feasible(const Record& s, const Goal& goal) const {
  for (const payload::RegTarget& t : goal.regs) {
    if (!s.clobbers(t.reg)) continue;  // a producer will set it
    if (!s.can_set(t.reg)) return false;
    const ExprRef fin = s.final_regs[static_cast<int>(t.reg)];
    if (ctx_.is_const(fin) &&
        !(t.kind == payload::RegTarget::Kind::Const &&
          ctx_.const_val(fin) == t.value))
      return false;
  }
  return true;
}

bool Planner::precheck_unreachable(const Goal& goal, const Options& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  trace::Span span("plan.precheck", "planner", opts.session_id);
  const AdmissionFlags flags{opts.use_cond_gadgets, opts.use_indirect_gadgets,
                             opts.use_direct_merged};
  const auto seeds_plan = [&](u32 si) {
    return admissible(lib_[si], opts) && terminal_feasible(lib_[si], goal);
  };
  const bool unreachable =
      index_->goal_unreachable(lib_, goal, flags) ||
      std::ranges::none_of(lib_.syscalls(), seeds_plan);
  stats_.precheck_us = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (unreachable) ++stats_.unreachable_goals;
  return unreachable;
}

std::vector<Chain> Planner::plan(const Goal& goal, const Options& opts) {
  goal_ = &goal;
  // Explicit per-call windows: one goal's stats, concretization failures
  // and usability memo must not leak into the next goal's search on a
  // reused planner. Only the candidate index (pool content) carries over.
  usable_by_reg_.clear();
  failure_count_.clear();
  stats_ = Stats{};
  std::vector<Chain> chains;

  if (!index_) {
    try {
      trace::Span span("plan.index", "planner", opts.session_id);
      index_ = GadgetIndex::build(ctx_, lib_);
      ++stats_.index_builds;
    } catch (const ResourceExhausted& e) {
      // A budget died mid-build: end the call like a search cut
      // mid-expansion, with no chains and the degradation recorded.
      ++stats_.deadline_cuts;
      stats_.status.merge(e.status());
      return chains;
    }
  }
  if (precheck_unreachable(goal, opts)) return chains;

  std::set<std::vector<u32>> seen_sequences;
  // The round deadline is the tighter of the local time budget and the
  // governor's global deadline; either one expiring (or a cancellation)
  // stops the search at the next queue pop with best-so-far chains.
  Deadline deadline = Deadline::after_seconds(opts.time_budget_seconds);
  if (opts.governor)
    deadline = Deadline::earlier(deadline, opts.governor->deadline());
  for (int round = 0; round < kRestarts; ++round) {
    rotation_ = round;
    run_round(goal, opts, chains, seen_sequences, deadline);
    if (static_cast<int>(chains.size()) >= opts.max_chains) break;
    if (failure_budget_spent()) {
      ++stats_.failure_budget_cuts;
      break;
    }
    if (deadline.expired()) break;
    if (opts.governor && opts.governor->should_stop()) break;
  }
  return chains;
}

namespace {
/// splitmix64 finalizer: full-avalanche dispersion of one contribution
/// before the multiset combine sorts and folds them.
u64 mix64(u64 v) {
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}
}  // namespace

u64 Planner::visited_fingerprint(const Plan& p) const {
  // Order-independent fingerprint: the same gadget/role multiset found
  // through different expansion orders is the same plan for our purposes
  // (it linearizes to the same sequences). Combined with multiset_hash —
  // NOT an xor fold, where two identical (gadget, provides, consumer)
  // steps cancelled to zero and a plan containing both collided with one
  // containing neither.
  std::vector<u64> parts;
  parts.reserve(p.alpha.size() + p.delta.size());
  for (const Step& s : p.alpha) {
    const u64 consumer_gadget =
        s.consumer < 0 ? ~u64{0} : p.alpha[s.consumer].gadget;
    parts.push_back(mix64((static_cast<u64>(s.gadget) << 24) ^
                          (static_cast<u64>(s.provides) << 16) ^
                          consumer_gadget));
  }
  for (const auto& [r, c] : p.delta) {
    const u64 consumer_gadget = c < 0 ? ~u64{0} : p.alpha[c].gadget;
    parts.push_back(
        mix64(0xd00d ^ (static_cast<u64>(r) << 32) ^ consumer_gadget));
  }
  return multiset_hash(parts, 0x9e3779b97f4a7c15ULL + p.terminal);
}

void Planner::run_round(const Goal& goal, const Options& opts,
                        std::vector<Chain>& chains,
                        std::set<std::vector<u32>>& seen_sequences,
                        const Deadline& deadline) {
  std::set<u64> visited_plans;

  // Seed: one initial plan per syscall gadget (the terminal action).
  std::priority_queue<Plan> queue;
  for (const u32 si : lib_.syscalls()) {
    const Record& s = lib_[si];
    if (!admissible(s, opts)) continue;
    if (!terminal_feasible(s, goal)) {
      ++stats_.dead_ends;
      continue;
    }
    Plan p;
    p.terminal = si;
    for (const payload::RegTarget& t : goal.regs)
      p.delta.push_back({t.reg, -1});
    queue.push(std::move(p));
  }

  int expansions = 0;
  const int round_budget = std::max(64, opts.max_expansions / kRestarts);
  try {
  while (!queue.empty() && expansions < round_budget &&
         static_cast<int>(chains.size()) < opts.max_chains) {
    // Deadline/cancellation is enforced at EVERY pop, not on a sampled
    // stride: one expansion can hide a slow concretize call, so a sampled
    // check could overshoot the budget by orders of magnitude.
    if (deadline.expired()) {
      ++stats_.deadline_cuts;
      stats_.status.merge(Status::deadline_exceeded("planner deadline"));
      break;
    }
    if (opts.governor) {
      const Status s = opts.governor->poll();
      if (!s.ok()) {
        ++stats_.deadline_cuts;
        stats_.status.merge(s);
        break;
      }
    }
    Plan best = queue.top();
    queue.pop();
    ++expansions;
    ++stats_.expansions;

    if (best.delta.empty()) {
      // Complete plan: linearize and concretize.
      const auto order = linearize(best);
      if (!order) continue;
      ++stats_.linearizations;
      std::vector<u32> seq;
      // Steps feeding the terminal goal run in topological order; the
      // terminal syscall gadget is appended last.
      for (const int i : *order) seq.push_back(best.alpha[i].gadget);
      seq.push_back(best.terminal);
      if (!seen_sequences.insert(seq).second) continue;
      ++stats_.concretize_calls;
      payload::ConcretizeOptions copts = opts.concretize;
      if (!copts.governor) copts.governor = opts.governor;
      copts.session_id = opts.session_id;
      auto res = [&] {
        trace::Span span("plan.concretize", "planner", opts.session_id);
        return payload::concretize(ctx_, lib_, img_, seq, goal, copts);
      }();
      if (res.chain) {
        ++stats_.validated;
        chains.push_back(std::move(*res.chain));
      } else {
        ++refutation_counter(stats_, res.why);
        for (const u32 gi : seq) ++failure_count_[gi];
        // When a provider's composed value was a flat-out wrong constant,
        // demote that provider hard: it can never serve this goal.
        if (res.mismatch_reg != Reg::NONE) {
          for (const Step& s : best.alpha)
            if (s.provides == res.mismatch_reg && s.consumer < 0)
              failure_count_[s.gadget] += 200;
        }
        // Give-up budget: a goal refuting every complete plan stops here
        // instead of enumerating more doomed sequences for the rest of
        // the expansion budget (plan() skips the remaining rounds too).
        if (failure_budget_spent()) break;
      }
      continue;
    }

    for (Plan& np : expand(best, opts)) {
      // Dedupe structurally identical plans (same gadgets, orderings and
      // open goals) that different expansion orders keep regenerating.
      // (per-round scope; rounds re-explore with rotated rankings)
      if (!visited_plans.insert(visited_fingerprint(np)).second) continue;
      queue.push(std::move(np));
    }
  }
  } catch (const ResourceExhausted& e) {
    // The expr-node budget ran out mid-expansion: end the round with the
    // chains found so far rather than letting the exception escape plan().
    ++stats_.deadline_cuts;
    stats_.status.merge(e.status());
  }
}

}  // namespace gp::planner
