// Partial-order planner (paper Sec. IV-D).
//
// The planner searches backward from the attack goal over the 5-tuple plan
// state (alpha, beta, gamma, delta, epsilon):
//   alpha  selected gadget instances,
//   beta   ordering constraints "i must precede j",
//   gamma  causal links: which step establishes which register for whom,
//   delta  open pre-conditions (registers still needing a producer),
//   epsilon threatened causal links, resolved by demotion orderings (a
//           clobberer of a linked register is forced before its producer)
//           or — when no consistent order exists — plan discard.
// A greedy best-first queue is ordered by the paper's heuristics: fewest
// open pre-conditions first, then fewest accumulated symbolic constraints.
// Complete plans are linearized (topological sort of beta) and handed to
// payload::concretize, whose solver + emulator validation is the final
// arbiter; the planner keeps searching for more, diverse chains until the
// budget or max_chains is reached.
#pragma once

#include <chrono>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>

#include "gadget/gadget.hpp"
#include "payload/payload.hpp"
#include "planner/index.hpp"
#include "support/metrics.hpp"
#include "support/serial.hpp"

namespace gp::planner {

/// Planner algorithm revision. Folded into Options::append_key, so every
/// plan-stage artifact (chains) from an older search
/// algorithm reads as a different key and is recomputed — bumping this is
/// how a behaviour-changing planner fix invalidates stale checkpoints
/// without touching the global store format version.
constexpr u32 kPlannerVersion = 2;

/// Search bounds, held fixed for every goal. A plan holds at most this
/// many gadgets.
inline constexpr int kMaxPlanGadgets = 12;
/// Plans whose open-goal set grows past this are discarded.
inline constexpr int kMaxOpenGoals = 7;
/// Give-up budget for concretization-hostile goals: once this many complete
/// plans have failed concretization with no offsetting successes left to
/// find, the search stops instead of burning the full expansion budget
/// enumerating more doomed sequences (the campaign critical path was one
/// goal refuting 2.4k sequences at ~24ms of solver work each; jobs that do
/// find chains never exceeded 10 failures, so this keeps a >10x margin). A
/// COUNTED budget, not wall clock: the cut point is deterministic, so
/// results stay reproducible and checkpointable.
inline constexpr int kMaxConcretizeFailures = 128;
/// Diversification: the search restarts this many times, rotating the
/// per-goal candidate preference each round (failed sequences stay banned
/// across rounds).
inline constexpr int kRestarts = 6;

struct Options {
  int max_expansions = 4000;       // plans popped from the queue
  int max_chains = 16;             // validated chains per goal
  int max_candidates_per_goal = 10;
  double time_budget_seconds = 60.0;
  /// Shared resource governor (optional; must outlive the call). Its
  /// deadline is combined with time_budget_seconds — whichever expires
  /// first stops the search at the next queue pop — and it is handed down
  /// to concretize so solver calls inside validation are governed too.
  /// Expiry always returns the best-so-far chains, never throws.
  Governor* governor = nullptr;
  payload::ConcretizeOptions concretize;
  // Ablation switches (the paper's thesis: baselines lack these).
  bool use_cond_gadgets = true;    // CDJ/CIJ paths
  bool use_indirect_gadgets = true;
  bool use_direct_merged = true;   // gadgets spanning direct jumps

  /// Owning session id for trace spans (0 = none).
  u64 session_id = 0;

  /// Append every field that determines the planner's *output* to an
  /// artifact-store key writer. Time budget and governor are excluded on
  /// purpose: results are only checkpointed when the search ran uncut, and
  /// an uncut search is deterministic regardless of how much budget was
  /// left over.
  void append_key(serial::Writer& w) const;
};

struct Stats {
  u64 expansions = 0;
  u64 successors = 0;
  u64 dead_ends = 0;        // unresolvable threats / empty candidate sets
  u64 linearizations = 0;
  u64 concretize_calls = 0;
  u64 validated = 0;
  /// Failed concretizations by payload::Refutation reason; together with
  /// `validated` they sum to `concretize_calls`.
  u64 concretize_bad_flow = 0;
  u64 concretize_too_big = 0;
  u64 concretize_unsat = 0;
  u64 concretize_unknown = 0;
  u64 concretize_resource_cut = 0;
  u64 concretize_validation_failed = 0;
  /// Search rounds cut short by the deadline / governor (checked at every
  /// queue pop) or by an exhausted global budget mid-expansion or during
  /// the index build. The chains found before the cut are still returned.
  u64 deadline_cuts = 0;
  /// Expansions served from prescored GadgetIndex buckets.
  u64 index_hits = 0;
  /// GadgetIndex builds this call (0 when an earlier plan() call on the
  /// same Planner already built it).
  u64 index_builds = 0;
  /// Accepted candidates whose indirect-read dependency walk hit the
  /// expansion cap: deep pointer-dependency chains beyond the cap are
  /// treated as met, which this counter makes visible instead of silent.
  u64 needs_truncated = 0;
  /// Goals rejected by the reachability precheck (no producer closure for
  /// some goal register, or no feasible syscall gadget) without any
  /// search.
  u64 unreachable_goals = 0;
  /// Searches stopped by the kMaxConcretizeFailures give-up budget (0 or
  /// 1 per plan() call). A cut search still returns every chain validated
  /// before the budget ran out.
  u64 failure_budget_cuts = 0;
  /// Wall microseconds the reachability precheck of every goal took,
  /// reachable or not (the "fail in milliseconds, not minutes" budget).
  u64 precheck_us = 0;
  /// Ok for an uncut search; otherwise the first degradation reason.
  Status status;

  static constexpr metrics::CounterField<Stats> kCounters[] = {
      {"expansions", &Stats::expansions},
      {"successors", &Stats::successors},
      {"dead_ends", &Stats::dead_ends},
      {"linearizations", &Stats::linearizations},
      {"concretize_calls", &Stats::concretize_calls},
      {"validated", &Stats::validated},
      {"concretize_bad_flow", &Stats::concretize_bad_flow},
      {"concretize_too_big", &Stats::concretize_too_big},
      {"concretize_unsat", &Stats::concretize_unsat},
      {"concretize_unknown", &Stats::concretize_unknown},
      {"concretize_resource_cut", &Stats::concretize_resource_cut},
      {"concretize_validation_failed", &Stats::concretize_validation_failed},
      {"deadline_cuts", &Stats::deadline_cuts},
      {"index_hits", &Stats::index_hits},
      {"index_builds", &Stats::index_builds},
      {"needs_truncated", &Stats::needs_truncated},
      {"unreachable_goals", &Stats::unreachable_goals},
      {"failure_budget_cuts", &Stats::failure_budget_cuts},
      {"precheck_us", &Stats::precheck_us},
  };

  Stats& operator+=(const Stats& o) {
    metrics::add_counters(*this, o);
    status.merge(o.status);
    return *this;
  }
};

class Planner {
 public:
  Planner(solver::Context& ctx, const gadget::Library& lib,
          const image::Image& img)
      : ctx_(ctx), lib_(lib), img_(img) {}

  /// Find up to opts.max_chains validated chains for the goal.
  std::vector<payload::Chain> plan(const payload::Goal& goal,
                                   const Options& opts = {});

  /// Counters for the MOST RECENT plan() call (an explicit per-call
  /// window, reset at entry — callers wanting totals across goals sum
  /// them with +=, as Session does). The candidate index is the one thing
  /// that outlives a call: it is built by the first plan() and reused.
  const Stats& stats() const { return stats_; }

 private:
  struct Step {
    u32 gadget;
    x86::Reg provides;  // register this step was chosen to establish
    int consumer;       // step index it feeds, or -1 for the terminal goal
  };
  struct Plan {
    std::vector<Step> alpha;
    std::vector<std::pair<int, int>> beta;  // (before, after)
    std::vector<std::pair<x86::Reg, int>> delta;  // open (reg, consumer)
    u32 terminal;       // syscall gadget index
    int n_constraints = 0;

    bool operator<(const Plan& o) const {  // priority: worse = later
      // Paper heuristics: fewest open pre-conditions first; among equals,
      // prefer the deeper plan (dive toward completion instead of flooding
      // the frontier), then fewer accumulated constraints.
      if (delta.size() != o.delta.size()) return delta.size() > o.delta.size();
      if (alpha.size() != o.alpha.size()) return alpha.size() < o.alpha.size();
      return n_constraints > o.n_constraints;
    }
  };

  bool admissible(const gadget::Record& g, const Options& opts) const;
  /// Is there any statically usable provider for `reg`? (memoized per
  /// plan() call; a constant provider counts only when it matches a Const
  /// goal target exactly)
  bool reg_usable(x86::Reg reg, const Options& opts);
  /// Does the provided constant exactly match a Const goal target for reg?
  bool goal_const_match(x86::Reg reg, u64 value) const;
  void run_round(const payload::Goal& goal, const Options& opts,
                 std::vector<payload::Chain>& chains,
                 std::set<std::vector<u32>>& seen_sequences,
                 const Deadline& deadline);
  /// Topological order of alpha respecting beta; nullopt on cycle.
  static std::optional<std::vector<int>> linearize(const Plan& p);
  std::vector<Plan> expand(const Plan& p, const Options& opts);

  /// Can syscall gadget `s` terminate a chain for `goal`? A goal register
  /// the gadget itself clobbers must stay establishable by it, and a
  /// constant final value must match the goal outright. Seeds run_round's
  /// queue and the precheck's terminal test alike.
  bool terminal_feasible(const gadget::Record& s,
                         const payload::Goal& goal) const;
  /// Sound fast-fail: true when the goal provably has no chain (missing
  /// producer closure for a goal register or no feasible syscall gadget) —
  /// exactly the cases where the full search would burn its budget to find
  /// nothing.
  bool precheck_unreachable(const payload::Goal& goal, const Options& opts);

  /// Has this call consumed the kMaxConcretizeFailures give-up budget?
  /// (Counted on the per-call stats window, so it is deterministic.)
  bool failure_budget_spent() const {
    return stats_.concretize_calls - stats_.validated >=
           static_cast<u64>(kMaxConcretizeFailures);
  }

  /// Round-local dedup fingerprint of a successor plan: order-independent
  /// over the step/open-goal multiset (multiset_hash — duplicate steps do
  /// not cancel).
  u64 visited_fingerprint(const Plan& p) const;

  solver::Context& ctx_;
  const gadget::Library& lib_;
  const image::Image& img_;
  const payload::Goal* goal_ = nullptr;  // active goal during plan()
  std::unordered_map<int, bool> usable_by_reg_;
  /// Adaptive diversification: gadgets implicated in failed
  /// concretizations are deprioritized in later candidate rankings.
  /// Scoped per plan() call — one goal's failures must not punish
  /// providers for an unrelated goal on a reused planner.
  std::unordered_map<u32, int> failure_count_;
  int rotation_ = 0;  // current restart round (rotates candidate ranking)
  std::optional<GadgetIndex> index_;
  Stats stats_;
};

}  // namespace gp::planner
