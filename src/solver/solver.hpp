// Query facade over the expression DAG + bit-blaster: satisfiability with
// model extraction, validity, equivalence and implication checks. One
// BitBlaster (and SAT instance) is built per query; gadget-sized formulas
// keep these small. Results are memoized per (query kind, operand refs).
//
// Three-valued soundness: a query can come back UNKNOWN (conflict budget,
// governor deadline/cancel, solver-check budget, injected fault). UNKNOWN
// is never memoized and never coerced to SAT or UNSAT — prove_* return
// false ("could not prove"), is_sat/check_sat return "no usable answer",
// and last_unknown()/unknowns() let callers account for inconclusive
// results. Consumers must degrade conservatively: subsumption keeps both
// gadgets, concretization fails the chain.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "solver/bitblast.hpp"
#include "solver/expr.hpp"
#include "support/governor.hpp"

namespace gp::solver {

/// A satisfying assignment: variable ref -> 64-bit value.
using Model = std::unordered_map<ExprRef, u64>;

/// The pipeline layer issuing a Solver's queries. A tagged solver times
/// each query that reaches the bit-blaster (not memo hits, not the
/// constant fast path) into the `solver.<caller>.check_us` histogram.
enum class Caller : u8 { None, Subsume, Concretize };

class Solver {
 public:
  explicit Solver(Context& ctx, i64 conflict_budget = 2'000'000,
                  Governor* governor = nullptr, Caller caller = Caller::None)
      : ctx_(ctx),
        conflict_budget_(conflict_budget),
        governor_(governor),
        caller_(caller) {}

  /// Attach/detach the resource governor: each query then consumes one
  /// solver-check budget unit and the SAT core polls the deadline/cancel
  /// token. The governor must outlive the solver.
  void set_governor(Governor* g) { governor_ = g; }

  /// Is the conjunction of `constraints` satisfiable? Returns a model when
  /// it is; nullopt when UNSAT *or* UNKNOWN (check last_unknown() to
  /// distinguish — "no usable answer" is sound for gadget filtering but
  /// callers that report statistics should count the two separately).
  std::optional<Model> check_sat(const std::vector<ExprRef>& constraints);

  /// Three-valued satisfiability of the conjunction (memo-cached for
  /// Sat/Unsat; Unknown is never cached so a later, better-budgeted retry
  /// can still succeed).
  SatResult check(const std::vector<ExprRef>& constraints);

  /// Is `e` true under every assignment? false on UNKNOWN (not proven).
  bool prove_valid(ExprRef e);

  /// Are `a` and `b` equal under every assignment? Fast path: identical
  /// interned refs (the smart constructors already canonicalized).
  /// false on UNKNOWN (not proven).
  bool prove_equal(ExprRef a, ExprRef b);

  /// Does `antecedent` imply `consequent` (both width 1)?
  /// false on UNKNOWN (not proven).
  bool prove_implies(ExprRef antecedent, ExprRef consequent);

  /// Is the conjunction satisfiable *given* that we only need a yes/no (no
  /// model)? Uses the memo cache. false on UNKNOWN.
  bool is_sat(const std::vector<ExprRef>& constraints);

  u64 queries() const { return queries_; }
  u64 cache_hits() const { return cache_hits_; }
  /// Did the most recent query (through any entry point) end UNKNOWN?
  bool last_unknown() const { return last_unknown_; }
  /// Queries that ended UNKNOWN since construction.
  u64 unknowns() const { return unknowns_; }

 private:
  enum class Memo : u8 { Sat, Unsat };

  /// Shared engine behind check()/check_sat(): runs the pre-checks,
  /// budgets, fault point and bit-blasting; fills `model` only on Sat when
  /// requested.
  SatResult check_impl(const std::vector<ExprRef>& constraints,
                       std::optional<Model>* model);

  Context& ctx_;
  i64 conflict_budget_;
  Governor* governor_;
  Caller caller_;
  std::unordered_map<u64, Memo> memo_;
  u64 queries_ = 0;
  u64 cache_hits_ = 0;
  u64 unknowns_ = 0;
  bool last_unknown_ = false;
};

}  // namespace gp::solver
