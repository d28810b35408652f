// Query facade over the expression DAG + bit-blaster: one three-valued
// satisfiability check with model extraction. One BitBlaster (and SAT
// instance) is built per query; gadget-sized formulas keep these small.
// Validity and implication are asked as refutations: `e` is valid iff
// check({not e}) is Unsat, and `a -> b` holds iff check({a, not b}) is.
//
// Three-valued soundness: a query can come back UNKNOWN (conflict budget,
// governor deadline/cancel, solver-check budget, injected fault). UNKNOWN
// is never coerced to SAT or UNSAT, so a refutation that ends UNKNOWN
// proves nothing. Consumers must degrade conservatively: subsumption keeps
// both gadgets, concretization fails the chain.
#pragma once

#include <span>
#include <unordered_map>

#include "solver/bitblast.hpp"
#include "solver/expr.hpp"
#include "support/governor.hpp"

namespace gp::solver {

/// A satisfying assignment: variable ref -> 64-bit value.
using Model = std::unordered_map<ExprRef, u64>;

/// The pipeline layer issuing a Solver's queries. A tagged solver times
/// each query that reaches the bit-blaster (not the constant fast path)
/// into the `solver.<caller>.check_us` histogram (the whole query), and
/// its phases into `solver.<caller>.blast_us` (blasting the constraints
/// and variables) and `solver.<caller>.solve_us` (the SAT search). What
/// check_us holds beyond the two is the model read and freeing the CNF.
enum class Caller : u8 { None, Subsume, Concretize };

class Solver {
 public:
  /// `governor` (optional; must outlive the solver): each query that
  /// reaches the bit-blaster consumes one solver-check budget unit and the
  /// SAT core polls its deadline/cancel token.
  explicit Solver(Context& ctx, i64 conflict_budget = 2'000'000,
                  Governor* governor = nullptr, Caller caller = Caller::None)
      : ctx_(ctx),
        conflict_budget_(conflict_budget),
        governor_(governor),
        caller_(caller) {}

  /// Satisfiability of the conjunction of `constraints` (each width 1):
  /// Sat, Unsat, or Unknown when the query was cut before an answer.
  /// `*model` (optional) is filled with every constraint variable's value
  /// on Sat and left untouched otherwise. Every call is a fresh query.
  SatResult check(std::span<const ExprRef> constraints,
                  Model* model = nullptr);

 private:
  Context& ctx_;
  i64 conflict_budget_;
  Governor* governor_;
  Caller caller_;
};

}  // namespace gp::solver
