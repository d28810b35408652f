// Tseitin bit-blaster: lowers bit-vector expressions onto the CDCL SAT core.
// Adders are ripple-carry, multipliers shift-and-add, variable shifts barrel
// shifters; gate outputs are cached so shared DAG nodes encode once.
//
// Storage is flat, so a query allocates nothing per gate or per term once
// the buffers have grown:
//  - bits_ holds every blasted term's bit-vector (LSB first) as a run of
//    width literals; a term is blasted once and afterwards read in place;
//  - table_ is one open-addressing table (power-of-two slots, linear
//    probing, at most half full) keyed by a tagged 64-bit key: an AND or
//    XOR gate's (op, a, b) maps to its output literal, a blasted term to
//    the start of its bits in bits_.
// SAT variable numbers and clause indices follow creation order, and the
// decision heap breaks activity ties by variable index, so every decision
// and model depends on the exact order in which blast() visits operands and
// creates gates. That order is fixed in the code, never left to argument
// evaluation: Add and Ult blast operand b before a, every other operator
// blasts a, b, c in turn; an adder cell makes its carry's (carry & a^b)
// gate before its (a & b) gate; a mux makes its (~sel & f) gate first.
#pragma once

#include <span>
#include <vector>

#include "solver/expr.hpp"
#include "solver/sat.hpp"

namespace gp::solver {

class BitBlaster {
 public:
  explicit BitBlaster(Context& ctx) : ctx_(ctx), table_(kMinSlots) {
    // Reserve a literal that is constant true.
    const u32 v = sat_.new_var();
    true_lit_ = Lit::pos(v);
    sat_.add_clause({true_lit_});
  }

  /// Assert that width-1 expression e is true.
  void assert_true(ExprRef e);

  SatResult solve(i64 conflict_budget = -1,
                  const Governor* governor = nullptr) {
    return sat_.solve(conflict_budget, governor);
  }

  /// After Sat: concrete value of any expression under the model.
  u64 model_value(ExprRef e);

  size_t num_clauses() const { return sat_.num_clauses(); }
  u64 num_conflicts() const { return sat_.num_conflicts(); }

 private:
  static constexpr size_t kMinSlots = 64;
  /// Key tags (the top two bits); a zero key marks an empty slot.
  static constexpr u64 kAndGate = u64{1} << 62;
  static constexpr u64 kXorGate = u64{2} << 62;
  static constexpr u64 kBlasted = u64{3} << 62;

  struct Slot {
    u64 key = 0;
    u32 value = 0;  // gate: output literal code; term: offset into bits_
  };

  Lit false_lit() const { return ~true_lit_; }
  Lit lit_const(bool b) const { return b ? true_lit_ : false_lit(); }
  bool is_const_lit(Lit l, bool* out) const;

  Lit mk_and(Lit a, Lit b);
  Lit mk_or(Lit a, Lit b);
  Lit mk_xor(Lit a, Lit b);
  Lit mk_mux(Lit sel, Lit t, Lit f);  // sel ? t : f
  Lit mk_big_and(std::span<const Lit> ls);

  /// Blast e once; returns the start of its bits in bits_. Callers index
  /// bits_ with it, since blasting another term can move bits_.
  u32 blast(ExprRef e);
  /// sum = a + b + carry_in over w bits; sum may alias a or b.
  void add_bits(const Lit* a, const Lit* b, Lit carry_in, Lit* sum, u8 w);
  Lit ult_bits(const Lit* a, const Lit* b, u8 w);

  /// Slot holding `key`, or the empty slot where its probe ends.
  size_t find(u64 key) const;
  /// Fill the empty slot `slot` that find(key) returned.
  void insert(size_t slot, u64 key, u32 value);

  Context& ctx_;
  Sat sat_;
  Lit true_lit_{0};
  std::vector<Lit> bits_;
  std::vector<Slot> table_;
  size_t used_ = 0;  // filled slots of table_
  /// Per-operator temporary bits: Mul's addend, a shifter stage, Eq's
  /// bitwise equalities.
  std::vector<Lit> scratch_;
};

}  // namespace gp::solver
