// Small CDCL SAT solver: two-watched-literal propagation, 1-UIP clause
// learning, VSIDS-style activity, geometric restarts. This is the decision
// core underneath the bit-blaster (the role Z3's SAT engine plays for the
// paper's constraint queries).
//
// Decisions come from an indexed binary max-heap of variables (MiniSat's
// order heap, Een & Sorensson, SAT 2003), so a decision costs O(log V)
// instead of a scan over every variable of a bit-blasted instance. The
// heap order is (activity desc, var index asc): the next decision is the
// unassigned variable with the highest activity, the lowest index among
// equals. Every decision, and with it every conflict, learned clause and
// model, depends on that tie-break, so the heap must keep it exactly:
//  - once built, every unassigned variable is in the heap (new_var
//    inserts, backtrack reinserts); assigned ones may linger and are
//    popped lazily by decide;
//  - bump() only raises an activity, so a sift-up restores the order;
//  - the 1e100 activity rescale can merge distinct activities into ties
//    (or underflow them to 0), which can invert two entries under the
//    index tie-break, so it rebuilds the heap.
// The heap is built lazily, at the first conflict. Until then every
// activity is 0, so the order is plain index order, and decide takes the
// lowest-index unassigned variable from a forward cursor (nothing is
// unassigned below it: only a conflict backtracks). At the first conflict,
// before analyze bumps anything, the unassigned variables go into the heap
// in index order, which is a valid heap when all activities are equal.
// Because before() is a strict total order, decide returns the variable the
// eagerly built heap would, whatever the heap's shape. Most bit-blasted
// queries never conflict, so they do no heap work at all.
//
// Clause storage is flat (MiniSat's clause arena): every clause, original
// or learned, is a run of literals in one arena plus a {start, size,
// learned} header, so adding a clause allocates nothing once the arena has
// grown. Watch lists are flat too: one pool of watches plus a {start,
// size, cap} header per literal. A list that fills is moved to the pool's
// end with doubled capacity (its old slots are left unused), so a query
// allocates its watches in a few large blocks and frees them in as many.
// propagate() indexes the pool and never holds a pointer into it, since a
// push to another list can reallocate the pool; it never pushes to the
// list it is scanning. The search depends on the storage only through
// three orders, which the arena and the pool keep exactly:
//  - clause index order: clause i is the i-th clause stored (units and
//    clauses dropped by normalisation take no index), and watches name
//    clauses by index;
//  - literal order: a stored clause holds its literals sorted by code with
//    duplicates and level-0-false literals removed; propagation reorders
//    them in place, only by swaps;
//  - watch push order: a new clause pushes its watch for lits[0] before
//    the one for lits[1], each at the back of the watched literal's list,
//    and moving a list keeps its order.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "support/common.hpp"
#include "support/governor.hpp"

namespace gp::solver {

/// Literal: variable index v with sign. Encoded as 2*v (positive) or 2*v+1
/// (negated), matching the watch-list layout.
struct Lit {
  u32 code = 0;
  static Lit pos(u32 v) { return {v << 1}; }
  static Lit neg(u32 v) { return {(v << 1) | 1}; }
  Lit operator~() const { return {code ^ 1}; }
  u32 var() const { return code >> 1; }
  bool sign() const { return code & 1; }  // true = negated
  bool operator==(const Lit&) const = default;
};

enum class SatResult { Sat, Unsat, Unknown };

class Sat {
 public:
  u32 new_var();
  u32 num_vars() const { return static_cast<u32>(assign_.size()); }

  /// Add a clause (disjunction). An empty clause makes the instance
  /// trivially UNSAT. Returns false if the formula is already known UNSAT.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Solve. `conflict_budget` < 0 means unlimited. When a governor is
  /// given, the propagation/decision loop polls its deadline and cancel
  /// token (every kGovernorStride iterations) and returns Unknown once it
  /// should stop — the poll that keeps a pathological query from
  /// out-living the pipeline's wall-clock budget.
  SatResult solve(i64 conflict_budget = -1, const Governor* governor = nullptr);

  /// After Sat: the value assigned to var v.
  bool model_value(u32 v) const {
    GP_CHECK(v < assign_.size(), "model_value out of range");
    return assign_[v] == 1;
  }

  u64 num_conflicts() const { return conflicts_; }
  size_t num_clauses() const { return clauses_.size(); }

 private:
  static constexpr u32 kNoReason = 0xffffffff;

  /// A clause's literals are arena_[start, start + size).
  struct Clause {
    u32 start;
    u32 size;
    bool learned;
  };
  struct Watch {
    u32 clause;
    Lit blocker;
  };
  /// A literal's watches are pool_[start, start + size); the list owns
  /// cap slots from start.
  struct WatchList {
    u32 start = 0;
    u32 size = 0;
    u32 cap = 0;
  };

  // assign_: 0 = false, 1 = true, 2 = unassigned.
  i8 value(Lit l) const {
    const i8 a = assign_[l.var()];
    if (a == 2) return 2;
    return static_cast<i8>(a ^ static_cast<i8>(l.sign()));
  }
  Lit* lits(u32 clause) { return arena_.data() + clauses_[clause].start; }
  /// Store `ls` (size >= 2) as the next clause and watch its first two
  /// literals; returns its index.
  u32 store(std::span<const Lit> ls, bool learned);
  /// Append `w` to the watch list of literal code `code`.
  void watch(u32 code, Watch w);
  void enqueue(Lit l, u32 reason);
  u32 propagate();  // returns conflicting clause index or kNoReason
  /// Build the 1-UIP clause of conflict `confl` in learnt_.
  void analyze(u32 confl, u32& backtrack_level);
  void backtrack(u32 level);
  Lit decide();
  void bump(u32 v);
  void decay();

  // Order heap over variables; heap_pos_[v] is v's slot or kNotInHeap.
  static constexpr u32 kNotInHeap = 0xffffffff;
  bool before(u32 a, u32 b) const {
    return activity_[a] > activity_[b] ||
           (activity_[a] == activity_[b] && a < b);
  }
  void heap_insert(u32 v);
  /// The first conflict's switch from the index cursor to the heap.
  void build_heap();
  void sift_up(u32 pos);
  void sift_down(u32 pos);

  std::vector<Lit> arena_;
  std::vector<Clause> clauses_;
  std::vector<Lit> scratch_;  // add_clause's normalised copy
  std::vector<Lit> learnt_;   // analyze's learned clause
  std::vector<Watch> pool_;
  std::vector<WatchList> watches_;  // indexed by Lit.code
  std::vector<i8> assign_;
  std::vector<u32> level_;
  std::vector<u32> reason_;
  std::vector<Lit> trail_;
  std::vector<u32> trail_lim_;
  size_t qhead_ = 0;
  std::vector<double> activity_;
  double activity_inc_ = 1.0;
  std::vector<u32> heap_;      // variables, heap-ordered by before()
  std::vector<u32> heap_pos_;  // indexed by variable
  bool heap_built_ = false;    // false until the first conflict
  u32 next_var_ = 0;  // decide's cursor while !heap_built_
  std::vector<u8> seen_;
  std::vector<u8> polarity_;  // phase saving
  u64 conflicts_ = 0;
  bool unsat_ = false;
};

}  // namespace gp::solver
