// Bit-vector expression DAG with hash-consing and smart-constructor
// simplification. This is the term language shared by the symbolic executor,
// subsumption tester and planner — the role Z3 expressions play in the paper.
//
// Widths are 1..64 bits; width-1 expressions double as booleans. Every
// constructor simplifies locally (constant folding, identities, canonical
// operand order for commutative ops), so structurally different but trivially
// equal terms intern to the same node. Deep equivalence goes through the
// bit-blasting solver.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/common.hpp"

namespace gp {
class Governor;
}

namespace gp::solver {

enum class Op : u8 {
  Const,   // cval
  Var,     // named free variable
  Add, Mul, And, Or, Xor,        // binary, commutative
  Shl, LShr, AShr,               // binary (count masked by width-1)
  Not, Neg,                      // unary
  Eq, Ult, Slt,                  // binary -> width 1
  Ite,                           // (cond w1, then, else)
  ZExt, SExt,                    // unary, widening
  Extract,                       // (x, lo in aux) -> narrower
  Concat,                        // (hi, lo) -> wider
};

using ExprRef = u32;
constexpr ExprRef kNoExpr = 0xffffffff;

struct Node {
  Op op = Op::Const;
  u8 width = 64;    // result width in bits
  u8 aux = 0;       // Extract: low bit index
  u32 a = kNoExpr;  // operands
  u32 b = kNoExpr;
  u32 c = kNoExpr;
  u64 cval = 0;     // Const: value (truncated to width); Var: variable id
};

/// Owns all expression nodes. Not thread-safe; one Context per analysis.
class Context {
 public:
  Context();

  // -- leaves -----------------------------------------------------------
  ExprRef constant(u64 value, u8 width);
  /// The variable called `name`, declared on first use. Re-declaring it
  /// with another width throws gp::Error.
  ExprRef var(std::string_view name, u8 width);
  ExprRef t() { return true_; }   // width-1 constant 1
  ExprRef f() { return false_; }  // width-1 constant 0

  // -- arithmetic / bitwise ---------------------------------------------
  ExprRef add(ExprRef a, ExprRef b);
  ExprRef sub(ExprRef a, ExprRef b);  // normalized to add(a, neg(b))
  ExprRef mul(ExprRef a, ExprRef b);
  ExprRef band(ExprRef a, ExprRef b);
  ExprRef bor(ExprRef a, ExprRef b);
  ExprRef bxor(ExprRef a, ExprRef b);
  ExprRef bnot(ExprRef a);
  ExprRef neg(ExprRef a);
  ExprRef shl(ExprRef a, ExprRef count);
  ExprRef lshr(ExprRef a, ExprRef count);
  ExprRef ashr(ExprRef a, ExprRef count);

  // -- predicates (width 1) ----------------------------------------------
  ExprRef eq(ExprRef a, ExprRef b);
  ExprRef ne(ExprRef a, ExprRef b) { return bnot(eq(a, b)); }
  ExprRef ult(ExprRef a, ExprRef b);
  ExprRef slt(ExprRef a, ExprRef b);
  ExprRef ule(ExprRef a, ExprRef b) { return bnot(ult(b, a)); }
  ExprRef sle(ExprRef a, ExprRef b) { return bnot(slt(b, a)); }

  // -- structure -----------------------------------------------------------
  ExprRef ite(ExprRef cond, ExprRef then_e, ExprRef else_e);
  ExprRef zext(ExprRef a, u8 width);
  ExprRef sext(ExprRef a, u8 width);
  ExprRef extract(ExprRef a, u8 lo, u8 width);
  ExprRef concat(ExprRef hi, ExprRef lo);

  // -- inspection -----------------------------------------------------------
  const Node& node(ExprRef e) const { return nodes_[e]; }
  u8 width(ExprRef e) const { return nodes_[e].width; }
  bool is_const(ExprRef e) const { return nodes_[e].op == Op::Const; }
  bool is_const(ExprRef e, u64 v) const {
    return is_const(e) && nodes_[e].cval == v;
  }
  u64 const_val(ExprRef e) const {
    GP_CHECK(is_const(e), "const_val of non-constant");
    return nodes_[e].cval;
  }
  bool is_var(ExprRef e) const { return nodes_[e].op == Op::Var; }
  /// Valid until the next variable is declared in this context.
  std::string_view var_name(ExprRef e) const {
    GP_CHECK(is_var(e), "var_name of non-variable");
    return name_of(nodes_[e].cval);
  }
  size_t num_nodes() const { return nodes_.size(); }

  /// Replace every occurrence of variable `v` with `value` (rebuilds through
  /// smart constructors, so the result re-simplifies).
  ExprRef substitute(ExprRef e, ExprRef v, ExprRef value);

  // The walks below keep their scratch on the caller's stack (the heap only
  // for large DAGs), so any number of threads may walk one const context.

  /// Evaluate under a full assignment of variables (var ref -> value).
  /// Unassigned variables evaluate as 0.
  u64 eval(ExprRef e, const std::unordered_map<ExprRef, u64>& env) const;

  /// Collect the free variables of e, each once, in depth-first preorder
  /// (operands a, b, c; the first visit wins). Callers depend on the order
  /// (sampling draws, planner index keys).
  std::vector<ExprRef> variables(ExprRef e) const;
  /// Number of distinct DAG nodes reachable from e (a size/cost metric the
  /// planner's heuristics use).
  size_t dag_size(ExprRef e) const;

  std::string to_string(ExprRef e) const;

  /// Deep copy. The clone owns identical nodes under identical refs, so
  /// expressions built in `this` remain valid (read-only) in the clone; new
  /// terms interned afterwards diverge. This is the cheap way to hand a
  /// worker thread a private interner over an existing pool of expressions
  /// (the subsumption stage's per-worker scratch contexts). The governor
  /// attachment is copied too: lanes cloned from a governed context share
  /// its (atomic) node budget.
  Context clone() const { return *this; }

  /// Pre-size for `n` nodes in total: the node array and the intern table
  /// then grow no further until `n` is passed.
  void reserve(size_t n);

  /// Append every node of `src` this context lacks, in src's creation
  /// order. Each node is re-interned as is, except that variables bind by
  /// name and commutative operands are re-ordered by this context's refs.
  /// A context appends a node when it first creates it, so replaying the
  /// private contexts of a sharded scan in scan order builds, ref for ref,
  /// the context the scan would have built alone. Returns the destination
  /// ref of every src ref: out[r] for src ref r.
  ///
  /// A non-empty `keep` replays only the src nodes r with keep[r] set (the
  /// operands of a kept node must be kept too); out[r] is kNoExpr for the
  /// others. Kept nodes keep their relative order, so the result is the
  /// full replay's context restricted to them.
  ///
  /// Replayed nodes do not draw on the governor's expr-node budget: the
  /// source context paid for each of them when it interned it. The
  /// allocation fault point still fires, so a replay can throw
  /// ResourceExhausted part-way through.
  std::vector<ExprRef> replay(const Context& src,
                              const std::vector<bool>& keep = {});

  /// A 64-bit hash of node r's term that does not depend on refs, given
  /// the hashes of its operands in `hashes` (indexed by ref): variables
  /// hash by name (std::hash of the name) and commutative operands
  /// symmetrically, so a term that replay() would map to one node hashes
  /// alike in every context. Distinct terms may collide.
  u64 structural_hash(ExprRef r, const std::vector<u64>& hashes) const;

  /// The nodes reachable from `roots` (kNoExpr entries skipped), in
  /// ascending ref order. Ref order is topological: operands intern before
  /// their users.
  std::vector<ExprRef> reachable(const std::vector<ExprRef>& roots) const;

  /// Intern `n` through the smart constructor of its op, its operands
  /// already refs of this context; a variable binds by `var_name` (n.cval
  /// is ignored). This is how a node from another context re-enters this
  /// one re-simplified (decoding, compaction).
  ExprRef rebuild(const Node& n, std::string_view var_name = {});

  /// Attach a resource governor (nullptr detaches). Fresh node interning
  /// then consumes the governor's expr-node budget; exhaustion throws
  /// ResourceExhausted for the nearest stage boundary to convert to a
  /// Status. The governor must outlive the context.
  void set_governor(Governor* g) { governor_ = g; }
  Governor* governor() const { return governor_; }

  /// Slots of the constant cache: a direct-mapped (value, width) -> ref
  /// table that constant() consults before the intern table.
  static constexpr int kConstCacheBits = 8;
  static constexpr size_t kConstCacheSlots = size_t{1} << kConstCacheBits;
  /// The constant-cache slot of (value, width), value already truncated to
  /// width. Public so tests can build constants that share a slot.
  static size_t const_cache_slot(u64 value, u8 width);

 private:
  /// One intern-table entry: the node's ref (kNoExpr = empty) and the
  /// node's 32-bit hash, which both places the entry (its low bits) and
  /// screens probes without touching the node array.
  struct Slot {
    ExprRef ref = kNoExpr;
    u32 hash = 0;
  };

  /// Hash-cons `n`: its ref if interned, else a fresh one.
  ExprRef intern(const Node& n);
  /// Slot holding `n`, or the empty slot where the probe for it ends.
  size_t probe(const Node& n, u32 hash) const;
  /// Append a node the table lacks without indexing it; the caller calls
  /// index_from(). Draws on the governor's node budget if asked.
  ExprRef append(const Node& n, bool draw_budget);
  /// Enter nodes [first, num_nodes()) into the intern table.
  void index_from(ExprRef first);
  /// The name of variable `id` (a Var node's cval).
  std::string_view name_of(u64 id) const {
    const VarEntry& v = vars_[id];
    return {var_chars_.data() + v.offset, v.size};
  }
  /// Variable-index slot holding `name` (whose std::hash is `hash`), or
  /// the empty slot where the probe for it ends.
  size_t probe_var(std::string_view name, u64 hash) const;
  /// Append a variable not yet declared (its name's std::hash is `hash`;
  /// probe_var ended at the empty index slot `slot`) and enter it into the
  /// variable index, but not the intern table.
  ExprRef new_var(std::string_view name, u64 hash, u8 width,
                  bool draw_budget, size_t slot);
  ExprRef binary(Op op, ExprRef a, ExprRef b);
  /// Canonical operand order for commutative ops (binary() and replay()).
  void order_operands(Op op, ExprRef& a, ExprRef& b) const;
  /// Grow `table` (by doubling) to at least twice `n` slots.
  static void fit_slots(std::vector<Slot>& table, size_t n);

  Governor* governor_ = nullptr;
  std::vector<Node> nodes_;
  /// Open-addressing hash-cons table over nodes_, linear probing, at most
  /// half full.
  std::vector<Slot> slots_;
  /// Variables by id: the std::hash of the name (the merge's structural
  /// hash and the variable index use it, so it is computed once) and the
  /// name's place in var_chars_, where all names sit back to back.
  struct VarEntry {
    u64 hash = 0;
    u32 offset = 0;
    u32 size = 0;
  };
  std::vector<VarEntry> vars_;
  std::string var_chars_;
  /// Open-addressing index of the variables by name, like slots_: linear
  /// probing, at most half full; a slot's hash is the name hash's low half.
  std::vector<Slot> var_slots_;
  /// Recently interned constants. Exact because a context only appends:
  /// a ref, once a constant's, stays that constant's. Code that ever drops
  /// nodes must reset it.
  struct ConstSlot {
    u64 value = 0;
    ExprRef ref = kNoExpr;
    u8 width = 0;
  };
  std::array<ConstSlot, kConstCacheSlots> const_cache_{};
  ExprRef true_ = kNoExpr, false_ = kNoExpr;
};

}  // namespace gp::solver
