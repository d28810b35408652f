#include "solver/expr.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "support/fault.hpp"
#include "support/governor.hpp"
#include "support/metrics.hpp"
#include "support/str.hpp"

namespace gp::solver {
namespace {

bool commutative(Op op) {
  switch (op) {
    case Op::Add: case Op::Mul: case Op::And: case Op::Or: case Op::Xor:
    case Op::Eq:
      return true;
    default:
      return false;
  }
}

u64 all_ones(u8 width) { return truncate(~u64{0}, width); }

/// 32-bit hash of a node's full content (two multiply-xorshift rounds over
/// the packed fields). Its low bits index the intern table, so they must
/// mix every field.
u32 node_hash(const Node& n) {
  const u64 w0 = u64{static_cast<u8>(n.op)} | u64{n.width} << 8 |
                 u64{n.aux} << 16 | u64{n.a} << 32;
  const u64 w1 = u64{n.b} | u64{n.c} << 32;
  u64 h = w0 * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 32) ^ w1) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 29) ^ n.cval) * 0x94d049bb133111ebULL;
  return static_cast<u32>(h >> 32);
}

bool same_node(const Node& x, const Node& y) {
  return x.op == y.op && x.width == y.width && x.aux == y.aux && x.a == y.a &&
         x.b == y.b && x.c == y.c && x.cval == y.cval;
}

constexpr size_t kMinSlots = 64;
constexpr size_t kMinVarSlots = 16;

/// Scratch of one DAG walk lives in a buffer of this many entries on the
/// walker's stack and moves to the heap only when the walk outgrows it.
/// Gadget-sized terms fit; a buffer that grew with the context would cost
/// every thread (or every context) memory proportional to the largest
/// pool it ever walked.
constexpr size_t kWalkInline = 64;

/// The to-do stack of a DAG walk.
template <typename T>
class WalkStack {
 public:
  WalkStack() = default;
  WalkStack(const WalkStack&) = delete;
  WalkStack& operator=(const WalkStack&) = delete;

  bool empty() const { return size_ == 0; }
  T top() const { return data_[size_ - 1]; }
  void pop() { --size_; }
  void push(T v) {
    if (size_ == capacity_) grow();
    data_[size_++] = v;
  }

 private:
  void grow() {
    std::vector<T> bigger(2 * capacity_);
    std::copy(data_, data_ + size_, bigger.begin());
    heap_ = std::move(bigger);
    data_ = heap_.data();
    capacity_ = heap_.size();
  }

  T inline_[kWalkInline];
  std::vector<T> heap_;
  T* data_ = inline_;
  size_t size_ = 0;
  size_t capacity_ = kWalkInline;
};

struct NoValue {};

/// The nodes a DAG walk has visited, each with a Value (NoValue for a
/// plain visited set): open addressing, linear probing, at most half full.
template <typename Value>
class WalkTable {
 public:
  WalkTable() = default;
  WalkTable(const WalkTable&) = delete;
  WalkTable& operator=(const WalkTable&) = delete;

  size_t size() const { return size_; }

  /// r's value, or nullptr if r was not visited.
  const Value* find(ExprRef r) const {
    for (size_t i = home(r);; i = (i + 1) & mask_) {
      if (data_[i].ref == r) return &data_[i].value;
      if (data_[i].ref == kNoExpr) return nullptr;
    }
  }

  /// Record r (with `value`) unless it was visited; true if it is new.
  bool insert(ExprRef r, Value value = {}) {
    size_t i = home(r);
    for (; data_[i].ref != kNoExpr; i = (i + 1) & mask_)
      if (data_[i].ref == r) return false;
    data_[i] = {r, value};
    if (2 * ++size_ > mask_ + 1) grow();
    return true;
  }

 private:
  struct Entry {
    ExprRef ref = kNoExpr;
    [[no_unique_address]] Value value{};
  };

  size_t home(ExprRef r) const {
    return static_cast<size_t>((u64{r} * 0x9e3779b97f4a7c15ULL) >> 32) &
           mask_;
  }
  void grow() {
    const Entry* old = data_;
    const size_t old_slots = mask_ + 1;
    std::vector<Entry> bigger(2 * old_slots);
    mask_ = bigger.size() - 1;
    for (size_t j = 0; j < old_slots; ++j) {
      if (old[j].ref == kNoExpr) continue;
      size_t i = home(old[j].ref);
      while (bigger[i].ref != kNoExpr) i = (i + 1) & mask_;
      bigger[i] = old[j];
    }
    heap_ = std::move(bigger);
    data_ = heap_.data();
  }

  Entry inline_[kWalkInline];
  std::vector<Entry> heap_;
  Entry* data_ = inline_;
  size_t mask_ = kWalkInline - 1;
  size_t size_ = 0;
};

}  // namespace

Context::Context() {
  slots_.resize(kMinSlots);
  var_slots_.resize(kMinVarSlots);
  false_ = constant(0, 1);
  true_ = constant(1, 1);
}

void Context::fit_slots(std::vector<Slot>& table, size_t n) {
  size_t capacity = table.size();
  while (capacity < 2 * n) capacity *= 2;
  if (capacity == table.size()) return;
  std::vector<Slot> grown(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& s : table) {
    if (s.ref == kNoExpr) continue;
    size_t i = s.hash & mask;
    while (grown[i].ref != kNoExpr) i = (i + 1) & mask;
    grown[i] = s;
  }
  table = std::move(grown);
}

void Context::reserve(size_t n) {
  nodes_.reserve(n);
  fit_slots(slots_, n);
}

size_t Context::probe(const Node& n, u32 h) const {
  const size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  while (slots_[i].ref != kNoExpr &&
         !(slots_[i].hash == h && same_node(nodes_[slots_[i].ref], n)))
    i = (i + 1) & mask;
  return i;
}

ExprRef Context::append(const Node& n, bool draw_budget) {
  // Only genuinely fresh nodes count against the governor's node budget (a
  // hash-cons hit allocates nothing); exhaustion surfaces as a
  // ResourceExhausted unwound to the nearest stage boundary.
  if (draw_budget && governor_ && !governor_->expr_nodes().try_consume())
    throw ResourceExhausted(
        Status::budget_exhausted("expression-node budget"));
  if (fault::enabled() && fault::should_fire(fault::Point::Alloc))
    throw ResourceExhausted(
        Status::fault_injected("expr-node allocation fault"));
  static metrics::Counter& interned =
      metrics::registry().counter("expr.interned");
  interned.add();
  const auto ref = static_cast<ExprRef>(nodes_.size());
  nodes_.push_back(n);
  return ref;
}

void Context::index_from(ExprRef first) {
  fit_slots(slots_, nodes_.size());
  const size_t mask = slots_.size() - 1;
  for (size_t r = first; r < nodes_.size(); ++r) {
    const u32 h = node_hash(nodes_[r]);
    size_t i = h & mask;
    while (slots_[i].ref != kNoExpr) i = (i + 1) & mask;
    slots_[i] = {static_cast<ExprRef>(r), h};
  }
}

ExprRef Context::intern(const Node& n) {
  const u32 h = node_hash(n);
  const size_t i = probe(n, h);
  if (slots_[i].ref != kNoExpr) return slots_[i].ref;
  const ExprRef ref = append(n, /*draw_budget=*/true);
  // Keep the table at most half full: a growing table re-probes.
  if (2 * nodes_.size() <= slots_.size()) {
    slots_[i] = {ref, h};
  } else {
    index_from(ref);
  }
  return ref;
}

size_t Context::const_cache_slot(u64 value, u8 width) {
  const u64 h = (value ^ u64{width} << 57) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h >> (64 - kConstCacheBits));
}

ExprRef Context::constant(u64 value, u8 width) {
  GP_CHECK(width >= 1 && width <= 64, "bad width");
  Node n;
  n.op = Op::Const;
  n.width = width;
  n.cval = truncate(value, width);
  // A hit returns what intern() would, without the probe into the (large)
  // intern table; like an intern hit it draws no budget. A throwing
  // intern() leaves the slot as it was.
  ConstSlot& s = const_cache_[const_cache_slot(n.cval, width)];
  if (s.ref != kNoExpr && s.value == n.cval && s.width == width) return s.ref;
  const ExprRef ref = intern(n);
  s = {n.cval, ref, width};
  return ref;
}

size_t Context::probe_var(std::string_view name, u64 hash) const {
  const size_t mask = var_slots_.size() - 1;
  const auto h = static_cast<u32>(hash);
  size_t i = h & mask;
  while (var_slots_[i].ref != kNoExpr &&
         !(var_slots_[i].hash == h &&
           name_of(nodes_[var_slots_[i].ref].cval) == name))
    i = (i + 1) & mask;
  return i;
}

ExprRef Context::var(std::string_view name, u8 width) {
  const u64 hash = std::hash<std::string_view>{}(name);
  const size_t i = probe_var(name, hash);
  if (const ExprRef ref = var_slots_[i].ref; ref != kNoExpr) {
    GP_CHECK(nodes_[ref].width == width,
             "variable re-declared with different width: " +
                 std::string(name));
    return ref;
  }
  const ExprRef ref = new_var(name, hash, width, /*draw_budget=*/true, i);
  index_from(ref);
  return ref;
}

ExprRef Context::new_var(std::string_view name, u64 hash, u8 width,
                         bool draw_budget, size_t slot) {
  // A variable's id is fresh, so its node cannot be interned yet: no probe.
  GP_CHECK(var_chars_.size() + name.size() <=
               std::numeric_limits<u32>::max(),
           "variable names exceed 4 GiB");
  Node n;
  n.op = Op::Var;
  n.width = width;
  n.cval = vars_.size();
  const ExprRef ref = append(n, draw_budget);
  vars_.push_back({hash, static_cast<u32>(var_chars_.size()),
                   static_cast<u32>(name.size())});
  var_chars_.append(name);
  // Keep the index at most half full: a growing index re-probes.
  if (2 * vars_.size() > var_slots_.size()) {
    fit_slots(var_slots_, vars_.size());
    slot = probe_var(name, hash);
  }
  var_slots_[slot] = {ref, static_cast<u32>(hash)};
  return ref;
}

void Context::order_operands(Op op, ExprRef& a, ExprRef& b) const {
  // A constant always goes on the right (the (base + offset) normal form
  // the memory model relies on); otherwise order by ref for hash-consing.
  if (!commutative(op)) return;
  if (nodes_[a].op == Op::Const && nodes_[b].op != Op::Const) {
    std::swap(a, b);
  } else if (nodes_[b].op != Op::Const && a > b) {
    std::swap(a, b);
  }
}

ExprRef Context::binary(Op op, ExprRef a, ExprRef b) {
  order_operands(op, a, b);
  Node n;
  n.op = op;
  n.width = nodes_[a].width;
  if (op == Op::Eq || op == Op::Ult || op == Op::Slt) n.width = 1;
  n.a = a;
  n.b = b;
  return intern(n);
}

std::vector<ExprRef> Context::replay(const Context& src,
                                     const std::vector<bool>& keep) {
  // Both contexts are hash-consed, so distinct src nodes denote distinct
  // terms and map to distinct nodes here. Hence a node over an operand this
  // replay appended is new itself, and any other node can only match a node
  // that predates the replay: lookups need only the table as it was, and
  // the appended nodes join it in one pass at the end.
  GP_CHECK(keep.empty() || keep.size() == src.nodes_.size(),
           "replay keep mask size");
  const auto first = static_cast<ExprRef>(nodes_.size());
  const auto appended = [first](ExprRef e) {
    return e != kNoExpr && e >= first;
  };
  std::vector<ExprRef> out(src.nodes_.size(), kNoExpr);
  const auto map = [&](ExprRef e) { return e == kNoExpr ? e : out[e]; };
  try {
    for (size_t r = 0; r < out.size(); ++r) {
      if (!keep.empty() && !keep[r]) continue;
      Node n = src.nodes_[r];
      if (n.op == Op::Var) {
        // The name's hash comes with it: no rehash.
        const u64 hash = src.vars_[n.cval].hash;
        const std::string_view name = src.name_of(n.cval);
        const size_t i = probe_var(name, hash);
        out[r] = var_slots_[i].ref != kNoExpr
                     ? var_slots_[i].ref
                     : new_var(name, hash, n.width, /*draw_budget=*/false, i);
        continue;
      }
      n.a = map(n.a);
      n.b = map(n.b);
      n.c = map(n.c);
      order_operands(n.op, n.a, n.b);
      if (!appended(n.a) && !appended(n.b) && !appended(n.c)) {
        const size_t i = probe(n, node_hash(n));
        if (slots_[i].ref != kNoExpr) {
          out[r] = slots_[i].ref;
          continue;
        }
      }
      out[r] = append(n, /*draw_budget=*/false);
    }
  } catch (const ResourceExhausted&) {
    index_from(first);  // a cut replay still leaves every node interned
    throw;
  }
  index_from(first);
  return out;
}

u64 Context::structural_hash(ExprRef r,
                             const std::vector<u64>& hashes) const {
  const auto mix = [](u64 h, u64 v) {
    h = (h ^ v) * 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 31);
  };
  const auto of = [&](ExprRef e) {
    return e == kNoExpr ? u64{0} : hashes[e];
  };
  const Node& n = nodes_[r];
  const u64 h = mix(0x9e3779b97f4a7c15ULL, u64{static_cast<u8>(n.op)} |
                                              u64{n.width} << 8 |
                                              u64{n.aux} << 16);
  if (n.op == Op::Const) return mix(h, n.cval);
  if (n.op == Op::Var) return mix(h, vars_[n.cval].hash);
  u64 ha = of(n.a), hb = of(n.b);
  if (commutative(n.op) && ha > hb) std::swap(ha, hb);
  return mix(mix(mix(h, ha), hb), of(n.c));
}

std::vector<ExprRef> Context::reachable(
    const std::vector<ExprRef>& roots) const {
  // Operands have smaller refs than their users, so one sweep from the
  // highest root down marks every reachable node before it is visited.
  std::vector<bool> mark(nodes_.size());
  size_t top = 0;
  for (const ExprRef e : roots) {
    if (e == kNoExpr) continue;
    mark[e] = true;
    top = std::max<size_t>(top, size_t{e} + 1);
  }
  size_t count = 0;
  for (size_t r = top; r-- > 0;) {
    if (!mark[r]) continue;
    ++count;
    const Node& n = nodes_[r];
    if (n.a != kNoExpr) mark[n.a] = true;
    if (n.b != kNoExpr) mark[n.b] = true;
    if (n.c != kNoExpr) mark[n.c] = true;
  }
  std::vector<ExprRef> out;
  out.reserve(count);
  for (size_t r = 0; r < top; ++r)
    if (mark[r]) out.push_back(static_cast<ExprRef>(r));
  return out;
}

ExprRef Context::rebuild(const Node& n, std::string_view var_name) {
  switch (n.op) {
    case Op::Const: return constant(n.cval, n.width);
    case Op::Var: return var(var_name, n.width);
    case Op::Add: return add(n.a, n.b);
    case Op::Mul: return mul(n.a, n.b);
    case Op::And: return band(n.a, n.b);
    case Op::Or: return bor(n.a, n.b);
    case Op::Xor: return bxor(n.a, n.b);
    case Op::Shl: return shl(n.a, n.b);
    case Op::LShr: return lshr(n.a, n.b);
    case Op::AShr: return ashr(n.a, n.b);
    case Op::Not: return bnot(n.a);
    case Op::Neg: return neg(n.a);
    case Op::Eq: return eq(n.a, n.b);
    case Op::Ult: return ult(n.a, n.b);
    case Op::Slt: return slt(n.a, n.b);
    case Op::Ite: return ite(n.a, n.b, n.c);
    case Op::ZExt: return zext(n.a, n.width);
    case Op::SExt: return sext(n.a, n.width);
    case Op::Extract: return extract(n.a, n.aux, n.width);
    case Op::Concat: return concat(n.a, n.b);
  }
  GP_CHECK(false, "rebuild of an unknown op");
  return kNoExpr;
}

ExprRef Context::add(ExprRef a, ExprRef b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  GP_CHECK(na.width == nb.width, "add width mismatch");
  const u8 w = na.width;
  if (na.op == Op::Const && nb.op == Op::Const)
    return constant(na.cval + nb.cval, w);
  if (na.op == Op::Const && na.cval == 0) return b;
  if (nb.op == Op::Const && nb.cval == 0) return a;
  // Canonical form: the constant (if any) sits on the right, BEFORE the
  // reassociation check below — otherwise 8 + (x + c) never collapses.
  if (na.op == Op::Const) std::swap(a, b);
  // Value copies, not references: the recursive add()/constant() calls
  // below can grow nodes_ and a reallocation would leave references
  // dangling (the call arguments have no fixed evaluation order).
  const Node ra = nodes_[a];
  const Node rb = nodes_[b];
  // (x + c1) + c2 -> x + (c1+c2); constants accumulate on the right.
  if (rb.op == Op::Const && ra.op == Op::Add &&
      nodes_[ra.b].op == Op::Const) {
    const u64 c1 = nodes_[ra.b].cval;
    return add(ra.a, constant(c1 + rb.cval, w));
  }
  // (x + c1) + y -> (x + y) + c1: float inner constants outward so bases
  // stay comparable for the memory model's (base, offset) normal form.
  if (ra.op == Op::Add && nodes_[ra.b].op == Op::Const &&
      rb.op != Op::Const) {
    const u64 c1 = nodes_[ra.b].cval;
    return add(add(ra.a, b), constant(c1, w));
  }
  if (rb.op == Op::Add && nodes_[rb.b].op == Op::Const) {
    const u64 c1 = nodes_[rb.b].cval;
    return add(add(a, rb.a), constant(c1, w));
  }
  return binary(Op::Add, a, b);
}

ExprRef Context::sub(ExprRef a, ExprRef b) {
  if (a == b) return constant(0, nodes_[a].width);
  return add(a, neg(b));
}

ExprRef Context::neg(ExprRef a) {
  const Node& na = nodes_[a];
  if (na.op == Op::Const) return constant(~na.cval + 1, na.width);
  if (na.op == Op::Neg) return na.a;
  Node n;
  n.op = Op::Neg;
  n.width = na.width;
  n.a = a;
  return intern(n);
}

ExprRef Context::mul(ExprRef a, ExprRef b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  GP_CHECK(na.width == nb.width, "mul width mismatch");
  const u8 w = na.width;
  if (na.op == Op::Const && nb.op == Op::Const)
    return constant(na.cval * nb.cval, w);
  if (na.op == Op::Const && na.cval == 0) return a;
  if (nb.op == Op::Const && nb.cval == 0) return b;
  if (na.op == Op::Const && na.cval == 1) return b;
  if (nb.op == Op::Const && nb.cval == 1) return a;
  return binary(Op::Mul, a, b);
}

ExprRef Context::band(ExprRef a, ExprRef b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  GP_CHECK(na.width == nb.width, "and width mismatch");
  const u8 w = na.width;
  if (na.op == Op::Const && nb.op == Op::Const)
    return constant(na.cval & nb.cval, w);
  if (a == b) return a;
  if (na.op == Op::Const && na.cval == 0) return a;
  if (nb.op == Op::Const && nb.cval == 0) return b;
  if (na.op == Op::Const && na.cval == all_ones(w)) return b;
  if (nb.op == Op::Const && nb.cval == all_ones(w)) return a;
  return binary(Op::And, a, b);
}

ExprRef Context::bor(ExprRef a, ExprRef b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  GP_CHECK(na.width == nb.width, "or width mismatch");
  const u8 w = na.width;
  if (na.op == Op::Const && nb.op == Op::Const)
    return constant(na.cval | nb.cval, w);
  if (a == b) return a;
  if (na.op == Op::Const && na.cval == 0) return b;
  if (nb.op == Op::Const && nb.cval == 0) return a;
  if (na.op == Op::Const && na.cval == all_ones(w)) return a;
  if (nb.op == Op::Const && nb.cval == all_ones(w)) return b;
  return binary(Op::Or, a, b);
}

ExprRef Context::bxor(ExprRef a, ExprRef b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  GP_CHECK(na.width == nb.width, "xor width mismatch");
  const u8 w = na.width;
  if (na.op == Op::Const && nb.op == Op::Const)
    return constant(na.cval ^ nb.cval, w);
  if (a == b) return constant(0, w);
  if (na.op == Op::Const && na.cval == 0) return b;
  if (nb.op == Op::Const && nb.cval == 0) return a;
  if (na.op == Op::Const && na.cval == all_ones(w)) return bnot(b);
  if (nb.op == Op::Const && nb.cval == all_ones(w)) return bnot(a);
  return binary(Op::Xor, a, b);
}

ExprRef Context::bnot(ExprRef a) {
  const Node& na = nodes_[a];
  if (na.op == Op::Const) return constant(~na.cval, na.width);
  if (na.op == Op::Not) return na.a;
  // !(a == b) stays as Not(Eq); fine.
  Node n;
  n.op = Op::Not;
  n.width = na.width;
  n.a = a;
  return intern(n);
}

ExprRef Context::shl(ExprRef a, ExprRef count) {
  const Node& na = nodes_[a];
  const Node& nc = nodes_[count];
  const u8 w = na.width;
  const u64 mask = w == 64 ? 63 : (w - 1);  // x86-style masking by width-1
  if (nc.op == Op::Const) {
    const u64 c = nc.cval & mask;
    if (c == 0) return a;
    if (na.op == Op::Const) return constant(na.cval << c, w);
  }
  if (na.op == Op::Const && na.cval == 0) return a;
  return binary(Op::Shl, a, count);
}

ExprRef Context::lshr(ExprRef a, ExprRef count) {
  const Node& na = nodes_[a];
  const Node& nc = nodes_[count];
  const u8 w = na.width;
  const u64 mask = w == 64 ? 63 : (w - 1);
  if (nc.op == Op::Const) {
    const u64 c = nc.cval & mask;
    if (c == 0) return a;
    if (na.op == Op::Const) return constant(truncate(na.cval, w) >> c, w);
  }
  if (na.op == Op::Const && na.cval == 0) return a;
  return binary(Op::LShr, a, count);
}

ExprRef Context::ashr(ExprRef a, ExprRef count) {
  const Node& na = nodes_[a];
  const Node& nc = nodes_[count];
  const u8 w = na.width;
  const u64 mask = w == 64 ? 63 : (w - 1);
  if (nc.op == Op::Const) {
    const u64 c = nc.cval & mask;
    if (c == 0) return a;
    if (na.op == Op::Const) {
      const u64 s = sign_extend(na.cval, w);
      return constant(static_cast<u64>(static_cast<i64>(s) >> c), w);
    }
  }
  return binary(Op::AShr, a, count);
}

ExprRef Context::eq(ExprRef a, ExprRef b) {
  GP_CHECK(nodes_[a].width == nodes_[b].width, "eq width mismatch");
  if (a == b) return t();
  // Value copies: the recursive eq()/constant() below can grow nodes_.
  const Node na = nodes_[a];
  const Node nb = nodes_[b];
  if (na.op == Op::Const && nb.op == Op::Const)
    return na.cval == nb.cval ? t() : f();
  if (na.width == 1) {
    // Boolean equality: x == 1 -> x; x == 0 -> !x.
    if (nb.op == Op::Const) return nb.cval ? a : bnot(a);
    if (na.op == Op::Const) return na.cval ? b : bnot(b);
  }
  // (x + c1) == c2  ->  x == c2 - c1 (common from stack-offset arithmetic).
  if (nb.op == Op::Const && na.op == Op::Add &&
      nodes_[na.b].op == Op::Const) {
    const u64 c1 = nodes_[na.b].cval;
    return eq(na.a, constant(nb.cval - c1, na.width));
  }
  return binary(Op::Eq, a, b);
}

ExprRef Context::ult(ExprRef a, ExprRef b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  GP_CHECK(na.width == nb.width, "ult width mismatch");
  if (a == b) return f();
  if (na.op == Op::Const && nb.op == Op::Const)
    return truncate(na.cval, na.width) < truncate(nb.cval, nb.width) ? t()
                                                                     : f();
  if (nb.op == Op::Const && nb.cval == 0) return f();  // x < 0 unsigned
  return binary(Op::Ult, a, b);
}

ExprRef Context::slt(ExprRef a, ExprRef b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  GP_CHECK(na.width == nb.width, "slt width mismatch");
  if (a == b) return f();
  if (na.op == Op::Const && nb.op == Op::Const) {
    const i64 x = static_cast<i64>(sign_extend(na.cval, na.width));
    const i64 y = static_cast<i64>(sign_extend(nb.cval, nb.width));
    return x < y ? t() : f();
  }
  return binary(Op::Slt, a, b);
}

ExprRef Context::ite(ExprRef cond, ExprRef then_e, ExprRef else_e) {
  GP_CHECK(nodes_[cond].width == 1, "ite cond must be width 1");
  GP_CHECK(nodes_[then_e].width == nodes_[else_e].width, "ite width mismatch");
  if (cond == t()) return then_e;
  if (cond == f()) return else_e;
  if (then_e == else_e) return then_e;
  // ite(c, 1, 0) == c for width-1 results.
  if (nodes_[then_e].width == 1 && then_e == t() && else_e == f()) return cond;
  if (nodes_[then_e].width == 1 && then_e == f() && else_e == t())
    return bnot(cond);
  Node n;
  n.op = Op::Ite;
  n.width = nodes_[then_e].width;
  n.a = cond;
  n.b = then_e;
  n.c = else_e;
  return intern(n);
}

ExprRef Context::zext(ExprRef a, u8 width) {
  const Node& na = nodes_[a];
  GP_CHECK(width >= na.width, "zext must widen");
  if (width == na.width) return a;
  if (na.op == Op::Const) return constant(truncate(na.cval, na.width), width);
  Node n;
  n.op = Op::ZExt;
  n.width = width;
  n.a = a;
  return intern(n);
}

ExprRef Context::sext(ExprRef a, u8 width) {
  const Node& na = nodes_[a];
  GP_CHECK(width >= na.width, "sext must widen");
  if (width == na.width) return a;
  if (na.op == Op::Const)
    return constant(sign_extend(na.cval, na.width), width);
  Node n;
  n.op = Op::SExt;
  n.width = width;
  n.a = a;
  return intern(n);
}

ExprRef Context::extract(ExprRef a, u8 lo, u8 width) {
  const Node& na = nodes_[a];
  GP_CHECK(lo + width <= na.width, "extract out of range");
  if (lo == 0 && width == na.width) return a;
  if (na.op == Op::Const) return constant(na.cval >> lo, width);
  // extract(zext(x)) where the slice lies inside x.
  if (na.op == Op::ZExt && lo + width <= nodes_[na.a].width)
    return extract(na.a, lo, width);
  // extract of a concat resolves to one side when it doesn't straddle.
  if (na.op == Op::Concat) {
    const u8 lo_w = nodes_[na.b].width;
    if (lo + width <= lo_w) return extract(na.b, lo, width);
    if (lo >= lo_w) return extract(na.a, lo - lo_w, width);
  }
  Node n;
  n.op = Op::Extract;
  n.width = width;
  n.aux = lo;
  n.a = a;
  return intern(n);
}

ExprRef Context::concat(ExprRef hi, ExprRef lo) {
  const Node& nh = nodes_[hi];
  const Node& nl = nodes_[lo];
  GP_CHECK(nh.width + nl.width <= 64, "concat too wide");
  if (nh.op == Op::Const && nl.op == Op::Const)
    return constant((nh.cval << nl.width) | truncate(nl.cval, nl.width),
                    nh.width + nl.width);
  if (nh.op == Op::Const && nh.cval == 0) return zext(lo, nh.width + nl.width);
  Node n;
  n.op = Op::Concat;
  n.width = nh.width + nl.width;
  n.a = hi;
  n.b = lo;
  return intern(n);
}

ExprRef Context::substitute(ExprRef e, ExprRef v, ExprRef value) {
  std::unordered_map<ExprRef, ExprRef> memo;
  const auto go = [&](const auto& self, ExprRef x) -> ExprRef {
    if (x == v) return value;
    auto m = memo.find(x);
    if (m != memo.end()) return m->second;
    Node n = nodes_[x];
    ExprRef out = x;
    if (n.op != Op::Const && n.op != Op::Var) {
      // Rebuilding an operand can intern nodes, and interning order
      // decides refs and so commutative operand order, so the operands are
      // rebuilt in a fixed order: last to first, the order GCC's
      // right-to-left argument evaluation gives `add(go(n.a), go(n.b))`,
      // so chains keep the refs GCC builds have always given them.
      const auto sub = [&](ExprRef o) {
        return o == kNoExpr ? o : self(self, o);
      };
      n.c = sub(n.c);
      n.b = sub(n.b);
      n.a = sub(n.a);
      out = rebuild(n);
    }
    memo.emplace(x, out);
    return out;
  };
  return go(go, e);
}

u64 Context::eval(ExprRef e,
                  const std::unordered_map<ExprRef, u64>& env) const {
  // Post-order: a node is evaluated once the operands it needs are; an
  // Ite needs its condition, then only the branch the condition picks.
  WalkTable<u64> memo;
  WalkStack<ExprRef> todo;
  todo.push(e);
  while (!todo.empty()) {
    const ExprRef x = todo.top();
    const Node& n = nodes_[x];
    bool ready = true;
    const auto need = [&](ExprRef o) {
      if (!memo.find(o)) {
        todo.push(o);
        ready = false;
      }
    };
    if (n.op == Op::Ite) {
      if (const u64* cond = memo.find(n.a)) {
        need(*cond ? n.b : n.c);
      } else {
        need(n.a);
      }
    } else {
      if (n.c != kNoExpr) need(n.c);
      if (n.b != kNoExpr) need(n.b);
      if (n.a != kNoExpr) need(n.a);
    }
    if (!ready) continue;
    todo.pop();
    const auto v = [&](ExprRef o) { return *memo.find(o); };
    u64 out = 0;
    const u8 w = n.width;
    const auto mask_count = [w](u64 c) { return c & (w == 64 ? 63 : w - 1); };
    switch (n.op) {
      case Op::Const: out = n.cval; break;
      case Op::Var: {
        auto it = env.find(x);
        out = it == env.end() ? 0 : it->second;
        break;
      }
      case Op::Add: out = v(n.a) + v(n.b); break;
      case Op::Mul: out = v(n.a) * v(n.b); break;
      case Op::And: out = v(n.a) & v(n.b); break;
      case Op::Or: out = v(n.a) | v(n.b); break;
      case Op::Xor: out = v(n.a) ^ v(n.b); break;
      case Op::Shl: out = v(n.a) << mask_count(v(n.b)); break;
      case Op::LShr: out = truncate(v(n.a), w) >> mask_count(v(n.b)); break;
      case Op::AShr:
        out = static_cast<u64>(static_cast<i64>(sign_extend(v(n.a), w)) >>
                               mask_count(v(n.b)));
        break;
      case Op::Not: out = ~v(n.a); break;
      case Op::Neg: out = ~v(n.a) + 1; break;
      case Op::Eq:
        out = truncate(v(n.a), nodes_[n.a].width) ==
              truncate(v(n.b), nodes_[n.b].width);
        break;
      case Op::Ult:
        out = truncate(v(n.a), nodes_[n.a].width) <
              truncate(v(n.b), nodes_[n.b].width);
        break;
      case Op::Slt:
        out = static_cast<i64>(sign_extend(v(n.a), nodes_[n.a].width)) <
              static_cast<i64>(sign_extend(v(n.b), nodes_[n.b].width));
        break;
      case Op::Ite: out = v(n.a) ? v(n.b) : v(n.c); break;
      case Op::ZExt: out = truncate(v(n.a), nodes_[n.a].width); break;
      case Op::SExt: out = sign_extend(v(n.a), nodes_[n.a].width); break;
      case Op::Extract: out = v(n.a) >> n.aux; break;
      case Op::Concat:
        out = (v(n.a) << nodes_[n.b].width) |
              truncate(v(n.b), nodes_[n.b].width);
        break;
    }
    // A node pushed twice before its first evaluation is evaluated twice,
    // to the same value; the second insert is a no-op.
    memo.insert(x, truncate(out, w));
  }
  return *memo.find(e);
}

std::vector<ExprRef> Context::variables(ExprRef e) const {
  // Operands are pushed last to first, so they pop first to last: each
  // subtree is finished before its right sibling, as in a recursive walk.
  std::vector<ExprRef> out;
  WalkTable<NoValue> seen;
  WalkStack<ExprRef> todo;
  todo.push(e);
  while (!todo.empty()) {
    const ExprRef x = todo.top();
    todo.pop();
    const Node& n = nodes_[x];
    if (n.op == Op::Const || !seen.insert(x)) continue;
    if (n.op == Op::Var) {
      out.push_back(x);
      continue;
    }
    if (n.c != kNoExpr) todo.push(n.c);
    if (n.b != kNoExpr) todo.push(n.b);
    if (n.a != kNoExpr) todo.push(n.a);
  }
  return out;
}

size_t Context::dag_size(ExprRef e) const {
  WalkTable<NoValue> seen;
  WalkStack<ExprRef> todo;
  todo.push(e);
  while (!todo.empty()) {
    const ExprRef x = todo.top();
    todo.pop();
    if (!seen.insert(x)) continue;
    const Node& n = nodes_[x];
    if (n.a != kNoExpr) todo.push(n.a);
    if (n.b != kNoExpr) todo.push(n.b);
    if (n.c != kNoExpr) todo.push(n.c);
  }
  return seen.size();
}

std::string Context::to_string(ExprRef e) const {
  const Node& n = nodes_[e];
  auto bin = [&](const char* op) {
    return "(" + to_string(n.a) + " " + op + " " + to_string(n.b) + ")";
  };
  switch (n.op) {
    case Op::Const: return hex(n.cval);
    case Op::Var: return std::string(name_of(n.cval));
    case Op::Add: return bin("+");
    case Op::Mul: return bin("*");
    case Op::And: return bin("&");
    case Op::Or: return bin("|");
    case Op::Xor: return bin("^");
    case Op::Shl: return bin("<<");
    case Op::LShr: return bin(">>u");
    case Op::AShr: return bin(">>s");
    case Op::Not: return "~" + to_string(n.a);
    case Op::Neg: return "-" + to_string(n.a);
    case Op::Eq: return bin("==");
    case Op::Ult: return bin("<u");
    case Op::Slt: return bin("<s");
    case Op::Ite:
      return "ite(" + to_string(n.a) + ", " + to_string(n.b) + ", " +
             to_string(n.c) + ")";
    case Op::ZExt: return "zext" + std::to_string(n.width) + "(" +
                          to_string(n.a) + ")";
    case Op::SExt: return "sext" + std::to_string(n.width) + "(" +
                          to_string(n.a) + ")";
    case Op::Extract:
      return to_string(n.a) + "[" + std::to_string(n.aux + n.width - 1) +
             ":" + std::to_string(n.aux) + "]";
    case Op::Concat: return bin("++");
  }
  return "<bad>";
}

}  // namespace gp::solver
