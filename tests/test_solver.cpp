#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "solver/bitblast.hpp"
#include "solver/solver.hpp"
#include "support/fault.hpp"
#include "support/governor.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/serial.hpp"

// Every operator new on this thread bumps a thread-local counter, so a test
// can count the allocations one call makes (AllocationCount below). The
// replacements cover the plain and nothrow forms and their deletes, which
// must pair up: all of them go through malloc/free. (GCC flags free() in
// a replaced operator delete once it inlines it next to operator new.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
thread_local gp::u64 t_news = 0;
void* counted_new(std::size_t n) noexcept {
  ++t_news;
  return std::malloc(n ? n : 1);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_new(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
#pragma GCC diagnostic pop

namespace gp::solver {
namespace {

/// The operator new calls made on this thread since construction.
class AllocationCount {
 public:
  u64 calls() const { return t_news - start_; }

 private:
  u64 start_ = t_news;
};

class ExprTest : public ::testing::Test {
 protected:
  Context ctx;
  ExprRef c(u64 v, u8 w = 64) { return ctx.constant(v, w); }
};

TEST_F(ExprTest, HashConsing) {
  ExprRef x = ctx.var("x", 64);
  ExprRef a = ctx.add(x, c(5));
  ExprRef b = ctx.add(x, c(5));
  EXPECT_EQ(a, b);
  // Commutative canonicalization: x+y == y+x.
  ExprRef y = ctx.var("y", 64);
  EXPECT_EQ(ctx.add(x, y), ctx.add(y, x));
  EXPECT_EQ(ctx.bxor(x, y), ctx.bxor(y, x));
}

TEST_F(ExprTest, ConstantFolding) {
  EXPECT_EQ(ctx.add(c(2), c(3)), c(5));
  EXPECT_EQ(ctx.mul(c(7), c(6)), c(42));
  EXPECT_EQ(ctx.sub(c(2), c(3)), c(~u64{0}));
  EXPECT_EQ(ctx.band(c(0xff), c(0x0f)), c(0x0f));
  EXPECT_EQ(ctx.shl(c(1), c(8)), c(256));
  EXPECT_EQ(ctx.lshr(c(0x8000000000000000ULL), c(63)), c(1));
  EXPECT_EQ(ctx.ashr(c(0x8000000000000000ULL), c(63)), c(~u64{0}));
  EXPECT_EQ(ctx.eq(c(4), c(4)), ctx.t());
  EXPECT_EQ(ctx.eq(c(4), c(5)), ctx.f());
  EXPECT_EQ(ctx.ult(c(3), c(4)), ctx.t());
  EXPECT_EQ(ctx.slt(c(~u64{0}), c(0)), ctx.t());  // -1 < 0 signed
  EXPECT_EQ(ctx.ult(c(~u64{0}), c(0)), ctx.f());
}

TEST_F(ExprTest, NarrowWidthFolding) {
  EXPECT_EQ(ctx.add(c(0xff, 8), c(1, 8)), c(0, 8));
  EXPECT_EQ(ctx.slt(c(0x80, 8), c(0, 8)), ctx.t());  // -128 < 0 in 8 bits
  EXPECT_EQ(ctx.sext(c(0x80, 8), 64), c(0xffffffffffffff80ULL));
  EXPECT_EQ(ctx.zext(c(0x80, 8), 64), c(0x80));
  EXPECT_EQ(ctx.extract(c(0xabcd, 16), 8, 8), c(0xab, 8));
  EXPECT_EQ(ctx.concat(c(0xab, 8), c(0xcd, 8)), c(0xabcd, 16));
}

TEST_F(ExprTest, Identities) {
  ExprRef x = ctx.var("x", 64);
  EXPECT_EQ(ctx.add(x, c(0)), x);
  EXPECT_EQ(ctx.mul(x, c(1)), x);
  EXPECT_EQ(ctx.mul(x, c(0)), c(0));
  EXPECT_EQ(ctx.band(x, c(0)), c(0));
  EXPECT_EQ(ctx.band(x, c(~u64{0})), x);
  EXPECT_EQ(ctx.bor(x, c(0)), x);
  EXPECT_EQ(ctx.bxor(x, x), c(0));
  EXPECT_EQ(ctx.bxor(x, c(0)), x);
  EXPECT_EQ(ctx.sub(x, x), c(0));
  EXPECT_EQ(ctx.bnot(ctx.bnot(x)), x);
  EXPECT_EQ(ctx.neg(ctx.neg(x)), x);
  EXPECT_EQ(ctx.eq(x, x), ctx.t());
  EXPECT_EQ(ctx.shl(x, c(0)), x);
}

TEST_F(ExprTest, CanonicalFormConstantsOnRight) {
  // Regression tests for the (base + offset) normal form the memory model
  // depends on: constants must always end up on the right, including when
  // the constant arrives on the left or nested inside.
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  // 8 + (x + c) collapses to x + (c + 8).
  EXPECT_EQ(ctx.add(c(8), ctx.add(x, c(0x10))), ctx.add(x, c(0x18)));
  // Repeated +8 chains stay flat (the rsp-advance pattern).
  ExprRef rsp = x;
  for (int i = 0; i < 16; ++i) rsp = ctx.add(c(8), rsp);
  EXPECT_EQ(rsp, ctx.add(x, c(128)));
  // Inner constants float outward across non-constant additions.
  EXPECT_EQ(ctx.add(ctx.add(x, c(8)), y), ctx.add(ctx.add(x, y), c(8)));
  EXPECT_EQ(ctx.add(x, ctx.add(y, c(8))), ctx.add(ctx.add(x, y), c(8)));
  // Commutative interning never leaves a constant on the left.
  const auto& n = ctx.node(ctx.add(x, c(5)));
  EXPECT_TRUE(ctx.is_const(n.b));
  const auto& m = ctx.node(ctx.mul(x, c(5)));
  EXPECT_TRUE(ctx.is_const(m.b));
}

TEST_F(ExprTest, SubstituteMapForm) {
  // Two variables bound at once: substituted one at a time, each pass
  // re-simplifying, the whole term folds to a constant.
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef e = ctx.add(ctx.mul(x, y), ctx.bxor(x, y));
  EXPECT_EQ(ctx.substitute(ctx.substitute(e, x, c(6)), y, c(7)),
            c(42 + (6 ^ 7)));
}

TEST_F(ExprTest, DagSizeCountsSharedNodesOnce) {
  ExprRef x = ctx.var("x", 64);
  ExprRef shared = ctx.add(x, c(1));
  ExprRef e = ctx.mul(shared, shared);
  // Nodes reachable: mul, add, x, const — x/const are leaves excluded from
  // cost but counted as visited; sharing must not double-count.
  EXPECT_LE(ctx.dag_size(e), 4u);
  EXPECT_GE(ctx.dag_size(e), 2u);
}

TEST_F(ExprTest, ConstantChainsAccumulate) {
  ExprRef x = ctx.var("x", 64);
  ExprRef e = ctx.add(ctx.add(x, c(8)), c(8));
  EXPECT_EQ(e, ctx.add(x, c(16)));
  // (x + 8) == 24  simplifies to  x == 16.
  EXPECT_EQ(ctx.eq(ctx.add(x, c(8)), c(24)), ctx.eq(x, c(16)));
}

TEST_F(ExprTest, IteSimplification) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef p = ctx.var("p", 1);
  EXPECT_EQ(ctx.ite(ctx.t(), x, y), x);
  EXPECT_EQ(ctx.ite(ctx.f(), x, y), y);
  EXPECT_EQ(ctx.ite(p, x, x), x);
  EXPECT_EQ(ctx.ite(p, ctx.t(), ctx.f()), p);
}

TEST_F(ExprTest, SubstituteRebuildsAndSimplifies) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef e = ctx.add(ctx.mul(x, c(2)), y);
  ExprRef r = ctx.substitute(e, x, c(10));
  r = ctx.substitute(r, y, c(22));
  EXPECT_EQ(r, c(42));
}

TEST_F(ExprTest, SubstituteRebuildsOperandsLastToFirst) {
  // Both operands of the root intern a new node when rebuilt; the second
  // operand's comes first, and the root's commutative operands follow
  // those refs. Rebuilding first to last would swap them.
  const ExprRef v = ctx.var("v", 64);
  const ExprRef x = ctx.var("x", 64);
  const ExprRef y = ctx.var("y", 64);
  const ExprRef w = ctx.var("w", 64);
  const ExprRef vx = ctx.bxor(v, x);
  const ExprRef vy = ctx.band(v, y);
  const ExprRef e = ctx.add(vx, vy);  // operands (vx, vy): vx has the lower ref
  const size_t n0 = ctx.num_nodes();
  const ExprRef r = ctx.substitute(e, v, w);
  ASSERT_EQ(ctx.num_nodes(), n0 + 3);
  EXPECT_EQ(ctx.band(w, y), n0);
  EXPECT_EQ(ctx.bxor(w, x), n0 + 1);
  EXPECT_EQ(r, n0 + 2);
  EXPECT_EQ(ctx.node(r).a, n0);
  EXPECT_EQ(ctx.node(r).b, n0 + 1);
}

TEST_F(ExprTest, Variables) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef e = ctx.add(ctx.mul(x, y), ctx.bxor(x, c(3)));
  auto vars = ctx.variables(e);
  EXPECT_EQ(vars.size(), 2u);
}

TEST_F(ExprTest, VariablesAreDepthFirstPreorder) {
  // Declared last to first, so ref order and preorder disagree.
  const ExprRef d = ctx.var("d", 64);
  const ExprRef cv = ctx.var("c", 64);
  const ExprRef b = ctx.var("b", 64);
  const ExprRef a = ctx.var("a", 64);
  // Non-commutative ops keep their operand order. The left subtree is
  // finished before the right one, and a variable met again through the
  // shared subterm or directly keeps its first position.
  const ExprRef shared = ctx.shl(b, cv);
  const ExprRef e =
      ctx.shl(ctx.lshr(a, shared), ctx.ashr(shared, ctx.shl(d, a)));
  EXPECT_EQ(ctx.variables(e), (std::vector<ExprRef>{a, b, cv, d}));
  // Ite visits condition, then, else.
  const ExprRef i = ctx.ite(ctx.ult(cv, a), d, b);
  EXPECT_EQ(ctx.variables(i), (std::vector<ExprRef>{cv, a, d, b}));
  EXPECT_EQ(ctx.variables(a), std::vector<ExprRef>{a});
  EXPECT_TRUE(ctx.variables(c(5)).empty());

  // A chain deeper and wider than a walk's inline buffers: with every
  // variable declared first, each add over the chain puts its variable
  // (the lower ref) on the left, so preorder meets them newest first and
  // ends with the innermost add(v0, v1).
  std::vector<ExprRef> vs;
  for (int k = 0; k < 1000; ++k)
    vs.push_back(ctx.var("v" + std::to_string(k), 64));
  ExprRef chain = vs[0];
  for (size_t k = 1; k < vs.size(); ++k) chain = ctx.add(chain, vs[k]);
  std::vector<ExprRef> order(vs.rbegin(), vs.rend() - 2);
  order.insert(order.end(), {vs[0], vs[1]});
  EXPECT_EQ(ctx.variables(chain), order);
  EXPECT_EQ(ctx.variables(ctx.mul(chain, chain)), order);
}

TEST_F(ExprTest, DagSizeCountsEachNodeOnce) {
  const ExprRef a = ctx.var("a", 64);
  const ExprRef b = ctx.var("b", 64);
  const ExprRef d = ctx.var("d", 64);
  const ExprRef shared = ctx.shl(b, c(3));
  // shl, lshr, a, shared, b, 3, ashr, shl(d, a), d: nine nodes, the shared
  // subterm and the repeated a counted once.
  const ExprRef e =
      ctx.shl(ctx.lshr(a, shared), ctx.ashr(shared, ctx.shl(d, a)));
  EXPECT_EQ(ctx.dag_size(e), 9u);
  EXPECT_EQ(ctx.dag_size(a), 1u);
  EXPECT_EQ(ctx.dag_size(c(7)), 1u);

  // 1000 variables and 999 adds, then one more node over the chain twice.
  std::vector<ExprRef> vs;
  for (int k = 0; k < 1000; ++k)
    vs.push_back(ctx.var("v" + std::to_string(k), 64));
  ExprRef chain = vs[0];
  for (size_t k = 1; k < vs.size(); ++k) chain = ctx.add(chain, vs[k]);
  EXPECT_EQ(ctx.dag_size(chain), 1999u);
  EXPECT_EQ(ctx.dag_size(ctx.mul(chain, chain)), 2000u);

  // eval walks the same chain: 0 + 1 + ... + 999.
  std::unordered_map<ExprRef, u64> env;
  for (size_t k = 0; k < vs.size(); ++k) env[vs[k]] = k;
  EXPECT_EQ(ctx.eval(chain, env), 499'500u);
  EXPECT_EQ(ctx.eval(ctx.mul(chain, chain), env), u64{499'500} * 499'500);
  // An Ite evaluates to the branch its condition picks.
  const ExprRef pick = ctx.ite(ctx.ult(vs[1], vs[2]), chain, vs[3]);
  EXPECT_EQ(ctx.eval(pick, env), 499'500u);
  env[vs[1]] = 5;
  EXPECT_EQ(ctx.eval(pick, env), 3u);
}

TEST_F(ExprTest, EvalMatchesSemantics) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  std::unordered_map<ExprRef, u64> env{{x, 7}, {y, 3}};
  EXPECT_EQ(ctx.eval(ctx.add(x, y), env), 10u);
  EXPECT_EQ(ctx.eval(ctx.shl(x, y), env), 56u);
  EXPECT_EQ(ctx.eval(ctx.slt(ctx.neg(x), y), env), 1u);
}

TEST_F(ExprTest, InternTableSurvivesGrowth) {
  // 14,000 distinct nodes take the table from its initial 64 slots through
  // nine doublings; re-interning each term must return its original ref.
  const ExprRef x = ctx.var("x", 64);
  const auto build = [&](Context& k) {
    std::vector<ExprRef> refs;
    for (u64 i = 2; i < 3502; ++i) {
      const ExprRef kc = k.constant(i, 64);
      const ExprRef m = k.mul(x, kc);
      refs.insert(refs.end(), {kc, k.add(x, kc), m, k.extract(m, 0, 32)});
    }
    return refs;
  };
  const size_t before = ctx.num_nodes();
  const std::vector<ExprRef> first = build(ctx);
  EXPECT_EQ(ctx.num_nodes() - before, first.size());  // all distinct
  EXPECT_EQ(build(ctx), first);
  EXPECT_EQ(ctx.num_nodes() - before, first.size());  // nothing re-added

  // A pre-sized table hands out the same refs.
  Context sized;
  sized.reserve(20'000);
  EXPECT_EQ(sized.var("x", 64), x);
  EXPECT_EQ(build(sized), first);
}

TEST_F(ExprTest, CloneInternsPrivately) {
  const ExprRef x = ctx.var("x", 64);
  const ExprRef y = ctx.var("y", 64);
  const ExprRef sum = ctx.add(x, y);
  const size_t n0 = ctx.num_nodes();

  Context copy = ctx.clone();
  EXPECT_EQ(copy.add(y, x), sum);  // shared terms hash-cons to shared refs
  const ExprRef z = copy.var("z", 64);
  const ExprRef prod = copy.mul(z, sum);
  for (u64 i = 0; i < 300; ++i) copy.constant(1000 + i, 64);  // grow it
  EXPECT_EQ(copy.num_nodes(), n0 + 302);

  // The original neither sees the clone's nodes nor shifts its own refs.
  EXPECT_EQ(ctx.num_nodes(), n0);
  EXPECT_EQ(ctx.add(y, x), sum);
  const ExprRef w = ctx.var("w", 64);
  EXPECT_EQ(w, z);  // both took ref n0, each in its own context
  EXPECT_EQ(ctx.var_name(w), "w");
  EXPECT_EQ(copy.var_name(z), "z");
  EXPECT_EQ(ctx.num_nodes(), n0 + 1);
  EXPECT_EQ(ctx.mul(w, sum), prod);  // next ref again, different term
  EXPECT_EQ(ctx.to_string(prod), "((x + y) * w)");
  EXPECT_EQ(copy.to_string(prod), "((x + y) * z)");
}

/// Field-for-field equality of two contexts' node arrays (variables by
/// name).
void expect_same_nodes(const Context& x, const Context& y) {
  ASSERT_EQ(x.num_nodes(), y.num_nodes());
  for (ExprRef r = 0; r < x.num_nodes(); ++r) {
    const Node& a = x.node(r);
    const Node& b = y.node(r);
    EXPECT_EQ(a.op, b.op) << "ref " << r;
    EXPECT_EQ(a.width, b.width) << "ref " << r;
    EXPECT_EQ(a.aux, b.aux) << "ref " << r;
    EXPECT_EQ(a.a, b.a) << "ref " << r;
    EXPECT_EQ(a.b, b.b) << "ref " << r;
    EXPECT_EQ(a.c, b.c) << "ref " << r;
    if (a.op == Op::Var) {
      EXPECT_EQ(x.var_name(r), y.var_name(r)) << "ref " << r;
    } else {
      EXPECT_EQ(a.cval, b.cval) << "ref " << r;
    }
  }
}

TEST_F(ExprTest, ReplayRebuildsTheDirectContext) {
  // The destination already holds x < y. The shard is a fresh context that
  // meets y first, so its refs order the pair the other way round.
  const ExprRef x = ctx.var("x", 64);
  const ExprRef y = ctx.var("y", 64);
  const auto build = [](Context& k) {
    const ExprRef ky = k.var("y", 64);
    const ExprRef kx = k.var("x", 64);
    const ExprRef sum = k.add(ky, kx);
    const ExprRef z = k.var("z", 64);  // first seen in the shard
    const ExprRef off = k.add(sum, k.constant(8, 64));
    const ExprRef m = k.mul(z, off);
    const ExprRef lhs = k.bxor(m, kx);
    return k.eq(lhs, k.bnot(ky));
  };
  Context direct = ctx.clone();
  const ExprRef root_direct = build(direct);
  Context shard;
  const ExprRef root_shard = build(shard);

  // Replayed nodes were paid for by the shard: a one-node budget on the
  // destination is still untouched afterwards.
  GovernorOptions gopts;
  gopts.max_expr_nodes = 1;
  Governor gov(gopts);
  ctx.set_governor(&gov);
  const std::vector<ExprRef> table = ctx.replay(shard);
  EXPECT_EQ(gov.expr_nodes().used(), 0u);
  ctx.set_governor(nullptr);

  expect_same_nodes(ctx, direct);
  EXPECT_EQ(table[root_shard], root_direct);
  EXPECT_EQ(ctx.to_string(table[root_shard]),
            "((x ^ (z * ((x + y) + 0x8))) == ~y)");

  // The commutative swap: the shard holds y + x, the destination x + y.
  const ExprRef sum_shard = shard.add(shard.var("x", 64), shard.var("y", 64));
  EXPECT_EQ(shard.node(sum_shard).a, shard.var("y", 64));
  EXPECT_EQ(ctx.node(table[sum_shard]).a, x);
  EXPECT_EQ(ctx.node(table[sum_shard]).b, y);

  // Replaying again finds every node and appends none.
  const size_t n = ctx.num_nodes();
  EXPECT_EQ(ctx.replay(shard), table);
  EXPECT_EQ(ctx.num_nodes(), n);
}

TEST_F(ExprTest, MaskedReplayIsTheFullReplayRestricted) {
  // Structural hashes ignore refs: one term built in two creation orders
  // hashes alike, commutative operands included.
  const auto hashes = [](const Context& k) {
    std::vector<u64> h(k.num_nodes());
    for (ExprRef r = 0; r < k.num_nodes(); ++r) h[r] = k.structural_hash(r, h);
    return h;
  };
  Context a, b;
  const ExprRef sum_a = a.add(a.var("x", 64), a.var("y", 64));
  const ExprRef term_a = a.mul(sum_a, a.var("z", 64));
  const ExprRef y_b = b.var("y", 64);  // y first: b orders x + y as y + x
  const ExprRef term_b = b.mul(b.add(b.var("x", 64), y_b), b.var("z", 64));
  EXPECT_EQ(hashes(a)[term_a], hashes(b)[term_b]);
  EXPECT_NE(hashes(a)[term_a], hashes(a)[sum_a]);

  // A shard with garbage around the root: replaying only the nodes the
  // root reaches gives the full replay's nodes for them, in the same
  // relative order, and nothing else.
  Context shard;
  const ExprRef x = shard.var("x", 64);
  const ExprRef junk = shard.mul(shard.var("g", 64), shard.constant(3, 64));
  const ExprRef root =
      shard.eq(shard.add(x, shard.var("y", 64)), shard.bnot(x));
  (void)shard.bxor(junk, x);
  std::vector<bool> keep(shard.num_nodes());
  for (const ExprRef r : shard.reachable({root, kNoExpr})) keep[r] = true;
  Context full = ctx.clone(), masked = ctx.clone();
  const std::vector<ExprRef> tf = full.replay(shard);
  const std::vector<ExprRef> tm = masked.replay(shard, keep);
  EXPECT_EQ(masked.to_string(tm[root]), full.to_string(tf[root]));
  EXPECT_EQ(tm[junk], kNoExpr);
  EXPECT_LT(masked.num_nodes(), full.num_nodes());
  for (ExprRef r1 = 0; r1 < shard.num_nodes(); ++r1)
    for (ExprRef r2 = 0; r2 < shard.num_nodes(); ++r2)
      if (keep[r1] && keep[r2]) {
        EXPECT_EQ(tf[r1] < tf[r2], tm[r1] < tm[r2]) << r1 << " vs " << r2;
      }
}

TEST_F(ExprTest, CutReplayLeavesEveryNodeInterned) {
  // An allocation fault can stop a replay part-way. The nodes appended
  // before it must still hash-cons, or a second replay would append them
  // again under new refs.
  const auto build = [](Context& k) {
    ExprRef acc = k.var("x", 64);
    for (u64 i = 1; i <= 64; ++i)
      acc = k.mul(k.add(acc, k.constant(i, 64)), acc);
    return acc;
  };
  Context direct;
  const ExprRef root_direct = build(direct);
  Context shard;
  const ExprRef root_shard = build(shard);

  {
    fault::ScopedSpec faults("seed=3,alloc=0.05");
    EXPECT_THROW(ctx.replay(shard), ResourceExhausted);
  }
  ASSERT_GT(ctx.num_nodes(), 3u);  // the cut came after some appends
  ASSERT_LT(ctx.num_nodes(), direct.num_nodes());
  const std::vector<ExprRef> table = ctx.replay(shard);
  expect_same_nodes(ctx, direct);
  EXPECT_EQ(table[root_shard], root_direct);
}

TEST(Context, ConstantCacheAgreesWithInterning) {
  Context ctx;
  // Three 64-bit constants and a 32-bit one that share one cache slot.
  const size_t slot = Context::const_cache_slot(1000, 64);
  std::vector<std::pair<u64, u8>> same{{1000, 64}};
  for (u64 v = 1001; same.size() < 3; ++v)
    if (Context::const_cache_slot(v, 64) == slot) same.push_back({v, 64});
  for (u64 v = 0; same.size() < 4; ++v)
    if (Context::const_cache_slot(v, 32) == slot) same.push_back({v, 32});

  const size_t n0 = ctx.num_nodes();
  std::vector<ExprRef> refs;
  for (const auto& [v, w] : same) refs.push_back(ctx.constant(v, w));
  EXPECT_EQ(ctx.num_nodes(), n0 + same.size());
  // Alternating between them evicts the slot on every call; the refs hold.
  for (int round = 0; round < 6; ++round)
    for (size_t i = 0; i < same.size(); ++i) {
      const size_t k = round % 2 ? same.size() - 1 - i : (i * 3) % 4;
      EXPECT_EQ(ctx.constant(same[k].first, same[k].second), refs[k]);
    }
  EXPECT_EQ(ctx.num_nodes(), n0 + same.size());
  // The cache keys on the truncated value.
  EXPECT_EQ(ctx.constant(same[3].first | u64{1} << 40, 32), refs[3]);

  // More distinct constants than slots, swept three times: the node count
  // grows by the distinct count only, and every ref names its constant.
  const size_t n1 = ctx.num_nodes();
  const u64 distinct = 3 * Context::kConstCacheSlots;
  std::vector<ExprRef> sweep;
  for (int pass = 0; pass < 3; ++pass)
    for (u64 i = 0; i < distinct; ++i) {
      const ExprRef r = ctx.constant(0x400000 + 8 * i, 64);
      if (pass == 0) {
        sweep.push_back(r);
      } else {
        EXPECT_EQ(r, sweep[i]);
      }
    }
  EXPECT_EQ(ctx.num_nodes(), n1 + distinct);
  for (u64 i = 0; i < distinct; ++i)
    EXPECT_TRUE(ctx.is_const(sweep[i], 0x400000 + 8 * i));

  // Constants another path appended (replay) are found through interning.
  Context src;
  const ExprRef big = src.constant(0xfeedface, 64);
  const std::vector<ExprRef> table = ctx.replay(src);
  EXPECT_EQ(ctx.constant(0xfeedface, 64), table[big]);

  // A clone answers with the same refs; growing it leaves the original's
  // cache alone.
  Context copy = ctx.clone();
  for (size_t k = 0; k < same.size(); ++k)
    EXPECT_EQ(copy.constant(same[k].first, same[k].second), refs[k]);
  const size_t n2 = ctx.num_nodes();
  EXPECT_EQ(copy.num_nodes(), n2);
  u64 fresh_value = 1001;
  while (Context::const_cache_slot(fresh_value, 64) != slot ||
         std::find(same.begin(), same.end(),
                   std::pair<u64, u8>{fresh_value, 64}) != same.end())
    ++fresh_value;
  EXPECT_EQ(copy.constant(fresh_value, 64), n2);
  EXPECT_EQ(ctx.num_nodes(), n2);
  EXPECT_EQ(ctx.var("x", 64), n2);  // the original's ref n2 is no constant
  const ExprRef own = ctx.constant(fresh_value, 64);
  EXPECT_EQ(own, n2 + 1);
  EXPECT_TRUE(ctx.is_const(own, fresh_value));
  EXPECT_EQ(copy.constant(fresh_value, 64), n2);
}

TEST(Context, VarIndexSurvivesGrowthCloneAndReplay) {
  // 10,000 names take the variable index through eleven doublings; every
  // name keeps answering with its ref and its width.
  Context ctx;
  std::vector<std::string> names;
  std::vector<ExprRef> refs;
  const auto width = [](size_t k) -> u8 { return k % 2 ? 64 : 32; };
  for (size_t k = 0; k < 10'000; ++k) {
    names.push_back("mem@0x" + std::to_string(4096 + k) + ".0_64");
    refs.push_back(ctx.var(names.back(), width(k)));
  }
  const size_t n = ctx.num_nodes();
  const auto expect_all = [&](Context& k, const std::vector<ExprRef>& want,
                              const char* where) {
    for (size_t i = 0; i < names.size(); ++i) {
      ASSERT_EQ(k.var(names[i], width(i)), want[i]) << where << " " << i;
      ASSERT_EQ(k.var_name(want[i]), names[i]) << where << " " << i;
    }
  };
  expect_all(ctx, refs, "grown");
  EXPECT_EQ(ctx.num_nodes(), n);

  // A clone answers alike, and its new names stay its own.
  Context copy = ctx.clone();
  expect_all(copy, refs, "clone");
  EXPECT_EQ(copy.var("fresh", 64), n);
  EXPECT_EQ(ctx.num_nodes(), n);
  EXPECT_EQ(ctx.var("other", 64), n);
  EXPECT_EQ(ctx.var_name(n), "other");
  EXPECT_EQ(copy.var_name(n), "fresh");

  // Replay binds by name: the destination's own variables keep their
  // refs, the others are appended, and all answer by name afterwards.
  Context dst;
  const ExprRef last = dst.var(names.back(), width(names.size() - 1));
  const ExprRef first = dst.var(names.front(), width(0));
  const std::vector<ExprRef> table = dst.replay(ctx);
  EXPECT_EQ(table[refs.back()], last);
  EXPECT_EQ(table[refs.front()], first);
  std::vector<ExprRef> replayed;
  for (const ExprRef r : refs) replayed.push_back(table[r]);
  expect_all(dst, replayed, "replay");
  EXPECT_EQ(dst.var_name(table[n]), "other");

  // A width mismatch still throws, wherever the name came from.
  EXPECT_THROW(ctx.var(names[0], 64), gp::Error);
  EXPECT_THROW(copy.var(names[1], 32), gp::Error);
  EXPECT_THROW(dst.var(names[2], 64), gp::Error);
  EXPECT_THROW(dst.var("other", 1), gp::Error);
}

TEST(Context, ConstantCacheSurvivesAllocationFaults) {
  // A throwing intern leaves the slot as it was: every constant that did
  // get interned keeps answering with its own ref.
  Context ctx;
  std::vector<std::optional<ExprRef>> got(200);
  {
    fault::ScopedSpec faults("seed=5,alloc=0.3");
    for (int pass = 0; pass < 2; ++pass)
      for (u64 i = 0; i < got.size(); ++i) {
        try {
          const ExprRef r = ctx.constant(i * 0x1000, 64);
          if (got[i]) {
            EXPECT_EQ(r, *got[i]);
          }
          got[i] = r;
        } catch (const ResourceExhausted&) {
        }
      }
  }
  const size_t n = ctx.num_nodes();
  for (u64 i = 0; i < got.size(); ++i) {
    const ExprRef r = ctx.constant(i * 0x1000, 64);
    EXPECT_TRUE(ctx.is_const(r, i * 0x1000));
    if (got[i]) {
      EXPECT_EQ(r, *got[i]);
    }
  }
  EXPECT_GE(ctx.num_nodes(), n);
}

// ---------------------------------------------------------------------------
// SAT core
// ---------------------------------------------------------------------------

/// Pigeonhole P -> P-1 over fresh variables (pigeon-major). When `guard`
/// is given, every clause also carries it, so the instance is UNSAT only
/// under ~guard. Returns the variable of pigeon p in hole h at [p][h].
std::vector<std::vector<u32>> add_pigeonhole(Sat& s, int P,
                                             std::optional<Lit> guard = {}) {
  const int H = P - 1;
  std::vector<std::vector<u32>> v(P, std::vector<u32>(H));
  for (auto& row : v)
    for (u32& x : row) x = s.new_var();
  auto add = [&](std::vector<Lit> c) {
    if (guard) c.insert(c.begin(), *guard);
    s.add_clause(std::move(c));
  };
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < H; ++h) c.push_back(Lit::pos(v[p][h]));
    add(std::move(c));
  }
  for (int h = 0; h < H; ++h)
    for (int p1 = 0; p1 < P; ++p1)
      for (int p2 = p1 + 1; p2 < P; ++p2)
        add({Lit::neg(v[p1][h]), Lit::neg(v[p2][h])});
  return v;
}

TEST(SatCore, TrivialSatAndUnsat) {
  Sat s;
  const u32 a = s.new_var(), b = s.new_var();
  s.add_clause({Lit::pos(a), Lit::pos(b)});
  s.add_clause({Lit::neg(a)});
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));

  Sat u;
  const u32 x = u.new_var();
  u.add_clause({Lit::pos(x)});
  EXPECT_FALSE(u.add_clause({Lit::neg(x)}));
  EXPECT_EQ(u.solve(), SatResult::Unsat);
}

TEST(SatCore, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT requiring real search.
  Sat s;
  add_pigeonhole(s, 4);
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

/// Pins the exact search: decisions, conflicts, learned clauses and models
/// follow from the (activity desc, var index asc) decision order, so a
/// change to the order structure that reorders even one decision moves the
/// conflict total or a model. The constants were recorded from the linear
/// scan the order heap replaced.
TEST(SatCore, DecisionOrderPinned) {
  Rng rng(4101);
  constexpr int kInstances = 24;
  constexpr int kVars = 120;
  constexpr int kClauses = 492;  // ratio 4.1, near the 3-SAT threshold
  u64 conflicts = 0;
  int sat = 0;
  u64 models = serial::fnv1a({});
  for (int inst = 0; inst < kInstances; ++inst) {
    Sat s;
    for (int v = 0; v < kVars; ++v) s.new_var();
    bool consistent = true;
    for (int c = 0; c < kClauses; ++c) {
      std::vector<Lit> lits;
      for (int k = 0; k < 3; ++k) {
        const u32 var = static_cast<u32>(rng.below(kVars));
        lits.push_back(rng.chance(0.5) ? Lit::pos(var) : Lit::neg(var));
      }
      consistent = s.add_clause(std::move(lits)) && consistent;
    }
    if (!consistent) continue;
    const SatResult r = s.solve();
    ASSERT_NE(r, SatResult::Unknown);
    conflicts += s.num_conflicts();
    if (r != SatResult::Sat) continue;
    ++sat;
    std::vector<u8> bits(kVars);
    for (int v = 0; v < kVars; ++v) bits[v] = s.model_value(v);
    models = serial::fnv1a(bits, models);
  }
  EXPECT_EQ(sat, 19);
  EXPECT_EQ(conflicts, 9'456u);
  EXPECT_EQ(models, 10987286816866328655u);
}

/// Pigeonhole 9 -> 8 runs ~20k conflicts, so activity_inc crosses the 1e100
/// rescale (about every 4,490 conflicts) four times. The exact conflict
/// count pins the search through every rescale.
TEST(SatCore, RescaleKeepsDecisionOrder) {
  Sat s;
  add_pigeonhole(s, 9);
  EXPECT_EQ(s.solve(), SatResult::Unsat);
  EXPECT_EQ(s.num_conflicts(), 20'381u);
}

/// The rescale can merge distinct activities into ties: an activity last
/// bumped in the first few thousand conflicts underflows to 0 by the fourth
/// rescale, and ties must still go to the lowest index. Here a selector
/// `sel` guards a pigeonhole 9 -> 8: the solver refutes it under ~sel (~19k
/// conflicts), learns sel, and then decides every remaining variable. Each
/// of 30 gadgets has b < c < a and the clause (a | b | c). Side clauses pull
/// a into early conflicts; b and c are in no other clause, so they are
/// never bumped. By the end a's activity has underflowed to 0, so index
/// order decides b, then c, both false, which forces a true. A heap that
/// still ranks a above b after the tie decides a first, with its saved
/// phase false, and ends with b or c true.
TEST(SatCore, RescaleTiesBreakByIndex) {
  constexpr int kGadgets = 30;
  Sat s;
  const u32 sel = s.new_var();
  std::vector<u32> e(kGadgets);
  for (u32& v : e) v = s.new_var();
  const auto hole = add_pigeonhole(s, 9, Lit::pos(sel));
  std::vector<u32> a(kGadgets), b(kGadgets), c(kGadgets);
  for (int i = 0; i < kGadgets; ++i) {
    b[i] = s.new_var();
    c[i] = s.new_var();
    a[i] = s.new_var();
    const u32 x = s.new_var(), y = s.new_var();
    // ~sel & ~e & ~g0 & ~g1 forces a = x = false and then y both ways: a
    // conflict that bumps a.
    const u32 g0 = hole[i % 9][0], g1 = hole[i % 9][1 + (i / 9) % 7];
    const Lit S = Lit::pos(sel), E = Lit::pos(e[i]);
    s.add_clause({Lit::pos(a[i]), Lit::pos(b[i]), Lit::pos(c[i])});
    s.add_clause({S, Lit::pos(g0), Lit::neg(a[i])});
    s.add_clause({S, Lit::pos(g1), Lit::neg(x)});
    s.add_clause({S, E, Lit::pos(a[i]), Lit::pos(x), Lit::pos(y)});
    s.add_clause({S, E, Lit::pos(a[i]), Lit::pos(x), Lit::neg(y)});
  }
  ASSERT_EQ(s.solve(), SatResult::Sat);
  EXPECT_EQ(s.num_conflicts(), 19'264u);
  for (int i = 0; i < kGadgets; ++i) {
    EXPECT_TRUE(s.model_value(a[i])) << "gadget " << i;
    EXPECT_FALSE(s.model_value(b[i])) << "gadget " << i;
    EXPECT_FALSE(s.model_value(c[i])) << "gadget " << i;
  }
}

/// add_clause normalises before storing: duplicates merge, tautologies and
/// clauses already true at level 0 are skipped, literals false at level 0
/// are dropped (a clause left with one literal is enqueued, not stored), and
/// an empty clause makes the instance UNSAT.
TEST(SatCore, AddClauseNormalises) {
  Sat s;
  const u32 a = s.new_var(), b = s.new_var(), c = s.new_var(),
            d = s.new_var();
  const std::vector<Lit> dup = {Lit::pos(a), Lit::pos(b), Lit::pos(a)};
  EXPECT_TRUE(s.add_clause(std::span<const Lit>(dup)));
  EXPECT_EQ(s.num_clauses(), 1u);

  EXPECT_TRUE(s.add_clause({Lit::pos(c), Lit::neg(d), Lit::neg(c)}));
  EXPECT_EQ(s.num_clauses(), 1u);  // tautology dropped

  EXPECT_TRUE(s.add_clause({Lit::neg(a)}));  // unit: enqueued, not stored
  EXPECT_EQ(s.num_clauses(), 1u);
  // ~a at level 0 made b true through the deduplicated clause (a | b).
  EXPECT_TRUE(s.add_clause({Lit::pos(b), Lit::pos(c), Lit::pos(d)}));
  EXPECT_EQ(s.num_clauses(), 1u);  // true at level 0: skipped

  // a is false at level 0, so (a | c | d) is stored as (c | d).
  EXPECT_TRUE(s.add_clause({Lit::pos(a), Lit::pos(c), Lit::pos(d)}));
  EXPECT_EQ(s.num_clauses(), 2u);
  // (a | ~c) loses a and becomes the unit ~c, which forces d.
  EXPECT_TRUE(s.add_clause({Lit::pos(a), Lit::neg(c)}));
  EXPECT_EQ(s.num_clauses(), 2u);
  ASSERT_EQ(s.solve(), SatResult::Sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_FALSE(s.model_value(c));
  EXPECT_TRUE(s.model_value(d));

  Sat e;
  e.new_var();
  EXPECT_FALSE(e.add_clause(std::span<const Lit>()));
  EXPECT_EQ(e.num_clauses(), 0u);
  EXPECT_EQ(e.solve(), SatResult::Unsat);
}

/// Random 3-SAT cross-checked against brute force over <=14 variables.
TEST(SatCore, RandomAgainstBruteForce) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const int nvars = 3 + static_cast<int>(rng.below(12));
    const int nclauses = 1 + static_cast<int>(rng.below(60));
    std::vector<std::vector<int>> clauses(nclauses);
    for (auto& cl : clauses) {
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < len; ++k) {
        const int var = static_cast<int>(rng.below(nvars));
        cl.push_back(rng.chance(0.5) ? var + 1 : -(var + 1));
      }
    }
    // Brute force.
    bool brute_sat = false;
    for (u32 m = 0; m < (1u << nvars) && !brute_sat; ++m) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          const int var = std::abs(l) - 1;
          const bool val = (m >> var) & 1;
          if ((l > 0) == val) {
            any = true;
            break;
          }
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    // CDCL.
    Sat s;
    for (int v = 0; v < nvars; ++v) s.new_var();
    bool consistent = true;
    for (const auto& cl : clauses) {
      std::vector<Lit> lits;
      for (const int l : cl) {
        const u32 var = static_cast<u32>(std::abs(l) - 1);
        lits.push_back(l > 0 ? Lit::pos(var) : Lit::neg(var));
      }
      consistent = s.add_clause(std::move(lits)) && consistent;
    }
    const bool cdcl_sat = consistent && s.solve() == SatResult::Sat;
    EXPECT_EQ(cdcl_sat, brute_sat) << "iter " << iter;
    // If SAT, the model must actually satisfy every clause.
    if (cdcl_sat) {
      for (const auto& cl : clauses) {
        bool any = false;
        for (const int l : cl) {
          const u32 var = static_cast<u32>(std::abs(l) - 1);
          if ((l > 0) == s.model_value(var)) any = true;
        }
        EXPECT_TRUE(any);
      }
    }
  }
}

/// Every clause of `clauses` holds under s's model.
bool model_satisfies(const Sat& s, const std::vector<std::vector<Lit>>& clauses) {
  for (const auto& c : clauses)
    if (std::none_of(c.begin(), c.end(), [&](Lit l) {
          return s.model_value(l.var()) != l.sign();
        }))
      return false;
  return true;
}

/// fnv1a over the model's bits, variable by variable.
u64 model_hash(const Sat& s) {
  std::vector<u8> bits(s.num_vars());
  for (u32 v = 0; v < s.num_vars(); ++v) bits[v] = s.model_value(v);
  return serial::fnv1a(bits);
}

/// One literal watched by 1,200 clauses (p | a_i | b_{i%8}). The first
/// decision sets p false and scans p's watches; every clause moves its
/// watch to one of eight ~b lists, which take 150 pushes each and so grow
/// (and move) several times in the middle of that scan. The at-most-one
/// over b and the exclusions (~a_i | ~a_{i+8}) then force conflicts,
/// learned clauses and backtracks over the moved lists, until the solver
/// learns p. The conflict count and model hash were recorded from the
/// per-literal watch vectors that the watch pool replaced.
TEST(SatCore, WatchListsRelocateDuringPropagation) {
  constexpr int kClauses = 1'200, kBuckets = 8;
  Sat s;
  const u32 p = s.new_var();
  std::vector<u32> a(kClauses), b(kBuckets);
  for (u32& v : a) v = s.new_var();
  for (u32& v : b) v = s.new_var();
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i < kClauses; ++i)
    clauses.push_back(
        {Lit::pos(p), Lit::pos(a[i]), Lit::pos(b[i % kBuckets])});
  for (int j = 0; j < kBuckets; ++j)
    for (int k = j + 1; k < kBuckets; ++k)
      clauses.push_back({Lit::neg(b[j]), Lit::neg(b[k])});
  for (int i = 0; i + kBuckets < kClauses; i += 3)
    clauses.push_back({Lit::neg(a[i]), Lit::neg(a[i + kBuckets])});
  for (const auto& c : clauses) ASSERT_TRUE(s.add_clause(c));

  ASSERT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(model_satisfies(s, clauses));
  EXPECT_TRUE(s.model_value(p));
  EXPECT_EQ(s.num_conflicts(), 2u);
  EXPECT_EQ(model_hash(s), 11099912312383202993u);
}

/// Before the first conflict every activity is 0, so the search decides
/// the lowest-index unassigned variable, with its initial phase false.
/// A monotone instance (positive literals only) never conflicts: each
/// decision only forces other variables true. Its model must equal that
/// greedy order computed here. A second family puts a random 3-SAT core
/// on the highest indices, behind ~400 conflict-free variables, so its
/// first conflict comes after hundreds of decisions; its conflict total
/// and model hash were recorded from the eager order heap.
TEST(SatCore, ConflictFreeSearchDecidesByIndex) {
  Rng rng(733);
  constexpr int kFree = 400;
  // Positive clauses of 2..4 literals over [0, kFree).
  auto monotone = [&](std::vector<std::vector<Lit>>& out, int n) {
    for (int c = 0; c < n; ++c) {
      std::vector<Lit> lits;
      const int len = 2 + static_cast<int>(rng.below(3));
      for (int k = 0; k < len; ++k)
        lits.push_back(Lit::pos(static_cast<u32>(rng.below(kFree))));
      out.push_back(std::move(lits));
    }
  };
  {
    std::vector<std::vector<Lit>> clauses;
    monotone(clauses, 600);
    Sat s;
    for (int v = 0; v < kFree; ++v) s.new_var();
    for (const auto& c : clauses) ASSERT_TRUE(s.add_clause(c));
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_EQ(s.num_conflicts(), 0u);

    // Lowest index first, false; a clause left with one unassigned
    // literal and no true one forces it true. Forcing true makes no
    // literal false, so one pass over the decided variable's clauses
    // finds every forced one.
    std::vector<std::vector<int>> occurs(kFree);
    for (size_t i = 0; i < clauses.size(); ++i)
      for (const Lit l : clauses[i]) occurs[l.var()].push_back(int(i));
    std::vector<int> val(kFree, -1);
    for (int v = 0; v < kFree; ++v) {
      if (val[v] != -1) continue;
      val[v] = 0;
      for (const int i : occurs[v]) {
        int open = -1, unassigned = 0;
        bool sat = false;
        for (const Lit l : clauses[i]) {
          if (val[l.var()] == 1) sat = true;
          if (val[l.var()] == -1 && open != int(l.var())) {
            open = int(l.var());
            ++unassigned;
          }
        }
        if (!sat && unassigned == 1) val[open] = 1;
      }
    }
    for (int v = 0; v < kFree; ++v)
      ASSERT_EQ(s.model_value(v), val[v] == 1) << "var " << v;
  }

  constexpr int kInstances = 8, kCore = 100, kCoreClauses = 410;
  u64 conflicts = 0, models = serial::fnv1a({});
  int sat = 0;
  for (int inst = 0; inst < kInstances; ++inst) {
    std::vector<std::vector<Lit>> clauses;
    monotone(clauses, 600);
    for (int c = 0; c < kCoreClauses; ++c) {
      std::vector<Lit> lits;
      for (int k = 0; k < 3; ++k) {
        const u32 var = kFree + static_cast<u32>(rng.below(kCore));
        lits.push_back(rng.chance(0.5) ? Lit::pos(var) : Lit::neg(var));
      }
      clauses.push_back(std::move(lits));
    }
    Sat s;
    for (int v = 0; v < kFree + kCore; ++v) s.new_var();
    bool consistent = true;
    for (const auto& c : clauses) consistent = s.add_clause(c) && consistent;
    if (!consistent) continue;
    const SatResult r = s.solve();
    ASSERT_NE(r, SatResult::Unknown);
    conflicts += s.num_conflicts();
    if (r != SatResult::Sat) continue;
    ++sat;
    EXPECT_TRUE(model_satisfies(s, clauses));
    std::vector<u8> bits(kFree + kCore);
    for (int v = 0; v < kFree + kCore; ++v) bits[v] = s.model_value(v);
    models = serial::fnv1a(bits, models);
  }
  EXPECT_EQ(sat, 6);
  EXPECT_EQ(conflicts, 1'270u);
  EXPECT_EQ(models, 16073033449851781877u);
}

// ---------------------------------------------------------------------------
// Bit-blasting solver
// ---------------------------------------------------------------------------

class SolverTest : public ::testing::Test {
 protected:
  Context ctx;
  Solver solver{ctx};
  ExprRef c(u64 v, u8 w = 64) { return ctx.constant(v, w); }
  /// A model of the conjunction `q`; nullopt unless it is Sat.
  std::optional<Model> model_of(const std::vector<ExprRef>& q) {
    Model m;
    if (solver.check(q, &m) != SatResult::Sat) return std::nullopt;
    return m;
  }
  /// `a == b` under every assignment: their disequality is Unsat.
  bool proven_equal(ExprRef a, ExprRef b) {
    return solver.check(std::vector{ctx.ne(a, b)}) == SatResult::Unsat;
  }
  /// `a -> b` under every assignment: {a, !b} is Unsat.
  bool proven_implies(ExprRef a, ExprRef b) {
    return solver.check(std::vector{a, ctx.bnot(b)}) == SatResult::Unsat;
  }
};

struct Blasted {
  SatResult result;
  size_t clauses;
  u64 conflicts;
  u64 model;  // fnv of the free variables' values, in ref order
};

/// Blast `query` in the order Solver::check uses (each constraint, then
/// every free variable by ref), solve, and digest the model.
Blasted blast_and_solve(Context& ctx, const std::vector<ExprRef>& query) {
  BitBlaster bb(ctx);
  std::vector<ExprRef> vars;
  for (const ExprRef q : query) {
    bb.assert_true(q);
    for (const ExprRef v : ctx.variables(q)) vars.push_back(v);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  for (const ExprRef v : vars) (void)bb.model_value(v);
  const SatResult r = bb.solve();
  std::vector<u8> bytes;
  if (r == SatResult::Sat) {
    for (const ExprRef v : vars) {
      const u64 x = bb.model_value(v);
      for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<u8>(x >> 8 * i));
    }
  }
  return {r, bb.num_clauses(), bb.num_conflicts(), serial::fnv1a(bytes)};
}

/// Pins the bit-blasted encoding: the blast order decides every SAT
/// variable number and clause index, and through the decision heap's index
/// tie-break every decision, conflict and model. The constants were
/// recorded from the map-based gate cache and per-clause vectors that the
/// flat gate table and clause arena replaced.
TEST_F(SolverTest, BitblastEncodingPinned) {
  // The BM_SatBitblasted64 query: one 64-bit linear equation over x, y
  // and 24 disequalities z_i + x != k_i.
  {
    Rng rng(0x5a7b17);
    const u64 k1 = rng.next() | 1, x0 = rng.next(), y0 = rng.next();
    const ExprRef x = ctx.var("x", 64), y = ctx.var("y", 64);
    std::vector<ExprRef> query = {
        ctx.eq(ctx.add(ctx.mul(x, c(k1)), y), c(x0 * k1 + y0))};
    for (int i = 0; i < 24; ++i) {
      const ExprRef z = ctx.var("z" + std::to_string(i), 64);
      query.push_back(ctx.ne(ctx.add(z, x), c(rng.next())));
    }
    const Blasted b = blast_and_solve(ctx, query);
    EXPECT_EQ(b.result, SatResult::Sat);
    EXPECT_EQ(b.clauses, 52'698u);
    EXPECT_EQ(b.conflicts, 0u);
    EXPECT_EQ(b.model, 6485619281041364076u);
  }
  // Mul, shifts, ite and extract over 32 bits, with a 12x12-bit factoring
  // core that needs real search.
  {
    const ExprRef a = ctx.var("a", 32), b = ctx.var("b", 32);
    const ExprRef cnt = ctx.zext(ctx.extract(b, 0, 5), 32);
    const ExprRef sh = ctx.shl(ctx.mul(a, b), cnt);
    const ExprRef r = ctx.ite(ctx.slt(a, b), ctx.lshr(sh, c(3, 32)),
                              ctx.ashr(a, cnt));
    const ExprRef fa = ctx.zext(ctx.extract(a, 0, 12), 32);
    const ExprRef fb = ctx.zext(ctx.extract(b, 0, 12), 32);
    const std::vector<ExprRef> query = {
        ctx.eq(ctx.mul(fa, fb), c(3001u * 2999u, 32)),
        ctx.ult(c(1, 32), fa),
        ctx.ult(c(1, 32), fb),
        ctx.ult(ctx.band(a, b), ctx.add(a, c(7, 32))),
        ctx.ne(ctx.extract(r, 4, 8), c(0xa5, 8)),
        ctx.ne(ctx.concat(ctx.extract(a, 16, 16), ctx.extract(b, 0, 16)),
               c(0xdeadbeef, 32))};
    const Blasted bl = blast_and_solve(ctx, query);
    EXPECT_EQ(bl.result, SatResult::Sat);
    EXPECT_EQ(bl.clauses, 15'691u);
    EXPECT_EQ(bl.conflicts, 929u);
    EXPECT_EQ(bl.model, 13233312698412964915u);
  }
}

/// One Solver::check of the BM_SatBitblasted64 query (~17k SAT variables)
/// allocates per query, not per variable or literal: the SAT core keeps
/// its watch lists in one pool, and the query's other buffers grow by
/// doubling, so the check makes 346 operator new calls. With one vector
/// per watch list the same check made 90,180.
TEST_F(SolverTest, CheckAllocatesPerQuery) {
  Rng rng(0x5a7b17);
  const u64 k1 = rng.next() | 1, x0 = rng.next(), y0 = rng.next();
  const ExprRef x = ctx.var("x", 64), y = ctx.var("y", 64);
  std::vector<ExprRef> query = {
      ctx.eq(ctx.add(ctx.mul(x, c(k1)), y), c(x0 * k1 + y0))};
  for (int i = 0; i < 24; ++i) {
    const ExprRef z = ctx.var("z" + std::to_string(i), 64);
    query.push_back(ctx.ne(ctx.add(z, x), c(rng.next())));
  }
  Model m;
  const AllocationCount count;
  ASSERT_EQ(solver.check(query, &m), SatResult::Sat);
  EXPECT_LE(count.calls(), 1'000u);
}

/// A tagged solver times each blasted query three ways: the whole check,
/// the blast and the SAT search. The phases fit inside the whole.
TEST_F(SolverTest, TaggedCheckTimesEachPhase) {
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  auto& reg = metrics::registry();
  const auto& check = reg.histogram("solver.concretize.check_us");
  const auto& blast = reg.histogram("solver.concretize.blast_us");
  const auto& solve = reg.histogram("solver.concretize.solve_us");
  const u64 n0 = check.count(), nb = blast.count(), ns = solve.count();
  const u64 s0 = check.sum(), sb = blast.sum(), ss = solve.sum();

  Solver tagged(ctx, 2'000'000, nullptr, Caller::Concretize);
  const ExprRef x = ctx.var("x", 64);
  ASSERT_EQ(tagged.check(std::vector{ctx.eq(ctx.mul(x, c(7)), c(91))}),
            SatResult::Sat);
  EXPECT_EQ(check.count(), n0 + 1);
  EXPECT_EQ(blast.count(), nb + 1);
  EXPECT_EQ(solve.count(), ns + 1);
  EXPECT_LE((blast.sum() - sb) + (solve.sum() - ss), check.sum() - s0);
  metrics::set_enabled(was_enabled);
}

/// Enough distinct gates to double the gate table several times: the
/// model must still satisfy the formula under Context::eval, and asserting
/// an already-blasted term again must add no clause.
TEST_F(SolverTest, GateTableGrowth) {
  Rng rng(31);
  const ExprRef x = ctx.var("x", 64), y = ctx.var("y", 64);
  const u64 xv = rng.next(), yv = rng.next();
  const u64 k = rng.next() | 1;
  // Two 64-bit multiplies and a variable shift: tens of thousands of gates.
  const ExprRef lhs = ctx.bxor(ctx.mul(ctx.add(x, c(k)), y),
                               ctx.shl(ctx.mul(x, c(k)), y));
  std::unordered_map<ExprRef, u64> env{{x, xv}, {y, yv}};
  const ExprRef goal = ctx.eq(lhs, c(ctx.eval(lhs, env)));

  BitBlaster bb(ctx);
  bb.assert_true(goal);
  const size_t clauses = bb.num_clauses();
  EXPECT_GT(clauses, 20'000u);
  bb.assert_true(goal);
  EXPECT_EQ(bb.num_clauses(), clauses);
  (void)bb.model_value(x);
  (void)bb.model_value(y);
  EXPECT_EQ(bb.num_clauses(), clauses);  // variables were blasted in goal
  ASSERT_EQ(bb.solve(), SatResult::Sat);
  std::unordered_map<ExprRef, u64> model{{x, bb.model_value(x)},
                                         {y, bb.model_value(y)}};
  EXPECT_EQ(ctx.eval(goal, model), 1u);
  EXPECT_EQ(bb.model_value(goal), 1u);
  EXPECT_EQ(bb.model_value(lhs), ctx.eval(lhs, model));
}

TEST_F(SolverTest, SimpleEquationModel) {
  ExprRef x = ctx.var("x", 64);
  // x + 5 == 12
  auto m = model_of({ctx.eq(ctx.add(x, c(5)), c(12))});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ((*m)[x], 7u);
}

TEST_F(SolverTest, UnsatContradiction) {
  ExprRef x = ctx.var("x", 64);
  EXPECT_FALSE(
      model_of({ctx.eq(x, c(1)), ctx.eq(x, c(2))}).has_value());
}

TEST_F(SolverTest, XorDecomposition) {
  // The paper's instruction-substitution identity:
  // a ^ b == (~a & b) | (a & ~b), proven valid over all 64-bit values.
  ExprRef a = ctx.var("a", 64);
  ExprRef b = ctx.var("b", 64);
  ExprRef lhs = ctx.bxor(a, b);
  ExprRef rhs = ctx.bor(ctx.band(ctx.bnot(a), b), ctx.band(a, ctx.bnot(b)));
  EXPECT_TRUE(proven_equal(lhs, rhs));
}

TEST_F(SolverTest, AddDecomposition) {
  // a + b == (a ^ b) + 2*(a & b)
  ExprRef a = ctx.var("a", 64);
  ExprRef b = ctx.var("b", 64);
  ExprRef rhs =
      ctx.add(ctx.bxor(a, b), ctx.mul(c(2), ctx.band(a, b)));
  EXPECT_TRUE(proven_equal(ctx.add(a, b), rhs));
}

TEST_F(SolverTest, NotEqualCatchesDifference) {
  ExprRef a = ctx.var("a", 64);
  EXPECT_FALSE(proven_equal(ctx.add(a, c(1)), ctx.add(a, c(2))));
  EXPECT_FALSE(proven_equal(ctx.mul(a, c(2)), ctx.shl(a, c(2))));
  EXPECT_TRUE(proven_equal(ctx.mul(a, c(2)), ctx.shl(a, c(1))));
}

TEST_F(SolverTest, OpaquePredicateAlwaysTrue) {
  // x*x + x is even: the bogus-control-flow opaque predicate.
  ExprRef x = ctx.var("x", 64);
  ExprRef e = ctx.band(ctx.add(ctx.mul(x, x), x), c(1));
  EXPECT_TRUE(proven_equal(e, c(0)));
}

TEST_F(SolverTest, Implication) {
  ExprRef x = ctx.var("x", 64);
  ExprRef stronger = ctx.eq(x, c(5));
  ExprRef weaker = ctx.ult(x, c(10));
  EXPECT_TRUE(proven_implies(stronger, weaker));
  EXPECT_FALSE(proven_implies(weaker, stronger));
  EXPECT_TRUE(proven_implies(ctx.f(), stronger));
  EXPECT_TRUE(proven_implies(stronger, ctx.t()));
}

TEST_F(SolverTest, SignedComparisons) {
  ExprRef x = ctx.var("x", 64);
  // x < 0 signed AND x > 10 unsigned is satisfiable (negative values are
  // huge unsigned).
  auto m = model_of({ctx.slt(x, c(0)), ctx.ult(c(10), x)});
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(static_cast<i64>((*m)[x]) < 0);
}

TEST_F(SolverTest, ShiftSemantics) {
  ExprRef x = ctx.var("x", 8);
  // (x << 1) == 0x54  ->  x == 0x2a or 0xaa (top bit shifted out).
  auto m = model_of({ctx.eq(ctx.shl(x, c(1, 8)), c(0x54, 8))});
  ASSERT_TRUE(m.has_value());
  const u64 v = (*m)[x];
  EXPECT_EQ((v << 1) & 0xff, 0x54u);
}

TEST_F(SolverTest, IteBlasting) {
  ExprRef x = ctx.var("x", 64);
  ExprRef cond = ctx.ult(x, c(100));
  ExprRef e = ctx.ite(cond, c(1), c(2));
  auto m = model_of({ctx.eq(e, c(2))});
  ASSERT_TRUE(m.has_value());
  EXPECT_GE((*m)[x], 100u);
}

TEST_F(SolverTest, RepeatedQueryConsumesBudget) {
  // Every check() is a fresh query: asking the same question again draws
  // another solver-check unit, so a budget of two answers exactly two.
  ExprRef x = ctx.var("x", 64);
  const std::vector<ExprRef> q = {ctx.eq(x, c(3))};
  GovernorOptions gopts;
  gopts.max_solver_checks = 2;
  Governor gov(gopts);
  Solver governed(ctx, /*conflict_budget=*/2'000'000, &gov);
  EXPECT_EQ(governed.check(q), SatResult::Sat);
  EXPECT_EQ(governed.check(q), SatResult::Sat);
  EXPECT_EQ(governed.check(q), SatResult::Unknown);
}

TEST_F(SolverTest, ModelFilledOnlyOnSat) {
  ExprRef x = ctx.var("x", 64);
  Model m{{x, 99}};
  EXPECT_EQ(solver.check(std::vector{ctx.eq(x, c(1)), ctx.eq(x, c(2))}, &m),
            SatResult::Unsat);
  EXPECT_EQ(m.at(x), 99u);  // untouched
  EXPECT_EQ(solver.check(std::vector{ctx.eq(x, c(3))}, &m), SatResult::Sat);
  EXPECT_EQ(m.at(x), 3u);
}

/// Property: for random expression trees, solver-found models actually
/// evaluate to satisfy the constraint (model soundness), and proven_equal
/// agrees with randomized evaluation (no false equivalences on sampled
/// points).
TEST_F(SolverTest, RandomExpressionModelSoundness) {
  Rng rng(77);
  ExprRef x = ctx.var("x", 16);
  ExprRef y = ctx.var("y", 16);
  for (int iter = 0; iter < 60; ++iter) {
    // Build a random small expression over x, y.
    std::vector<ExprRef> pool{x, y, c(rng.below(1 << 16), 16)};
    for (int d = 0; d < 6; ++d) {
      ExprRef a = pool[rng.below(pool.size())];
      ExprRef b = pool[rng.below(pool.size())];
      switch (rng.below(6)) {
        case 0: pool.push_back(ctx.add(a, b)); break;
        case 1: pool.push_back(ctx.bxor(a, b)); break;
        case 2: pool.push_back(ctx.band(a, b)); break;
        case 3: pool.push_back(ctx.bor(a, b)); break;
        case 4: pool.push_back(ctx.bnot(a)); break;
        case 5: pool.push_back(ctx.mul(a, b)); break;
      }
    }
    ExprRef e = pool.back();
    const u64 target = rng.below(1 << 16);
    auto m = model_of({ctx.eq(e, c(target, 16))});
    if (m.has_value()) {
      std::unordered_map<ExprRef, u64> env(m->begin(), m->end());
      EXPECT_EQ(ctx.eval(e, env), target) << ctx.to_string(e);
    } else {
      // Sample a few points to gain confidence it really is UNSAT.
      for (int s = 0; s < 16; ++s) {
        std::unordered_map<ExprRef, u64> env{{x, rng.below(1 << 16)},
                                             {y, rng.below(1 << 16)}};
        EXPECT_NE(ctx.eval(e, env), target) << ctx.to_string(e);
      }
    }
  }
}

/// Property: smart-constructor simplification is semantics-preserving.
/// Compare ctx.eval of randomly built exprs against a shadow interpreter
/// that applies the operations directly.
TEST_F(SolverTest, SimplifierPreservesSemantics) {
  Rng rng(99);
  for (int iter = 0; iter < 300; ++iter) {
    ExprRef x = ctx.var("x", 64);
    ExprRef y = ctx.var("y", 64);
    const u64 xv = rng.next(), yv = rng.next();
    std::unordered_map<ExprRef, u64> env{{x, xv}, {y, yv}};

    struct Item {
      ExprRef e;
      u64 v;
    };
    std::vector<Item> pool{{x, xv}, {y, yv}};
    const u64 k = rng.next();
    pool.push_back({c(k), k});
    for (int d = 0; d < 8; ++d) {
      const Item a = pool[rng.below(pool.size())];
      const Item b = pool[rng.below(pool.size())];
      Item out{0, 0};
      switch (rng.below(9)) {
        case 0: out = {ctx.add(a.e, b.e), a.v + b.v}; break;
        case 1: out = {ctx.sub(a.e, b.e), a.v - b.v}; break;
        case 2: out = {ctx.mul(a.e, b.e), a.v * b.v}; break;
        case 3: out = {ctx.band(a.e, b.e), a.v & b.v}; break;
        case 4: out = {ctx.bor(a.e, b.e), a.v | b.v}; break;
        case 5: out = {ctx.bxor(a.e, b.e), a.v ^ b.v}; break;
        case 6: out = {ctx.bnot(a.e), ~a.v}; break;
        case 7: out = {ctx.shl(a.e, c(rng.below(64))), 0}; break;
        case 8: out = {ctx.lshr(a.e, c(rng.below(64))), 0}; break;
      }
      // Recompute shifts from the expression itself (count was fresh).
      out.v = ctx.eval(out.e, env);
      pool.push_back(out);
      EXPECT_EQ(ctx.eval(out.e, env), out.v);
    }
  }
}

}  // namespace
}  // namespace gp::solver
