#include <gtest/gtest.h>

#include "gadget/gadget.hpp"
#include "subsume/subsume.hpp"
#include "x86/encoder.hpp"

namespace gp::gadget {
namespace {

using solver::Context;
using x86::Assembler;
using x86::Cond;
using x86::MemRef;
using x86::Mnemonic;
using x86::Reg;

image::Image make_image(Assembler& a) {
  return image::Image(a.finish(), {}, image::kCodeBase);
}

std::vector<Record> extract(const image::Image& img, Context& ctx,
                            int threads = 1) {
  Extractor ex(ctx, img);
  return ex.extract(nullptr, threads);
}

/// Does `a` imply `b` under every assignment? ({a, !b} is UNSAT.)
bool proven_implies(Context& ctx, solver::Solver& s, solver::ExprRef a,
                    solver::ExprRef b) {
  return s.check(std::vector{a, ctx.bnot(b)}) == solver::SatResult::Unsat;
}

/// Find a gadget whose recorded start address equals `addr`.
const Record* at(const std::vector<Record>& pool, u64 addr,
                 EndKind end = EndKind::Ret) {
  for (const Record& r : pool)
    if (r.addr == addr && r.end == end) return &r;
  return nullptr;
}

TEST(Extractor, FindsPopRet) {
  Assembler a;
  a.nop();            // +0
  a.pop(Reg::RDI);    // +1
  a.ret();            // +2
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);

  const Record* g = at(pool, image::kCodeBase + 1);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->end, EndKind::Ret);
  EXPECT_EQ(g->n_insts, 2);
  EXPECT_TRUE(g->controls(Reg::RDI));
  EXPECT_TRUE(g->clobbers(Reg::RDI));
  EXPECT_TRUE(g->clobbers(Reg::RSP));
  EXPECT_FALSE(g->controls(Reg::RAX));
  ASSERT_TRUE(g->stack_delta.has_value());
  EXPECT_EQ(*g->stack_delta, 16);  // pop + ret
  // rdi := stk_0.
  EXPECT_EQ(ctx.to_string(g->final_regs[static_cast<int>(Reg::RDI)]),
            "stk_0");
}

TEST(Extractor, UnalignedGadgetsDiscovered) {
  // movabs whose immediate contains 5f c3 (pop rdi; ret).
  Assembler a;
  a.emit({.mnemonic = Mnemonic::MOVABS, .dst = x86::Operand::r(Reg::RAX),
          .src = x86::Operand::i(static_cast<i64>(0x0000C35F00000000ULL)),
          .size = 64});
  a.ret();
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);
  bool found = false;
  for (const Record& r : pool)
    found |= r.controls(Reg::RDI) && r.end == EndKind::Ret;
  EXPECT_TRUE(found);
}

TEST(Extractor, SyscallGadget) {
  Assembler a;
  a.pop(Reg::RAX);
  a.syscall();
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);
  const Record* g = at(pool, image::kCodeBase, EndKind::Syscall);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->controls(Reg::RAX));
  Library lib(pool);
  EXPECT_FALSE(lib.syscalls().empty());
}

TEST(Extractor, IndirectJumpGadget) {
  Assembler a;
  a.pop(Reg::RSI);
  a.jmp_reg(Reg::RAX);
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);
  const Record* g = at(pool, image::kCodeBase, EndKind::IndJmp);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->controls(Reg::RSI));
  // Transfer target is the (unclobbered) initial rax.
  EXPECT_EQ(ctx.to_string(g->next_rip), "rax0");
}

TEST(Extractor, DirectJumpMerging) {
  // pop rdx; jmp L; ...junk...; L: pop rsi; ret  — one merged gadget.
  Assembler a;
  auto l = a.new_label();
  a.pop(Reg::RDX);
  a.jmp(l);
  a.int3();
  a.int3();
  a.bind(l);
  a.pop(Reg::RSI);
  a.ret();
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);
  const Record* g = at(pool, image::kCodeBase);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->has_direct_jump);
  EXPECT_TRUE(g->controls(Reg::RDX));
  EXPECT_TRUE(g->controls(Reg::RSI));
  ASSERT_TRUE(g->stack_delta.has_value());
  EXPECT_EQ(*g->stack_delta, 24);
}

TEST(Extractor, ConditionalJumpBecomesPrecondition) {
  // Fig. 4(b): the not-taken path requires the condition to be false.
  // cmp rdx, rbx; jne trap; pop rax; ret
  Assembler a;
  auto trap = a.new_label();
  a.alu(Mnemonic::CMP, Reg::RDX, Reg::RBX);
  a.jcc(Cond::NE, trap);
  a.pop(Reg::RAX);
  a.ret();
  a.bind(trap);
  a.int3();
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);

  const Record* g = at(pool, image::kCodeBase);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->has_cond_jump);
  EXPECT_TRUE(g->controls(Reg::RAX));
  ASSERT_FALSE(g->precond.empty());
  // The precondition must hold exactly when rdx0 == rbx0.
  solver::Solver s(ctx);
  solver::ExprRef pre = ctx.t();
  for (auto c : g->precond) pre = ctx.band(pre, c);
  const auto eq =
      ctx.eq(ctx.var("rdx0", 64), ctx.var("rbx0", 64));
  EXPECT_TRUE(proven_implies(ctx, s, pre, eq));
  EXPECT_TRUE(proven_implies(ctx, s, eq, pre));
}

TEST(Extractor, TakenBranchVariantAlsoEmitted) {
  // Fig. 4(c): the taken path is a separate gadget variant whose
  // precondition requires the jump condition to be TRUE.
  // test rcx, rcx; je L; int3; L: pop rbx; ret
  Assembler a;
  auto l = a.new_label();
  a.alu(Mnemonic::TEST, Reg::RCX, Reg::RCX);
  a.jcc(Cond::E, l);
  a.int3();
  a.bind(l);
  a.pop(Reg::RBX);
  a.ret();
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);

  bool found_taken = false;
  for (const Record& r : pool) {
    if (r.addr != image::kCodeBase || !r.has_cond_jump) continue;
    if (!r.controls(Reg::RBX)) continue;
    // Precondition should force rcx0 == 0.
    solver::Solver s(ctx);
    solver::ExprRef pre = ctx.t();
    for (auto c : r.precond) pre = ctx.band(pre, c);
    if (proven_implies(ctx, s, pre,
                       ctx.eq(ctx.var("rcx0", 64), ctx.constant(0, 64))))
      found_taken = true;
  }
  EXPECT_TRUE(found_taken);
}

TEST(Extractor, MidPathDecodeFailureCounted) {
  // nop; <undecodable 0x06>. Offset 0 decodes the nop and then walks into
  // the bad byte (mid-path failure); offset 1 fails at the first
  // instruction. Both must show up in decode_failures so the stat
  // reconciles with offsets_scanned.
  image::Image img({0x90, 0x06}, {}, image::kCodeBase);
  Context ctx;
  Extractor ex(ctx, img);
  auto pool = ex.extract();
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(ex.stats().offsets_scanned, 2u);
  EXPECT_EQ(ex.stats().decode_failures, 2u);
}

TEST(Extractor, StatsPopulated) {
  Assembler a;
  for (int i = 0; i < 4; ++i) {
    a.pop(static_cast<Reg>(i));
    a.ret();
  }
  auto img = make_image(a);
  Context ctx;
  Extractor ex(ctx, img);
  auto pool = ex.extract();
  EXPECT_EQ(ex.stats().offsets_scanned, img.code().size());
  EXPECT_GT(ex.stats().gadgets, 0u);
  EXPECT_EQ(ex.stats().gadgets, pool.size());
}

TEST(Extractor, DecodeCacheSlotAliasing) {
  // Instructions 1024 bytes apart share a slot of the extractor's decode
  // cache. Three merged runs alias slot by slot:
  //   +0:    pop rdi; jmp +1024
  //   +1024: pop rsi; ret
  //   +2048: pop rdx; jmp +0
  // so the path from +2048 evicts and refills the same two slots three
  // times over.
  Assembler a;
  const auto head = a.new_label();
  const auto mid = a.new_label();
  a.bind(head);
  a.pop(Reg::RDI);
  a.jmp(mid);
  while (a.size() < 1024) a.int3();
  a.bind(mid);
  a.pop(Reg::RSI);
  a.ret();
  while (a.size() < 2048) a.int3();
  a.pop(Reg::RDX);
  a.jmp(head);
  a.int3();
  auto img = make_image(a);

  const auto mnemonics = [](const Record& r) {
    std::vector<Mnemonic> m;
    for (const PathStep& s : r.path) m.push_back(s.inst.mnemonic);
    return m;
  };
  using M = Mnemonic;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Context ctx;
    auto pool = extract(img, ctx, threads);

    const Record* tail = at(pool, image::kCodeBase + 1024);
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->n_insts, 2);
    EXPECT_EQ(mnemonics(*tail), (std::vector<M>{M::POP, M::RET}));

    const Record* g = at(pool, image::kCodeBase);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->n_insts, 4);
    EXPECT_EQ(mnemonics(*g), (std::vector<M>{M::POP, M::JMP, M::POP, M::RET}));
    EXPECT_EQ(g->path[2].inst.addr, image::kCodeBase + 1024);

    const Record* far = at(pool, image::kCodeBase + 2048);
    ASSERT_NE(far, nullptr);
    EXPECT_EQ(far->n_insts, 6);
    EXPECT_EQ(mnemonics(*far), (std::vector<M>{M::POP, M::JMP, M::POP, M::JMP,
                                               M::POP, M::RET}));
    EXPECT_EQ(far->path[2].inst.addr, image::kCodeBase);
    EXPECT_EQ(far->path[4].inst.addr, image::kCodeBase + 1024);
    EXPECT_TRUE(far->controls(Reg::RDX));
    EXPECT_TRUE(far->controls(Reg::RDI));
    EXPECT_TRUE(far->controls(Reg::RSI));
    ASSERT_TRUE(far->stack_delta.has_value());
    EXPECT_EQ(*far->stack_delta, 32);
  }
}

TEST(Library, IndexedByControlledRegister) {
  Assembler a;
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.syscall();
  auto img = make_image(a);
  Context ctx;
  Library lib(extract(img, ctx));
  EXPECT_FALSE(lib.controlling(Reg::RDI).empty());
  EXPECT_FALSE(lib.controlling(Reg::RSI).empty());
  EXPECT_TRUE(lib.controlling(Reg::R15).empty());
  for (const u32 i : lib.controlling(Reg::RDI))
    EXPECT_TRUE(lib[i].controls(Reg::RDI));
}

// ---------------------------------------------------------------------------
// Subsumption
// ---------------------------------------------------------------------------

TEST(Subsumption, EquivalentGadgetsCollapse) {
  // Two byte-identical pop rax; ret gadgets at different addresses.
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.nop();
  a.pop(Reg::RAX);
  a.ret();
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);

  size_t pop_rax_before = 0;
  for (const Record& r : pool)
    if (r.controls(Reg::RAX) && r.end == EndKind::Ret && r.n_insts == 2)
      ++pop_rax_before;
  EXPECT_GE(pop_rax_before, 2u);

  subsume::Stats st;
  auto kept = subsume::minimize(ctx, pool, &st);
  size_t pop_rax_after = 0;
  for (const Record& r : kept)
    if (r.controls(Reg::RAX) && r.end == EndKind::Ret && r.n_insts == 2)
      ++pop_rax_after;
  EXPECT_EQ(pop_rax_after, 1u);
  EXPECT_EQ(st.input, pool.size());
  EXPECT_EQ(st.kept, kept.size());
  EXPECT_GT(st.removed, 0u);
}

TEST(Subsumption, LooserPreconditionSubsumes) {
  // g1: pop rax; ret               (no precondition)
  // g2: cmp rdx,rbx; jne trap; pop rax; ret  (requires rdx0 == rbx0)
  // g1 subsumes g2 but g2 must NOT subsume g1.
  Context ctx;
  Assembler a1;
  a1.pop(Reg::RAX);
  a1.ret();
  auto img1 = make_image(a1);
  auto p1 = extract(img1, ctx);
  const Record* g1 = at(p1, image::kCodeBase);
  ASSERT_NE(g1, nullptr);

  Assembler a2;
  auto trap = a2.new_label();
  a2.alu(Mnemonic::CMP, Reg::RDX, Reg::RBX);
  a2.jcc(Cond::NE, trap);
  a2.pop(Reg::RAX);
  a2.ret();
  a2.bind(trap);
  a2.int3();
  auto img2 = make_image(a2);
  auto p2 = extract(img2, ctx);
  const Record* g2 = nullptr;
  for (const Record& r : p2)
    if (r.addr == image::kCodeBase && r.has_cond_jump &&
        r.controls(Reg::RAX))
      g2 = &r;
  ASSERT_NE(g2, nullptr);

  solver::Solver s(ctx);
  // Post-states differ in the flags... registers and transfers match:
  EXPECT_EQ(subsume::subsumes(ctx, s, *g1, *g2), subsume::Verdict::Yes);
  EXPECT_EQ(subsume::subsumes(ctx, s, *g2, *g1), subsume::Verdict::No);
}

TEST(Subsumption, DifferentFunctionalityKept) {
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RBX);
  a.ret();
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);
  auto kept = subsume::minimize(ctx, pool);
  bool rax = false, rbx = false;
  for (const Record& r : kept) {
    rax |= r.controls(Reg::RAX);
    rbx |= r.controls(Reg::RBX);
  }
  EXPECT_TRUE(rax);
  EXPECT_TRUE(rbx);
}

TEST(Subsumption, BudgetExhaustionShortCircuitsToStructural) {
  // One bucket with three gadgets: an unconditional pop rax; ret plus two
  // conditional variants with distinct preconditions. Each non-identical
  // pair costs one unit of the solver-check budget, so a budget of 1 runs
  // out after the first candidate and the rest of the bucket must be
  // winnowed structurally (kept, sound) with budget_exhausted recorded.
  Context ctx;
  Assembler a1;
  a1.pop(Reg::RAX);
  a1.ret();
  auto img1 = make_image(a1);
  auto p1 = extract(img1, ctx);
  const Record* g1 = at(p1, image::kCodeBase);
  ASSERT_NE(g1, nullptr);

  auto make_cond = [&](Reg lhs, Reg rhs) {
    Assembler a;
    auto trap = a.new_label();
    a.alu(Mnemonic::CMP, lhs, rhs);
    a.jcc(Cond::NE, trap);
    a.pop(Reg::RAX);
    a.ret();
    a.bind(trap);
    a.int3();
    auto img = make_image(a);
    auto p = extract(img, ctx);
    for (const Record& r : p)
      if (r.addr == image::kCodeBase && r.has_cond_jump &&
          r.controls(Reg::RAX))
        return r;
    ADD_FAILURE() << "conditional gadget not extracted";
    return Record{};
  };
  std::vector<Record> pool = {*g1, make_cond(Reg::RDX, Reg::RBX),
                              make_cond(Reg::RCX, Reg::RSI)};

  // Ample budget: both conditional gadgets are subsumed by g1.
  subsume::Stats full;
  auto kept = subsume::minimize(ctx, pool, &full);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_EQ(full.solver_checks, 2u);

  // Budget of 1: the first conditional gadget consumes it; the second is
  // kept without polling the budget again.
  subsume::Stats st;
  kept = subsume::minimize(ctx, pool, &st, /*max_solver_checks=*/1);
  EXPECT_EQ(kept.size(), 2u);
  EXPECT_TRUE(st.budget_exhausted);
  EXPECT_EQ(st.solver_checks, 1u);

  // Budget of 0: structural-only from the start; never "exhausted".
  subsume::Stats zero;
  kept = subsume::minimize(ctx, pool, &zero, /*max_solver_checks=*/0);
  EXPECT_EQ(kept.size(), 3u);
  EXPECT_FALSE(zero.budget_exhausted);
  EXPECT_EQ(zero.solver_checks, 0u);
}

TEST(Subsumption, PreservesCapability) {
  // Pool-wide property: after minimize, every controlled register that was
  // controllable before is still controllable.
  Assembler a;
  for (int r = 0; r < 8; ++r) {
    a.pop(static_cast<Reg>(r));
    a.ret();
    a.pop(static_cast<Reg>(r));
    a.nop();
    a.ret();
  }
  auto img = make_image(a);
  Context ctx;
  auto pool = extract(img, ctx);
  RegMask before = 0, after = 0;
  for (const Record& r : pool) before |= r.controlled;
  auto kept = subsume::minimize(ctx, pool);
  for (const Record& r : kept) after |= r.controlled;
  EXPECT_EQ(before, after);
  EXPECT_LT(kept.size(), pool.size());
}

}  // namespace
}  // namespace gp::gadget
