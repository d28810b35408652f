// Unit tests for chain concretization: linkage constraints, POINTER
// redirection (base grouping, pinned addresses, write coverage), payload
// layout, and validation behavior.
#include <gtest/gtest.h>

#include "payload/payload.hpp"
#include "subsume/subsume.hpp"
#include "x86/encoder.hpp"

namespace gp::payload {
namespace {

using gadget::EndKind;
using gadget::Extractor;
using gadget::Library;
using x86::Assembler;
using x86::MemRef;
using x86::Mnemonic;
using x86::Reg;

struct Fixture {
  solver::Context ctx;
  image::Image img;
  Library lib;

  explicit Fixture(Assembler& a)
      : img(a.finish(), {}, image::kCodeBase), lib(extract()) {}

  Library extract() {
    Extractor ex(ctx, img);
    return Library(subsume::minimize(ctx, ex.extract()));
  }
  std::optional<u32> find(u64 addr, EndKind end) {
    for (u32 i = 0; i < lib.size(); ++i)
      if (lib[i].addr == addr && lib[i].end == end) return i;
    return std::nullopt;
  }
};

/// Image: pop gadgets for all execve registers + syscall, with known
/// addresses (each `pop r; ret` is 2-3 bytes).
Assembler classic() {
  Assembler a;
  a.pop(Reg::RAX);   // 0x400000
  a.ret();
  a.pop(Reg::RDI);   // 0x400002
  a.ret();
  a.pop(Reg::RSI);   // 0x400004
  a.ret();
  a.pop(Reg::RDX);   // 0x400006
  a.ret();
  a.syscall();       // 0x400008
  return a;
}

TEST(Concretize, PayloadLayoutIsChainOrder) {
  Assembler a = classic();
  Fixture f(a);
  const auto rax = f.find(0x400000, EndKind::Ret);
  const auto rdi = f.find(0x400002, EndKind::Ret);
  const auto rsi = f.find(0x400004, EndKind::Ret);
  const auto rdx = f.find(0x400006, EndKind::Ret);
  const auto sys = f.find(0x400008, EndKind::Syscall);
  ASSERT_TRUE(rax && rdi && rsi && rdx && sys);

  auto chain = concretize(f.ctx, f.lib, f.img,
                          {*rax, *rdi, *rsi, *rdx, *sys}, Goal::execve())
                   .chain;
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->entry, 0x400000u);

  auto slot = [&](size_t i) {
    u64 v = 0;
    for (int k = 0; k < 8; ++k)
      v |= static_cast<u64>(chain->payload[8 * i + k]) << (8 * k);
    return v;
  };
  // Layout: [59][&pop rdi][ptr][&pop rsi][0][&pop rdx][0][&syscall][/bin/sh]
  EXPECT_EQ(slot(0), 59u);
  EXPECT_EQ(slot(1), 0x400002u);
  EXPECT_EQ(slot(3), 0x400004u);
  EXPECT_EQ(slot(4), 0u);
  EXPECT_EQ(slot(5), 0x400006u);
  EXPECT_EQ(slot(6), 0u);
  EXPECT_EQ(slot(7), 0x400008u);
  // The pointer slot (2) aims at the /bin/sh bytes inside the payload.
  const u64 sh_addr = slot(2);
  const u64 base = image::kStackTop - 0x2000;
  ASSERT_GE(sh_addr, base);
  const size_t off = static_cast<size_t>(sh_addr - base);
  EXPECT_EQ(std::string(chain->payload.begin() + off,
                        chain->payload.begin() + off + 7),
            "/bin/sh");
}

TEST(Concretize, RejectsWrongOrderWhenValuesConflict) {
  // Chain ending before establishing rax: solver must refuse a sequence
  // whose composed final state contradicts the goal.
  Assembler a = classic();
  Fixture f(a);
  const auto rdi = f.find(0x400002, EndKind::Ret);
  const auto sys = f.find(0x400008, EndKind::Syscall);
  ASSERT_TRUE(rdi && sys);
  // rax/rsi/rdx never set: the solver may pick their initial values, but
  // validation randomizes uncontrolled registers, so the emulator run
  // refutes the payload.
  const auto r = concretize(f.ctx, f.lib, f.img, {*rdi, *sys}, Goal::execve());
  EXPECT_FALSE(r.chain.has_value());
  EXPECT_EQ(r.why, Refutation::ValidationFailed);
  EXPECT_EQ(r.mismatch_reg, Reg::NONE);  // no goal register was constant
}

TEST(Concretize, BlamesTheRegisterWhoseConstantContradictsTheGoal) {
  // mov rax, 60 composes to a constant that contradicts execve's rax = 59:
  // the solver refutes the sequence and the result names rax, which is
  // what the planner demotes.
  Assembler a;
  a.mov_imm(Reg::RAX, 60);  // 0x400000 (7 bytes)
  a.ret();
  a.pop(Reg::RDI);          // 0x400008
  a.ret();
  a.pop(Reg::RSI);          // 0x40000a
  a.ret();
  a.pop(Reg::RDX);          // 0x40000c
  a.ret();
  a.syscall();              // 0x40000e
  Fixture f(a);
  const auto rax = f.find(0x400000, EndKind::Ret);
  const auto rdi = f.find(0x400008, EndKind::Ret);
  const auto rsi = f.find(0x40000a, EndKind::Ret);
  const auto rdx = f.find(0x40000c, EndKind::Ret);
  const auto sys = f.find(0x40000e, EndKind::Syscall);
  ASSERT_TRUE(rax && rdi && rsi && rdx && sys);

  const auto r = concretize(f.ctx, f.lib, f.img,
                            {*rax, *rdi, *rsi, *rdx, *sys}, Goal::execve());
  EXPECT_FALSE(r.chain.has_value());
  EXPECT_EQ(r.why, Refutation::Unsat);
  EXPECT_EQ(r.mismatch_reg, Reg::RAX);
}

TEST(Concretize, PointerRedirectionThroughPoppedRegister) {
  // pop rbp; ret  +  mov rax, [rbp-16]; ret  — the POINTER pattern: the
  // planner-style sequence must aim rbp into the payload and place rax's
  // value there.
  Assembler a;
  a.pop(Reg::RBP);  // 0x400000
  a.ret();
  a.mov_load(Reg::RAX, MemRef{.base = Reg::RBP, .disp = -16});  // 0x400002
  a.ret();
  a.pop(Reg::RDI);  // +? find below
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  a.syscall();
  Fixture f(a);

  std::optional<u32> pop_rbp = f.find(0x400000, EndKind::Ret);
  std::optional<u32> mov_rax, pop_rdi, pop_rsi, pop_rdx, sys;
  for (u32 i = 0; i < f.lib.size(); ++i) {
    const auto& g = f.lib[i];
    if (g.end == EndKind::Syscall && g.clobbered == 0) sys = i;
    if (g.end != EndKind::Ret || g.n_insts != 2) continue;
    if (!g.ind_reads.empty() && g.can_set(Reg::RAX)) mov_rax = i;
    if (g.controls(Reg::RDI)) pop_rdi = i;
    if (g.controls(Reg::RSI)) pop_rsi = i;
    if (g.controls(Reg::RDX)) pop_rdx = i;
  }
  ASSERT_TRUE(pop_rbp && mov_rax && pop_rdi && pop_rsi && pop_rdx && sys);

  auto chain = concretize(
      f.ctx, f.lib, f.img,
      {*pop_rbp, *mov_rax, *pop_rdi, *pop_rsi, *pop_rdx, *sys},
      Goal::execve()).chain;
  ASSERT_TRUE(chain.has_value());
  // Validation inside concretize already proved rax becomes 59 through the
  // redirected pointer; double-check independently.
  EXPECT_TRUE(validate(f.img, *chain, Goal::execve(),
                       image::kStackTop - 0x2000, 424242));
}

TEST(Concretize, GroupedReadsShareOneRegion) {
  // Two reads through the same base with fixed relative offsets must land
  // in one region (offset arithmetic preserved).
  Assembler a;
  a.pop(Reg::RBP);
  a.ret();
  // rax = [rbp-16] + [rbp-32]  (both through rbp)
  a.mov_load(Reg::RAX, MemRef{.base = Reg::RBP, .disp = -16});
  a.mov_load(Reg::RCX, MemRef{.base = Reg::RBP, .disp = -32});
  a.alu(Mnemonic::ADD, Reg::RAX, Reg::RCX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  a.syscall();
  Fixture f(a);

  std::optional<u32> pop_rbp, sum_rax, pop_rdi, pop_rsi, pop_rdx, sys;
  for (u32 i = 0; i < f.lib.size(); ++i) {
    const auto& g = f.lib[i];
    if (g.end == EndKind::Syscall && g.clobbered == 0) sys = i;
    if (g.end != EndKind::Ret) continue;
    if (g.ind_reads.size() == 2 && g.can_set(Reg::RAX)) sum_rax = i;
    if (g.n_insts != 2) continue;
    if (g.controls(Reg::RBP)) pop_rbp = i;
    if (g.controls(Reg::RDI)) pop_rdi = i;
    if (g.controls(Reg::RSI)) pop_rsi = i;
    if (g.controls(Reg::RDX)) pop_rdx = i;
  }
  ASSERT_TRUE(pop_rbp && sum_rax && pop_rdi && pop_rsi && pop_rdx && sys);

  auto chain = concretize(
      f.ctx, f.lib, f.img,
      {*pop_rbp, *sum_rax, *pop_rdi, *pop_rsi, *pop_rdx, *sys},
      Goal::execve()).chain;
  ASSERT_TRUE(chain.has_value()) << "grouped POINTER reads must be solvable";
}

TEST(Concretize, StatsAccounting) {
  Assembler a = classic();
  Fixture f(a);
  const auto rax = f.find(0x400000, EndKind::Ret);
  const auto rdi = f.find(0x400002, EndKind::Ret);
  const auto rsi = f.find(0x400004, EndKind::Ret);
  const auto rdx = f.find(0x400006, EndKind::Ret);
  const auto sys = f.find(0x400008, EndKind::Syscall);
  const auto r = concretize(f.ctx, f.lib, f.img,
                            {*rax, *rdi, *rsi, *rdx, *sys}, Goal::execve());
  ASSERT_TRUE(r.chain.has_value());
  EXPECT_EQ(r.why, Refutation::None);
  EXPECT_EQ(r.mismatch_reg, Reg::NONE);
}

TEST(Concretize, PayloadSizeLimit) {
  Assembler a = classic();
  a.alu_imm(Mnemonic::ADD, Reg::RSP, 0x1400);  // 0x40000a: a 5 KiB frame
  a.pop(Reg::RDI);
  a.ret();
  Fixture f(a);
  const auto rax = f.find(0x400000, EndKind::Ret);
  const auto far_rdi = f.find(0x40000a, EndKind::Ret);
  const auto rsi = f.find(0x400004, EndKind::Ret);
  const auto rdx = f.find(0x400006, EndKind::Ret);
  const auto sys = f.find(0x400008, EndKind::Syscall);
  ASSERT_TRUE(far_rdi.has_value());
  // rdi's slot lies past kMaxPayload bytes of stack: must refuse.
  const auto r = concretize(f.ctx, f.lib, f.img,
                            {*rax, *far_rdi, *rsi, *rdx, *sys},
                            Goal::execve());
  EXPECT_FALSE(r.chain.has_value());
  EXPECT_EQ(r.why, Refutation::TooBig);
}

TEST(Validate, ChecksRegisterFileAndPointerBytes) {
  Assembler a = classic();
  Fixture f(a);
  const auto rax = f.find(0x400000, EndKind::Ret);
  const auto rdi = f.find(0x400002, EndKind::Ret);
  const auto rsi = f.find(0x400004, EndKind::Ret);
  const auto rdx = f.find(0x400006, EndKind::Ret);
  const auto sys = f.find(0x400008, EndKind::Syscall);
  auto chain = concretize(f.ctx, f.lib, f.img,
                          {*rax, *rdi, *rsi, *rdx, *sys}, Goal::execve())
                   .chain;
  ASSERT_TRUE(chain.has_value());

  // Valid against its own goal, invalid against a different goal.
  EXPECT_TRUE(validate(f.img, *chain, Goal::execve(),
                       image::kStackTop - 0x2000, 7));
  EXPECT_FALSE(validate(f.img, *chain, Goal::mprotect(),
                        image::kStackTop - 0x2000, 7));
  // Wrong entry address: dies immediately.
  Chain broken = *chain;
  broken.entry = 0x123;
  EXPECT_FALSE(validate(f.img, broken, Goal::execve(),
                        image::kStackTop - 0x2000, 7));
}

}  // namespace
}  // namespace gp::payload
