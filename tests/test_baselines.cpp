#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "subsume/subsume.hpp"
#include "x86/encoder.hpp"

namespace gp::baselines {
namespace {

using payload::Goal;
using x86::Assembler;
using x86::Cond;
using x86::Mnemonic;
using x86::Reg;

image::Image classic_image() {
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  a.syscall();
  return image::Image(a.finish(), {}, image::kCodeBase);
}

gadget::Library make_library(solver::Context& ctx, const image::Image& img) {
  gadget::Extractor ex(ctx, img);
  return gadget::Library(subsume::minimize(ctx, ex.extract()));
}

TEST(RopGadget, FindsTemplateChain) {
  auto img = classic_image();
  auto r = rop_gadget(img, Goal::execve());
  EXPECT_GT(r.gadgets_total, 4u);
  ASSERT_EQ(r.chains.size(), 1u);
  EXPECT_EQ(r.chains[0].ret_gadgets, 4);
  // The chain it emits really works.
  EXPECT_TRUE(payload::validate(img, r.chains[0], Goal::execve(),
                                image::kStackTop - 0x2000, 99));
}

TEST(RopGadget, FailsWhenOnePatternMissing) {
  // Same image minus `pop rdx; ret`: the whole search fails (the paper's
  // central criticism).
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.syscall();
  image::Image img(a.finish(), {}, image::kCodeBase);
  auto r = rop_gadget(img, Goal::execve());
  EXPECT_TRUE(r.chains.empty());
  EXPECT_GT(r.gadgets_total, 0u);  // it still COUNTS gadgets fine
}

TEST(RopGadget, IgnoresSemanticallyEquivalentVariants) {
  // `pop rdx; nop; ret` works like `pop rdx; ret`, but the template matcher
  // does not accept it.
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.nop();
  a.ret();
  a.syscall();
  image::Image img(a.finish(), {}, image::kCodeBase);
  EXPECT_TRUE(rop_gadget(img, Goal::execve()).chains.empty());
}

TEST(Angrop, AcceptsEquivalentVariantsViaSemantics) {
  // The variant ROPGadget rejects is fine for the semantic matcher.
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.nop();
  a.ret();
  a.syscall();
  image::Image img(a.finish(), {}, image::kCodeBase);
  solver::Context ctx;
  auto lib = make_library(ctx, img);
  auto r = angrop(ctx, lib, img, Goal::execve());
  ASSERT_EQ(r.chains.size(), 1u);
}

TEST(Angrop, RejectsConditionalGadgets) {
  // rsi only settable through a conditional gadget: angrop fails where
  // Gadget-Planner succeeds (tests/test_planner.cpp proves the latter).
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  auto trap = a.new_label();
  a.pop(Reg::RSI);
  a.alu(Mnemonic::TEST, Reg::RAX, Reg::RAX);
  a.jcc(Cond::NE, trap);
  a.ret();
  a.bind(trap);
  a.int3();
  a.syscall();
  image::Image img(a.finish(), {}, image::kCodeBase);
  solver::Context ctx;
  auto lib = make_library(ctx, img);
  EXPECT_TRUE(angrop(ctx, lib, img, Goal::execve()).chains.empty());
}

TEST(Sgc, UsesIndirectJumpsButNotConditionals) {
  // rsi settable only via a JOP gadget: SGC succeeds (indirect allowed)...
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  a.pop(Reg::RSI);
  a.jmp_reg(Reg::RAX);
  a.syscall();
  image::Image img(a.finish(), {}, image::kCodeBase);
  solver::Context ctx;
  auto lib = make_library(ctx, img);
  auto r = sgc(ctx, lib, img, Goal::execve());
  EXPECT_FALSE(r.chains.empty());

  // ...but a conditional-only rsi defeats it.
  Assembler b;
  b.pop(Reg::RAX);
  b.ret();
  b.pop(Reg::RDI);
  b.ret();
  b.pop(Reg::RDX);
  b.ret();
  auto trap = b.new_label();
  b.pop(Reg::RSI);
  b.alu(Mnemonic::TEST, Reg::RAX, Reg::RAX);
  b.jcc(Cond::NE, trap);
  b.ret();
  b.bind(trap);
  b.int3();
  b.syscall();
  image::Image img2(b.finish(), {}, image::kCodeBase);
  solver::Context ctx2;
  auto lib2 = make_library(ctx2, img2);
  EXPECT_TRUE(sgc(ctx2, lib2, img2, Goal::execve()).chains.empty());
}

TEST(AllBaselines, ChainOnClassicImage) {
  auto img = classic_image();
  solver::Context ctx;
  auto lib = make_library(ctx, img);
  EXPECT_EQ(rop_gadget(img, Goal::execve()).chains.size(), 1u);
  EXPECT_EQ(angrop(ctx, lib, img, Goal::execve()).chains.size(), 1u);
  EXPECT_FALSE(sgc(ctx, lib, img, Goal::execve()).chains.empty());
}

TEST(AllBaselines, MmapNeedsExtendedRegisters) {
  // mmap needs r10/r8/r9; the classic image lacks their pops.
  auto img = classic_image();
  solver::Context ctx;
  auto lib = make_library(ctx, img);
  EXPECT_TRUE(rop_gadget(img, Goal::mmap()).chains.empty());
  EXPECT_TRUE(angrop(ctx, lib, img, Goal::mmap()).chains.empty());
}

}  // namespace
}  // namespace gp::baselines
