#include <gtest/gtest.h>

#include <functional>

#include "codegen/codegen.hpp"
#include "emu/emu.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "solver/solver.hpp"

namespace gp::obf {
namespace {

struct Outcome {
  u64 exit_status;
  std::string output;
  u64 steps;
  size_t code_size;
};

Outcome run(const cfg::Program& prog, u64 max_steps = 30'000'000) {
  auto img = codegen::compile(prog);
  emu::Emulator e(img);
  auto r = e.run(max_steps);
  EXPECT_EQ(r.reason, emu::StopReason::Exit)
      << emu::stop_reason_name(r.reason) << " at " << img.symbolize(r.rip);
  return {r.exit_status, e.output_str(), r.steps, img.code().size()};
}

/// Apply `transform` and check the transformed program behaves
/// identically; `label` names it in failure messages.
void check_preserves(const std::string& src,
                     const std::function<void(cfg::Program&)>& transform,
                     const std::string& label, bool expect_growth = true) {
  auto base = minic::compile_source(src);
  auto obf = minic::compile_source(src);
  transform(obf);
  const Outcome a = run(base);
  const Outcome b = run(obf);
  EXPECT_EQ(a.exit_status, b.exit_status) << label;
  EXPECT_EQ(a.output, b.output) << label;
  if (expect_growth) {
    EXPECT_GT(b.code_size, a.code_size) << label;
  }
}

/// Apply `opts` and check the obfuscated program behaves identically.
void check_preserves(const std::string& src, const Options& opts,
                     bool expect_growth = true) {
  check_preserves(
      src, [&](cfg::Program& p) { obfuscate(p, opts); }, opts.name(),
      expect_growth);
}

/// Bogus control flow on every block (obfuscate() instruments half).
void bogus_cf_everywhere(cfg::Program& prog, u64 seed) {
  Rng rng(seed);
  pass_bogus_cf(prog, rng, 1.0);
  cfg::verify(prog);
}

const char* kPrograms[] = {
    // Arithmetic mix.
    R"(int main() {
      int i = 1; int acc = 7;
      while (i < 40) {
        acc = acc * 3 + (i ^ acc) - (i & 0x5f) + (acc | i);
        acc = acc ^ (acc >> 5);
        i = i + 1;
      }
      out(acc);
      return acc & 0xffff;
    })",
    // Arrays + nested control flow.
    R"(int a[16];
    int main() {
      int i = 0;
      while (i < 16) { a[i] = (i * 37) & 0x3f; i = i + 1; }
      int j = 0; int best = 0;
      while (j < 16) {
        if (a[j] > best) { best = a[j]; } else { if (a[j] == 7) { best = best + 1; } }
        j = j + 1;
      }
      out(best);
      return best;
    })",
    // Functions + recursion.
    R"(int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int twice(int x) { return x + x; }
    int main() { out(fib(12)); return twice(fib(10)) + 1; })",
    // Byte arrays / string handling.
    R"(byte buf[32];
    int main() {
      int s = "hello world";
      int i = 0;
      while (loadb(s + i) != 0) { buf[i] = loadb(s + i) ^ 0x20; i = i + 1; }
      int sum = 0; int j = 0;
      while (j < i) { sum = sum + buf[j]; j = j + 1; }
      out(sum);
      return sum & 0xff;
    })",
    // Globals and logic operators.
    R"(int g = 3; int h;
    int check(int v) { return v > 2 && v < 100 || v == 0; }
    int main() {
      h = g * 14;
      if (check(h)) { g = g + h; }
      out(g); out(h);
      return g;
    })",
};

class PreservationTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PreservationTest, ObfuscationPreservesSemantics) {
  const auto [prog_idx, config] = GetParam();
  Options opts;
  switch (config) {
    case 0: opts = Options{.substitution = true}; break;
    case 1: opts = Options{.bogus_cf = true}; break;
    case 2: opts = Options{.flatten = true}; break;
    case 3: opts = Options{.encode_data = true}; break;
    case 4: opts = Options{.virtualize = true}; break;
    case 5: opts = Options::llvm_obf(); break;
    case 6: opts = Options::tigress(); break;
  }
  opts.seed = 17 + prog_idx;
  check_preserves(kPrograms[prog_idx], opts);
}

std::string preservation_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* names[] = {"sub",  "bcf",  "fla",    "enc",
                                "virt", "llvm", "tigress"};
  return "p" + std::to_string(std::get<0>(info.param)) + "_" +
         names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllProgramsAllConfigs, PreservationTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 7)),
    preservation_name);

TEST(Obfuscate, SeedsAreDeterministic) {
  auto p1 = minic::compile_source(kPrograms[0]);
  auto p2 = minic::compile_source(kPrograms[0]);
  obfuscate(p1, Options::llvm_obf(42));
  obfuscate(p2, Options::llvm_obf(42));
  EXPECT_EQ(cfg::to_string(p1), cfg::to_string(p2));
}

TEST(Obfuscate, DifferentSeedsDiffer) {
  auto p1 = minic::compile_source(kPrograms[0]);
  auto p2 = minic::compile_source(kPrograms[0]);
  obfuscate(p1, Options::llvm_obf(1));
  obfuscate(p2, Options::llvm_obf(2));
  EXPECT_NE(cfg::to_string(p1), cfg::to_string(p2));
}

TEST(Obfuscate, CodeSizeRoughlyDoublesUnderLlvmObf) {
  // The paper: "after Obfuscator LLVM obfuscation, the code size expands
  // twice as large as the original program".
  auto base = minic::compile_source(kPrograms[1]);
  auto obf = minic::compile_source(kPrograms[1]);
  obfuscate(obf, Options::llvm_obf(5));
  const size_t a = codegen::compile(base).code().size();
  const size_t b = codegen::compile(obf).code().size();
  EXPECT_GE(b, a * 3 / 2);  // at least 1.5x; typically ~2-4x
}

TEST(Obfuscate, FlattenIntroducesSwitchDispatch) {
  auto prog = minic::compile_source(kPrograms[2]);
  obfuscate(prog, Options{.flatten = true, .seed = 3});
  bool has_switch = false;
  for (const auto& f : prog.functions)
    for (const auto& b : f.blocks)
      has_switch |= b.term.kind == cfg::Terminator::Kind::Switch;
  EXPECT_TRUE(has_switch);
}

TEST(Obfuscate, VirtualizeReplacesBodiesWithInterpreter) {
  auto base = minic::compile_source(kPrograms[2]);
  auto prog = minic::compile_source(kPrograms[2]);
  obfuscate(prog, Options{.virtualize = true, .seed = 3});
  // Bytecode landed in the data section.
  EXPECT_GT(prog.data.size(), base.data.size() + 64);
  // Every function dispatches through a Switch.
  for (const auto& f : prog.functions) {
    bool has_switch = false;
    for (const auto& b : f.blocks)
      has_switch |= b.term.kind == cfg::Terminator::Kind::Switch;
    EXPECT_TRUE(has_switch) << f.name;
  }
}

TEST(Obfuscate, BogusBlocksNeverExecute) {
  // Instrument every block; output must still match.
  const auto transform = [](cfg::Program& p) { bogus_cf_everywhere(p, 9); };
  check_preserves(kPrograms[0], transform, "bcf on every block");
  check_preserves(kPrograms[3], transform, "bcf on every block");
}

TEST(Obfuscate, SubstitutionRoundsCompound) {
  const auto three_rounds = [](cfg::Program& p) {
    Rng rng(4);
    pass_substitution(p, rng, 3);
    cfg::verify(p);
  };
  check_preserves(kPrograms[0], three_rounds, "sub x3");
  auto base = minic::compile_source(kPrograms[0]);
  auto obf = minic::compile_source(kPrograms[0]);
  three_rounds(obf);
  const size_t a = codegen::compile(base).code().size();
  const size_t b = codegen::compile(obf).code().size();
  EXPECT_GT(b, a * 3);  // three rounds blow up arithmetic heavily
}

TEST(Obfuscate, OpaquePredicateFamiliesAreValid) {
  // Prove each predicate family is a tautology over all 64-bit values —
  // the guarantee the obfuscator's correctness rests on.
  solver::Context ctx;
  solver::Solver s(ctx);
  // Valid: the negation has no satisfying assignment.
  auto valid = [&](solver::ExprRef e) {
    return s.check(std::vector{ctx.bnot(e)}) == solver::SatResult::Unsat;
  };
  const auto x = ctx.var("x", 64);
  const auto zero = ctx.constant(0, 64);
  const auto one = ctx.constant(1, 64);
  const auto two = ctx.constant(2, 64);
  // (x*x + x) & 1 == 0
  EXPECT_TRUE(valid(
      ctx.eq(ctx.band(ctx.add(ctx.mul(x, x), x), one), zero)));
  // (x & 1) < 2
  EXPECT_TRUE(valid(ctx.ult(ctx.band(x, one), two)));
  // ((x | 1) & 1) == 1
  EXPECT_TRUE(valid(
      ctx.eq(ctx.band(ctx.bor(x, one), one), ctx.constant(1, 64))));
  // (x*x*x - x) & 1 == 0
  EXPECT_TRUE(valid(ctx.eq(
      ctx.band(ctx.sub(ctx.mul(ctx.mul(x, x), x), x), one), zero)));
}

TEST(Obfuscate, BogusCfUsesMultiplePredicateFamilies) {
  // With enough blocks the pass must draw from more than one family
  // (distinguished by the generated instruction shapes).
  auto prog = minic::compile_source(kPrograms[1]);
  bogus_cf_everywhere(prog, 3);
  int mul_preds = 0, nonmul_preds = 0;
  for (const auto& f : prog.functions)
    for (const auto& b : f.blocks) {
      if (b.term.kind != cfg::Terminator::Kind::Branch) continue;
      bool has_mul = false, has_cmp = false;
      for (const auto& in : b.instrs) {
        has_mul |= in.op == cfg::Opcode::Mul;
        has_cmp |= cfg::is_cmp(in.op);
      }
      if (!has_cmp) continue;
      (has_mul ? mul_preds : nonmul_preds)++;
    }
  EXPECT_GT(mul_preds, 0);
  EXPECT_GT(nonmul_preds, 0);
}

TEST(Obfuscate, OptionsName) {
  EXPECT_EQ(Options::none().name(), "none");
  EXPECT_EQ(Options::llvm_obf().name(), "sub+bcf+fla");
  EXPECT_EQ(Options::tigress().name(), "sub+enc+virt+bcf+fla");
  EXPECT_EQ((Options{.flatten = true}).name(), "fla");
}

}  // namespace
}  // namespace gp::obf
