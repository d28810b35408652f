// Component micro-benchmarks (google-benchmark): decoder throughput,
// lift+symbolic-execution rate, SAT solving, emulator speed. These are the
// substrate costs underlying the stage times in Table VII.
#include <benchmark/benchmark.h>

#include "core/campaign.hpp"
#include "emu/emu.hpp"
#include "gadget/gadget.hpp"
#include "lift/lift.hpp"
#include "solver/solver.hpp"
#include "support/rng.hpp"
#include "sym/exec.hpp"
#include "x86/decoder.hpp"

namespace {

using namespace gp;

const image::Image& test_image() {
  static const image::Image img =
      core::compile_image("hash_table", "", obf::Options::llvm_obf(7),
                          core::Engine::shared().config().opt_level);
  return img;
}

void BM_DecodeEveryOffset(benchmark::State& state) {
  const auto& img = test_image();
  for (auto _ : state) {
    u64 decoded = 0;
    for (u64 a = img.code_base(); a < img.code_end(); ++a) {
      auto inst = x86::decode(img.code_at(a), a);
      if (inst) ++decoded;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(img.code().size()));
}
BENCHMARK(BM_DecodeEveryOffset);

void BM_LiftAndSymStep(benchmark::State& state) {
  const auto& img = test_image();
  solver::Context ctx;
  sym::Executor exec(ctx, &img);
  for (auto _ : state) {
    sym::State st = exec.initial_state();
    u64 a = img.code_base();
    int steps = 0;
    while (steps < 64 && img.in_code(a)) {
      auto inst = x86::decode(img.code_at(a), a);
      if (!inst || inst->is_terminator()) break;
      exec.step(st, lift::lift(*inst));
      a += inst->len;
      ++steps;
    }
    benchmark::DoNotOptimize(st.regs[0]);
  }
}
BENCHMARK(BM_LiftAndSymStep);

void BM_SolverEquivalenceQuery(benchmark::State& state) {
  solver::Context ctx;
  const auto a = ctx.var("a", 64);
  const auto b = ctx.var("b", 64);
  const auto lhs = ctx.bxor(a, b);
  const auto rhs =
      ctx.bor(ctx.band(ctx.bnot(a), b), ctx.band(a, ctx.bnot(b)));
  // Equivalent iff the disequality is UNSAT.
  const std::vector<solver::ExprRef> query = {ctx.ne(lhs, rhs)};
  for (auto _ : state) {
    solver::Solver solver(ctx);
    benchmark::DoNotOptimize(solver.check(query));
  }
}
BENCHMARK(BM_SolverEquivalenceQuery);

// A concretize-shaped query. concretize's SAT instances are mostly
// decisions over payload bits the constraints leave free: on llvm-obf
// binary_search each check has ~24k variables, ~1.9k decisions and no
// conflicts. This one is a 64-bit multiply/add equation plus 24 free 64-bit
// words that the formula mentions but barely constrains: ~17k SAT
// variables, ~1.6k decisions, no conflicts.
void BM_SatBitblasted64(benchmark::State& state) {
  solver::Context ctx;
  Rng rng(0x5a7b17);
  const u64 k1 = rng.next() | 1, x0 = rng.next(), y0 = rng.next();
  const auto x = ctx.var("x", 64), y = ctx.var("y", 64);
  const auto k = [&](u64 v) { return ctx.constant(v, 64); };
  std::vector<solver::ExprRef> query = {
      ctx.eq(ctx.add(ctx.mul(x, k(k1)), y), k(x0 * k1 + y0))};
  for (int i = 0; i < 24; ++i) {
    const auto z = ctx.var("z" + std::to_string(i), 64);
    query.push_back(ctx.ne(ctx.add(z, x), k(rng.next())));
  }
  for (auto _ : state) {
    solver::Solver solver(ctx);
    solver::Model model;
    benchmark::DoNotOptimize(solver.check(query, &model));
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_SatBitblasted64);

void BM_EmulatorRun(benchmark::State& state) {
  const auto& img = test_image();
  i64 steps = 0;
  for (auto _ : state) {
    emu::Emulator e(img);
    auto r = e.run(5'000'000);
    benchmark::DoNotOptimize(r.steps);
    steps += static_cast<i64>(r.steps);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_EmulatorRun);

void BM_GadgetExtraction(benchmark::State& state) {
  const auto& img = test_image();
  for (auto _ : state) {
    solver::Context ctx;
    gadget::Extractor ex(ctx, img);
    auto pool = ex.extract(nullptr, core::Engine::shared().config().threads);
    benchmark::DoNotOptimize(pool.size());
  }
}
BENCHMARK(BM_GadgetExtraction);

}  // namespace

BENCHMARK_MAIN();
