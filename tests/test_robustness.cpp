// Robustness suite: UNKNOWN-soundness of every SatResult consumer, graceful
// degradation under the shared governor, decoder/lifter fuzzing, and the
// pipeline-under-fault runs (GP_FAULT injection) — the paper pipeline must
// degrade to smaller-but-valid results, never crash, hang, or emit a chain
// that fails emulator validation.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "codegen/codegen.hpp"
#include "core/session.hpp"
#include "corpus/corpus.hpp"
#include "lift/lift.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "x86/decoder.hpp"
#include "x86/encoder.hpp"

namespace gp {
namespace {

using gadget::EndKind;
using gadget::Extractor;
using gadget::Library;
using gadget::Record;
using payload::Goal;
using x86::Assembler;
using x86::Reg;

image::Image make_image(Assembler& a) {
  return image::Image(a.finish(), {}, image::kCodeBase);
}

Assembler classic_rop() {
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
  return a;
}

// ---------------------------------------------------------------------------
// UNKNOWN soundness: an inconclusive solver answer must never be treated as
// a proof anywhere downstream.
// ---------------------------------------------------------------------------

TEST(UnknownSoundness, ExhaustedBudgetNeverProves) {
  using solver::SatResult;
  solver::Context ctx;
  const auto x = ctx.var("x", 64);
  const auto lt5 = ctx.ult(x, ctx.constant(5, 64));
  const auto lt10 = ctx.ult(x, ctx.constant(10, 64));
  // lt5 -> lt10 is proven when its refutation {lt5, !lt10} is UNSAT.
  const std::vector<solver::ExprRef> valid = {lt5, ctx.bnot(lt10)};
  const std::vector<solver::ExprRef> invalid = {lt10, ctx.bnot(lt5)};

  {
    solver::Solver s(ctx);
    ASSERT_EQ(s.check(valid), SatResult::Unsat);  // genuinely valid
    ASSERT_EQ(s.check(invalid), SatResult::Sat);
  }

  // A spent solver-check budget makes every query UNKNOWN — a third answer,
  // never the UNSAT that would prove the implication (the historical bug: a
  // bool implication check returned "not SAT", so UNKNOWN proved anything).
  GovernorOptions gopts;
  gopts.max_solver_checks = 1;
  Governor gov(gopts);
  ASSERT_TRUE(gov.solver_checks().try_consume());

  solver::Solver s(ctx, /*conflict_budget=*/2'000'000, &gov);
  EXPECT_EQ(s.check(valid), SatResult::Unknown);
  EXPECT_EQ(s.check(std::vector{lt5}), SatResult::Unknown);

  // Nothing is remembered: the identical queries answer correctly on a
  // solver with budget left.
  solver::Solver fresh(ctx);
  EXPECT_EQ(fresh.check(valid), SatResult::Unsat);
  EXPECT_EQ(fresh.check(std::vector{lt5}), SatResult::Sat);
}

TEST(UnknownSoundness, CancelledGovernorIsInconclusive) {
  using solver::SatResult;
  solver::Context ctx;
  const auto x = ctx.var("x", 64);
  const auto lt5 = ctx.ult(x, ctx.constant(5, 64));
  const auto lt10 = ctx.ult(x, ctx.constant(10, 64));

  Governor gov;
  gov.cancel();
  solver::Solver s(ctx, 2'000'000, &gov);
  EXPECT_EQ(s.check(std::vector{lt5, ctx.bnot(lt10)}), SatResult::Unknown);
  // Constant-only queries stay conclusive even when governed out.
  EXPECT_EQ(s.check(std::vector{ctx.t()}), SatResult::Sat);
  EXPECT_EQ(s.check(std::vector{ctx.f()}), SatResult::Unsat);
}

TEST(UnknownSoundness, InjectedSolverFaultIsInconclusive) {
  using solver::SatResult;
  solver::Context ctx;
  const auto x = ctx.var("x", 64);
  const auto lt5 = ctx.ult(x, ctx.constant(5, 64));
  const auto lt10 = ctx.ult(x, ctx.constant(10, 64));

  fault::ScopedSpec scoped("solver=1");
  solver::Solver s(ctx);
  EXPECT_EQ(s.check(std::vector{lt5}), SatResult::Unknown);
  // A valid and an invalid implication are both unknowable here.
  EXPECT_EQ(s.check(std::vector{lt5, ctx.bnot(lt10)}), SatResult::Unknown);
  EXPECT_EQ(s.check(std::vector{lt10, ctx.bnot(lt5)}), SatResult::Unknown);
}

TEST(UnknownSoundness, MinimizeKeepsBothWhenInconclusive) {
  // Two copies of `pop rax; ret` whose preconditions need the solver:
  // x < 10 (loose) subsumes x < 5 (tight) only via a real UNSAT proof.
  solver::Context ctx;
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  auto img = make_image(a);
  Extractor ex(ctx, img);
  auto pool = ex.extract();
  const Record* base = nullptr;
  for (const Record& r : pool)
    if (r.addr == image::kCodeBase && r.end == EndKind::Ret) base = &r;
  ASSERT_NE(base, nullptr);

  const auto rdx0 = ctx.var(sym::initial_reg_var(Reg::RDX), 64);
  Record loose = *base;
  loose.precond = {ctx.ult(rdx0, ctx.constant(10, 64))};
  Record tight = *base;
  tight.addr += 1;  // sort order: the loose gadget becomes the representative
  tight.precond = {ctx.ult(rdx0, ctx.constant(5, 64))};
  const std::vector<Record> pair = {loose, tight};

  // Working solver: the implication is proven and the tight copy removed.
  subsume::Stats full;
  auto kept = subsume::minimize(ctx, pair, &full, 20'000, /*threads=*/1);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].addr, loose.addr);
  EXPECT_EQ(full.solver_unknown, 0u);

  // Every query UNKNOWN: inconclusive means "not subsumed" — both kept.
  fault::ScopedSpec scoped("solver=1");
  subsume::Stats st;
  kept = subsume::minimize(ctx, pair, &st, 20'000, /*threads=*/1);
  EXPECT_EQ(kept.size(), 2u);
  EXPECT_EQ(st.solver_unknown, 1u);  // one pair, one inconclusive verdict
}

TEST(UnknownSoundness, ConcretizeTreatsUnknownAsFailureNotUnsat) {
  Assembler a = classic_rop();
  solver::Context ctx;
  auto img = make_image(a);
  Extractor ex(ctx, img);
  Library lib(subsume::minimize(ctx, ex.extract()));
  std::vector<u32> seq;
  for (const u64 addr : {0x400000, 0x400002, 0x400004, 0x400006, 0x400008})
    for (u32 i = 0; i < lib.size(); ++i)
      if (lib[i].addr == addr &&
          (lib[i].end == EndKind::Ret || lib[i].end == EndKind::Syscall))
        seq.push_back(i);
  ASSERT_EQ(seq.size(), 5u);

  // Sanity: the chain concretizes with a working solver.
  ASSERT_TRUE(payload::concretize(ctx, lib, img, seq, Goal::execve())
                  .chain.has_value());

  {
    fault::ScopedSpec scoped("solver=1");
    const auto r = payload::concretize(ctx, lib, img, seq, Goal::execve());
    EXPECT_FALSE(r.chain.has_value());
    // UNKNOWN must not masquerade as UNSAT.
    EXPECT_EQ(r.why, payload::Refutation::Unknown);
  }

  // Same through a spent governor budget.
  GovernorOptions gopts;
  gopts.max_solver_checks = 1;
  Governor gov(gopts);
  ASSERT_TRUE(gov.solver_checks().try_consume());
  payload::ConcretizeOptions opts;
  opts.governor = &gov;
  const auto r = payload::concretize(ctx, lib, img, seq, Goal::execve(), opts);
  EXPECT_FALSE(r.chain.has_value());
  EXPECT_EQ(r.why, payload::Refutation::Unknown);
}

TEST(UnknownSoundness, ConcretizeSymStepBudgetCutsCleanly) {
  Assembler a = classic_rop();
  solver::Context ctx;
  auto img = make_image(a);
  Extractor ex(ctx, img);
  Library lib(subsume::minimize(ctx, ex.extract()));
  std::vector<u32> seq;
  for (u32 i = 0; i < lib.size(); ++i)
    if (lib[i].addr == 0x400008) seq.push_back(i);
  for (u32 i = 0; i < lib.size(); ++i)
    if (lib[i].addr == 0x400000 && lib[i].end == EndKind::Ret)
      seq.insert(seq.begin(), i);
  ASSERT_EQ(seq.size(), 2u);

  GovernorOptions gopts;
  gopts.max_sym_steps = 1;  // the replay needs several steps
  Governor gov(gopts);
  payload::ConcretizeOptions opts;
  opts.governor = &gov;
  const auto r = payload::concretize(ctx, lib, img, seq, Goal::execve(), opts);
  EXPECT_FALSE(r.chain.has_value());
  EXPECT_EQ(r.why, payload::Refutation::ResourceCut);
}

// ---------------------------------------------------------------------------
// Planner deadline: the governor is polled at every queue pop (a single
// expansion can hide a slow concretize call).
// ---------------------------------------------------------------------------

TEST(PlannerDeadline, ExpiredGovernorStopsAtTheFirstPop) {
  Assembler a = classic_rop();
  solver::Context ctx;
  auto img = make_image(a);
  Extractor ex(ctx, img);
  Library lib(subsume::minimize(ctx, ex.extract()));

  Governor gov;
  gov.set_deadline(Deadline::after_seconds(-1));
  planner::Planner p(ctx, lib, img);
  planner::Options opts;
  opts.governor = &gov;
  auto chains = p.plan(Goal::execve(), opts);
  EXPECT_TRUE(chains.empty());
  EXPECT_EQ(p.stats().expansions, 0u);
  EXPECT_GE(p.stats().deadline_cuts, 1u);
  EXPECT_EQ(p.stats().status.code(), StatusCode::DeadlineExceeded);
}

TEST(PlannerDeadline, CancelledGovernorStopsTheSearch) {
  Assembler a = classic_rop();
  solver::Context ctx;
  auto img = make_image(a);
  Extractor ex(ctx, img);
  Library lib(subsume::minimize(ctx, ex.extract()));

  Governor gov;
  gov.cancel();
  planner::Planner p(ctx, lib, img);
  planner::Options opts;
  opts.governor = &gov;
  auto chains = p.plan(Goal::execve(), opts);
  EXPECT_TRUE(chains.empty());
  EXPECT_EQ(p.stats().expansions, 0u);
  EXPECT_EQ(p.stats().status.code(), StatusCode::Cancelled);
}

// ---------------------------------------------------------------------------
// Governed extraction: budget exhaustion degrades to a partial pool whose
// accounting reconciles exactly.
// ---------------------------------------------------------------------------

TEST(GovernorDegradation, SymStepBudgetYieldsReconciledPartialPool) {
  Assembler a = classic_rop();
  solver::Context ctx;
  auto img = make_image(a);
  const u64 code_size = img.code().size();

  GovernorOptions gopts;
  gopts.max_sym_steps = 3;
  Governor gov(gopts);
  Extractor ex(ctx, img);
  auto pool = ex.extract(&gov);

  const auto& st = ex.stats();
  EXPECT_EQ(st.offsets_scanned + st.offsets_skipped, code_size);
  EXPECT_GT(st.offsets_skipped, 0u);
  EXPECT_EQ(st.status.code(), StatusCode::BudgetExhausted);
  // A partial pool is usable, just smaller than the ungoverned one.
  solver::Context full_ctx;
  Extractor full_ex(full_ctx, img);
  EXPECT_LT(pool.size(), full_ex.extract().size());
}

TEST(GovernorDegradation, ExprNodeBudgetCutsPathsNotTheProcess) {
  Assembler a = classic_rop();
  solver::Context ctx;
  auto img = make_image(a);

  GovernorOptions gopts;
  gopts.max_expr_nodes = 8;
  Governor gov(gopts);
  ctx.set_governor(&gov);  // the extractor's context draws the node budget
  Extractor ex(ctx, img);
  auto pool = ex.extract(&gov);
  const auto& st = ex.stats();
  EXPECT_EQ(st.offsets_scanned + st.offsets_skipped, img.code().size());
  EXPECT_EQ(st.status.code(), StatusCode::BudgetExhausted);
  EXPECT_GT(st.paths_cut + st.offsets_skipped, 0u);
  ctx.set_governor(nullptr);
}

// ---------------------------------------------------------------------------
// Decoder / lifter fuzzing: arbitrary bytes and truncated tails must never
// crash or hang, and extraction accounting must stay exact.
// ---------------------------------------------------------------------------

TEST(DecoderFuzz, RandomBuffersAndTruncatedTailsNeverCrash) {
  for (const u64 seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    std::vector<u8> buf(4096);
    for (u8& b : buf) b = static_cast<u8>(rng.next());
    const std::span<const u8> all(buf);
    for (size_t off = 0; off < buf.size(); ++off) {
      const auto span = all.subspan(off);
      const auto inst = x86::decode(span, image::kCodeBase + off);
      if (!inst) continue;
      // A decoded instruction never claims bytes it was not given.
      EXPECT_GT(inst->len, 0u);
      EXPECT_LE(static_cast<size_t>(inst->len), span.size());
      EXPECT_LE(inst->len, 15u);  // x86 hard limit
      (void)lift::lift(*inst);    // the lifter must accept whatever decodes
    }
    // Truncated tails: every prefix of a decodable stream either decodes
    // within bounds or cleanly returns nullopt.
    for (size_t len = 0; len <= 16; ++len) {
      const auto inst = x86::decode(all.first(len), image::kCodeBase);
      if (inst) EXPECT_LE(static_cast<size_t>(inst->len), len);
    }
  }
}

TEST(DecoderFuzz, ExtractionOverRandomBytesReconciles) {
  Rng rng(0xfeedULL);
  std::vector<u8> buf(1024);
  for (u8& b : buf) b = static_cast<u8>(rng.next());
  image::Image img(buf, {}, image::kCodeBase);
  solver::Context ctx;
  Extractor ex(ctx, img);
  auto pool = ex.extract();
  const auto& st = ex.stats();
  EXPECT_EQ(st.offsets_scanned, buf.size());
  EXPECT_EQ(st.offsets_skipped, 0u);
  EXPECT_EQ(st.gadgets, pool.size());
  EXPECT_GT(st.decode_failures, 0u);  // random bytes cannot all decode
  EXPECT_TRUE(st.status.ok());
}

TEST(DecoderFuzz, ForcedDecodeFailureAccountsEveryOffset) {
  Assembler a = classic_rop();
  solver::Context ctx;
  auto img = make_image(a);

  fault::ScopedSpec scoped("decode=1");
  Extractor ex(ctx, img);
  auto pool = ex.extract();
  EXPECT_TRUE(pool.empty());
  const auto& st = ex.stats();
  EXPECT_EQ(st.offsets_scanned, img.code().size());
  // Every offset's first decode was forced to fail and counted.
  EXPECT_EQ(st.decode_failures, st.offsets_scanned);
}

// ---------------------------------------------------------------------------
// Pipeline under fault: the full four-stage pipeline over an obfuscated
// corpus program, three fault seeds, aggressive governor. Must not crash or
// hang; every chain that survives must re-validate with faults disabled.
// ---------------------------------------------------------------------------

const image::Image& corpus_image() {
  static const image::Image img = [] {
    auto prog = minic::compile_source(corpus::benchmark().front().source);
    obf::obfuscate(prog, obf::Options::llvm_obf(5));
    return codegen::compile(prog);
  }();
  return img;
}

TEST(PipelineUnderFault, DegradesWithoutCrashingAndChainsStayValid) {
  const image::Image& img = corpus_image();
  for (const u64 seed : {11ull, 22ull, 33ull}) {
    fault::Spec spec =
        fault::parse_spec("decode=0.002,solver=0.05,emu=0.0005,alloc=0.0002")
            .value();
    spec.seed = seed;
    fault::ScopedSpec scoped(spec);

    core::PipelineOptions popts;
    popts.governor.deadline_seconds = 30.0;
    popts.governor.max_solver_checks = 3'000;
    popts.governor.max_sym_steps = 3'000'000;
    popts.governor.max_expr_nodes = 6'000'000;
    popts.plan.max_expansions = 400;
    popts.plan.max_chains = 2;

    core::Session gp(core::Engine::shared(), img, popts);
    gp.prepare();
    // Degradation is a Status, never a crash: whatever was cut is recorded
    // as a known (non-Internal) code.
    EXPECT_NE(gp.report().extract_status.code(), StatusCode::Internal);
    EXPECT_NE(gp.report().subsume_status.code(), StatusCode::Internal);
    const auto& es = gp.extract_stats();
    EXPECT_EQ(es.offsets_scanned + es.offsets_skipped, img.code().size());

    auto chains = gp.find_chains(Goal::execve());
    fault::disable();
    for (const auto& c : chains) {
      EXPECT_TRUE(payload::validate(img, c, Goal::execve(),
                                    image::kStackTop - 0x2000,
                                    0xabcdef ^ seed))
          << "fault seed " << seed;
    }
  }
}

TEST(PipelineUnderFault, TinyDeadlineStillBuildsAPipeline) {
  const image::Image& img = corpus_image();
  core::PipelineOptions popts;
  popts.governor.deadline_seconds = 1e-4;
  core::Session gp(core::Engine::shared(), img, popts);
  gp.prepare();
  const auto& es = gp.extract_stats();
  EXPECT_EQ(es.offsets_scanned + es.offsets_skipped, img.code().size());
  EXPECT_GT(es.offsets_skipped, 0u);
  EXPECT_EQ(gp.report().extract_status.code(), StatusCode::DeadlineExceeded);
  // The (possibly empty) library is still usable; planning returns fast
  // with best-so-far (= no) chains instead of hanging.
  auto chains = gp.find_chains(Goal::execve());
  EXPECT_TRUE(chains.empty());
}

}  // namespace
}  // namespace gp
