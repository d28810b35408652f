#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "planner/index.hpp"
#include "planner/planner.hpp"
#include "subsume/subsume.hpp"
#include "support/fault.hpp"
#include "x86/encoder.hpp"

namespace gp::planner {
namespace {

using gadget::Extractor;
using gadget::Library;
using payload::Chain;
using payload::Goal;
using solver::Context;
using x86::Assembler;
using x86::Cond;
using x86::Mnemonic;
using x86::Reg;

struct Scenario {
  Context ctx;
  image::Image img;
  Library lib;

  explicit Scenario(Assembler& a, bool minimize_pool = true)
      : img(a.finish(), {}, image::kCodeBase), lib(make_lib(minimize_pool)) {}

 private:
  Library make_lib(bool minimize_pool) {
    Extractor ex(ctx, img);
    auto pool = ex.extract();
    if (minimize_pool) pool = subsume::minimize(ctx, pool);
    return Library(std::move(pool));
  }
};

/// Classic ROP scenario: pop gadgets for every syscall argument register.
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
  a.pop(Reg::R10);
  a.ret();
  a.pop(Reg::R8);
  a.ret();
  a.pop(Reg::R9);
  a.ret();
  a.syscall();
  return a;
}

TEST(Planner, BuildsValidatedExecveChain) {
  Assembler a = classic_rop();
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  auto chains = planner.plan(Goal::execve(), {});
  ASSERT_FALSE(chains.empty());
  const Chain& c = chains.front();
  EXPECT_EQ(c.goal_name, "execve");
  EXPECT_GE(c.gadgets.size(), 5u);  // 4 pops + syscall
  EXPECT_FALSE(c.payload.empty());
  // Payload embeds "/bin/sh".
  const std::string p(c.payload.begin(), c.payload.end());
  EXPECT_NE(p.find("/bin/sh"), std::string::npos);
  // Independent re-validation with a different register seed.
  EXPECT_TRUE(payload::validate(s.img, c, Goal::execve(),
                                image::kStackTop - 0x2000, 0x1234567));
  EXPECT_GT(planner.stats().validated, 0u);
  EXPECT_EQ(planner.stats().index_builds, 1u);
  EXPECT_GT(planner.stats().index_hits, 0u);  // every expansion is indexed
}

TEST(Planner, BuildsMprotectAndMmapChains) {
  Assembler a = classic_rop();
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  EXPECT_FALSE(planner.plan(Goal::mprotect(), {}).empty());
  EXPECT_FALSE(planner.plan(Goal::mmap(), {}).empty());
}

TEST(Planner, FailsWithoutSyscallGadget) {
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  EXPECT_TRUE(planner.plan(Goal::execve(), {}).empty());
}

TEST(Planner, FailsWhenArgRegisterUncontrollable) {
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  a.syscall();  // no way to set rdi
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  EXPECT_TRUE(planner.plan(Goal::execve(), {}).empty());
}

TEST(Planner, UsesConditionalGadgetWhenPopIsMissing) {
  // The paper's Fig. 6 situation: no plain `pop rsi; ret` exists, but a
  // conditional-jump gadget controls rsi when its precondition (on rax)
  // holds — the planner must chain a rax-setter before it.
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RDI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  // The only rsi-setter sits BEFORE a conditional jump (like Fig. 6's
  // Gadget 1), so no pure suffix of it controls rsi:
  //   pop rsi; test rax, rax; jne trap; ret
  auto trap = a.new_label();
  a.pop(Reg::RSI);
  a.alu(Mnemonic::TEST, Reg::RAX, Reg::RAX);
  a.jcc(Cond::NE, trap);
  a.ret();
  a.bind(trap);
  a.int3();
  a.syscall();
  Scenario s(a);

  Planner planner(s.ctx, s.lib, s.img);
  Options opts;
  auto chains = planner.plan(Goal::execve(), opts);
  ASSERT_FALSE(chains.empty());
  bool used_cond = false;
  for (const Chain& c : chains)
    used_cond |= c.cj_gadgets > 0;
  EXPECT_TRUE(used_cond);

  // Ablation (the baselines' restriction): with conditional gadgets
  // disabled, no chain exists.
  Options no_cond = opts;
  no_cond.admission.use_cond_gadgets = false;
  Planner p2(s.ctx, s.lib, s.img);
  EXPECT_TRUE(p2.plan(Goal::execve(), no_cond).empty());
}

TEST(Planner, UsesJopGadgetMixedWithRet) {
  // rsi is only settable via a jmp-rax gadget (JOP): pop rsi; jmp rax.
  // The chain needs rax to hold the next gadget's address — which also
  // conflicts with rax = 59 for execve, so the planner must order the
  // rax-setting pop AFTER the JOP step. Exercises threat resolution.
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
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  auto chains = planner.plan(Goal::execve(), {});
  ASSERT_FALSE(chains.empty());
  bool used_jop = false;
  for (const Chain& c : chains) used_jop |= c.ij_gadgets > 0;
  EXPECT_TRUE(used_jop);
}

TEST(Planner, DirectJumpMergedGadgetsUsable) {
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  // pop rdi; jmp L ... L: ret
  auto l = a.new_label();
  a.pop(Reg::RDI);
  a.jmp(l);
  a.int3();
  a.bind(l);
  a.ret();
  a.syscall();
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  auto chains = planner.plan(Goal::execve(), {});
  ASSERT_FALSE(chains.empty());

  Options no_dj;
  no_dj.admission.use_direct_merged = false;
  Planner p2(s.ctx, s.lib, s.img);
  EXPECT_TRUE(p2.plan(Goal::execve(), no_dj).empty());
}

TEST(Planner, MultipleDiverseChains) {
  // Several alternative rdi-setters should yield several distinct chains.
  Assembler a = classic_rop();
  a.pop(Reg::RDI);
  a.nop();
  a.nop();
  a.ret();
  a.pop(Reg::RDI);
  a.pop(Reg::RBX);
  a.ret();
  Scenario s(a, /*minimize_pool=*/false);
  Planner planner(s.ctx, s.lib, s.img);
  Options opts;
  opts.max_chains = 8;
  auto chains = planner.plan(Goal::execve(), opts);
  EXPECT_GE(chains.size(), 2u);
  std::set<std::vector<u32>> unique;
  for (const Chain& c : chains) unique.insert(c.gadgets);
  EXPECT_EQ(unique.size(), chains.size());  // no duplicates
}

TEST(Planner, ChainMetricsConsistent) {
  Assembler a = classic_rop();
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  auto chains = planner.plan(Goal::execve(), {});
  ASSERT_FALSE(chains.empty());
  for (const Chain& c : chains) {
    EXPECT_GT(c.total_insts, 0);
    EXPECT_GT(c.avg_gadget_len(), 0.0);
    EXPECT_LE(static_cast<size_t>(c.ret_gadgets + c.ij_gadgets +
                                  c.cj_gadgets),
              c.gadgets.size() + 1);
  }
}

TEST(Payload, ValidateRejectsCorruptPayload) {
  Assembler a = classic_rop();
  Scenario s(a);
  Planner planner(s.ctx, s.lib, s.img);
  auto chains = planner.plan(Goal::execve(), {});
  ASSERT_FALSE(chains.empty());
  Chain bad = chains.front();
  // Corrupt a payload slot: validation must fail.
  for (size_t i = 0; i + 8 <= bad.payload.size(); i += 8) bad.payload[i] ^= 0xff;
  EXPECT_FALSE(payload::validate(s.img, bad, Goal::execve(),
                                 image::kStackTop - 0x2000, 1));
}

TEST(Payload, GoalDefinitions) {
  EXPECT_EQ(Goal::execve().syscall_no, 59u);
  EXPECT_EQ(Goal::mprotect().syscall_no, 10u);
  EXPECT_EQ(Goal::mmap().syscall_no, 9u);
  EXPECT_EQ(Goal::all().size(), 3u);
  // execve's rdi target carries the shell path.
  const auto g = Goal::execve();
  bool has_path = false;
  for (const auto& t : g.regs)
    if (t.kind == payload::RegTarget::Kind::PointerToBytes)
      has_path = std::string(t.bytes.begin(), t.bytes.end() - 1) == "/bin/sh";
  EXPECT_TRUE(has_path);
}

// ---- GadgetIndex / reachability battery ----

/// Byte-level chain equality: gadget sequences AND payloads.
void expect_same_chains(const std::vector<Chain>& x,
                        const std::vector<Chain>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].gadgets, y[i].gadgets) << "chain " << i;
    EXPECT_EQ(x[i].payload, y[i].payload) << "chain " << i;
  }
}

TEST(MultisetHash, DuplicatesDoNotCancel) {
  const u64 a = 0x1111, b = 0x2222;
  const std::vector<u64> none, one{a}, two{a, a};
  const u64 h_none = multiset_hash(none, 7);
  const u64 h_one = multiset_hash(one, 7);
  const u64 h_two = multiset_hash(two, 7);
  // The XOR-fold bug this replaces: {a, a} hashed identically to {} (the
  // pair cancelled), merging distinct plans in the visited set.
  EXPECT_NE(h_two, h_none);
  EXPECT_NE(h_two, h_one);
  EXPECT_NE(h_one, h_none);
  // Order independence is the property the visited set actually needs.
  const std::vector<u64> ab{a, b}, ba{b, a};
  EXPECT_EQ(multiset_hash(ab, 7), multiset_hash(ba, 7));
  EXPECT_NE(multiset_hash(ab, 7), multiset_hash(ab, 8));  // seed matters
}

TEST(Planner, UnreachableGoalFastFails) {
  // The only rdi-setter is a register transfer from rbx — and nothing in
  // the pool establishes rbx. reg_usable(rdi) alone is fooled (a static
  // provider exists); only the establishable-register closure sees that
  // the provider's needs can never be met.
  Assembler a;
  a.pop(Reg::RAX);
  a.ret();
  a.pop(Reg::RSI);
  a.ret();
  a.pop(Reg::RDX);
  a.ret();
  a.mov(Reg::RDI, Reg::RBX);
  a.ret();
  a.syscall();
  Scenario s(a);
  Planner p(s.ctx, s.lib, s.img);
  EXPECT_TRUE(p.plan(Goal::execve(), {}).empty());
  EXPECT_EQ(p.stats().unreachable_goals, 1u);
  EXPECT_EQ(p.stats().expansions, 0u);  // rejected before any search

  // Soundness, by brute force over the pool: count the sequences of up to
  // 4 distinct non-syscall gadgets, then a syscall gadget, that concretize.
  const std::vector<u32>& terminals = s.lib.syscalls();
  ASSERT_FALSE(terminals.empty());
  std::vector<u32> inner;
  for (u32 gi = 0; gi < s.lib.size(); ++gi)
    if (std::find(terminals.begin(), terminals.end(), gi) == terminals.end())
      inner.push_back(gi);
  const auto concretizable = [&](const Goal& goal) {
    size_t found = 0;
    std::vector<u32> seq;
    std::function<void()> extend = [&] {
      for (const u32 si : terminals) {
        seq.push_back(si);
        found += payload::concretize(s.ctx, s.lib, s.img, seq, goal)
                     .chain.has_value();
        seq.pop_back();
      }
      if (seq.size() == 4) return;
      for (const u32 gi : inner) {
        if (std::find(seq.begin(), seq.end(), gi) != seq.end()) continue;
        seq.push_back(gi);
        extend();
        seq.pop_back();
      }
    };
    extend();
    return found;
  };
  EXPECT_EQ(concretizable(Goal::execve()), 0u);
  // Positive control: the same enumeration does find chains once rdi is
  // dropped from the goal (pop rax / pop rsi / pop rdx, then syscall).
  Goal no_rdi = Goal::execve();
  std::erase_if(no_rdi.regs, [](const payload::RegTarget& t) {
    return t.reg == Reg::RDI;
  });
  EXPECT_GT(concretizable(no_rdi), 0u);
}

TEST(Planner, ReuseAcrossGoalsMatchesFreshPlanners) {
  // failure_count_ and stats_ are scoped per plan() call: goal A's
  // concretization failures must not demote providers for goal B on a
  // reused planner.
  Assembler a = classic_rop();
  Scenario s(a);
  Planner reused(s.ctx, s.lib, s.img);
  const auto e1 = reused.plan(Goal::execve(), {});
  const auto m1 = reused.plan(Goal::mprotect(), {});
  Planner fresh_e(s.ctx, s.lib, s.img);
  const auto e2 = fresh_e.plan(Goal::execve(), {});
  Planner fresh_m(s.ctx, s.lib, s.img);
  const auto m2 = fresh_m.plan(Goal::mprotect(), {});
  expect_same_chains(e1, e2);
  expect_same_chains(m1, m2);
  ASSERT_FALSE(m1.empty());
}

TEST(Planner, NeedsTruncationCountedNotSilent) {
  // A 31-deep pointer chase (mov rax,[rax] x31; ret): the needs walk's
  // expansion cap trips, the dropped dependency is flagged on the
  // candidate, and scanning it during a search is counted.
  Assembler a = classic_rop();
  for (int i = 0; i < 31; ++i) a.mov_load(Reg::RAX, x86::MemRef{Reg::RAX});
  a.ret();
  Scenario s(a, /*minimize_pool=*/false);

  bool truncated = false;
  const GadgetIndex index = GadgetIndex::build(s.ctx, s.lib);
  for (const Candidate& c : index.candidates(Reg::RAX))
    truncated |= (c.flags & Candidate::kNeedsTruncated) != 0;
  EXPECT_TRUE(truncated);

  Planner p(s.ctx, s.lib, s.img);
  Options o;
  o.max_candidates_per_goal = 64;  // deep chains rank last; scan them all
  const auto chains = p.plan(Goal::execve(), o);
  EXPECT_FALSE(chains.empty());
  EXPECT_GT(p.stats().needs_truncated, 0u);
}

/// Failed concretizations summed over every refutation reason.
u64 refuted(const Stats& st) {
  return st.concretize_bad_flow + st.concretize_too_big +
         st.concretize_unsat + st.concretize_unknown +
         st.concretize_resource_cut + st.concretize_validation_failed;
}

TEST(Planner, EveryConcretizeCallCountsOneOutcome) {
  // The unminimized pointer-chase pool offers rax providers whose payloads
  // the emulator refutes, so the search sees both outcomes. Each call ends
  // validated or with exactly one counted reason.
  Assembler a = classic_rop();
  for (int i = 0; i < 31; ++i) a.mov_load(Reg::RAX, x86::MemRef{Reg::RAX});
  a.ret();
  Scenario s(a, /*minimize_pool=*/false);
  Options o;
  o.max_candidates_per_goal = 64;

  Planner p(s.ctx, s.lib, s.img);
  EXPECT_FALSE(p.plan(Goal::execve(), o).empty());
  const Stats& st = p.stats();
  EXPECT_GT(st.validated, 0u);
  EXPECT_GT(st.concretize_validation_failed, 0u);
  EXPECT_EQ(st.concretize_calls, st.validated + refuted(st));

  // Every solver query UNKNOWN: every call is counted, all as Unknown.
  fault::ScopedSpec scoped("solver=1");
  Planner q(s.ctx, s.lib, s.img);
  EXPECT_TRUE(q.plan(Goal::execve(), o).empty());
  const Stats& sq = q.stats();
  EXPECT_GT(sq.concretize_calls, 0u);
  EXPECT_EQ(sq.concretize_unknown, sq.concretize_calls);
  EXPECT_EQ(sq.concretize_calls, sq.validated + refuted(sq));
}

}  // namespace
}  // namespace gp::planner
