#include "planner/index.hpp"

#include <algorithm>

#include "sym/exec.hpp"
#include "sym/state.hpp"

namespace gp::planner {

using gadget::EndKind;
using gadget::Record;
using gadget::RegMask;
using gadget::reg_bit;
using solver::ExprRef;
using x86::Reg;

u64 multiset_hash(std::span<const u64> parts, u64 seed) {
  std::vector<u64> sorted(parts.begin(), parts.end());
  std::sort(sorted.begin(), sorted.end());
  // Sorted-sequence fold: position-dependent multiply keeps duplicates from
  // cancelling (h contributes twice, not zero times, for a repeated part).
  u64 h = seed ^ (0x9e3779b97f4a7c15ULL + static_cast<u64>(parts.size()));
  for (const u64 v : sorted) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

bool admissible(const Record& g, const AdmissionFlags& f) {
  if (!f.use_cond_gadgets && g.has_cond_jump) return false;
  if (!f.use_direct_merged && g.has_direct_jump) return false;
  if (!f.use_indirect_gadgets && g.end != EndKind::Ret &&
      g.end != EndKind::Syscall)
    return false;
  return true;
}

namespace {
/// The full semantic profile of lib[gi] as a provider of `reg`; `rsp0` is
/// the initial-rsp variable that stack-relative writes are based on.
Candidate analyze_candidate(solver::Context& ctx, const gadget::Library& lib,
                            u32 gi, Reg reg, ExprRef rsp0) {
  const Record& g = lib[gi];
  Candidate c;
  c.gadget = gi;

  const ExprRef fin = g.final_regs[static_cast<int>(reg)];
  c.dag_size = static_cast<u32>(ctx.dag_size(fin));
  if (ctx.is_const(fin)) {
    c.flags |= Candidate::kConstValue;
    c.const_value = ctx.const_val(fin);
  }
  if (g.end == EndKind::Syscall) c.flags |= Candidate::kSyscallEnd;
  if (!g.stack_delta && g.end == EndKind::Ret && !g.can_set(Reg::RSP))
    c.flags |= Candidate::kStackBad;
  if (g.next_rip != solver::kNoExpr && ctx.is_const(g.next_rip))
    c.flags |= Candidate::kNextRipConst;

  // Dependency count for the ranking score. Walk the provided value's
  // variables; POINTER (ind) variables count the registers of their load
  // address (one level is enough to catch the `mov rbp, [rbp-x]` style
  // self-regress).
  int deps = 0;
  bool self_loop = false;
  {
    std::vector<ExprRef> work = ctx.variables(fin);
    for (size_t wi = 0; wi < work.size() && wi < 64; ++wi) {
      const std::string_view name = ctx.var_name(work[wi]);
      if (sym::parse_stack_var(name)) continue;
      if (name.rfind("ind", 0) == 0) {
        for (const sym::IndirectRead& ir : g.ind_reads)
          if (ir.var == work[wi])
            for (const ExprRef av : ctx.variables(ir.addr)) work.push_back(av);
        continue;
      }
      ++deps;
      if (name == sym::initial_reg_var(reg)) self_loop = true;
    }
  }
  if (self_loop) c.flags |= Candidate::kSelfLoop;

  int clob_count = 0;
  for (int rbit = 0; rbit < x86::kNumRegs; ++rbit)
    clob_count += (g.clobbered >> rbit) & 1;

  // A gadget whose own pointer side-effects constrain the very value it
  // provides (e.g. `pop rax; add [rax], esp; ...`) can only serve
  // pointer-valued goals; heavily deprioritize it.
  bool value_is_pointer = false;
  {
    const auto provided_vars = ctx.variables(fin);
    for (const sym::IndirectRead& ir : g.ind_reads)
      for (const ExprRef av : ctx.variables(ir.addr))
        for (const ExprRef pv : provided_vars)
          value_is_pointer |= av == pv;
  }
  if (value_is_pointer) c.flags |= Candidate::kValuePointer;

  // Writes through non-rsp-relative pointers may alias the payload in ways
  // the no-alias memory model cannot see; validation usually rejects such
  // chains, so prefer gadgets without them.
  int wild_writes = 0;
  for (const auto& w : g.writes) {
    const auto bo = sym::split_base_offset(ctx, w.addr);
    if (!bo || bo->base != rsp0) ++wild_writes;
  }

  // Prefer clean ret gadgets with simple transfer targets; complex
  // computed-jump targets (VM dispatch arithmetic) go last.
  const int transfer_cost =
      g.end == EndKind::Ret || g.next_rip == solver::kNoExpr
          ? 0
          : 30 + static_cast<int>(
                     std::min<size_t>(ctx.dag_size(g.next_rip), 40));

  // A computed-transfer gadget whose own path condition constrains the
  // transfer target — a bounds-checked jump table is the canonical shape
  // (`cmp sel, n; jb ...; jmp [table+sel*8]`) — can only reach the few
  // in-range entries, so steering it at an arbitrary next gadget is
  // almost always UNSAT. Sink it into the bottom band (>= the shuffle
  // threshold) so the unconstrained variants get tried first.
  bool target_constrained = false;
  if (g.end != EndKind::Ret && g.next_rip != solver::kNoExpr &&
      !g.precond.empty() && !ctx.is_const(g.next_rip)) {
    std::vector<ExprRef> tvars = ctx.variables(g.next_rip);
    for (size_t ti = 0; ti < tvars.size() && ti < 64; ++ti) {
      if (ctx.var_name(tvars[ti]).rfind("ind", 0) != 0) continue;
      for (const sym::IndirectRead& ir : g.ind_reads)
        if (ir.var == tvars[ti])
          for (const ExprRef av : ctx.variables(ir.addr))
            tvars.push_back(av);
    }
    for (const ExprRef pc : g.precond) {
      for (const ExprRef pv : ctx.variables(pc))
        for (const ExprRef tv : tvars)
          target_constrained |= pv == tv;
      if (target_constrained) break;
    }
  }

  c.base_score = (self_loop ? 2000 : 0) + (value_is_pointer ? 1500 : 0) +
                 (target_constrained ? 1400 : 0) +
                 300 * wild_writes + 80 * deps +
                 10 * static_cast<int>(g.precond.size()) + 4 * clob_count +
                 transfer_cost + g.n_insts;

  // Open-precondition walk: every initial register the gadget's path
  // condition, indirect transfer target, or provided-value expression
  // depends on, in first-encounter order (the order expand() used to push
  // them as open subgoals). The `< 32` expansion cap matches the search's
  // historical behaviour; hitting it is recorded instead of silently
  // treating the dropped pointer dependencies as met.
  std::vector<ExprRef> needs = g.precond;
  if (g.next_rip != solver::kNoExpr) needs.push_back(g.next_rip);
  needs.push_back(fin);
  bool seen[x86::kNumRegs] = {};
  for (size_t ni = 0; ni < needs.size(); ++ni) {
    const ExprRef pc = needs[ni];
    for (const ExprRef v : ctx.variables(pc)) {
      const std::string_view name = ctx.var_name(v);
      if (sym::parse_stack_var(name)) continue;  // payload: solver's job
      if (name.rfind("ind", 0) == 0) {
        // POINTER dependency: the load's address registers must be
        // controlled too.
        for (const sym::IndirectRead& ir : g.ind_reads)
          if (ir.var == v) {
            if (needs.size() < 32)
              needs.push_back(ir.addr);
            else
              c.flags |= Candidate::kNeedsTruncated;
          }
        continue;
      }
      const auto rr = sym::initial_reg_of(name);
      if (!rr || *rr == Reg::RSP) continue;
      const int r = static_cast<int>(*rr);
      if (!seen[r]) {
        seen[r] = true;
        c.needs[c.n_needs++] = static_cast<u8>(r);
      }
    }
  }
  return c;
}
}  // namespace

GadgetIndex GadgetIndex::build(solver::Context& ctx,
                               const gadget::Library& lib) {
  const ExprRef rsp0 = ctx.var(sym::initial_reg_var(Reg::RSP), 64);
  GadgetIndex idx;
  for (int r = 0; r < x86::kNumRegs; ++r) {
    const Reg reg = static_cast<Reg>(r);
    const auto& controlling = lib.controlling(reg);
    auto& bucket = idx.by_reg_[static_cast<size_t>(r)];
    bucket.reserve(controlling.size());
    for (const u32 gi : controlling)
      bucket.push_back(analyze_candidate(ctx, lib, gi, reg, rsp0));
  }
  return idx;
}

RegMask GadgetIndex::establishable(const gadget::Library& lib,
                                   const AdmissionFlags& f) const {
  RegMask closure = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int r = 0; r < x86::kNumRegs; ++r) {
      const RegMask bit = reg_bit(static_cast<Reg>(r));
      if (closure & bit) continue;
      for (const Candidate& c : by_reg_[static_cast<size_t>(r)]) {
        if (c.position_filtered()) continue;
        // Constant-valued setters cannot be steered; they only serve an
        // exact-constant terminal goal (handled in goal_unreachable).
        if (c.flags & Candidate::kConstValue) continue;
        if (!admissible(lib[c.gadget], f)) continue;
        bool deps_ok = true;
        for (u8 i = 0; i < c.n_needs; ++i)
          deps_ok &= (closure & reg_bit(static_cast<Reg>(c.needs[i]))) != 0;
        if (!deps_ok) continue;
        closure |= bit;
        changed = true;
        break;
      }
    }
  }
  return closure;
}

bool GadgetIndex::goal_unreachable(const gadget::Library& lib,
                                   const payload::Goal& goal,
                                   const AdmissionFlags& f) const {
  const RegMask closure = establishable(lib, f);
  for (const payload::RegTarget& t : goal.regs) {
    if (closure & reg_bit(t.reg)) continue;
    // Not in the closure via steerable providers; an exact-constant
    // provider can still serve a Const target directly, as long as its own
    // dependencies are establishable.
    bool provided = false;
    for (const Candidate& c : by_reg_[static_cast<size_t>(t.reg)]) {
      if (c.position_filtered()) continue;
      if (!admissible(lib[c.gadget], f)) continue;
      if (c.flags & Candidate::kConstValue) {
        if (!(t.kind == payload::RegTarget::Kind::Const &&
              t.value == c.const_value))
          continue;
      }
      bool deps_ok = true;
      for (u8 i = 0; i < c.n_needs; ++i)
        deps_ok &= (closure & reg_bit(static_cast<Reg>(c.needs[i]))) != 0;
      if (!deps_ok) continue;
      provided = true;
      break;
    }
    if (!provided) return true;
  }
  return false;
}

}  // namespace gp::planner
