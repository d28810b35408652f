#include "baselines/baselines.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "planner/planner.hpp"
#include "x86/decoder.hpp"

namespace gp::baselines {

using gadget::EndKind;
using gadget::Library;
using gadget::Record;
using payload::Chain;
using payload::Goal;
using payload::RegTarget;
using x86::Mnemonic;
using x86::Reg;

// ---------------------------------------------------------------------------
// ROPGadget-like
// ---------------------------------------------------------------------------

namespace {

/// Decode a candidate gadget: all instructions from `addr` must decode,
/// stay straight-line, and hit the ret at `ret_addr` exactly.
std::optional<std::vector<x86::Inst>> decode_to_ret(const image::Image& img,
                                                    u64 addr, u64 ret_addr,
                                                    int max_insts) {
  std::vector<x86::Inst> insts;
  u64 pc = addr;
  for (int i = 0; i < max_insts && pc <= ret_addr; ++i) {
    auto inst = x86::decode(img.code_at(pc), pc);
    if (!inst) return std::nullopt;
    insts.push_back(*inst);
    if (pc == ret_addr)
      return inst->mnemonic == Mnemonic::RET
                 ? std::make_optional(insts)
                 : std::nullopt;
    if (inst->is_terminator()) return std::nullopt;  // control flow: reject
    pc += inst->len;
  }
  return std::nullopt;
}

std::string gadget_string(const std::vector<x86::Inst>& insts) {
  std::string s;
  for (const auto& i : insts) {
    if (!s.empty()) s += " ; ";
    s += x86::to_string(i);
  }
  return s;
}

/// Is this exactly `pop <reg>; ret`?
bool is_pop_reg_ret(const std::vector<x86::Inst>& insts, Reg reg) {
  return insts.size() == 2 && insts[0].mnemonic == Mnemonic::POP &&
         insts[0].dst.is_reg() && insts[0].dst.reg == reg &&
         insts[1].mnemonic == Mnemonic::RET && !insts[1].dst.is_imm();
}

}  // namespace

Result rop_gadget(const image::Image& img, const Goal& goal, int max_insts) {
  Result result;
  result.tool = "ROPGadget";

  std::set<std::string> unique;
  std::map<Reg, u64> pop_gadget_addr;
  std::optional<u64> syscall_addr;

  const auto code = img.code();
  for (size_t off = 0; off < code.size(); ++off) {
    const u64 addr = img.code_base() + off;
    // syscall opportunistically (ROPGadget also lists syscall gadgets).
    if (off + 1 < code.size() && code[off] == 0x0F && code[off + 1] == 0x05) {
      if (!syscall_addr) syscall_addr = addr;
      unique.insert("syscall");
    }
    if (code[off] != 0xC3) continue;  // find each ret, scan backwards
    for (int back = 1; back <= 24; ++back) {
      if (off < static_cast<size_t>(back)) break;
      const u64 start = addr - back;
      auto insts = decode_to_ret(img, start, addr, max_insts);
      if (!insts) continue;
      unique.insert(gadget_string(*insts));
      for (int r = 0; r < x86::kNumRegs; ++r) {
        const Reg reg = static_cast<Reg>(r);
        if (is_pop_reg_ret(*insts, reg) && !pop_gadget_addr.count(reg))
          pop_gadget_addr[reg] = start;
      }
    }
  }
  result.gadgets_total = unique.size();

  // Template chaining: every goal register must have its own
  // `pop reg; ret`, plus a syscall gadget. No fallback whatsoever.
  if (!syscall_addr) return result;
  for (const RegTarget& t : goal.regs)
    if (!pop_gadget_addr.count(t.reg)) return result;

  // Assemble the classic payload: [pop_r][value] ... [syscall].
  Chain chain;
  chain.goal_name = goal.name;
  std::vector<u8> payload;
  auto put64 = [&payload](u64 v) {
    for (int i = 0; i < 8; ++i) payload.push_back(static_cast<u8>(v >> (8 * i)));
  };
  // Pointer targets point past the chain; compute the layout first.
  const size_t n = goal.regs.size();
  const size_t chain_slots = 2 * n + 1;  // n (gadget,value) pairs + syscall
  u64 pointer_off = 8 * chain_slots;
  std::vector<std::pair<u64, std::vector<u8>>> pointer_data;

  bool first = true;
  for (const RegTarget& t : goal.regs) {
    const u64 gaddr = pop_gadget_addr.at(t.reg);
    if (first) {
      chain.entry = gaddr;
      first = false;
    } else {
      put64(gaddr);
    }
    if (t.kind == RegTarget::Kind::Const) {
      put64(t.value);
    } else {
      put64(payload::kStackBase + pointer_off);
      pointer_data.emplace_back(pointer_off, t.bytes);
      pointer_off += 8;
    }
    chain.ret_gadgets++;
    chain.total_insts += 2;
  }
  put64(*syscall_addr);
  chain.total_insts += 1;
  payload.resize(pointer_off, 0);
  for (const auto& [off, bytes] : pointer_data)
    std::copy(bytes.begin(), bytes.end(), payload.begin() + off);
  chain.payload = std::move(payload);
  // ROPGadget has no Library; gadgets[] carries only the count.
  chain.gadgets.assign(goal.regs.size() + 1, 0);

  if (payload::validate(img, chain, goal, payload::kStackBase, 0xbead1)) {
    result.gadgets_used = chain.gadgets.size();
    result.chains.push_back(std::move(chain));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Angrop-like
// ---------------------------------------------------------------------------

namespace {

/// Angrop's notion of a usable register setter: a clean, unconditional,
/// side-effect-free return gadget whose only job is popping the register.
bool clean_setter(solver::Context& ctx, const Record& g, Reg reg) {
  if (g.end != EndKind::Ret) return false;
  if (g.has_cond_jump || g.has_direct_jump) return false;
  if (!g.stack_delta || *g.stack_delta <= 0 || *g.stack_delta > 40)
    return false;
  if (!g.writes.empty() || !g.ind_reads.empty()) return false;
  if (!g.precond.empty()) return false;
  if (!g.controls(reg)) return false;
  // The provided value must be a raw payload slot (a pop), not arithmetic.
  return ctx.is_var(g.final_regs[static_cast<int>(reg)]);
}

}  // namespace

Result angrop(solver::Context& ctx, const Library& lib,
              const image::Image& img, const Goal& goal) {
  Result result;
  result.tool = "Angrop";

  // Angrop's pool: unconditional return gadgets only.
  u64 pool = 0;
  for (const Record& g : lib.all())
    if (g.end == EndKind::Ret && !g.has_cond_jump && !g.has_direct_jump)
      ++pool;
  result.gadgets_total = pool;

  // set_regs: one clean setter per goal register (first = shortest).
  std::vector<u32> seq;
  for (const RegTarget& t : goal.regs) {
    std::optional<u32> found;
    for (const u32 gi : lib.controlling(t.reg)) {
      if (clean_setter(ctx, lib[gi], t.reg)) {
        found = gi;
        break;
      }
    }
    if (!found) return result;  // strict: missing setter = total failure
    seq.push_back(*found);
  }
  // Bare syscall gadget.
  std::optional<u32> sys;
  for (const u32 si : lib.syscalls())
    if (lib[si].clobbered == 0 && !lib[si].has_cond_jump) {
      sys = si;
      break;
    }
  if (!sys) return result;
  seq.push_back(*sys);

  auto chain = payload::concretize(ctx, lib, img, seq, goal).chain;
  if (chain) {
    result.gadgets_used = chain->gadgets.size();
    result.chains.push_back(std::move(*chain));
  }
  return result;
}

// ---------------------------------------------------------------------------
// SGC-like
// ---------------------------------------------------------------------------

Result sgc(solver::Context& ctx, const Library& lib, const image::Image& img,
           const Goal& goal, int max_chains) {
  Result result;
  result.tool = "SGC";

  u64 pool = 0;
  for (const Record& g : lib.all())
    if (!g.has_cond_jump && !g.has_direct_jump) ++pool;
  result.gadgets_total = pool;

  planner::Planner planner(ctx, lib, img);
  planner::Options opts;
  // SGC's documented gap: no conditional or direct-jump gadgets.
  opts.admission = {.use_cond_gadgets = false, .use_direct_merged = false};
  opts.max_chains = max_chains;
  opts.max_expansions = 1200;
  result.chains = planner.plan(goal, opts);
  for (const Chain& c : result.chains) result.gadgets_used += c.gadgets.size();
  return result;
}

}  // namespace gp::baselines
