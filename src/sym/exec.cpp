#include "sym/exec.hpp"

#include <atomic>
#include <charconv>

#include "support/metrics.hpp"

namespace gp::sym {

using solver::ExprRef;
using solver::kNoExpr;
using solver::Op;

std::string initial_reg_var(x86::Reg r) {
  return std::string(x86::reg_name(r)) + "0";
}
std::optional<x86::Reg> initial_reg_of(std::string_view name) {
  static const auto names = [] {
    std::array<std::string, x86::kNumRegs> n;
    for (int i = 0; i < x86::kNumRegs; ++i)
      n[i] = initial_reg_var(static_cast<x86::Reg>(i));
    return n;
  }();
  for (int i = 0; i < x86::kNumRegs; ++i)
    if (name == names[i]) return static_cast<x86::Reg>(i);
  return std::nullopt;
}
bool is_initial_reg_var(std::string_view name) {
  return initial_reg_of(name).has_value();
}
std::string initial_flag_var(ir::Flag f) {
  return std::string(ir::flag_name(f)) + "0";
}

VarName& VarName::add(std::string_view s) {
  GP_CHECK(size_ + s.size() <= sizeof buf_, "variable name too long");
  s.copy(buf_ + size_, s.size());
  size_ += s.size();
  return *this;
}
VarName& VarName::add_dec(u64 v) {
  const auto r = std::to_chars(buf_ + size_, buf_ + sizeof buf_, v);
  GP_CHECK(r.ec == std::errc{}, "variable name too long");
  size_ = static_cast<size_t>(r.ptr - buf_);
  return *this;
}
VarName& VarName::add_hex(u64 v) {
  add("0x");
  const auto r = std::to_chars(buf_ + size_, buf_ + sizeof buf_, v, 16);
  GP_CHECK(r.ec == std::errc{}, "variable name too long");
  size_ = static_cast<size_t>(r.ptr - buf_);
  return *this;
}

VarName stack_var(i64 offset) {
  VarName n;
  if (offset >= 0) return n.add("stk_").add_dec(static_cast<u64>(offset));
  return n.add("stk_m").add_dec(u64{0} - static_cast<u64>(offset));
}
std::optional<i64> parse_stack_var(std::string_view name) {
  if (!name.starts_with("stk_")) return std::nullopt;
  name.remove_prefix(4);
  const bool below = name.starts_with('m');
  if (below) name.remove_prefix(1);
  // Digits only: from_chars would also take a sign.
  if (name.empty() || name.front() < '0' || name.front() > '9')
    return std::nullopt;
  i64 v = 0;
  const char* end = name.data() + name.size();
  const auto r = std::from_chars(name.data(), end, v);
  if (r.ec != std::errc{} || r.ptr != end) return std::nullopt;
  return below ? -v : v;
}

std::optional<BaseOffset> split_base_offset(solver::Context& ctx,
                                            ExprRef addr) {
  const auto& n = ctx.node(addr);
  if (n.op == Op::Const)
    return BaseOffset{kNoExpr, static_cast<i64>(n.cval)};
  if (n.op == Op::Add) {
    // Smart constructors put the constant on the right.
    if (ctx.node(n.b).op == Op::Const)
      return BaseOffset{n.a, static_cast<i64>(ctx.node(n.b).cval)};
    return BaseOffset{addr, 0};
  }
  return BaseOffset{addr, 0};
}

State Executor::initial_state() {
  if (!init_ready_) {
    // A budget throw part-way leaves the cache unset; the retry finds the
    // variables interned so far and goes on in the same order.
    for (int i = 0; i < x86::kNumRegs; ++i)
      init_.regs[i] = ctx_.var(initial_reg_var(static_cast<x86::Reg>(i)), 64);
    for (int i = 0; i < ir::kNumFlags; ++i)
      init_.flags[i] = ctx_.var(initial_flag_var(static_cast<ir::Flag>(i)), 1);
    init_ready_ = true;
    rsp0_ = init_.regs[static_cast<int>(x86::Reg::RSP)];
  }
  return init_;
}

ExprRef Executor::rsp0() {
  if (rsp0_ == kNoExpr) rsp0_ = ctx_.var(initial_reg_var(x86::Reg::RSP), 64);
  return rsp0_;
}

/// In-universe canonicalization: the simulated stack lives below 2^32
/// (image::kStackTop = 0x7ffff000), so a 32-bit-truncated-then-zero-extended
/// stack address equals the original. Undoing the truncation keeps rsp-based
/// writes and reads comparable in the (base, offset) memory model.
ExprRef Executor::canonical_addr(ExprRef addr) {
  const auto& n = ctx_.node(addr);
  if (n.op != Op::ZExt || n.width != 64) return addr;
  const auto& inner = ctx_.node(n.a);
  if (inner.op != Op::Extract || inner.aux != 0 || inner.width != 32)
    return addr;
  const ExprRef full = inner.a;
  const auto bo = split_base_offset(ctx_, full);
  if (bo && bo->base == rsp0()) return full;
  return addr;
}

ExprRef Executor::load(State& st, ExprRef addr, u8 width) {
  addr = canonical_addr(addr);
  const auto ref = split_base_offset(ctx_, addr);

  // Scan the write history newest-to-oldest.
  for (auto it = st.writes.rbegin(); it != st.writes.rend(); ++it) {
    const auto w = split_base_offset(ctx_, it->addr);
    if (ref && w && ref->base == w->base) {
      if (ref->offset == w->offset && width == it->width) return it->value;
      const i64 a0 = ref->offset, a1 = ref->offset + width / 8;
      const i64 b0 = w->offset, b1 = w->offset + it->width / 8;
      // Disjoint ranges: keep scanning.
      if (a1 <= b0 || b1 <= a0) continue;
      // Narrow read fully inside a wider write: slice the stored value.
      if (b0 <= a0 && a1 <= b1) {
        const u8 bit_off = static_cast<u8>((a0 - b0) * 8);
        return ctx_.extract(it->value, bit_off, width);
      }
      // Other partial overlaps: the exact-match model gives up precision
      // here (fresh variable below).
      st.assumed_no_alias = true;
      break;
    }
    // Different symbolic bases: assumed disjoint.
    st.assumed_no_alias = true;
  }

  // Attacker-controlled stack read?
  if (ref && ref->base == rsp0()) {
    if (width == 64) {
      st.stack_reads.push_back(ref->offset);
      return ctx_.var(stack_var(ref->offset).view(), 64);
    }
    // Narrow reads slice the aligned 8-byte payload slot they fall in, when
    // they don't straddle a slot boundary (straddling reads fall through to
    // an unconstrained fresh variable).
    const i64 slot = ref->offset & ~i64{7};
    const unsigned bit_off = static_cast<unsigned>(ref->offset - slot) * 8;
    if (bit_off + width <= 64) {
      st.stack_reads.push_back(slot);
      return ctx_.extract(ctx_.var(stack_var(slot).view(), 64),
                          static_cast<u8>(bit_off), width);
    }
  }

  // Constant addresses read the image itself (jump tables, initialized
  // globals); outside the image they read zero, matching the emulator's
  // sparse memory. (Must come after the write-history scan above.)
  if (ref && ref->base == solver::kNoExpr && img_) {
    const u64 a = static_cast<u64>(ref->offset);
    u64 value = 0;
    for (unsigned i = 0; i < width / 8u; ++i) {
      const u64 byte_addr = a + i;
      u8 byte = 0;
      if (img_->in_code(byte_addr)) {
        byte = img_->code_at(byte_addr)[0];
      } else if (byte_addr >= img_->data_base() &&
                 byte_addr < img_->data_base() + img_->data().size()) {
        byte = img_->data()[byte_addr - img_->data_base()];
      }
      value |= static_cast<u64>(byte) << (8 * i);
    }
    return ctx_.constant(value, width);
  }

  // Attacker-derivable pointer? If every variable in the address is a
  // payload slot, an initial GP register, or a previously derived indirect
  // value, a chain can steer this load into the payload (paper Sec. IV-B's
  // POINTER-typed constraints). Return a tracked indirect-read variable.
  bool derivable = true;
  for (const ExprRef v : ctx_.variables(addr)) {
    const std::string_view name = ctx_.var_name(v);
    if (parse_stack_var(name) || name.starts_with("ind")) continue;
    if (!is_initial_reg_var(name)) derivable = false;
  }
  if (derivable) {
    const ExprRef var = ctx_.var(fresh_name("ind", width).view(), width);
    st.ind_reads.push_back({addr, var, width});
    return var;
  }

  return ctx_.var(fresh_name("mem", width).view(), width);
}

VarName Executor::fresh_name(std::string_view prefix, u8 width) {
  VarName n;
  n.add(prefix);
  // Inside an origin scope names are a pure function of (tag, ordinal),
  // so concurrent extractors mint identical names for identical loads.
  if (use_origin_) {
    n.add("@").add_hex(origin_tag_).add(".").add_dec(origin_count_++);
  } else {
    // Otherwise the counter is process-global (and atomic: Executors on
    // different threads may share it) so Executor instances sharing one
    // Context never collide.
    static std::atomic<u64> global_counter{0};
    n.add_dec(global_counter.fetch_add(1));
  }
  // Names also carry the width, since hash-consed variables are
  // width-unique.
  return n.add("_").add_dec(width);
}

void Executor::store(State& st, ExprRef addr, ExprRef value, u8 width) {
  st.writes.push_back({canonical_addr(addr), value, width});
}

Flow Executor::step(State& st, const ir::Lifted& l) {
  using ir::IrOp;
  if (governor_ && !governor_->sym_steps().try_consume())
    throw ResourceExhausted(
        Status::budget_exhausted("symbolic-step budget"));
  {
    static metrics::Counter& steps = metrics::registry().counter("sym.steps");
    steps.add();
  }
  std::vector<ExprRef>& temps = temps_;
  temps.assign(l.num_temps, kNoExpr);

  for (const auto& c : l.compute) {
    ExprRef v = kNoExpr;
    const u8 w = c.width;
    switch (c.op) {
      case IrOp::Const: v = ctx_.constant(c.imm, w); break;
      case IrOp::GetReg: v = st.regs[static_cast<int>(c.reg)]; break;
      case IrOp::GetFlag: v = st.flags[static_cast<int>(c.flag)]; break;
      case IrOp::Load: v = load(st, temps[c.a], w); break;
      case IrOp::Add: v = ctx_.add(temps[c.a], temps[c.b]); break;
      case IrOp::Sub: v = ctx_.sub(temps[c.a], temps[c.b]); break;
      case IrOp::Mul: v = ctx_.mul(temps[c.a], temps[c.b]); break;
      case IrOp::And: v = ctx_.band(temps[c.a], temps[c.b]); break;
      case IrOp::Or: v = ctx_.bor(temps[c.a], temps[c.b]); break;
      case IrOp::Xor: v = ctx_.bxor(temps[c.a], temps[c.b]); break;
      case IrOp::Shl: v = ctx_.shl(temps[c.a], temps[c.b]); break;
      case IrOp::LShr: v = ctx_.lshr(temps[c.a], temps[c.b]); break;
      case IrOp::AShr: v = ctx_.ashr(temps[c.a], temps[c.b]); break;
      case IrOp::Not: v = ctx_.bnot(temps[c.a]); break;
      case IrOp::Neg: v = ctx_.neg(temps[c.a]); break;
      case IrOp::Eq: v = ctx_.eq(temps[c.a], temps[c.b]); break;
      case IrOp::Ult: v = ctx_.ult(temps[c.a], temps[c.b]); break;
      case IrOp::Slt: v = ctx_.slt(temps[c.a], temps[c.b]); break;
      case IrOp::Ite: v = ctx_.ite(temps[c.a], temps[c.b], temps[c.c]); break;
      case IrOp::ZExt: v = ctx_.zext(temps[c.a], w); break;
      case IrOp::SExt: v = ctx_.sext(temps[c.a], w); break;
      case IrOp::Trunc: v = ctx_.extract(temps[c.a], 0, w); break;
    }
    temps[c.dst] = v;
  }

  for (const auto& e : l.effects) {
    switch (e.kind) {
      case ir::EffectKind::PutReg:
        st.regs[static_cast<int>(e.reg)] = temps[e.value];
        break;
      case ir::EffectKind::PutFlag:
        st.flags[static_cast<int>(e.flag)] = temps[e.value];
        break;
      case ir::EffectKind::Store:
        store(st, temps[e.addr], temps[e.value], e.width);
        break;
    }
  }

  Flow f;
  f.kind = l.jump.kind;
  f.target = l.jump.target;
  f.fallthrough = l.jump.fallthrough;
  f.is_ret = l.jump.is_ret;
  f.is_call = l.jump.is_call;
  if (l.jump.target_temp != ir::kNoTemp)
    f.target_expr = temps[l.jump.target_temp];
  if (l.jump.cond != ir::kNoTemp) f.cond = temps[l.jump.cond];
  return f;
}

}  // namespace gp::sym
