#include "gadget/serialize.hpp"

#include "solver/serialize.hpp"

namespace gp::gadget {

namespace {

void put_operand(serial::Writer& w, const x86::Operand& op) {
  w.put_u8(static_cast<u8>(op.kind));
  w.put_u8(static_cast<u8>(op.reg));
  w.put_i64(op.imm);
  w.put_u8(static_cast<u8>(op.mem.base));
  w.put_u8(static_cast<u8>(op.mem.index));
  w.put_u8(op.mem.scale);
  w.put_i64(op.mem.disp);
  w.put_bool(op.mem.rip_relative);
}

bool get_reg(serial::Reader& r, x86::Reg& out) {
  const u8 v = r.get_u8();
  if (v > static_cast<u8>(x86::Reg::NONE)) {
    r.set_failed();
    return false;
  }
  out = static_cast<x86::Reg>(v);
  return true;
}

bool get_operand(serial::Reader& r, x86::Operand& op) {
  const u8 kind = r.get_u8();
  if (kind > static_cast<u8>(x86::OperandKind::MEM)) {
    r.set_failed();
    return false;
  }
  op.kind = static_cast<x86::OperandKind>(kind);
  if (!get_reg(r, op.reg)) return false;
  op.imm = r.get_i64();
  if (!get_reg(r, op.mem.base) || !get_reg(r, op.mem.index)) return false;
  op.mem.scale = r.get_u8();
  op.mem.disp = static_cast<i32>(r.get_i64());
  op.mem.rip_relative = r.get_bool();
  return r.ok();
}

void put_inst(serial::Writer& w, const x86::Inst& inst) {
  w.put_u8(static_cast<u8>(inst.mnemonic));
  w.put_u8(static_cast<u8>(inst.cond));
  w.put_u8(inst.src_size);
  put_operand(w, inst.dst);
  put_operand(w, inst.src);
  w.put_u8(inst.size);
  w.put_u8(inst.len);
  w.put_u64(inst.addr);
}

bool get_inst(serial::Reader& r, x86::Inst& inst) {
  const u8 mnemonic = r.get_u8();
  if (mnemonic > static_cast<u8>(x86::Mnemonic::INT3)) {
    r.set_failed();
    return false;
  }
  inst.mnemonic = static_cast<x86::Mnemonic>(mnemonic);
  const u8 cond = r.get_u8();
  if (cond > static_cast<u8>(x86::Cond::G)) {
    r.set_failed();
    return false;
  }
  inst.cond = static_cast<x86::Cond>(cond);
  inst.src_size = r.get_u8();
  if (!get_operand(r, inst.dst) || !get_operand(r, inst.src)) return false;
  inst.size = r.get_u8();
  inst.len = r.get_u8();
  inst.addr = r.get_u64();
  return r.ok();
}

}  // namespace

std::vector<std::vector<u8>> encode_pool(const solver::Context& ctx,
                                         const std::vector<Record>& pool) {
  solver::ExprEncoder enc(ctx);
  for (const solver::ExprRef e : pool_refs(pool)) enc.add(e);

  std::vector<std::vector<u8>> out;
  serial::Writer header;
  header.put_u32(static_cast<u32>(pool.size()));
  enc.write_nodes(header);
  out.push_back(header.take());

  for (const Record& g : pool) {
    serial::Writer w;
    w.put_u64(g.addr);
    w.put_u32(g.len);
    w.put_u32(static_cast<u32>(g.n_insts));
    w.put_u8(static_cast<u8>(g.end));
    w.put_bool(g.has_cond_jump);
    w.put_bool(g.has_direct_jump);
    w.put_u16(g.clobbered);
    w.put_u16(g.controlled);
    w.put_u16(g.settable);
    for (const auto e : g.final_regs) w.put_u32(enc.id(e));
    w.put_u32(static_cast<u32>(g.precond.size()));
    for (const auto e : g.precond) w.put_u32(enc.id(e));
    w.put_u32(enc.id(g.next_rip));
    w.put_bool(g.stack_delta.has_value());
    w.put_i64(g.stack_delta.value_or(0));
    w.put_u32(static_cast<u32>(g.writes.size()));
    for (const auto& mw : g.writes) {
      w.put_u32(enc.id(mw.addr));
      w.put_u32(enc.id(mw.value));
      w.put_u8(mw.width);
    }
    w.put_u32(static_cast<u32>(g.ind_reads.size()));
    for (const auto& ir : g.ind_reads) {
      w.put_u32(enc.id(ir.addr));
      w.put_u32(enc.id(ir.var));
      w.put_u8(ir.width);
    }
    w.put_u32(static_cast<u32>(g.stack_reads.size()));
    for (const i64 off : g.stack_reads) w.put_i64(off);
    w.put_u32(static_cast<u32>(g.path.size()));
    for (const PathStep& s : g.path) {
      put_inst(w, s.inst);
      w.put_bool(s.branch_taken);
    }
    w.put_bool(g.aliased_memory);
    out.push_back(w.take());
  }
  return out;
}

std::optional<std::vector<Record>> decode_pool(
    solver::Context& ctx, const std::vector<std::vector<u8>>& records) {
  if (records.empty()) return std::nullopt;
  // Smart constructors GP_CHECK their width invariants; on bytes that pass
  // the CRC but violate them (shouldn't happen, but "never trusted" means
  // never), convert the throw into a soft miss.
  try {
    serial::Reader hr(records[0]);
    const u32 count = hr.get_u32();
    solver::ExprDecoder dec(ctx);
    if (!dec.read_nodes(hr) || !hr.at_end()) return std::nullopt;
    if (count + 1 != records.size()) return std::nullopt;

    // Bounded list reads: a corrupted count must not turn into a
    // multi-gigabyte allocation.
    constexpr u32 kMaxList = 1u << 20;

    std::vector<Record> pool;
    pool.reserve(count);
    for (u32 i = 0; i < count; ++i) {
      serial::Reader r(records[i + 1]);
      Record g;
      g.addr = r.get_u64();
      g.len = r.get_u32();
      g.n_insts = static_cast<int>(r.get_u32());
      const u8 end = r.get_u8();
      if (end > static_cast<u8>(EndKind::Syscall)) return std::nullopt;
      g.end = static_cast<EndKind>(end);
      g.has_cond_jump = r.get_bool();
      g.has_direct_jump = r.get_bool();
      g.clobbered = r.get_u16();
      g.controlled = r.get_u16();
      g.settable = r.get_u16();
      for (auto& e : g.final_regs) e = dec.ref(r.get_u32(), r);
      const u32 n_pre = r.get_u32();
      if (n_pre > kMaxList) return std::nullopt;
      for (u32 k = 0; k < n_pre && r.ok(); ++k)
        g.precond.push_back(dec.ref(r.get_u32(), r));
      g.next_rip = dec.ref(r.get_u32(), r);
      const bool has_delta = r.get_bool();
      const i64 delta = r.get_i64();
      if (has_delta) g.stack_delta = delta;
      const u32 n_writes = r.get_u32();
      if (n_writes > kMaxList) return std::nullopt;
      for (u32 k = 0; k < n_writes && r.ok(); ++k) {
        sym::MemWrite mw;
        mw.addr = dec.ref(r.get_u32(), r);
        mw.value = dec.ref(r.get_u32(), r);
        mw.width = r.get_u8();
        g.writes.push_back(mw);
      }
      const u32 n_reads = r.get_u32();
      if (n_reads > kMaxList) return std::nullopt;
      for (u32 k = 0; k < n_reads && r.ok(); ++k) {
        sym::IndirectRead ir;
        ir.addr = dec.ref(r.get_u32(), r);
        ir.var = dec.ref(r.get_u32(), r);
        ir.width = r.get_u8();
        g.ind_reads.push_back(ir);
      }
      const u32 n_stack = r.get_u32();
      if (n_stack > kMaxList) return std::nullopt;
      for (u32 k = 0; k < n_stack && r.ok(); ++k)
        g.stack_reads.push_back(r.get_i64());
      const u32 n_path = r.get_u32();
      if (n_path > kMaxList) return std::nullopt;
      for (u32 k = 0; k < n_path && r.ok(); ++k) {
        PathStep s;
        if (!get_inst(r, s.inst)) return std::nullopt;
        s.branch_taken = r.get_bool();
        g.path.push_back(s);
      }
      g.aliased_memory = r.get_bool();
      if (!r.ok() || !r.at_end()) return std::nullopt;
      pool.push_back(std::move(g));
    }
    return pool;
  } catch (const Error&) {
    return std::nullopt;
  } catch (const ResourceExhausted&) {
    // Rebuilding exprs consumes the governor's node budget like any other
    // interning; exhaustion mid-decode reads as a miss and the stage falls
    // back to (governed) recomputation.
    return std::nullopt;
  }
}

bool compact_pool(const solver::Context& src, std::vector<Record>& pool,
                  solver::Context& dst) {
  std::vector<solver::ExprRef> table;
  try {
    table = solver::compact(src, pool_refs(pool), dst);
  } catch (const Error&) {
    return false;  // as decode_pool: a width violation reads as a miss
  } catch (const ResourceExhausted&) {
    return false;
  }
  for (Record& g : pool)
    for_each_ref(g, [&](solver::ExprRef& e) {
      if (e != solver::kNoExpr) e = table[e];
    });
  return true;
}

void append_extract_key(serial::Writer& w) {
  w.put_u32(static_cast<u32>(kMaxInsts));
  w.put_u32(static_cast<u32>(kMaxCondJumps));
  w.put_u32(static_cast<u32>(kMaxPaths));
  w.put_u32(1);  // scan stride: every code byte is a start offset
  // A retired filter's flag, always off: kept so existing store keys match.
  w.put_bool(false);
}

}  // namespace gp::gadget
