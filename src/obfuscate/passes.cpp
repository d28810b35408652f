#include "obfuscate/obfuscate.hpp"

#include <algorithm>

namespace gp::obf {

using cfg::Block;
using cfg::BlockId;
using cfg::Function;
using cfg::Instr;
using cfg::Opcode;
using cfg::Program;
using cfg::Temp;
using cfg::Terminator;

std::string Options::name() const {
  std::vector<std::string> parts;
  if (substitution) parts.push_back("sub");
  if (encode_data) parts.push_back("enc");
  if (virtualize) parts.push_back("virt");
  if (bogus_cf) parts.push_back("bcf");
  if (flatten) parts.push_back("fla");
  if (parts.empty()) return "none";
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) out += (i ? "+" : "") + parts[i];
  return out;
}

// ---------------------------------------------------------------------------
// Instruction substitution
// ---------------------------------------------------------------------------

namespace {

/// Rewrite one instruction into an equivalent sequence; returns true if it
/// produced a substitution into `out`.
bool substitute_one(Function& f, const Instr& in, Rng& rng,
                    std::vector<Instr>& out) {
  const Temp d = in.dst, a = in.a, b = in.b;
  auto t = [&] { return f.new_temp(); };
  auto C = [&](Temp dst, i64 v) { out.push_back(Instr::constant(dst, v)); };
  auto B = [&](Opcode op, Temp dst, Temp x, Temp y) {
    out.push_back(Instr::bin(op, dst, x, y));
  };
  auto U = [&](Opcode op, Temp dst, Temp x) {
    out.push_back({.op = op, .dst = dst, .a = x});
  };

  switch (in.op) {
    case Opcode::Add:
      if (rng.chance(0.5)) {
        // a + b == (a ^ b) + ((a & b) << 1)
        const Temp x = t(), n = t(), one = t(), sh = t();
        B(Opcode::Xor, x, a, b);
        B(Opcode::And, n, a, b);
        C(one, 1);
        B(Opcode::Shl, sh, n, one);
        B(Opcode::Add, d, x, sh);
      } else {
        // a + b == (a | b) + (a & b)
        const Temp o = t(), n = t();
        B(Opcode::Or, o, a, b);
        B(Opcode::And, n, a, b);
        B(Opcode::Add, d, o, n);
      }
      return true;
    case Opcode::Sub:
      if (rng.chance(0.5)) {
        // a - b == a + (~b + 1)
        const Temp nb = t(), one = t(), neg = t();
        U(Opcode::Not, nb, b);
        C(one, 1);
        B(Opcode::Add, neg, nb, one);
        B(Opcode::Add, d, a, neg);
      } else {
        // a - b == (a ^ b) - ((~a & b) << 1)
        const Temp x = t(), na = t(), n = t(), one = t(), sh = t();
        B(Opcode::Xor, x, a, b);
        U(Opcode::Not, na, a);
        B(Opcode::And, n, na, b);
        C(one, 1);
        B(Opcode::Shl, sh, n, one);
        B(Opcode::Sub, d, x, sh);
      }
      return true;
    case Opcode::Xor: {
      // a ^ b == (~a & b) | (a & ~b)   — the paper's running example
      const Temp na = t(), nb = t(), l = t(), r = t();
      U(Opcode::Not, na, a);
      B(Opcode::And, l, na, b);
      U(Opcode::Not, nb, b);
      B(Opcode::And, r, a, nb);
      B(Opcode::Or, d, l, r);
      return true;
    }
    case Opcode::Or: {
      // a | b == (a & b) + (a ^ b)
      const Temp n = t(), x = t();
      B(Opcode::And, n, a, b);
      B(Opcode::Xor, x, a, b);
      B(Opcode::Add, d, n, x);
      return true;
    }
    case Opcode::And: {
      // a & b == (a | b) ^ (a ^ b)
      const Temp o = t(), x = t();
      B(Opcode::Or, o, a, b);
      B(Opcode::Xor, x, a, b);
      B(Opcode::Xor, d, o, x);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

void pass_substitution(Program& prog, Rng& rng, int rounds) {
  for (Function& f : prog.functions) {
    for (int round = 0; round < rounds; ++round) {
      for (Block& blk : f.blocks) {
        std::vector<Instr> out;
        out.reserve(blk.instrs.size() * 3);
        for (const Instr& in : blk.instrs) {
          if (!substitute_one(f, in, rng, out)) out.push_back(in);
        }
        blk.instrs = std::move(out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bogus control flow
// ---------------------------------------------------------------------------

namespace {

/// Redirect every edge pointing at `from` to `to` (terminators + entry).
void redirect_edges(Function& f, BlockId from, BlockId to,
                    BlockId skip_block) {
  if (f.entry == from) f.entry = to;
  for (size_t b = 0; b < f.blocks.size(); ++b) {
    if (static_cast<BlockId>(b) == skip_block) continue;
    Terminator& t = f.blocks[b].term;
    if (t.kind == Terminator::Kind::Jump || t.kind == Terminator::Kind::Branch) {
      if (t.target == from) t.target = to;
    }
    if (t.kind == Terminator::Kind::Branch && t.fallthrough == from)
      t.fallthrough = to;
    if (t.kind == Terminator::Kind::Switch)
      for (BlockId& tgt : t.table)
        if (tgt == from) tgt = to;
  }
}

/// Emit an always-true predicate over `x` into `pred`, returning the 0/1
/// condition temp. Each family is an algebraic tautology (validity of each
/// is solver-proven in tests/test_obfuscate.cpp).
Temp emit_opaque_predicate(Function& f, Block& pred, Temp x, Rng& rng) {
  auto C = [&](i64 v) {
    const Temp t = f.new_temp();
    pred.instrs.push_back(Instr::constant(t, v));
    return t;
  };
  auto B = [&](Opcode op, Temp a, Temp b) {
    const Temp t = f.new_temp();
    pred.instrs.push_back(Instr::bin(op, t, a, b));
    return t;
  };
  switch (rng.below(4)) {
    case 0: {
      // (x^2 + x) is always even.
      const Temp sum = B(Opcode::Add, B(Opcode::Mul, x, x), x);
      return B(Opcode::CmpEq, B(Opcode::And, sum, C(1)), C(0));
    }
    case 1: {
      // x & 1 is 0 or 1, so (x & 1) < 2.
      return B(Opcode::CmpLt, B(Opcode::And, x, C(1)), C(2));
    }
    case 2: {
      // (x | 1) is odd: its low bit is 1.
      return B(Opcode::CmpEq, B(Opcode::And, B(Opcode::Or, x, C(1)), C(1)),
               C(1));
    }
    default: {
      // x^3 - x = x(x-1)(x+1): product of 3 consecutive ints, always even.
      const Temp cube = B(Opcode::Mul, B(Opcode::Mul, x, x), x);
      const Temp diff = B(Opcode::Sub, cube, x);
      return B(Opcode::CmpEq, B(Opcode::And, diff, C(1)), C(0));
    }
  }
}

/// Emit plausible-looking junk computation over fresh temps. Never executed,
/// but it compiles into real, decodable machine code — the raw material of
/// the paper's obfuscation-introduced gadgets.
void emit_junk(Function& f, Rng& rng, std::vector<Instr>& out,
               i64 junk_slot) {
  const int n = 2 + static_cast<int>(rng.below(5));
  std::vector<Temp> pool;
  for (int i = 0; i < n; ++i) {
    const Temp d = f.new_temp();
    if (pool.size() < 2 || rng.chance(0.3)) {
      out.push_back(Instr::constant(d, static_cast<i64>(rng.next())));
    } else {
      static const Opcode ops[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                   Opcode::Xor, Opcode::Or,  Opcode::And,
                                   Opcode::Shl, Opcode::Sar};
      out.push_back(Instr::bin(ops[rng.below(std::size(ops))], d,
                               pool[rng.below(pool.size())],
                               pool[rng.below(pool.size())]));
    }
    pool.push_back(d);
  }
  // A dead store to a dedicated junk frame slot.
  const Temp addr = f.new_temp();
  out.push_back({.op = Opcode::FrameAddr, .dst = addr, .imm = junk_slot});
  out.push_back({.op = Opcode::Store, .a = addr, .b = pool.back()});
}

}  // namespace

void pass_bogus_cf(Program& prog, Rng& rng, double prob) {
  for (Function& f : prog.functions) {
    // Dedicated junk slot so dead stores cannot touch live state even if a
    // bug ever made them reachable.
    const i64 junk_slot = f.frame_bytes;
    f.frame_bytes += 8;

    const auto original_count = static_cast<BlockId>(f.blocks.size());
    for (BlockId b = 0; b < original_count; ++b) {
      if (!rng.chance(prob)) continue;

      const BlockId pred_b = f.new_block();
      const BlockId junk_b = f.new_block();
      redirect_edges(f, b, pred_b, pred_b);

      // Always-true opaque predicate, drawn from the classic families the
      // paper cites [17][18]; seeded from a live value when one exists.
      Block& pred = f.blocks[pred_b];
      const Temp x =
          f.num_params > 0 ? static_cast<Temp>(rng.below(f.num_params))
                           : f.new_temp();
      if (f.num_params == 0)
        pred.instrs.push_back(
            Instr::constant(x, static_cast<i64>(rng.next())));
      const Temp cond = emit_opaque_predicate(f, pred, x, rng);
      pred.term = Terminator::branch(cond, b, junk_b);

      Block& junk = f.blocks[junk_b];
      emit_junk(f, rng, junk.instrs, junk_slot);
      junk.term = Terminator::jump(b);
    }
  }
}

// ---------------------------------------------------------------------------
// Control-flow flattening
// ---------------------------------------------------------------------------

void pass_flatten(Program& prog, Rng& rng) {
  for (Function& f : prog.functions) {
    const auto original_count = static_cast<BlockId>(f.blocks.size());
    if (original_count < 2) continue;

    // Shuffled dispatch table: state s routes to table[s].
    std::vector<BlockId> table(original_count);
    for (BlockId b = 0; b < original_count; ++b) table[b] = b;
    for (size_t i = table.size(); i > 1; --i)
      std::swap(table[i - 1], table[rng.below(i)]);
    std::vector<i64> state_of(original_count);
    for (size_t s = 0; s < table.size(); ++s) state_of[table[s]] = s;

    const Temp state = f.new_temp();
    const BlockId dispatch = f.new_block();
    f.blocks[dispatch].term = Terminator::make_switch(state, table);

    for (BlockId b = 0; b < original_count; ++b) {
      Terminator& t = f.blocks[b].term;
      auto& instrs = f.blocks[b].instrs;
      switch (t.kind) {
        case Terminator::Kind::Jump:
          instrs.push_back(Instr::constant(state, state_of[t.target]));
          t = Terminator::jump(dispatch);
          break;
        case Terminator::Kind::Branch: {
          // state = s_false + (cond != 0) * (s_true - s_false).
          // Branch conditions are "non-zero taken", so normalize to 0/1
          // before the arithmetic select.
          const Temp zero = f.new_temp(), norm = f.new_temp(),
                     st = f.new_temp(), sf = f.new_temp(),
                     diff = f.new_temp(), m = f.new_temp();
          instrs.push_back(Instr::constant(zero, 0));
          instrs.push_back(Instr::bin(Opcode::CmpNe, norm, t.cond, zero));
          instrs.push_back(Instr::constant(st, state_of[t.target]));
          instrs.push_back(Instr::constant(sf, state_of[t.fallthrough]));
          instrs.push_back(Instr::bin(Opcode::Sub, diff, st, sf));
          instrs.push_back(Instr::bin(Opcode::Mul, m, norm, diff));
          instrs.push_back(Instr::bin(Opcode::Add, state, sf, m));
          t = Terminator::jump(dispatch);
          break;
        }
        case Terminator::Kind::Switch:
        case Terminator::Kind::Ret:
          break;  // computed/exit edges stay direct
      }
    }

    // New entry primes the state variable.
    const BlockId new_entry = f.new_block();
    f.blocks[new_entry].instrs.push_back(
        Instr::constant(state, state_of[f.entry]));
    f.blocks[new_entry].term = Terminator::jump(dispatch);
    f.entry = new_entry;
  }
}

// ---------------------------------------------------------------------------
// Data encoding
// ---------------------------------------------------------------------------

void pass_encode_data(Program& prog, Rng& rng) {
  for (Function& f : prog.functions) {
    for (Block& blk : f.blocks) {
      std::vector<Instr> out;
      out.reserve(blk.instrs.size() * 2);
      for (const Instr& in : blk.instrs) {
        if (in.op != Opcode::Const) {
          out.push_back(in);
          continue;
        }
        const i64 key = static_cast<i64>(rng.next());
        const Temp enc = f.new_temp(), k = f.new_temp();
        if (rng.chance(0.5)) {
          out.push_back(Instr::constant(enc, in.imm ^ key));
          out.push_back(Instr::constant(k, key));
          out.push_back(Instr::bin(Opcode::Xor, in.dst, enc, k));
        } else {
          out.push_back(Instr::constant(enc, in.imm - key));
          out.push_back(Instr::constant(k, key));
          out.push_back(Instr::bin(Opcode::Add, in.dst, enc, k));
        }
      }
      blk.instrs = std::move(out);
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Substitution rewrite rounds of every profile.
constexpr int kSubstitutionRounds = 1;
/// Probability that bogus_cf instruments a given block, in every profile.
constexpr double kBogusProb = 0.5;

void obfuscate(Program& prog, const Options& opts) {
  Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + 0xabcdef);
  if (opts.substitution) pass_substitution(prog, rng, kSubstitutionRounds);
  if (opts.encode_data) pass_encode_data(prog, rng);
  if (opts.virtualize) pass_virtualize(prog, rng);
  if (opts.bogus_cf) pass_bogus_cf(prog, rng, kBogusProb);
  if (opts.flatten) pass_flatten(prog, rng);
  cfg::verify(prog);
}

}  // namespace gp::obf
