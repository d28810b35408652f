#include "solver/bitblast.hpp"

#include <algorithm>

namespace gp::solver {

bool BitBlaster::is_const_lit(Lit l, bool* out) const {
  if (l == true_lit_) {
    *out = true;
    return true;
  }
  if (l == false_lit()) {
    *out = false;
    return true;
  }
  return false;
}

size_t BitBlaster::find(u64 key) const {
  const size_t mask = table_.size() - 1;
  // Fold the tag and the high operand down before mixing: the low bits of
  // the hash pick the slot.
  size_t i = static_cast<size_t>(
                 ((key ^ (key >> 31)) * 0x9e3779b97f4a7c15ULL) >> 32) &
             mask;
  while (table_[i].key != 0 && table_[i].key != key) i = (i + 1) & mask;
  return i;
}

void BitBlaster::insert(size_t slot, u64 key, u32 value) {
  table_[slot] = {key, value};
  if (2 * ++used_ <= table_.size()) return;
  // Past half full: double, and re-place every entry.
  std::vector<Slot> old(2 * table_.size());
  old.swap(table_);
  for (const Slot& s : old)
    if (s.key != 0) table_[find(s.key)] = s;
}

Lit BitBlaster::mk_and(Lit a, Lit b) {
  bool ca, cb;
  if (is_const_lit(a, &ca)) return ca ? b : false_lit();
  if (is_const_lit(b, &cb)) return cb ? a : false_lit();
  if (a == b) return a;
  if (a == ~b) return false_lit();
  if (a.code > b.code) std::swap(a, b);
  const u64 key = kAndGate | (u64{a.code} << 31) | b.code;
  const size_t slot = find(key);
  if (table_[slot].key == key) return {table_[slot].value};
  const Lit o = Lit::pos(sat_.new_var());
  sat_.add_clause({~o, a});
  sat_.add_clause({~o, b});
  sat_.add_clause({o, ~a, ~b});
  insert(slot, key, o.code);
  return o;
}

Lit BitBlaster::mk_or(Lit a, Lit b) { return ~mk_and(~a, ~b); }

Lit BitBlaster::mk_xor(Lit a, Lit b) {
  bool ca, cb;
  if (is_const_lit(a, &ca)) return ca ? ~b : b;
  if (is_const_lit(b, &cb)) return cb ? ~a : a;
  if (a == b) return false_lit();
  if (a == ~b) return true_lit_;
  if (a.code > b.code) std::swap(a, b);
  const u64 key = kXorGate | (u64{a.code} << 31) | b.code;
  const size_t slot = find(key);
  if (table_[slot].key == key) return {table_[slot].value};
  const Lit o = Lit::pos(sat_.new_var());
  sat_.add_clause({~o, a, b});
  sat_.add_clause({~o, ~a, ~b});
  sat_.add_clause({o, ~a, b});
  sat_.add_clause({o, a, ~b});
  insert(slot, key, o.code);
  return o;
}

Lit BitBlaster::mk_mux(Lit sel, Lit t, Lit f) {
  bool c;
  if (is_const_lit(sel, &c)) return c ? t : f;
  if (t == f) return t;
  const Lit else_part = mk_and(~sel, f);
  return mk_or(mk_and(sel, t), else_part);
}

Lit BitBlaster::mk_big_and(std::span<const Lit> ls) {
  Lit acc = true_lit_;
  for (const Lit l : ls) acc = mk_and(acc, l);
  return acc;
}

void BitBlaster::add_bits(const Lit* a, const Lit* b, Lit carry_in, Lit* sum,
                          u8 w) {
  Lit carry = carry_in;
  for (u8 i = 0; i < w; ++i) {
    const Lit ai = a[i], bi = b[i];  // sum[i] may alias them
    const Lit axb = mk_xor(ai, bi);
    sum[i] = mk_xor(axb, carry);
    const Lit propagated = mk_and(carry, axb);
    carry = mk_or(mk_and(ai, bi), propagated);
  }
}

Lit BitBlaster::ult_bits(const Lit* a, const Lit* b, u8 w) {
  // a < b unsigned: iterate from MSB; at the first differing bit, a's bit is
  // 0 and b's is 1.
  Lit lt = false_lit();
  Lit eq_so_far = true_lit_;
  for (size_t i = w; i-- > 0;) {
    lt = mk_or(lt, mk_and(eq_so_far, mk_and(~a[i], b[i])));
    eq_so_far = mk_and(eq_so_far, ~mk_xor(a[i], b[i]));
  }
  return lt;
}

u32 BitBlaster::blast(ExprRef e) {
  const u64 key = kBlasted | e;
  if (const size_t slot = find(key); table_[slot].key == key)
    return table_[slot].value;

  const Node& n = ctx_.node(e);
  const u8 w = n.width;
  // Operands first, in the pinned order (see the header).
  u32 ia = 0, ib = 0, ic = 0;
  switch (n.op) {
    case Op::Const:
    case Op::Var:
      break;
    case Op::Neg:
    case Op::Not:
    case Op::ZExt:
    case Op::SExt:
    case Op::Extract:
      ia = blast(n.a);
      break;
    case Op::Add:
    case Op::Ult:
      ib = blast(n.b);
      ia = blast(n.a);
      break;
    case Op::Mul:
    case Op::And:
    case Op::Or:
    case Op::Xor:
    case Op::Shl:
    case Op::LShr:
    case Op::AShr:
    case Op::Eq:
    case Op::Slt:
    case Op::Concat:
      ia = blast(n.a);
      ib = blast(n.b);
      break;
    case Op::Ite:
      ia = blast(n.a);
      ib = blast(n.b);
      ic = blast(n.c);
      break;
  }

  // From here on nothing appends to bits_, so the pointers stay valid.
  const u32 o = static_cast<u32>(bits_.size());
  bits_.resize(bits_.size() + w, false_lit());
  Lit* out = bits_.data() + o;
  const Lit* a = bits_.data() + ia;
  const Lit* b = bits_.data() + ib;
  const Lit* c = bits_.data() + ic;
  const u8 aw = n.a == kNoExpr ? 0 : ctx_.width(n.a);

  switch (n.op) {
    case Op::Const:
      for (u8 i = 0; i < w; ++i) out[i] = lit_const((n.cval >> i) & 1);
      break;
    case Op::Var:
      for (u8 i = 0; i < w; ++i) out[i] = Lit::pos(sat_.new_var());
      break;
    case Op::Add:
      add_bits(a, b, false_lit(), out, w);
      break;
    case Op::Neg:
      for (u8 i = 0; i < w; ++i) out[i] = ~a[i];
      scratch_.assign(w, false_lit());
      add_bits(out, scratch_.data(), true_lit_, out, w);
      break;
    case Op::Mul:
      // out += (a << i) gated by b[i], for each i.
      for (u8 i = 0; i < w; ++i) {
        scratch_.assign(w, false_lit());
        for (u8 j = i; j < w; ++j) scratch_[j] = mk_and(a[j - i], b[i]);
        add_bits(out, scratch_.data(), false_lit(), out, w);
      }
      break;
    case Op::And:
      for (u8 i = 0; i < w; ++i) out[i] = mk_and(a[i], b[i]);
      break;
    case Op::Or:
      for (u8 i = 0; i < w; ++i) out[i] = mk_or(a[i], b[i]);
      break;
    case Op::Xor:
      for (u8 i = 0; i < w; ++i) out[i] = mk_xor(a[i], b[i]);
      break;
    case Op::Not:
      for (u8 i = 0; i < w; ++i) out[i] = ~a[i];
      break;
    case Op::Shl:
    case Op::LShr:
    case Op::AShr: {
      // Barrel shifter over the log2(w) used count bits (count masked by
      // width-1, matching Context::eval and x86 semantics). Each stage
      // reads out and is built in scratch_.
      std::copy(a, a + w, out);
      const u8 cw = ctx_.width(n.b);
      unsigned stages = 0;
      while ((1u << stages) < w) ++stages;
      const Lit sign = n.op == Op::AShr ? out[w - 1] : false_lit();
      scratch_.resize(w);
      for (unsigned s = 0; s < stages; ++s) {
        const u32 shift = 1u << s;
        const Lit sel = s < cw ? b[s] : false_lit();
        for (u8 i = 0; i < w; ++i) {
          Lit shifted;
          if (n.op == Op::Shl) {
            shifted = i >= shift ? out[i - shift] : false_lit();
          } else {
            shifted = i + shift < w ? out[i + shift] : sign;
          }
          scratch_[i] = mk_mux(sel, shifted, out[i]);
        }
        std::copy(scratch_.begin(), scratch_.end(), out);
      }
      break;
    }
    case Op::Eq:
      scratch_.resize(aw);
      for (u8 i = 0; i < aw; ++i) scratch_[i] = ~mk_xor(a[i], b[i]);
      out[0] = mk_big_and(scratch_);
      break;
    case Op::Ult:
      out[0] = ult_bits(a, b, aw);
      break;
    case Op::Slt: {
      const Lit sa = a[aw - 1], sb = b[aw - 1];
      const Lit u = ult_bits(a, b, aw);
      // Different signs: a<b iff a negative. Same signs: unsigned compare.
      out[0] = mk_mux(mk_xor(sa, sb), sa, u);
      break;
    }
    case Op::Ite:
      for (u8 i = 0; i < w; ++i) out[i] = mk_mux(a[0], b[i], c[i]);
      break;
    case Op::ZExt:
      std::copy(a, a + aw, out);
      break;
    case Op::SExt:
      for (u8 i = 0; i < w; ++i) out[i] = i < aw ? a[i] : a[aw - 1];
      break;
    case Op::Extract:
      std::copy(a + n.aux, a + n.aux + w, out);
      break;
    case Op::Concat: {
      const u8 lo_w = ctx_.width(n.b);
      std::copy(b, b + lo_w, out);
      std::copy(a, a + aw, out + lo_w);
      break;
    }
  }

  insert(find(key), key, o);
  return o;
}

void BitBlaster::assert_true(ExprRef e) {
  GP_CHECK(ctx_.width(e) == 1, "assert_true needs a width-1 expression");
  sat_.add_clause({bits_[blast(e)]});
}

u64 BitBlaster::model_value(ExprRef e) {
  const u32 o = blast(e);
  const u8 w = ctx_.width(e);
  u64 v = 0;
  for (u8 i = 0; i < w; ++i) {
    const Lit l = bits_[o + i];
    bool c;
    bool bit;
    if (is_const_lit(l, &c)) {
      bit = c;
    } else {
      bit = sat_.model_value(l.var()) != l.sign();
    }
    if (bit) v |= u64{1} << i;
  }
  return v;
}

}  // namespace gp::solver
