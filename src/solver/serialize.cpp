#include "solver/serialize.hpp"

namespace gp::solver {

namespace {

/// Operand count of `op`; -1 for a byte that names no op.
int arity(Op op) {
  switch (op) {
    case Op::Const: case Op::Var:
      return 0;
    case Op::Not: case Op::Neg: case Op::ZExt: case Op::SExt:
    case Op::Extract:
      return 1;
    case Op::Add: case Op::Mul: case Op::And: case Op::Or: case Op::Xor:
    case Op::Shl: case Op::LShr: case Op::AShr:
    case Op::Eq: case Op::Ult: case Op::Slt:
    case Op::Concat:
      return 2;
    case Op::Ite:
      return 3;
  }
  return -1;
}

}  // namespace

void ExprEncoder::add(ExprRef e) { roots_.push_back(e); }

void ExprEncoder::write_nodes(serial::Writer& w) {
  // Ref order is creation order, and operands always intern before their
  // users, so ref order is a topological order with stable ids regardless
  // of the order roots were add()ed in.
  const std::vector<ExprRef> order = ctx_.reachable(roots_);
  ids_.assign(ctx_.num_nodes(), kNoId);
  for (u32 i = 0; i < order.size(); ++i) ids_[order[i]] = i;

  w.put_u32(static_cast<u32>(order.size()));
  for (const ExprRef e : order) {
    const Node& n = ctx_.node(e);
    w.put_u8(static_cast<u8>(n.op));
    w.put_u8(n.width);
    w.put_u8(n.aux);
    if (n.op == Op::Const) {
      w.put_u64(n.cval);
    } else if (n.op == Op::Var) {
      w.put_str(ctx_.var_name(e));
    } else {
      auto operand = [&](ExprRef x) {
        w.put_u32(x == kNoExpr ? kNoId : ids_[x]);
      };
      operand(n.a);
      operand(n.b);
      operand(n.c);
    }
  }
}

u32 ExprEncoder::id(ExprRef e) const {
  if (e == kNoExpr) return kNoId;
  GP_CHECK(e < ids_.size() && ids_[e] != kNoId, "id of an unencoded ref");
  return ids_[e];
}

bool ExprDecoder::read_nodes(serial::Reader& r) {
  const u32 count = r.get_u32();
  // Each serialized node is at least 3 bytes; a count implying more bytes
  // than remain is corrupt (guards the reserve below too).
  if (!r.ok() || static_cast<u64>(count) * 3 > r.remaining()) {
    r.set_failed();
    return false;
  }
  refs_.clear();
  refs_.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    Node n;
    n.op = static_cast<Op>(r.get_u8());
    n.width = r.get_u8();
    n.aux = r.get_u8();
    const int n_operands = arity(n.op);
    if (!r.ok() || n.width < 1 || n.width > 64 || n_operands < 0) {
      r.set_failed();  // bad width or unknown op byte: corrupt
      return false;
    }
    // Operand ids must point strictly backward in the table (topological
    // order); anything else is corruption. Slots past the op's arity are
    // read and ignored.
    auto operand = [&](bool required) -> ExprRef {
      const u32 id = r.get_u32();
      if (id == ExprEncoder::kNoId) {
        if (required) r.set_failed();
        return kNoExpr;
      }
      if (id >= i) {
        r.set_failed();
        return kNoExpr;
      }
      return refs_[id];
    };
    std::string name;
    if (n.op == Op::Const) {
      n.cval = r.get_u64();
    } else if (n.op == Op::Var) {
      name = r.get_str();
      if (!r.ok() || name.empty()) {
        r.set_failed();
        return false;
      }
    } else {
      n.a = operand(n_operands > 0);
      n.b = operand(n_operands > 1);
      n.c = operand(n_operands > 2);
      if (!r.ok()) return false;
    }
    refs_.push_back(dst_.rebuild(n, name));
  }
  return r.ok();
}

ExprRef ExprDecoder::ref(u32 id, serial::Reader& r) const {
  if (id == ExprEncoder::kNoId) return kNoExpr;
  if (id >= refs_.size()) {
    r.set_failed();
    return kNoExpr;
  }
  return refs_[id];
}

std::vector<ExprRef> compact(const Context& src,
                             const std::vector<ExprRef>& roots, Context& dst) {
  const std::vector<ExprRef> order = src.reachable(roots);
  dst.reserve(dst.num_nodes() + order.size());
  std::vector<ExprRef> out(src.num_nodes(), kNoExpr);
  const auto map = [&](ExprRef e) { return e == kNoExpr ? e : out[e]; };
  for (const ExprRef r : order) {
    Node n = src.node(r);
    n.a = map(n.a);
    n.b = map(n.b);
    n.c = map(n.c);
    out[r] = dst.rebuild(
        n, n.op == Op::Var ? src.var_name(r) : std::string_view{});
  }
  return out;
}

}  // namespace gp::solver
