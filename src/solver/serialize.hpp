// Stable serialization of expression DAGs (the checkpointable half of a
// solver::Context), and the compaction it defines.
//
// An ExprEncoder collects the nodes reachable from the refs it is asked to
// encode — in ref order, which is topological because operands intern
// before their users — and assigns them compact stable ids. Decoding
// rebuilds each node through the destination context's smart constructors
// (Context::rebuild): variables rebind by name, constants by value,
// everything else re-simplifies. Replaying an already-canonical node
// through the (pure, deterministic) constructors reproduces a structurally
// identical node, so
//   encode(ctx, roots) |> decode(fresh_ctx)
// yields terms that print, evaluate and solve identically — the property
// the kill-resume determinism test locks down. compact() makes the same
// rebuild calls in the same order straight from the source context.
#pragma once

#include <vector>

#include "solver/expr.hpp"
#include "support/serial.hpp"

namespace gp::solver {

/// Assigns compact ids to reachable nodes and writes them to a record.
/// Encode all roots first (add()), then emit the node table with
/// write_nodes(); afterwards id() translates any encoded root.
class ExprEncoder {
 public:
  explicit ExprEncoder(const Context& ctx) : ctx_(ctx) {}

  /// Register `e` (and its sub-DAG) for encoding; kNoExpr passes through.
  void add(ExprRef e);
  /// Append the node table (count + one entry per node, in topological
  /// order) to `w` and fix the compact ids.
  void write_nodes(serial::Writer& w);
  /// Compact id of an add()ed ref; valid only after write_nodes().
  u32 id(ExprRef e) const;

  static constexpr u32 kNoId = 0xffffffff;

 private:
  const Context& ctx_;
  std::vector<ExprRef> roots_;  // as add()ed
  std::vector<u32> ids_;        // ref -> compact id (kNoId: not encoded)
};

/// Reads a node table and rebuilds every node in `dst` through its smart
/// constructors. ref(id) then maps serialized ids to destination refs.
class ExprDecoder {
 public:
  explicit ExprDecoder(Context& dst) : dst_(dst) {}

  /// Parse the node table from `r`. Returns false (and fails `r`) on any
  /// structural violation: bad op/width, forward or self reference,
  /// out-of-range operand.
  bool read_nodes(serial::Reader& r);
  /// Destination ref for serialized id `id`; kNoExpr for kNoId. Fails `r`
  /// on an out-of-range id.
  ExprRef ref(u32 id, serial::Reader& r) const;

 private:
  Context& dst_;
  std::vector<ExprRef> refs_;  // id -> rebuilt ref
};

/// Rebuild the nodes of `src` reachable from `roots`, in ref order, into
/// `dst` through Context::rebuild: exactly the calls decoding
/// encode(src, roots) into `dst` makes, without the bytes. Returns dst's
/// ref for every src ref (kNoExpr for the unreachable ones). Like decoding
/// it draws on dst's governor, so it can throw ResourceExhausted, and a
/// width violation throws Error.
std::vector<ExprRef> compact(const Context& src,
                             const std::vector<ExprRef>& roots, Context& dst);

}  // namespace gp::solver
