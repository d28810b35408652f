// Stable serialization of gadget pools (raw or minimized) for the artifact
// store: the expensive-to-recompute output of extraction + subsumption.
//
// Layout: record 0 is the pool header (gadget count + the expression node
// table shared by every summary), then one record per gadget. The store
// frames each record with its own CRC32, so a flipped bit in any gadget is
// caught by that record's checksum before decoding starts; decode failures
// (truncated fields, out-of-range enums, width violations) additionally
// fail soft — the pool reads as absent and is recomputed, never trusted.
#pragma once

#include <optional>
#include <vector>

#include "gadget/gadget.hpp"
#include "support/serial.hpp"

namespace gp::gadget {

/// Serialize `pool` (expressions owned by `ctx`) into store records.
std::vector<std::vector<u8>> encode_pool(const solver::Context& ctx,
                                         const std::vector<Record>& pool);

/// Rebuild a pool inside `ctx` (expressions replay through its smart
/// constructors, like a cross-context import). nullopt on any corruption.
std::optional<std::vector<Record>> decode_pool(
    solver::Context& ctx, const std::vector<std::vector<u8>>& records);

/// Canonicalize `pool` into `dst`: rebuild the nodes its records reach,
/// in ref order, through dst's smart constructors (solver::compact) and
/// remap the records' refs in place. `dst` and `pool` end up as
/// decode_pool(dst, encode_pool(src, pool)) would leave them, without the
/// bytes. Returns false, with `pool` untouched, when the rebuild is cut by
/// dst's node budget or an injected fault (or breaks a width invariant).
bool compact_pool(const solver::Context& src, std::vector<Record>& pool,
                  solver::Context& dst);

/// Append the extraction bounds (kMaxInsts, kMaxCondJumps, kMaxPaths) to
/// a key writer, so editing one invalidates older checkpoints. Thread count
/// and governor are excluded: any thread count produces the same pool, and
/// governed runs are only checkpointed when uncut.
void append_extract_key(serial::Writer& w);

}  // namespace gp::gadget
