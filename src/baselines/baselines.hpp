// Reimplementations of the paper's three comparison tools, each built with
// exactly the restriction the paper blames for its failures on obfuscated
// code (Sec. III-C / VI-A):
//
//   ROPGadget-like  pure syntax: scan for ret-terminated byte sequences,
//                   chain only through hard-coded `pop <argreg>; ret`
//                   templates. "Once a gadget in the pattern is missing,
//                   the whole search fails."
//   Angrop-like     semantic matching (our symbolic records) but only over
//                   CLEAN return gadgets — single-purpose pop-style setters
//                   with concrete stack deltas, no conditional jumps, no
//                   merged direct jumps, no side effects; one chain per
//                   goal, always the same `pop reg; ret` shape.
//   SGC-like        solver-driven synthesis over return and indirect-jump
//                   gadgets (the planner with CJ/DJ gadget classes disabled
//                   and a smaller search budget).
//
// All three emit real payloads that are validated in the emulator, so their
// reported chain counts are as trustworthy as Gadget-Planner's.
#pragma once

#include "gadget/gadget.hpp"
#include "payload/payload.hpp"

namespace gp::baselines {

struct Result {
  std::string tool;
  u64 gadgets_total = 0;  // size of the tool's own gadget pool
  u64 gadgets_used = 0;   // gadgets appearing in emitted chains
  std::vector<payload::Chain> chains;
};

/// ROPGadget-like. Scans the image syntactically (own pool counting: unique
/// disassembly strings of ret-gadgets up to `max_insts`).
Result rop_gadget(const image::Image& img, const payload::Goal& goal,
                  int max_insts = 10);

/// Angrop-like. Shares the extracted library (its "gadget finding" stage),
/// but only consumes clean return gadgets.
Result angrop(solver::Context& ctx, const gadget::Library& lib,
              const image::Image& img, const payload::Goal& goal);

/// SGC-like. Solver-backed synthesis: ret + indirect-jump gadgets, no
/// conditional or direct-jump handling.
Result sgc(solver::Context& ctx, const gadget::Library& lib,
           const image::Image& img, const payload::Goal& goal,
           int max_chains = 4);

}  // namespace gp::baselines
