// Postcondition-indexed gadget store for the partial-order planner.
//
// The planner's expand() used to recompute, for every candidate of every
// expansion, the full semantic profile of a (gadget, register) pair: the
// dependency walk over the provided value's variables, the pointer-value
// and wild-write analyses, the chain-position filters and the base score.
// On obfuscated pools (thousands of gadgets, millions of dead ends) that
// inner loop IS the campaign critical path. GadgetIndex hoists the whole
// per-pair computation into one precomputed Candidate per (register,
// controlling gadget), built once per pool and shared by every goal,
// round and restart; expand() becomes a cheap filter over prescored
// buckets. The index is the planner's only candidate source.
//
// The index is a pure function of pool content (admissibility stays a
// runtime Record-field check so one index serves every ablation), so a
// Planner builds it once and reuses it for every goal it plans; Session
// keeps one Planner per library for exactly that reason.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "gadget/gadget.hpp"
#include "payload/payload.hpp"

namespace gp::planner {

/// Order-independent combine of per-element hashes: elements are sorted,
/// then folded with a position-mixing sequence hash, so the same multiset
/// reached through any insertion order hashes identically — and, unlike an
/// XOR fold, two copies of one element do NOT cancel to the empty
/// contribution (the duplicate-step collision bug).
u64 multiset_hash(std::span<const u64> parts, u64 seed);

/// Precomputed semantic profile of one (gadget, register) pair —
/// everything expand() needs that depends only on pool content.
struct Candidate {
  // Chain-position filters (recomputed per candidate before indexing).
  static constexpr u16 kSyscallEnd = 1u << 0;   // terminal-only gadget
  static constexpr u16 kStackBad = 1u << 1;     // symbolic rsp, no pivot
  static constexpr u16 kNextRipConst = 1u << 2; // resolved jump table
  static constexpr u16 kConstValue = 1u << 3;   // provided value is const
  // Score provenance (folded into base_score; kept for diagnostics).
  static constexpr u16 kSelfLoop = 1u << 4;
  static constexpr u16 kValuePointer = 1u << 5;
  /// The needs walk hit the expansion cap: at least one indirect-read
  /// address dependency was dropped and is treated as met (counted in
  /// Stats::needs_truncated, never silent).
  static constexpr u16 kNeedsTruncated = 1u << 6;

  u32 gadget = 0;
  /// Ranking score without the per-goal failure_cost term (added at
  /// expansion time — concretization failures are search state, not pool
  /// content).
  i32 base_score = 0;
  /// dag_size of the provided-value expression (plan n_constraints term).
  u32 dag_size = 0;
  /// Constant final value when kConstValue (terminal goal matching).
  u64 const_value = 0;
  u16 flags = 0;
  /// Initial registers the candidate's preconditions, transfer target and
  /// provided value depend on, in first-encounter order (the order the
  /// needs walk pushed them as open subgoals). RSP is excluded, so 15 is
  /// the ceiling.
  u8 n_needs = 0;
  std::array<u8, 15> needs{};

  /// Filters that make the candidate unusable at any non-terminal chain
  /// position, regardless of goal or options.
  bool position_filtered() const {
    return flags & (kSyscallEnd | kStackBad | kNextRipConst);
  }
};

/// Ablation switches of planner::Options::admission: which gadget kinds the
/// planner may use (index-independent: the closure recomputes per flag
/// set).
struct AdmissionFlags {
  bool use_cond_gadgets = true;
  bool use_indirect_gadgets = true;
  bool use_direct_merged = true;
};

/// Is `g` admissible under the ablation flags?
bool admissible(const gadget::Record& g, const AdmissionFlags& f);

class GadgetIndex {
 public:
  /// Analyze every (register, controlling gadget) pair of `lib`. May throw
  /// ResourceExhausted under a counted budget (its one intern, the initial
  /// rsp variable, already exists in any pool with a decoded ret gadget).
  static GadgetIndex build(solver::Context& ctx, const gadget::Library& lib);

  /// Prescored candidates for `reg`, in lib.controlling(reg) order (so
  /// stable sorts tie-break by pool order).
  std::span<const Candidate> candidates(x86::Reg reg) const {
    return by_reg_[static_cast<size_t>(reg)];
  }

  /// Fixpoint closure of registers establishable under `f`: reg r is in
  /// the closure iff some candidate for r passes the position filters and
  /// admissibility and every register it needs is itself establishable.
  /// Constant-valued providers never join the closure (they serve only
  /// exact-match terminal goals, checked separately by goal_unreachable).
  gadget::RegMask establishable(const gadget::Library& lib,
                                const AdmissionFlags& f) const;

  /// Does some goal register provably lack a producer closure? A true
  /// return is sound: the planner's search would exhaust its budget
  /// finding zero chains, so failing in milliseconds loses nothing.
  bool goal_unreachable(const gadget::Library& lib, const payload::Goal& goal,
                        const AdmissionFlags& f) const;

 private:
  std::array<std::vector<Candidate>, x86::kNumRegs> by_reg_;
};

}  // namespace gp::planner
