// Attack goals, chain concretization and payload validation (paper Sec. II-B
// goals + stage 4 "post-processing").
//
// A Goal names the syscall to reach and the register file it requires
// (paper's POINTER-typed constraint language included: a register may be
// required to point at attacker bytes placed inside the payload).
//
// concretize() takes an ORDERED gadget sequence (the linearized plan),
// re-executes it symbolically as one composed trace, conjoins
//   - each step's recorded branch decisions (path conditions),
//   - inter-gadget linkage: step i's transfer target == address of step i+1,
//   - the goal register constraints at the syscall,
//   - payload placement for POINTER goals,
// and asks the solver for a model, which becomes concrete payload bytes.
//
// validate() then proves the payload end-to-end: fresh emulator, payload on
// the stack, rip = first gadget, random uncontrolled registers — the run
// must stop at the goal syscall with the goal register file.
#pragma once

#include <optional>
#include <string>

#include "emu/emu.hpp"
#include "gadget/gadget.hpp"
#include "solver/solver.hpp"

namespace gp::payload {

struct RegTarget {
  x86::Reg reg;
  enum class Kind : u8 { Const, PointerToBytes } kind = Kind::Const;
  u64 value = 0;            // Const
  std::vector<u8> bytes;    // PointerToBytes (<= 8 bytes, NUL-padded)
};

struct Goal {
  std::string name;
  u64 syscall_no = 0;
  std::vector<RegTarget> regs;

  /// execve("/bin/sh", 0, 0)
  static Goal execve();
  /// mprotect(page, 0x1000, PROT_READ|WRITE|EXEC)
  static Goal mprotect();
  /// mmap(0, 0x1000, RWX, MAP_PRIVATE|ANON, -1, 0) — needs r10/r8/r9.
  static Goal mmap();
  static const std::vector<Goal>& all();
  /// The goals a name selects: "all" -> every goal, a goal's name -> that
  /// goal, anything else -> none.
  static std::vector<Goal> by_name(const std::string& name);
};

/// A finished exploit chain.
struct Chain {
  std::string goal_name;
  std::vector<u32> gadgets;   // library indices, execution order
  std::vector<u8> payload;    // bytes placed at the hijacked rsp
  u64 entry = 0;              // address written over the return address
  // Metrics for Table V.
  int total_insts = 0;
  int ret_gadgets = 0, ij_gadgets = 0, dj_gadgets = 0, cj_gadgets = 0;
  double avg_gadget_len() const {
    return gadgets.empty() ? 0.0
                           : static_cast<double>(total_insts) /
                                 static_cast<double>(gadgets.size());
  }
};

/// How a concretize() call ended: one value per way it can fail, or None
/// for a validated chain. The planner counts each reason (plan.concretize_*).
enum class Refutation : u8 {
  None,              // validated chain
  BadFlow,           // a gadget did not end in the transfer its slot needs
  TooBig,            // payload (or a POINTER region) exceeded kMaxPayload
  Unsat,             // the solver proved that no payload exists
  /// The composition query came back UNKNOWN (conflict budget, governed
  /// deadline/solver-check budget, or an injected solver fault).
  /// Inconclusive is a failure — a chain is only emitted on a real model.
  Unknown,
  /// An exhausted step/node budget or cancellation while re-executing the
  /// composed trace; the chain is dropped, never emitted half-solved.
  ResourceCut,
  ValidationFailed,  // the emulator run did not reach the goal
};

struct ConcretizeResult {
  std::optional<Chain> chain;  // set iff why == Refutation::None
  Refutation why = Refutation::None;
  /// Goal register whose composed value was a constant that contradicted
  /// the goal outright (NONE otherwise). The planner uses this to blame
  /// and demote the responsible provider.
  x86::Reg mismatch_reg = x86::Reg::NONE;
};

/// Largest payload (and POINTER region) a chain may use, in bytes.
inline constexpr size_t kMaxPayload = 4096;
/// Emulator validation runs per chain, each with randomized uncontrolled
/// registers.
inline constexpr int kValidationTrials = 2;

struct ConcretizeOptions {
  u64 stack_base = image::kStackTop - 0x2000;  // rsp at hijack (ASLR off)
  /// Shared resource governor (optional; must outlive the call): bounds
  /// the composition re-execution (sym steps / expr nodes) and the payload
  /// solve (solver checks, deadline polls). Exhaustion fails the call
  /// (Unknown or ResourceCut) — never a crash, never a partial chain.
  Governor* governor = nullptr;
  /// Owning session id for trace spans (0 = none).
  u64 session_id = 0;
};

/// Compose, solve and validate. The result carries the chain, or the reason
/// the sequence has none.
ConcretizeResult concretize(solver::Context& ctx, const gadget::Library& lib,
                            const image::Image& img,
                            const std::vector<u32>& ordered, const Goal& goal,
                            const ConcretizeOptions& opts = {});

/// Re-run a finished chain in a fresh emulator and check the goal (used by
/// tests and the examples; concretize() already did this once).
bool validate(const image::Image& img, const Chain& chain, const Goal& goal,
              u64 stack_base, u64 reg_seed);

}  // namespace gp::payload
