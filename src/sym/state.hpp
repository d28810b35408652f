// Symbolic machine state: registers, flags, a path condition, and a
// write-history memory model.
//
// Memory policy (the paper's Sec. IV-B):
//  - addresses are normalized to (base expr + concrete offset);
//  - reads that hit a previous write with the same (base, offset, width)
//    return the stored value;
//  - reads from the initial stack (base == initial RSP) materialize
//    attacker-controlled payload variables `stk_<offset>`;
//  - any other unresolved read materializes a fresh unconstrained variable
//    (the paper: "the variable is left unconstrained so that it is free to
//    take on whatever value is necessary for the rest of the plan");
//  - distinct symbolic bases are assumed not to alias (standard in ROP
//    tooling; recorded per-state in `assumed_no_alias`).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/ir.hpp"
#include "solver/expr.hpp"
#include "x86/inst.hpp"

namespace gp::sym {

struct MemWrite {
  solver::ExprRef addr;
  solver::ExprRef value;  // width bits
  u8 width;               // bits
};

/// A load through an attacker-derivable pointer (the paper's POINTER-typed
/// constraints): the address is a function of payload slots and/or initial
/// registers, so a chain that controls those can point it anywhere — payload
/// concretization redirects it into the payload and places the value there.
struct IndirectRead {
  solver::ExprRef addr;  // full address expression
  solver::ExprRef var;   // the fresh variable returned for the loaded value
  u8 width;              // bits
};

struct State {
  std::array<solver::ExprRef, x86::kNumRegs> regs{};
  std::array<solver::ExprRef, ir::kNumFlags> flags{};
  std::vector<MemWrite> writes;
  std::vector<IndirectRead> ind_reads;
  std::vector<solver::ExprRef> constraints;  // path condition conjuncts
  /// Set when a load could not be proven disjoint from a prior write and was
  /// resolved under the no-alias assumption.
  bool assumed_no_alias = false;
  /// Payload (initial-stack) offsets this execution read, in bytes relative
  /// to the initial RSP. Drives payload layout.
  std::vector<i64> stack_reads;
};

/// Names of the initial-state variables shared by every gadget analysis, so
/// conditions from different gadgets speak the same vocabulary.
std::string initial_reg_var(x86::Reg r);
/// Is `name` the initial variable of some register?
bool is_initial_reg_var(std::string_view name);
/// The register whose initial variable `name` is, if any.
std::optional<x86::Reg> initial_reg_of(std::string_view name);
std::string initial_flag_var(ir::Flag f);

/// A variable name formatted in a fixed buffer, without a heap
/// allocation: the executor formats one on every memory load.
class VarName {
 public:
  VarName& add(std::string_view s);
  VarName& add_dec(u64 v);
  /// `0x` and lowercase hex digits, like gp::hex.
  VarName& add_hex(u64 v);
  std::string_view view() const { return {buf_, size_}; }

 private:
  char buf_[64];
  size_t size_ = 0;
};

/// The payload variable of initial-stack offset `offset`: `stk_<off>`, or
/// `stk_m<-off>` below the initial RSP.
VarName stack_var(i64 offset);
/// Parse a `stk_<off>` / `stk_m<off>` name back to its offset; nullopt for
/// any other name, malformed ones included.
std::optional<i64> parse_stack_var(std::string_view name);

}  // namespace gp::sym
