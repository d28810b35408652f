// Gadget extraction (paper Sec. IV-B).
//
// The extractor decodes from EVERY byte offset of the code section
// (unaligned starts included), follows execution symbolically, and produces
// one Record (paper Table II) per complete path:
//  - direct jumps are followed and merged into the same gadget;
//  - conditional jumps fork the path (bounded); the branch decision becomes
//    part of the gadget's pre-condition — the feature that lets
//    Gadget-Planner use the CDJ/CIJ gadgets every baseline ignores;
//  - paths end at ret / indirect jmp / indirect call / syscall.
#pragma once

#include <array>
#include <vector>

#include "image/image.hpp"
#include "solver/expr.hpp"
#include "support/governor.hpp"
#include "support/metrics.hpp"
#include "support/status.hpp"
#include "sym/exec.hpp"
#include "x86/inst.hpp"

namespace gp::gadget {

/// Final control transfer of the gadget.
enum class EndKind : u8 {
  Ret,       // ret (target popped from the stack)
  IndJmp,    // jmp reg / jmp [mem]
  IndCall,   // call reg / call [mem]
  Syscall,   // execution reaches a syscall instruction
};
const char* end_kind_name(EndKind k);

/// One step of the recorded path (for re-execution during payload
/// concretization).
struct PathStep {
  x86::Inst inst;
  bool branch_taken = false;  // meaningful when inst is a Jcc
};

using RegMask = u16;
constexpr RegMask reg_bit(x86::Reg r) {
  return static_cast<RegMask>(1u << static_cast<unsigned>(r));
}

/// The paper's Table II record.
struct Record {
  u64 addr = 0;          // location: address of the first instruction
  u32 len = 0;           // bytes spanned by the first run
  int n_insts = 0;
  EndKind end = EndKind::Ret;
  bool has_cond_jump = false;    // path crossed a Jcc
  bool has_direct_jump = false;  // path merged across a direct jmp
  RegMask clobbered = 0;   // regs whose final value differs from initial
  RegMask controlled = 0;  // regs whose final value is payload-determined
  /// Regs whose final value is a function of payload slots and/or initial
  /// GP registers (no unconstrained memory): the planner can establish
  /// these by first gaining control of the source registers — the
  /// register-transfer chaining that lets `mov rdi, rbx; ret` substitute
  /// for a missing `pop rdi; ret`.
  RegMask settable = 0;

  std::array<solver::ExprRef, x86::kNumRegs> final_regs{};
  std::vector<solver::ExprRef> precond;  // path condition conjuncts
  solver::ExprRef next_rip = solver::kNoExpr;  // symbolic transfer target
  /// rsp_final - rsp_initial when concrete; nullopt otherwise.
  std::optional<i64> stack_delta;
  std::vector<sym::MemWrite> writes;  // memory side effects
  std::vector<sym::IndirectRead> ind_reads;  // POINTER-typed dependencies
  std::vector<i64> stack_reads;       // payload offsets consumed
  std::vector<PathStep> path;         // for re-execution
  bool aliased_memory = false;        // no-alias assumption was used

  bool controls(x86::Reg r) const { return controlled & reg_bit(r); }
  bool clobbers(x86::Reg r) const { return clobbered & reg_bit(r); }
  bool can_set(x86::Reg r) const { return settable & reg_bit(r); }
};

/// Call f on every expression ref `r` holds (kNoExpr included), in field
/// order: the roots a record keeps alive in its context. `R` is Record or
/// const Record.
template <class R, class F>
void for_each_ref(R& r, F&& f) {
  for (auto& e : r.final_regs) f(e);
  for (auto& e : r.precond) f(e);
  f(r.next_rip);
  for (auto& w : r.writes) {
    f(w.addr);
    f(w.value);
  }
  for (auto& ir : r.ind_reads) {
    f(ir.addr);
    f(ir.var);
  }
}

/// Every expression ref the records of `pool` hold, in pool and field
/// order.
std::vector<solver::ExprRef> pool_refs(const std::vector<Record>& pool);

/// Extraction bounds: the paper's scan, held fixed for every image. Every
/// code byte is a start offset.
inline constexpr int kMaxInsts = 32;     // per path (allows call+return merges)
inline constexpr int kMaxCondJumps = 2;  // fork bound per start offset
inline constexpr int kMaxPaths = 4;      // gadget variants per start offset

struct ExtractStats {
  u64 offsets_scanned = 0;
  /// Decode-failure events: offsets whose first instruction does not
  /// decode, plus mid-path failures (a path walked into undecodable
  /// bytes). Both are counted so the stat reconciles with offsets scanned.
  u64 decode_failures = 0;
  u64 gadgets = 0;
  u64 with_cond_jump = 0;
  u64 with_direct_jump = 0;
  /// Offsets the governed scan never explored (deadline, cancellation or a
  /// global budget ran out first). offsets_scanned + offsets_skipped
  /// reconciles with the section's offset count.
  u64 offsets_skipped = 0;
  /// Paths whose symbolic summary was cut mid-flight (step/node budget or
  /// an injected allocation fault) and dropped with this recorded reason —
  /// the degradation ladder's "drop, don't crash" rung.
  u64 paths_cut = 0;
  /// Ok for a complete scan; otherwise the first degradation reason.
  Status status;

  static constexpr metrics::CounterField<ExtractStats> kCounters[] = {
      {"offsets_scanned", &ExtractStats::offsets_scanned},
      {"decode_failures", &ExtractStats::decode_failures},
      {"gadgets", &ExtractStats::gadgets},
      {"with_cond_jump", &ExtractStats::with_cond_jump},
      {"with_direct_jump", &ExtractStats::with_direct_jump},
      {"offsets_skipped", &ExtractStats::offsets_skipped},
      {"paths_cut", &ExtractStats::paths_cut},
  };

  ExtractStats& operator+=(const ExtractStats& o) {
    metrics::add_counters(*this, o);
    status.merge(o.status);
    return *this;
  }
};

class Extractor {
 public:
  Extractor(solver::Context& ctx, const image::Image& img)
      : ctx_(ctx), img_(img), exec_(ctx, &img) {}

  /// Scan the image's code. `threads` is the lane count (a Session passes
  /// its Engine's Config::threads; capped at ThreadPool::granted_lanes);
  /// 1 is the exact sequential path. Any value yields the same gadget pool, and
  /// the same context restricted to the nodes the pool reaches: lanes
  /// explore disjoint offset shards in private solver contexts, and the
  /// merge replays the nodes the shards' records reach into the main
  /// context in offset order.
  ///
  /// `governor` (optional; must outlive the call) is polled for its
  /// deadline/cancel token at every offset — on all worker lanes — and the
  /// symbolic executor consumes its step budget. Exhaustion degrades to a
  /// partial pool: unexplored offsets are counted in
  /// ExtractStats::offsets_skipped, cut summaries in paths_cut, and the
  /// reason lands in ExtractStats::status.
  std::vector<Record> extract(Governor* governor = nullptr, int threads = 1);
  const ExtractStats& stats() const { return stats_; }

 private:
  std::vector<Record> extract_parallel(Governor* governor, int threads);

  solver::Context& ctx_;
  const image::Image& img_;
  sym::Executor exec_;
  ExtractStats stats_;
};

/// Gadget library indexed by controlled register (paper Sec. V): the planner
/// looks up "who can set rdi" in O(1).
class Library {
 public:
  explicit Library(std::vector<Record> records);

  const std::vector<Record>& all() const { return records_; }
  /// Indices of gadgets that can establish register r (directly
  /// payload-controlled gadgets first, register-transfer gadgets after).
  const std::vector<u32>& controlling(x86::Reg r) const {
    return by_reg_[static_cast<int>(r)];
  }
  /// Indices of syscall-terminated gadgets.
  const std::vector<u32>& syscalls() const { return syscall_gadgets_; }
  const Record& operator[](u32 i) const { return records_[i]; }
  size_t size() const { return records_.size(); }

 private:
  std::vector<Record> records_;
  std::array<std::vector<u32>, x86::kNumRegs> by_reg_;
  std::vector<u32> syscall_gadgets_;
};

}  // namespace gp::gadget
