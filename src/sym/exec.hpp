// Symbolic executor over the micro-IR. Shares the lifter with the concrete
// emulator, so the two stay semantically aligned by construction (and by the
// cross-validation property tests in tests/test_sym.cpp).
#pragma once

#include "image/image.hpp"
#include "solver/expr.hpp"
#include "support/governor.hpp"
#include "sym/state.hpp"

namespace gp::sym {

/// Where control goes after one instruction, with symbolic components.
struct Flow {
  ir::JumpKind kind = ir::JumpKind::Fall;
  u64 target = 0;                            // Direct / CondDirect
  u64 fallthrough = 0;
  solver::ExprRef target_expr = solver::kNoExpr;  // Indirect
  solver::ExprRef cond = solver::kNoExpr;         // CondDirect (width 1)
  bool is_ret = false;
  bool is_call = false;
};

class Executor {
 public:
  /// `img` (optional) lets constant-address loads resolve to the image's
  /// actual bytes — required for jump tables and initialized globals; loads
  /// from constant addresses outside the image read as zero, matching the
  /// emulator's sparse memory.
  explicit Executor(solver::Context& ctx, const image::Image* img = nullptr)
      : ctx_(ctx), img_(img) {}

  /// A fresh state whose registers/flags are the shared initial variables.
  /// The first call interns them; later calls copy that state.
  State initial_state();

  /// Execute one lifted instruction, mutating `st`. Returns the symbolic
  /// control-flow outcome. Under a governor, each step consumes one
  /// symbolic-execution budget unit; exhaustion throws ResourceExhausted
  /// for the calling stage (extractor offset loop, concretize) to convert
  /// into a degraded result.
  Flow step(State& st, const ir::Lifted& l);

  /// Attach a resource governor (nullptr detaches); it must outlive the
  /// executor. The context's expr-node budget is governed separately via
  /// Context::set_governor.
  void set_governor(Governor* g) { governor_ = g; }

  /// Enter a deterministic fresh-variable scope: until the next call, fresh
  /// memory variables are named `ind@<tag>.<n>_<w>` / `mem@<tag>.<n>_<w>`
  /// instead of drawing from the process-global counter. The extractor tags
  /// each scan offset with its address, which makes fresh names a function
  /// of (offset, load order within the offset) only — independent of how
  /// offsets are interleaved across threads, so parallel and sequential
  /// extraction mint identical variables.
  void begin_origin(u64 tag) {
    origin_tag_ = tag;
    origin_count_ = 0;
    use_origin_ = true;
  }

  solver::Context& ctx() { return ctx_; }

 private:
  solver::ExprRef canonical_addr(solver::ExprRef addr);
  solver::ExprRef load(State& st, solver::ExprRef addr, u8 width);
  void store(State& st, solver::ExprRef addr, solver::ExprRef value,
             u8 width);
  VarName fresh_name(std::string_view prefix, u8 width);
  /// The initial RSP variable, interned on first use.
  solver::ExprRef rsp0();

  solver::Context& ctx_;
  const image::Image* img_;
  Governor* governor_ = nullptr;
  /// initial_state()'s result, valid once `init_ready_` is set. The context
  /// only appends, so its refs stay the same variables.
  State init_;
  bool init_ready_ = false;
  solver::ExprRef rsp0_ = solver::kNoExpr;
  std::vector<solver::ExprRef> temps_;  // step()'s temporaries
  u64 origin_tag_ = 0;
  u64 origin_count_ = 0;
  bool use_origin_ = false;
};

/// Normalize an address to (symbolic base, concrete byte offset).
/// Constants normalize to (kNoExpr, value).
struct BaseOffset {
  solver::ExprRef base = solver::kNoExpr;
  i64 offset = 0;
};
std::optional<BaseOffset> split_base_offset(solver::Context& ctx,
                                            solver::ExprRef addr);

}  // namespace gp::sym
