// Shared resource governor for the pipeline's long-running stages
// (extract -> lift -> symbolic summarize -> SMT subsume -> plan ->
// concretize -> emulate).
//
// Obfuscated inputs make every one of those stages pathological in its own
// way — virtualized dispatch blows up symbolic summaries, flattened control
// flow blows up SAT queries — so each stage historically grew a private
// knob (solver conflict budgets, subsumption check caps, the planner's time
// budget). The Governor unifies them:
//
//   - Deadline: one wall-clock deadline shared by every stage; workers on
//     thread-pool lanes poll the same deadline, so a pipeline with a 30 s
//     budget stops in ~milliseconds of that mark no matter which stage it
//     is in.
//   - CancelToken: cooperative cancellation; cancel() from any thread is
//     observed by every polling loop, including thread-pool workers.
//   - Counted budgets: solver checks (bit-blasting queries), symbolic
//     execution steps, and expression-node allocations. Budgets are atomic,
//     so parallel lanes split one budget without coordination.
//
// Exhaustion is a *result*, not a crash: stages observe a non-Ok poll() and
// degrade (partial pool + skip accounting, structural-only subsumption,
// best-so-far chains) while recording the Status of what was cut.
//
// All methods are thread-safe; a Governor is shared by reference across
// stages and worker lanes and must outlive them.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "support/status.hpp"

namespace gp {

/// Cooperative cancellation flag. Copyable; copies share the flag.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Wall-clock deadline; default-constructed = never expires.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;
  static Deadline never() { return {}; }
  static Deadline after_seconds(double seconds) {
    Deadline d;
    d.unlimited_ = false;
    d.at_ = Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }
  static Deadline at(Clock::time_point tp) {
    Deadline d;
    d.unlimited_ = false;
    d.at_ = tp;
    return d;
  }

  bool unlimited() const { return unlimited_; }
  bool expired() const { return !unlimited_ && Clock::now() > at_; }
  Clock::time_point time_point() const { return at_; }
  /// The earlier of two deadlines.
  static Deadline earlier(const Deadline& a, const Deadline& b) {
    if (a.unlimited_) return b;
    if (b.unlimited_) return a;
    return a.at_ < b.at_ ? a : b;
  }

 private:
  bool unlimited_ = true;
  Clock::time_point at_{};
};

/// Seconds on the steady clock since `t0`: the stopwatch behind stage, job
/// and campaign times.
inline double secs_since(Deadline::Clock::time_point t0) {
  return std::chrono::duration<double>(Deadline::Clock::now() - t0).count();
}

/// Atomic counted budget; lanes consume units concurrently. limit 0 means
/// unlimited (the common "no governor configured" fast path never touches
/// the counter's contended cache line beyond one relaxed add).
class Budget {
 public:
  explicit Budget(u64 limit = 0) : limit_(limit) {}

  bool unlimited() const { return limit_ == 0; }
  /// Claim `n` units. Returns false (consuming nothing) once fewer than `n`
  /// remain; callers then degrade.
  bool try_consume(u64 n = 1) {
    if (unlimited()) return true;
    u64 cur = used_.load(std::memory_order_relaxed);
    while (cur + n <= limit_) {
      if (used_.compare_exchange_weak(cur, cur + n,
                                      std::memory_order_relaxed))
        return true;
    }
    return false;
  }
  bool exhausted() const {
    return !unlimited() && used_.load(std::memory_order_relaxed) >= limit_;
  }
  u64 used() const { return used_.load(std::memory_order_relaxed); }
  u64 limit() const { return limit_; }

 private:
  std::atomic<u64> used_{0};
  u64 limit_;
};

/// Knob block for constructing a Governor (and for core::PipelineOptions).
/// Zero values mean "unlimited" so a default-constructed block is a no-op
/// governor.
struct GovernorOptions {
  double deadline_seconds = 0;  // <= 0: no deadline
  u64 max_solver_checks = 0;    // bit-blasting queries across all stages
  u64 max_sym_steps = 0;        // symbolic executor instruction steps
  u64 max_expr_nodes = 0;       // freshly interned expression DAG nodes

  /// Copy with every counted budget divided across `n` concurrent
  /// consumers (each share at least 1 so a tiny budget can never round to
  /// 0 = "unlimited"). The deadline is shared, not split: concurrent
  /// sessions race one wall clock. This is how an engine-level budget is
  /// carved into per-session governors.
  GovernorOptions split_across(int n) const {
    if (n <= 1) return *this;
    auto share = [n](u64 v) -> u64 {
      return v == 0 ? 0 : std::max<u64>(1, v / static_cast<u64>(n));
    };
    GovernorOptions o = *this;
    o.max_solver_checks = share(max_solver_checks);
    o.max_sym_steps = share(max_sym_steps);
    o.max_expr_nodes = share(max_expr_nodes);
    return o;
  }

  /// Copy with every counted budget multiplied by `factor` (saturating;
  /// unlimited stays unlimited). The deadline is NOT scaled — wall-clock
  /// budgets are the caller's hard contract; the stage supervisor widens
  /// only the counted budgets on retry.
  GovernorOptions widened(double factor) const {
    auto scale = [factor](u64 v) -> u64 {
      if (v == 0) return 0;
      const double s = static_cast<double>(v) * factor;
      return s >= 1.8e19 ? ~u64{0} : static_cast<u64>(s);
    };
    GovernorOptions o = *this;
    o.max_solver_checks = scale(max_solver_checks);
    o.max_sym_steps = scale(max_sym_steps);
    o.max_expr_nodes = scale(max_expr_nodes);
    return o;
  }
};

class Governor {
 public:
  Governor() = default;  // unlimited everything
  explicit Governor(const GovernorOptions& opts)
      : deadline_(opts.deadline_seconds > 0
                      ? Deadline::after_seconds(opts.deadline_seconds)
                      : Deadline::never()),
        solver_checks_(opts.max_solver_checks),
        sym_steps_(opts.max_sym_steps),
        expr_nodes_(opts.max_expr_nodes) {}

  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  const Deadline& deadline() const { return deadline_; }
  void set_deadline(Deadline d) { deadline_ = d; }
  CancelToken& cancel_token() { return cancel_; }
  /// Share another governor's cancel flag (copies share state): a retry
  /// governor built by the stage supervisor stays cancellable through the
  /// pipeline governor the caller holds.
  void set_cancel_token(CancelToken t) { cancel_ = std::move(t); }
  void cancel() { cancel_.cancel(); }

  Budget& solver_checks() { return solver_checks_; }
  Budget& sym_steps() { return sym_steps_; }
  Budget& expr_nodes() { return expr_nodes_; }

  /// Combined stop poll for loop heads: cancellation first (cheapest and
  /// most urgent), then the deadline. Budget exhaustion is reported by the
  /// failing try_consume at the consuming site, not here.
  Status poll() const {
    if (cancel_.cancelled()) return Status::cancelled("cancel token fired");
    if (deadline_.expired())
      return Status::deadline_exceeded("governor deadline passed");
    return Status();
  }
  bool should_stop() const { return cancel_.cancelled() || deadline_.expired(); }

 private:
  Deadline deadline_;
  CancelToken cancel_;
  Budget solver_checks_;
  Budget sym_steps_;
  Budget expr_nodes_;
};

}  // namespace gp
