// Unified process configuration: every GP_* environment knob, resolved at
// ONE parse point.
//
// Config::from_env (config.cpp) is the only place in src/ that calls
// std::getenv — the thread count, governor budgets, the checkpoint-store
// directory, the codegen level, the fault-injection spec, the metrics and
// trace switches and the three gp_serve knobs (socket, queue bound, worker
// count) route through it. Two access patterns:
//
//   - config()            a process-wide immutable snapshot taken on first
//     use. Engine::shared() is built from it, and so is the process-wide
//     state: the shared ThreadPool's size and the metrics and trace
//     switches (with the trace ring capacity).
//   - Config::from_env    a fresh parse, for entry points that build their
//     own Engine (and for tests of the parser). Inside src/ only config()
//     calls it; tier-1 lints that.
//
// Everything else reaches the pipeline only through an Engine's Config:
// sessions take the lanes per stage call (GP_THREADS) from
// engine.config().threads, the Engine arms the fault harness from its
// fault_spec (GP_FAULT), and the per-analysis policy (governor budgets,
// store directory, codegen level) comes through
// core::PipelineOptions::from(engine.config()). Option structs themselves
// default to plain values and read no environment.
//
// The snapshot is deliberately immutable: a mid-run environment change
// must never reshape an analysis that is already in flight.
#pragma once

#include <string>

#include "support/governor.hpp"

namespace gp {

/// All GP_* knobs. Field order follows the README's env-knob table.
struct Config {
  /// GP_THREADS: the lanes each session stage (extraction, subsumption)
  /// runs on; 1 is the exact sequential pipeline. from_env() clamps the
  /// env value to [1, 512] (unset/unparsable = hardware concurrency), and
  /// core::Engine rejects anything outside that range. The gp::config()
  /// snapshot's value also sizes the process-wide ThreadPool.
  int threads = 1;

  /// GP_DEADLINE_MS / GP_SOLVER_CHECKS / GP_SYM_STEPS / GP_EXPR_NODES:
  /// the pipeline resource budgets (zero fields = unlimited).
  GovernorOptions governor;

  /// GP_STORE_DIR: artifact-store directory ("" = checkpointing disabled).
  std::string store_dir;

  /// GP_FAULT: raw fault-injection spec text (parsed by gp::fault). A
  /// core::Engine built with a non-empty spec arms the process-wide fault
  /// harness with it, and rejects a malformed one; "" leaves the harness
  /// as it is.
  std::string fault_spec;

  /// GP_BENCH_FULL: benchmark drivers sweep the whole corpus instead of
  /// the quick subset.
  bool bench_full = false;

  /// GP_OPT_LEVEL: codegen optimization level, 0..2 (default 0). Values
  /// outside that range reject at parse time with the valid grammar —
  /// there is no silent fallback, because a mis-set level would skew
  /// every measurement downstream.
  int opt_level = 0;

  /// GP_METRICS: process-wide metrics registry (support/metrics), read
  /// from the gp::config() snapshot. On by default — "0"/"false"/"off"
  /// disables collection (instrumentation sites then cost one relaxed load
  /// each).
  bool metrics = true;

  /// GP_TRACE: span recording into the per-thread trace rings
  /// (support/trace), read from the gp::config() snapshot. Off by default;
  /// gp_pipeline --trace-out enables it for the run regardless of this
  /// knob.
  bool trace = false;

  /// GP_TRACE_BUF: per-thread trace ring capacity in events (clamped to
  /// [64, 4M]; unset/unparsable = 8192). A wrapped ring overwrites its
  /// oldest spans and counts them in trace::dropped().
  u32 trace_buf = 8192;

  /// GP_SERVE_SOCK: unix-socket path the gp_serve daemon listens on ("" =
  /// the tool's --sock flag is required).
  std::string serve_sock;

  /// GP_SERVE_QUEUE: gp_serve admission-queue bound — jobs waiting for a
  /// worker beyond this are shed with an immediate RETRY_AFTER instead of
  /// queueing unboundedly (clamped to [1, 1M]; default 64).
  int serve_queue = 64;

  /// GP_SERVE_MAX_ACTIVE: concurrent analysis workers inside gp_serve;
  /// counted budgets are split across them via
  /// GovernorOptions::split_across (clamped to [1, 256]; default 4).
  int serve_max_active = 4;

  /// Parse the environment now. The single std::getenv site in src/.
  static Config from_env();
};

/// The process-wide snapshot, parsed from the environment on first use and
/// immutable afterwards.
const Config& config();

}  // namespace gp
