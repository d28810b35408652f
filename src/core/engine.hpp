// The multi-tenant analysis engine: one Engine owns the process-wide
// substrate exactly once —
//
//   - the immutable gp::Config its analyses take their policy from,
//   - the armed deterministic fault harness (GP_FAULT).
//
// An Engine applies three Config fields: `governor` and `store_dir` reach
// sessions through PipelineOptions::from(engine.config()), and
// `opt_level` is the codegen level of Campaign jobs (opt_level -1),
// gp_pipeline and gp_serve (whose ServeOptions::from reads the serve_*
// fields too). The rest is process-wide, not per-Engine: the shared
// ThreadPool sizes itself from GP_THREADS (ThreadPool::env_threads), the
// metrics and trace switches read GP_METRICS/GP_TRACE/GP_TRACE_BUF once
// per process, and the fault harness arms from the gp::config() snapshot's
// GP_FAULT. A private Engine built from a custom Config changes only the
// per-Engine fields.
//
// Per-image analyses are Sessions (session.hpp); corpus-scale fan-outs are
// Campaigns (campaign.hpp). Many sessions may run concurrently against one
// Engine: everything the engine hands out is either immutable (Config) or
// internally synchronized (session ids, fault counters). Each session
// opens its own artifact store; sessions and processes sharing a store
// directory need no coordination, because every artifact file checks
// itself.
#pragma once

#include <atomic>

#include "support/config.hpp"

namespace gp::core {

class Engine {
 public:
  /// An engine over an explicit configuration (tests, embedders): the
  /// per-Engine policy (budgets, store directory, codegen level) comes from
  /// `cfg`.
  explicit Engine(Config cfg);

  /// The process-wide engine on the environment configuration (the
  /// gp::config() snapshot). Almost every caller wants this one.
  static Engine& shared();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Config& config() const { return cfg_; }

  /// Monotonic id for each Session opened on this engine (starts at 1; 0
  /// means "no session" in trace events).
  u64 next_session_id() { return next_session_id_.fetch_add(1) + 1; }

 private:
  Config cfg_;
  std::atomic<u64> next_session_id_{0};
};

}  // namespace gp::core
