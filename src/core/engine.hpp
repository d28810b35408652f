// The multi-tenant analysis engine: one Engine owns the policy its
// analyses run under —
//
//   - the immutable gp::Config its sessions and campaigns read,
//   - the armed deterministic fault harness (Config::fault_spec, GP_FAULT).
//
// An Engine applies these Config fields: `threads` is the lane count of
// every session stage (extraction, subsumption) and is validated to
// [1, 512] at construction; a non-empty `fault_spec` arms the fault
// harness at construction (a malformed one throws gp::Error, an empty one
// leaves the harness as it is); `governor` and `store_dir` reach sessions
// through PipelineOptions::from(engine.config()); and `opt_level` is the
// codegen level of Campaign jobs (opt_level -1), gp_pipeline and gp_serve
// (whose ServeOptions::from reads the serve_* fields too). Only three
// things are process-wide rather than per-Engine: the shared ThreadPool's
// size and the metrics and trace switches, all taken from the gp::config()
// snapshot. Entry points that run from the environment build
// Engine::shared() or an Engine on a fresh Config::from_env parse; a
// private Engine built from a custom Config runs its sessions under that
// Config alone.
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
  /// per-Engine policy (lanes, budgets, store directory, codegen level,
  /// fault spec) comes from `cfg`. Throws gp::Error for `threads` outside
  /// [1, 512] or a malformed `fault_spec`.
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
