#include "core/engine.hpp"

#include <string>

#include "support/fault.hpp"
#include "support/thread_pool.hpp"

namespace gp::core {

Engine::Engine(Config cfg) : cfg_(std::move(cfg)) {
  // Every session stage runs on cfg_.threads lanes, so a count outside
  // [1, kMaxLanes] is rejected here, before any session runs.
  if (cfg_.threads < 1 || cfg_.threads > ThreadPool::kMaxLanes)
    throw Error("invalid Config::threads " + std::to_string(cfg_.threads) +
                " (valid: 1.." + std::to_string(ThreadPool::kMaxLanes) + ")");
  // The fault harness is armed before any session runs a stage; a
  // malformed spec throws here rather than silently running an un-faulted
  // experiment. An empty spec leaves the harness as it is.
  if (!cfg_.fault_spec.empty()) {
    auto spec = fault::parse_spec(cfg_.fault_spec);
    if (!spec.ok()) fail(spec.status().to_string());
    fault::configure(spec.value());
  }
}

Engine& Engine::shared() {
  static Engine engine(gp::config());
  return engine;
}

}  // namespace gp::core
