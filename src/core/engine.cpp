#include "core/engine.hpp"

#include "support/fault.hpp"

namespace gp::core {

Engine::Engine(Config cfg) : cfg_(std::move(cfg)) {
  // Deterministic fault injection is armed once per process, before any
  // session runs a stage; a malformed GP_FAULT spec aborts here rather
  // than silently running an un-faulted experiment.
  fault::configure_from_env();
}

Engine& Engine::shared() {
  static Engine engine(gp::config());
  return engine;
}

}  // namespace gp::core
