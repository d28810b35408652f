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

std::shared_ptr<store::ArtifactStore> Engine::store(const std::string& dir) {
  if (dir.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(stores_mu_);
  auto& slot = stores_[dir];
  if (!slot) slot = std::make_shared<store::ArtifactStore>(dir);
  return slot;
}

}  // namespace gp::core
