#include "support/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <thread>

#include "support/thread_pool.hpp"

namespace gp {

namespace {

const char* env_str(const char* name) {
  const char* s = std::getenv(name);
  return s ? s : "";
}

bool env_flag(const char* name) { return std::getenv(name) != nullptr; }

/// Tri-state boolean knob: unset keeps the default; "0"/"false"/"off"
/// (case-insensitive) and the empty string mean false; anything else true.
/// Needed for knobs that default ON (GP_METRICS=0 must actually disable).
bool env_bool(const char* name, bool dflt) {
  const char* s = std::getenv(name);
  if (!s) return dflt;
  std::string v(s);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  return !(v.empty() || v == "0" || v == "false" || v == "off");
}

/// Unsigned knob; unset or unparsable means 0 ("unlimited").
u64 env_u64(const char* name) {
  const char* s = std::getenv(name);
  if (!s || !*s) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || (end && *end)) return 0;
  return static_cast<u64>(v);
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

}  // namespace

Config Config::from_env() {
  Config c;

  // GP_THREADS: positive values clamp to the lane cap; anything else falls
  // back to the hardware count, clamped alike.
  c.threads = std::min(hardware_threads(), ThreadPool::kMaxLanes);
  if (const char* s = std::getenv("GP_THREADS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v >= 1)
      c.threads = static_cast<int>(std::min<long>(v, ThreadPool::kMaxLanes));
  }

  c.governor.deadline_seconds =
      static_cast<double>(env_u64("GP_DEADLINE_MS")) / 1e3;
  c.governor.max_solver_checks = env_u64("GP_SOLVER_CHECKS");
  c.governor.max_sym_steps = env_u64("GP_SYM_STEPS");
  c.governor.max_expr_nodes = env_u64("GP_EXPR_NODES");

  c.store_dir = env_str("GP_STORE_DIR");
  c.fault_spec = env_str("GP_FAULT");

  c.bench_full = env_flag("GP_BENCH_FULL");

  // GP_OPT_LEVEL rejects out-of-range values instead of clamping: a level
  // that silently degraded to 0 would invalidate every size/gadget
  // measurement made under it.
  if (const char* s = std::getenv("GP_OPT_LEVEL")) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 0 || v > 2)
      throw Error("invalid GP_OPT_LEVEL '" + std::string(s) +
                  "' (valid levels: 0, 1, 2)");
    c.opt_level = static_cast<int>(v);
  }

  c.metrics = env_bool("GP_METRICS", true);
  c.trace = env_bool("GP_TRACE", false);
  if (const u64 buf = env_u64("GP_TRACE_BUF"))
    c.trace_buf = static_cast<u32>(
        std::min<u64>(std::max<u64>(buf, 64), u64{1} << 22));

  c.serve_sock = env_str("GP_SERVE_SOCK");
  if (const u64 q = env_u64("GP_SERVE_QUEUE"))
    c.serve_queue = static_cast<int>(std::min<u64>(q, u64{1} << 20));
  if (const u64 a = env_u64("GP_SERVE_MAX_ACTIVE"))
    c.serve_max_active = static_cast<int>(std::min<u64>(a, 256));

  return c;
}

const Config& config() {
  static const Config snapshot = Config::from_env();
  return snapshot;
}

}  // namespace gp
