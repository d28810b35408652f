// Ablations for the design choices DESIGN.md calls out:
//   1. subsumption testing off   -> bigger pool, slower/equal planning
//   2. conditional gadgets off   -> fewer chains (the baselines' handicap)
//   3. direct-jump merging off   -> fewer chains
//   4. indirect gadgets off      -> fewer chains (pure ROP)
#include "bench_util.hpp"

int main() {
  using namespace gp;

  struct Config {
    const char* label;
    bool subsume;
    planner::AdmissionFlags admission;
  };
  const Config configs[] = {
      {"full pipeline", true, {}},
      {"no subsumption", false, {}},
      {"no conditional gadgets", true, {.use_cond_gadgets = false}},
      {"no direct-jump merge", true, {.use_direct_merged = false}},
      {"no indirect gadgets", true, {.use_indirect_gadgets = false}},
  };

  std::printf("Ablations — Gadget-Planner variants over %zu obfuscated "
              "programs (all goals)\n",
              bench::bench_programs().size());
  std::printf("%-26s %10s %10s %10s\n", "configuration", "pool", "chains",
              "plan-s");
  bench::hr(62);

  for (const auto& cfg : configs) {
    // One campaign per ablation variant: same jobs, different pipeline.
    auto copts = bench::bench_campaign();
    copts.pipeline.run_subsumption = cfg.subsume;
    copts.pipeline.plan.admission = cfg.admission;
    copts.pipeline.plan.max_chains = 8;
    core::Campaign campaign(core::Engine::shared(), copts);
    const auto summary =
        campaign.run(bench::bench_jobs(obf::Options::llvm_obf(7), "llvm-obf"));

    u64 pool = 0;
    int chains = 0;
    double plan_s = 0;
    for (const auto& r : summary.results) {
      pool += r.stages.pool_minimized;
      chains += r.total_chains();
      plan_s += r.stages.plan_seconds;
    }
    std::printf("%-26s %10llu %10d %10.2f\n", cfg.label,
                (unsigned long long)pool, chains, plan_s);
  }
  std::printf("\n(expected: the full pipeline dominates; gadget-class "
              "ablations reproduce the baselines' blind spots)\n");
  return 0;
}
