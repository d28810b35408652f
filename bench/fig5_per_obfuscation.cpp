// Fig. 5: Gadget-Planner payload counts under each individual obfuscation
// method. Expected shape: bogus control flow, control-flow flattening and
// virtualization introduce the highest code-reuse risk (the paper's red
// bars), instruction substitution and data encoding the least.
//
// Each method's bar is one Campaign over the bench programs: sessions run
// concurrently on the shared engine, and the per-job results aggregate
// into the method's row.
#include "bench_util.hpp"

int main() {
  using namespace gp;

  const char* methods[] = {"none",     "substitution", "encode-data",
                           "bogus-cf", "flatten",      "virtualize"};

  std::printf("Fig. 5 — Gadget-Planner payloads per obfuscation method "
              "(summed over %zu programs, all goals, codegen %s)\n",
              bench::bench_programs().size(), bench::opt_label());
  std::printf("%-16s %10s %10s %10s\n", "method", "gadgets", "payloads",
              "code-bytes");
  bench::hr(52);

  auto copts = bench::bench_campaign();
  copts.pipeline.plan.max_chains = 8;
  core::Campaign campaign(core::Engine::shared(), copts);

  for (const char* method : methods) {
    const auto summary = campaign.run(
        bench::bench_jobs(core::profile_by_name(method, 7), method));
    u64 gadgets = 0, code = 0;
    int payloads = 0;
    for (const auto& r : summary.results) {
      gadgets += r.stages.pool_minimized;
      code += r.code_bytes;
      payloads += r.total_chains();
    }
    std::printf("%-16s %10llu %10d %10llu\n", method,
                (unsigned long long)gadgets, payloads,
                (unsigned long long)code);
  }
  std::printf("\n(paper Fig. 5: bogus control flow, flattening and "
              "virtualization introduce the most payloads)\n");
  return 0;
}
