// Table VII: per-stage time and memory of each tool on the obfuscated
// netperf-like target. Expected shape: gadget extraction and subsumption
// dominate Gadget-Planner's time while planning is cheapest (the two
// earlier stages shrink the pool); Angrop is fastest overall.
#include <chrono>

#include "bench_util.hpp"
#include "baselines/baselines.hpp"

int main() {
  using namespace gp;
  using Clock = std::chrono::steady_clock;

  const corpus::ProgramSource& netperf = corpus::netperf();
  const auto img =
      core::compile_image(netperf.name, netperf.source,
                          obf::Options::llvm_obf(2023),
                          bench::bench_opt_level());
  std::printf("Table VII — per-stage cost on obfuscated netperf-like "
              "(%zu bytes of code, codegen %s)\n\n",
              img.code().size(), bench::opt_label());
  std::printf("%-16s %-22s %10s %10s\n", "tool", "stage", "time(s)",
              "mem(MB)");
  bench::hr(64);

  // Angrop-like: finding (extraction, no subsumption) + chaining.
  {
    solver::Context ctx;
    auto t0 = Clock::now();
    gadget::Extractor ex(ctx, img);
    gadget::Library lib(ex.extract(nullptr, bench::bench_threads()));
    const double find_s = std::chrono::duration<double>(Clock::now() - t0).count();
    const u64 find_mb = core::current_rss_mb();
    auto t1 = Clock::now();
    int chains = 0;
    for (const auto& goal : payload::Goal::all())
      chains += static_cast<int>(
          baselines::angrop(ctx, lib, img, goal).chains.size());
    const double chain_s = std::chrono::duration<double>(Clock::now() - t1).count();
    std::printf("%-16s %-22s %10.2f %10s\n", "Angrop", "gadget finding",
                find_s, core::format_rss_mb(find_mb).c_str());
    std::printf("%-16s %-22s %10.2f %10s  (%d chains)\n", "", "chaining",
                chain_s, core::format_rss_mb(core::current_rss_mb()).c_str(),
                chains);
  }

  // SGC-like: disassembly/extraction + synthesis.
  {
    solver::Context ctx;
    auto t0 = Clock::now();
    gadget::Extractor ex(ctx, img);
    gadget::Library lib(ex.extract(nullptr, bench::bench_threads()));
    const double dis_s = std::chrono::duration<double>(Clock::now() - t0).count();
    auto t1 = Clock::now();
    int chains = 0;
    for (const auto& goal : payload::Goal::all())
      chains += static_cast<int>(
          baselines::sgc(ctx, lib, img, goal, 4, 20).chains.size());
    const double synth_s = std::chrono::duration<double>(Clock::now() - t1).count();
    std::printf("%-16s %-22s %10.2f %10s\n", "SGC", "disassembly", dis_s,
                core::format_rss_mb(core::current_rss_mb()).c_str());
    std::printf("%-16s %-22s %10.2f %10s  (%d chains)\n", "", "chaining",
                synth_s, core::format_rss_mb(core::current_rss_mb()).c_str(),
                chains);
  }

  // Gadget-Planner: the staged Session API — each stage is an explicit
  // artifact, and the report carries its accounting.
  {
    core::PipelineOptions popts = bench::bench_pipeline();
    popts.plan.max_chains = 16;
    popts.plan.time_budget_seconds = 60;
    core::Session gp(core::Engine::shared(), img, popts);
    (void)gp.extract();
    (void)gp.subsume();
    int chains = 0;
    for (const auto& goal : payload::Goal::all())
      chains += static_cast<int>(gp.find_chains(goal).size());
    const auto& rep = gp.report();
    std::printf("%-16s %-22s %10.2f %10s\n", "Gadget-Planner",
                "gadget extraction", rep.extract_seconds,
                core::format_rss_mb(rep.rss_mb_after_extract).c_str());
    std::printf("%-16s %-22s %10.2f %10s  (pool %llu -> %llu)\n", "",
                "subsumption testing", rep.subsume_seconds,
                core::format_rss_mb(rep.rss_mb_after_subsume).c_str(),
                (unsigned long long)rep.pool_raw,
                (unsigned long long)rep.pool_minimized);
    std::printf("%-16s %-22s %10.2f %10s  (%d chains)\n", "", "planning",
                rep.plan_seconds,
                core::format_rss_mb(rep.rss_mb_after_plan).c_str(), chains);
  }

  std::printf("\n(paper Table VII: GP total ~100min on real netperf; "
              "planning the cheapest GP stage; Angrop fastest tool)\n");
  return 0;
}
