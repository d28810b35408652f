// Table VI: the SPEC-like suite — gadget and chain counts per tool on the
// original and obfuscated builds. Expected shape: baselines find 0-1 chains
// anywhere; Gadget-Planner finds chains on the obfuscated builds.
//
// One Campaign covers the (program × build) grid; the baseline tools run in
// the on_job hook against each job's Session.
#include <map>
#include <mutex>

#include "bench_util.hpp"
#include "baselines/baselines.hpp"

int main() {
  using namespace gp;
  std::vector<core::Job> jobs;
  for (const auto& program : corpus::spec()) {
    for (const auto& row : bench::table4_rows(429)) {
      core::Job job;
      job.program = program.name;
      job.source = program.source;
      job.obfuscation = row.label;
      job.obf = row.options;
      jobs.push_back(std::move(job));
    }
  }

  // Per (program, build): GP's minimized pool and the baselines' chains.
  struct Counts {
    u64 gadgets = 0;
    int rg = 0, angrop = 0, sgc = 0;
  };
  std::map<std::pair<std::string, std::string>, Counts> counts;
  std::mutex counts_mu;

  auto copts = bench::quick_campaign();
  copts.on_job = [&](const core::Job& job, core::Session& s,
                     core::JobResult&) {
    Counts c;
    c.gadgets = s.library().size();
    for (const auto& goal : job.goals)
      c.rg += static_cast<int>(
          baselines::rop_gadget(s.img(), goal).chains.size());
    for (const auto& goal : job.goals)
      c.angrop += static_cast<int>(
          baselines::angrop(s.ctx(), s.library(), s.img(), goal)
              .chains.size());
    for (const auto& goal : job.goals)
      c.sgc += static_cast<int>(
          baselines::sgc(s.ctx(), s.library(), s.img(), goal, 4)
              .chains.size());
    std::lock_guard<std::mutex> lock(counts_mu);
    counts[{job.program, job.obfuscation}] = c;
  };
  const auto sum = core::Campaign(core::Engine::shared(), copts).run(jobs);

  std::printf("Table VI — SPEC-like programs (execve/mprotect/mmap chains "
              "summed)\n");
  std::printf("%-12s %-10s %10s | %6s %6s %6s %6s\n", "benchmark", "build",
              "gadgets", "RG", "Angrop", "SGC", "GP");
  bench::hr(76);
  for (const auto& r : sum.results) {
    const Counts& c = counts.at({r.program, r.obfuscation});
    std::printf("%-12s %-10s %10llu | %6d %6d %6d %6d\n", r.program.c_str(),
                r.obfuscation.c_str(), (unsigned long long)c.gadgets, c.rg,
                c.angrop, c.sgc, r.total_chains());
  }
  std::printf("\n(paper Table VI: RG/Angrop ~0 everywhere; GP finds chains, "
              "most on obfuscated builds)\n");
  return 0;
}
