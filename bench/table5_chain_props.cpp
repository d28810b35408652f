// Table V: chain properties — average gadget length, average chain length,
// and the gadget-type mix (Ret / IJ / DJ / CJ) of the chains each tool
// builds. Expected shape: ROPGadget/Angrop 100% ret with short gadgets;
// Gadget-Planner uses all types and builds the longest chains.
//
// One Campaign covers the whole (program × obfuscation) grid; the baseline
// tools ride along in the on_job hook, which runs with each job's Session
// still alive so they share its context and minimized library.
#include <mutex>

#include "bench_util.hpp"
#include "baselines/baselines.hpp"

namespace {

struct Props {
  int chains = 0;
  int gadgets = 0;
  int insts = 0;
  int ret = 0, ij = 0, dj = 0, cj = 0;
  void add(const gp::payload::Chain& c) {
    ++chains;
    gadgets += static_cast<int>(c.gadgets.size());
    insts += c.total_insts;
    ret += c.ret_gadgets;
    ij += c.ij_gadgets;
    dj += c.dj_gadgets;
    cj += c.cj_gadgets;
  }
  void print(const char* tool) const {
    if (chains == 0) {
      std::printf("%-16s %10s %10s  (no chains)\n", tool, "-", "-");
      return;
    }
    const double typed = ret + ij + cj;
    std::printf("%-16s %10.1f %10.1f %7.0f%% %5.0f%% %5.0f%% %5.0f%%\n",
                tool, static_cast<double>(insts) / gadgets,
                static_cast<double>(insts) / chains,
                100.0 * ret / typed, 100.0 * ij / typed,
                100.0 * dj / std::max(1, gadgets),
                100.0 * cj / typed);
  }
};

}  // namespace

int main() {
  using namespace gp;
  Props props[4];
  std::mutex props_mu;

  std::vector<core::Job> jobs;
  for (const auto& row : bench::table4_rows()) {
    if (row.label == "Original") continue;  // Table V is about obf chains
    auto method_jobs = bench::bench_jobs(row.options, row.label);
    jobs.insert(jobs.end(), method_jobs.begin(), method_jobs.end());
  }

  auto copts = bench::bench_campaign();
  copts.pipeline.plan.max_chains = 8;
  copts.pipeline.plan.time_budget_seconds = 20;
  copts.on_job = [&](const core::Job& job, core::Session& s,
                     core::JobResult& r) {
    // Baselines share the session's context and library; the lock also
    // serializes them, so the shared Props never race.
    std::lock_guard<std::mutex> lock(props_mu);
    for (size_t g = 0; g < job.goals.size(); ++g) {
      const auto& goal = job.goals[g];
      auto rg = baselines::rop_gadget(s.img(), goal);
      for (const auto& c : rg.chains) props[0].add(c);
      auto an = baselines::angrop(s.ctx(), s.library(), s.img(), goal);
      for (const auto& c : an.chains) props[1].add(c);
      auto sg = baselines::sgc(s.ctx(), s.library(), s.img(), goal, 2, 10);
      for (const auto& c : sg.chains) props[2].add(c);
      for (const auto& c : r.chains[g]) props[3].add(c);
    }
  };
  core::Campaign(core::Engine::shared(), copts).run(jobs);

  std::printf("Table V — chain properties on obfuscated programs "
              "(codegen %s)\n",
              bench::opt_label());
  std::printf("%-16s %10s %10s %8s %6s %6s %6s\n", "tool", "gadget-len",
              "chain-len", "Ret", "IJ", "DJ", "CJ");
  bench::hr(70);
  static const char* kTools[] = {"ROPGadget", "Angrop", "SGC",
                                 "Gadget-Planner"};
  for (int t = 0; t < 4; ++t) props[t].print(kTools[t]);
  std::printf("\n(paper Table V: GP gadget-len 6.7, chain-len 33.5, mix "
              "38/10/12/40; peers 100%% Ret)\n");
  return 0;
}
