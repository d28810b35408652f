// Table IV: gadgets (total/used) and payload counts per attack goal, for
// the four tools, across {Original, LLVM-Obf, Tigress}. Expected shape:
// Gadget-Planner builds far more payloads than ROPGadget/Angrop (which
// mostly fail outright), and more than SGC; obfuscated rows dominate the
// original row; parenthesized numbers are payloads newly introduced by the
// obfuscation.
//
// One Campaign covers the whole (row × program) grid; the baseline tools
// ride along in the on_job hook, which runs with each job's Session still
// alive so they share its context and minimized library.
#include <mutex>

#include "bench_util.hpp"
#include "baselines/baselines.hpp"

int main() {
  using namespace gp;
  const auto programs = bench::bench_programs();

  std::printf("Table IV — payloads per tool, summed over %zu benchmark "
              "programs%s\n\n",
              programs.size(),
              bench::full_sweep() ? "" : " (GP_BENCH_FULL=1 for all 12)");

  // totals[row][tool][goal]
  struct ToolAgg {
    u64 gadgets_total = 0, gadgets_used = 0;
    int chains[3] = {0, 0, 0};
  };
  const auto rows = bench::table4_rows();
  std::vector<std::vector<ToolAgg>> totals(rows.size(),
                                           std::vector<ToolAgg>(4));
  std::mutex totals_mu;

  std::vector<core::Job> jobs;
  for (const auto& row : rows) {
    auto row_jobs = bench::bench_jobs(row.options, row.label);
    jobs.insert(jobs.end(), row_jobs.begin(), row_jobs.end());
  }

  auto copts = bench::quick_campaign();
  copts.on_job = [&](const core::Job& job, core::Session& s,
                     core::JobResult& r) {
    const auto& goals = job.goals;
    ToolAgg tools[4];
    auto add = [&](int t, size_t g, const baselines::Result& res) {
      tools[t].gadgets_total = res.gadgets_total;
      tools[t].gadgets_used += res.gadgets_used;
      tools[t].chains[g] = static_cast<int>(res.chains.size());
    };
    for (size_t g = 0; g < goals.size(); ++g)
      add(0, g, baselines::rop_gadget(s.img(), goals[g]));
    for (size_t g = 0; g < goals.size(); ++g)
      add(1, g, baselines::angrop(s.ctx(), s.library(), s.img(), goals[g]));
    for (size_t g = 0; g < goals.size(); ++g)
      add(2, g, baselines::sgc(s.ctx(), s.library(), s.img(), goals[g], 4));
    tools[3].gadgets_total = s.library().size();
    for (size_t g = 0; g < goals.size(); ++g) {
      tools[3].chains[g] = r.chains_per_goal[g];
      for (const auto& c : r.chains[g])
        tools[3].gadgets_used += c.gadgets.size();
    }

    size_t row = 0;
    while (rows[row].label != job.obfuscation) ++row;
    std::lock_guard<std::mutex> lock(totals_mu);
    for (int t = 0; t < 4; ++t) {
      ToolAgg& a = totals[row][t];
      a.gadgets_total += tools[t].gadgets_total;
      a.gadgets_used += tools[t].gadgets_used;
      for (size_t g = 0; g < goals.size(); ++g)
        a.chains[g] += tools[t].chains[g];
    }
  };
  core::Campaign(core::Engine::shared(), copts).run(jobs);

  static const char* kTools[] = {"ROPGadget", "Angrop", "SGC",
                                 "Gadget-Planner"};
  for (size_t rowi = 0; rowi < rows.size(); ++rowi) {
    std::printf("== %s ==\n", rows[rowi].label.c_str());
    std::printf("%-16s %14s %10s %8s %9s %6s %7s%s\n", "tool",
                "gadgets-total", "used", "execve", "mprotect", "mmap",
                "total", rowi > 0 ? "  (new vs original)" : "");
    bench::hr(96);
    for (int t = 0; t < 4; ++t) {
      const auto& a = totals[rowi][t];
      const int total = a.chains[0] + a.chains[1] + a.chains[2];
      std::printf("%-16s %14llu %10llu %8d %9d %6d %7d", kTools[t],
                  (unsigned long long)a.gadgets_total,
                  (unsigned long long)a.gadgets_used, a.chains[0],
                  a.chains[1], a.chains[2], total);
      if (rowi > 0) {
        const auto& orig = totals[0][t];
        const int new_chains =
            total - (orig.chains[0] + orig.chains[1] + orig.chains[2]);
        std::printf("  (%+d)", new_chains);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("(paper: GP ~30x ROPGadget, ~10x Angrop, ~2x SGC on "
              "obfuscated programs)\n");
  return 0;
}
