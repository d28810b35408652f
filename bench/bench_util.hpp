// Shared plumbing for the table/figure regeneration binaries.
//
// Every binary prints the rows of one paper table or figure. Absolute
// numbers come from our simulated substrate; the *shapes* (who wins, rough
// factors, where the crossovers sit) are the reproduction target — see
// EXPERIMENTS.md. Set GP_BENCH_FULL=1 to sweep the whole corpus instead of
// the quick default subset.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "corpus/corpus.hpp"
#include "support/config.hpp"

namespace gp::bench {

inline bool full_sweep() { return config().bench_full; }

/// The shared Engine's GP_OPT_LEVEL — the drivers that compile directly
/// (fig1/table1/table7/robustness_governor) pass it to core::compile_image
/// so `GP_OPT_LEVEL=2 fig1` regenerates the table at -O2; campaign-based
/// drivers resolve the same level inside Campaign::run.
inline int bench_opt_level() {
  return core::Engine::shared().config().opt_level;
}

/// Lanes for the benches that extract directly (fig1/table7): the shared
/// Engine's GP_THREADS, the count its Sessions run on.
inline int bench_threads() { return core::Engine::shared().config().threads; }

/// Session options under the shared Engine's Config: the GP_* budgets and
/// GP_STORE_DIR reach every driver through here.
inline core::PipelineOptions bench_pipeline() {
  return core::PipelineOptions::from(core::Engine::shared().config());
}

/// "O0"/"O1"/"O2" for table headers.
inline const char* opt_label() {
  return codegen::opt_level_name(
      codegen::opt_level_from_int(bench_opt_level()));
}

/// The benchmark programs a quick run uses (a representative third of the
/// corpus); GP_BENCH_FULL=1 uses all twelve.
inline std::vector<corpus::ProgramSource> bench_programs() {
  const auto& all = corpus::benchmark();
  if (full_sweep()) return all;
  return {all[0], all[3], all[7], all[10]};  // sort, fib, matrix, hash
}

/// The obfuscation configurations of Table IV's rows.
struct ObfRow {
  std::string label;
  obf::Options options;
};
inline std::vector<ObfRow> table4_rows(u64 seed = 7) {
  return {{"Original", obf::Options::none()},
          {"LLVM-Obf", obf::Options::llvm_obf(seed)},
          {"Tigress", obf::Options::tigress(seed)}};
}

inline void hr(int width = 100) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// Session concurrency for bench campaigns: bounded fan-out on top of the
/// process-wide ThreadPool (each session also parallelizes internally).
inline int bench_concurrency() { return std::min(4, config().threads); }

/// Campaign options on bench_pipeline() at bench_concurrency() lanes.
inline core::Campaign::Options bench_campaign() {
  core::Campaign::Options opts;
  opts.concurrency = bench_concurrency();
  opts.pipeline = bench_pipeline();
  return opts;
}

/// Campaign options tuned so a full bench binary stays in the minutes
/// range.
inline core::Campaign::Options quick_campaign() {
  core::Campaign::Options opts = bench_campaign();
  opts.pipeline.plan.max_chains = 8;
  opts.pipeline.plan.max_expansions = 4000;
  return opts;
}

/// Campaign jobs: every bench program under one obfuscation config.
inline std::vector<core::Job> bench_jobs(
    const obf::Options& options, const std::string& label,
    const std::vector<payload::Goal>& goals = payload::Goal::all()) {
  std::vector<core::Job> jobs;
  for (const auto& program : bench_programs()) {
    core::Job job;
    job.program = program.name;
    job.source = program.source;
    job.obfuscation = label;
    job.obf = options;
    job.goals = goals;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace gp::bench
