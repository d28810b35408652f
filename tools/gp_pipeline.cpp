// gp_pipeline: command-line driver for the full Gadget-Planner pipeline
// with durable checkpoint/resume.
//
// The robustness harness (scripts/tier1.sh) uses it to prove kill-resume
// determinism: run once cold, SIGKILL a second run mid-extraction with
// GP_STORE_DIR set, re-run to resume from the surviving checkpoints, and
// byte-diff the emitted payloads against the cold reference.
//
//   gp_pipeline [--program <name>] [--obf <profile>] [--seed <n>]
//               [--image <file.gpim>] [--save-image <file.gpim>]
//               [--goal <execve|mprotect|mmap|all>] [--out <dir>] [--report]
//   gp_pipeline --campaign [--profiles a,b,c] [--jobs <n>] [--goal ...]
//               [--seed <n>] [--summary <file.json>]
//
// Either compile a corpus program (--program/--obf/--seed), analyze a
// previously saved flat-binary image (--image), or run a whole campaign:
// the full corpus × the named obfuscation profiles, analyzed by up to
// --jobs concurrent sessions on one engine, with the machine-readable
// gp-campaign-v1 summary (per-stage seconds, pool sizes, chain counts,
// result digests) written to --summary. --out writes each chain's payload
// bytes to <dir>/<goal>-<index>.bin for diffing. Both modes take their
// policy from the shared Engine's Config: the checkpoint directory
// (GP_STORE_DIR), the governor budgets (GP_DEADLINE_MS, ...), the lanes
// per stage (GP_THREADS), the codegen level (GP_OPT_LEVEL) and the chaos
// knob (GP_FAULT), which the Engine arms.
//
// Campaign exit codes: 0 every job ok, 3 at least one job degraded
// (deadline/budget/fault — partial but usable results), 4 at least one job
// failed outright, 1 I/O error, 2 usage.
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "support/metrics.hpp"
#include "support/serial.hpp"
#include "support/trace.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--program <name>] [--obf none|substitution|bogus-cf|"
      "flatten|encode-data|virtualize|llvm-obf|tigress] [--seed <n>]\n"
      "          [--image <file.gpim>] [--save-image <file.gpim>]\n"
      "          [--goal execve|mprotect|mmap|all] [--out <dir>] [--report]\n"
      "          [--trace-out <file.json>]\n"
      "       %s --campaign [--profiles a,b,c] [--opt-levels 0,1,2] "
      "[--jobs <n>] [--goal ...]\n"
      "          [--seed <n>] [--summary <file.json>] "
      "[--trace-out <file.json>]\n"
      "env: GP_STORE_DIR (checkpoint dir), GP_DEADLINE_MS, "
      "GP_SOLVER_CHECKS, GP_SYM_STEPS, GP_EXPR_NODES, GP_OPT_LEVEL "
      "(codegen 0|1|2), GP_FAULT, GP_THREADS, GP_METRICS, GP_TRACE, "
      "GP_TRACE_BUF\n",
      argv0, argv0);
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

void print_runs(const char* stage, const gp::core::StageRuns& r,
                const gp::Status& st, double seconds) {
  std::printf("  %-8s %6.2fs  attempts=%u retries=%u cache-hits=%u "
              "resumes=%u  status=%s\n",
              stage, seconds, r.attempts, r.retries, r.cache_hits, r.resumes,
              st.ok() ? "ok" : st.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gp;

  std::string program = "hash_table", obf_name = "llvm-obf";
  std::string image_path, save_image_path, goal_name = "all", out_dir;
  std::string profiles_csv = "none,llvm-obf,tigress", summary_path;
  std::string opt_levels_csv, trace_path;
  bool want_report = false, campaign_mode = false;
  int seed = 5, campaign_jobs = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // --flag=value is accepted as a synonym for --flag value.
    std::string inline_value;
    bool has_inline = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
      has_inline = true;
    }
    std::function<const char*()> next;
    if (has_inline)
      next = [&]() -> const char* { return inline_value.c_str(); };
    else
      next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
    if (arg == "--program") {
      if (const char* v = next()) program = v; else return usage(argv[0]);
    } else if (arg == "--obf") {
      if (const char* v = next()) obf_name = v; else return usage(argv[0]);
    } else if (arg == "--seed") {
      if (const char* v = next()) seed = std::atoi(v); else return usage(argv[0]);
    } else if (arg == "--image") {
      if (const char* v = next()) image_path = v; else return usage(argv[0]);
    } else if (arg == "--save-image") {
      if (const char* v = next()) save_image_path = v; else return usage(argv[0]);
    } else if (arg == "--goal") {
      if (const char* v = next()) goal_name = v; else return usage(argv[0]);
    } else if (arg == "--out") {
      if (const char* v = next()) out_dir = v; else return usage(argv[0]);
    } else if (arg == "--report") {
      want_report = true;
    } else if (arg == "--campaign") {
      campaign_mode = true;
    } else if (arg == "--profiles") {
      if (const char* v = next()) profiles_csv = v; else return usage(argv[0]);
    } else if (arg == "--opt-levels") {
      if (const char* v = next()) opt_levels_csv = v;
      else return usage(argv[0]);
    } else if (arg == "--jobs") {
      if (const char* v = next()) campaign_jobs = std::atoi(v);
      else return usage(argv[0]);
    } else if (arg == "--summary") {
      if (const char* v = next()) summary_path = v; else return usage(argv[0]);
    } else if (arg == "--trace-out") {
      if (const char* v = next()) trace_path = v; else return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  // --trace-out turns recording on for this run regardless of GP_TRACE; the
  // export happens on every exit path below.
  if (!trace_path.empty()) trace::set_enabled(true);
  auto export_trace = [&]() -> bool {
    if (trace_path.empty()) return true;
    const Status st = trace::export_chrome_json(trace_path);
    if (!st.ok())
      std::fprintf(stderr, "gp_pipeline: trace-out %s: %s\n",
                   trace_path.c_str(), st.to_string().c_str());
    return st.ok();
  };

  core::Engine& engine = core::Engine::shared();

  const std::vector<payload::Goal> goals = payload::Goal::by_name(goal_name);
  if (goals.empty()) return usage(argv[0]);

  if (campaign_mode) {
    // --opt-levels fans a third campaign axis; unset leaves one job per
    // (program, profile) at the engine's GP_OPT_LEVEL. Bad level strings
    // reject inside corpus_jobs with the valid grammar.
    std::vector<int> opt_levels;
    for (const auto& s : split_csv(opt_levels_csv)) {
      char* end = nullptr;
      const long v = std::strtol(s.c_str(), &end, 10);
      if (end == s.c_str() || *end != '\0') {
        std::fprintf(stderr,
                     "gp_pipeline: bad --opt-levels entry '%s' "
                     "(valid levels: 0, 1, 2)\n",
                     s.c_str());
        return 2;
      }
      opt_levels.push_back(static_cast<int>(v));
    }
    auto jobs =
        core::Campaign::corpus_jobs(split_csv(profiles_csv), seed, opt_levels);
    if (jobs.empty()) return usage(argv[0]);
    for (auto& job : jobs) job.goals = goals;

    core::Campaign::Options copts;
    copts.concurrency = campaign_jobs;
    copts.pipeline = core::PipelineOptions::from(engine.config());
    core::Campaign campaign(engine, copts);
    const auto summary = campaign.run(jobs);

    for (const auto& r : summary.results)
      std::printf("%-14s %-12s %s %5d chains  %6.2fs  %s\n", r.program.c_str(),
                  r.obfuscation.c_str(),
                  codegen::opt_level_name(
                      codegen::opt_level_from_int(r.opt_level)),
                  r.total_chains(), r.seconds,
                  status_code_name(r.status.code()));
    std::printf("campaign: %zu jobs (%d ok, %d degraded, %d failed) in "
                "%.2fs at concurrency %d\n",
                summary.results.size(), summary.jobs_ok, summary.jobs_degraded,
                summary.jobs_failed, summary.wall_seconds, summary.concurrency);
    const auto cp = summary.critical_path();
    if (cp.job >= 0)
      std::printf("critical path: %s stage of %s/%s (%.2fs of the %.2fs "
                  "wall; job finished last at %.2fs)\n",
                  cp.stage.c_str(), cp.program.c_str(), cp.obfuscation.c_str(),
                  cp.stage_seconds, summary.wall_seconds, cp.end_seconds);

    if (!summary_path.empty()) {
      const std::string json = summary.to_json();
      const Status st = serial::write_file_atomic(
          summary_path, std::vector<u8>(json.begin(), json.end()));
      if (!st.ok()) {
        std::fprintf(stderr, "gp_pipeline: %s: %s\n", summary_path.c_str(),
                     st.to_string().c_str());
        return 1;
      }
    }
    if (!export_trace()) return 1;
    // Distinct exit codes so harnesses can tell outcomes apart without
    // parsing the summary: 0 all ok, 3 some jobs degraded (deadline/budget/
    // fault — usable but partial results), 4 some jobs failed outright.
    if (summary.jobs_failed > 0) return 4;
    if (summary.jobs_degraded > 0) return 3;
    return 0;
  }

  image::Image img;
  if (!image_path.empty()) {
    auto loaded = image::load_file(image_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "gp_pipeline: %s: %s\n", image_path.c_str(),
                   loaded.status().to_string().c_str());
      return 1;
    }
    img = std::move(loaded.value());
  } else {
    img = core::compile_image(
        program, "", core::profile_by_name(obf_name, static_cast<u64>(seed)),
        engine.config().opt_level);
  }
  if (!save_image_path.empty()) {
    const Status st = image::save_file(img, save_image_path);
    if (!st.ok()) {
      std::fprintf(stderr, "gp_pipeline: save-image: %s\n",
                   st.to_string().c_str());
      return 1;
    }
  }

  core::Session gp(engine, img, core::PipelineOptions::from(engine.config()));
  gp.prepare();
  std::printf("pool: %llu raw -> %llu minimized\n",
              (unsigned long long)gp.report().pool_raw,
              (unsigned long long)gp.report().pool_minimized);

  int exit_code = 0;
  for (const auto& goal : goals) {
    const auto chains = gp.find_chains(goal);
    std::printf("%s: %zu chains\n", goal.name.c_str(), chains.size());
    if (chains.empty()) exit_code = 1;
    if (out_dir.empty()) continue;
    for (size_t i = 0; i < chains.size(); ++i) {
      const std::string path =
          out_dir + "/" + goal.name + "-" + std::to_string(i) + ".bin";
      const Status st = serial::write_file_atomic(path, chains[i].payload);
      if (!st.ok()) {
        std::fprintf(stderr, "gp_pipeline: %s: %s\n", path.c_str(),
                     st.to_string().c_str());
        return 1;
      }
    }
  }

  if (want_report) {
    const auto& r = gp.report();
    std::printf("stage report:\n");
    print_runs("extract", r.extract_runs, r.extract_status, r.extract_seconds);
    print_runs("subsume", r.subsume_runs, r.subsume_status, r.subsume_seconds);
    print_runs("plan", r.plan_runs, r.plan_status, r.plan_seconds);
    std::printf("  store    hits=%llu resumes=%llu misses=%llu "
                "corrupt=%llu stale=%llu puts=%llu put-failures=%llu\n",
                (unsigned long long)r.store.hits,
                (unsigned long long)r.store.resumes,
                (unsigned long long)r.store.misses,
                (unsigned long long)r.store.corrupt,
                (unsigned long long)r.store.stale,
                (unsigned long long)r.store.puts,
                (unsigned long long)r.store.put_failures);
    std::printf("  rss      extract=%s subsume=%s plan=%s (MiB)\n",
                core::format_rss_mb(r.rss_mb_after_extract).c_str(),
                core::format_rss_mb(r.rss_mb_after_subsume).c_str(),
                core::format_rss_mb(r.rss_mb_after_plan).c_str());
    if (metrics::enabled())
      std::printf("metrics: %s\n", metrics::registry().to_json().c_str());
  }
  if (!export_trace()) return 1;
  return exit_code;
}
