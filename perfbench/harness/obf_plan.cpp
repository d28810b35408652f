// obf-plan: core::Campaign over the 12 corpus programs x llvm-obf, goal
// execve, 4 lanes with GP_THREADS=1 inside each session and no store.
//
// Plan is most of the stage time here, and nearly all of that is SAT inside
// concretization; two jobs find no chain and take the failure-budget path.
// Sessions run single-threaded so the chain digests are deterministic and
// can be checked against the committed reference.
//
// The images and the job order are fixed: the reference is for obfuscation
// seed 7, and both other seeds and other job orders change how long jobs
// pack onto the lanes (five permuted orders moved wall_s by 23%). The
// workload seed drives the random register values of the emulator
// re-validation instead.
#include <cstdio>

#include "common.hpp"
#include "core/campaign.hpp"
#include "support/config.hpp"

namespace perfbench {

namespace {

constexpr u64 kObfSeed = 7;
constexpr int kLanes = 4;
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
const char* const kProfile = "llvm-obf";

}  // namespace

Outcome run_obf_plan(const Args& a, Report& r) {
  using gp::core::Campaign;
  print_stamp(a, gp::config().threads, "lanes", kLanes);

  std::vector<gp::core::Job> jobs = Campaign::corpus_jobs({kProfile}, kObfSeed);
  const gp::payload::Goal goal = gp::payload::Goal::execve();
  for (auto& j : jobs) j.goals = {goal};

  // Set-up: engine start plus compiling the workload's images. The images
  // are kept for the emulator re-validation of every returned chain.
  HostSpeed speed;
  EndToEnd e2e;
  std::vector<gp::image::Image> images;
  double compile_s = 0;
  e2e.setup_s = median_seconds(kSetupReps, kSetupSeconds, [&] {
    gp::core::Engine probe(gp::Config::from_env());
    images.clear();
    const auto t0 = Clock::now();
    for (const auto& j : jobs)
      images.push_back(compile_image(j.program, kProfile, kObfSeed));
    compile_s = secs_since(t0);
  });
  e2e.setup_scale = speed.next_scale();

  const std::string ref_path = a.reference_dir + "/obf-plan.txt";
  if (a.write_reference) {
    // The sequential linear-planner path (run with GP_THREADS=1,
    // GP_PLAN_INDEX=0): one plain Session per job.
    gp::core::Engine engine(gp::Config::from_env());
    std::map<std::string, std::string> ref;
    for (size_t i = 0; i < jobs.size(); ++i) {
      gp::core::Session s(engine, images[i]);
      const auto chains = s.find_chains(goal);
      if (!validate_chains(images[i], chains, goal, a.seed)) return {false, 1, 1};
      ref["digest." + jobs[i].program] = hex(chains_digest(goal.name, chains));
      ref["chains." + jobs[i].program] = std::to_string(chains.size());
    }
    std::printf("wrote %s\n", ref_path.c_str());
    return {write_reference(ref_path, ref), jobs.size(), 0};
  }
  const auto ref = read_reference(ref_path);
  if (ref.empty()) {
    std::fprintf(stderr, "obf-plan: no reference at %s\n", ref_path.c_str());
    return {false, 1, 1};
  }

  gp::core::Engine engine(gp::Config::from_env());
  Campaign::Options copts;
  copts.concurrency = kLanes;
  Campaign campaign(engine, copts);

  Outcome out;
  std::map<std::string, double> counters;
  std::vector<gp::trace::Event> events;
  double untraced_wall = 0;
  const auto run0 = Clock::now();
  for (int pass = 0;; ++pass) {
    // Trace runs make one untraced pass (the overhead baseline) and one
    // traced pass; measured runs repeat passes until --seconds elapse.
    const bool traced = a.trace && pass == 1;
    gp::metrics::registry().reset();
    gp::trace::reset();
    gp::trace::set_enabled(traced);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    Campaign::Summary sum = campaign.run(jobs);
    const double wall = secs_since(t0);
    const double cpu = cpu_seconds() - c0;
    const double scale = speed.next_scale();
    if (traced) counters = registry_counters();

    // Outside the timed window: reference digests and emulator validation.
    for (size_t i = 0; i < jobs.size(); ++i) {
      const gp::core::JobResult& jr = sum.results[i];
      const std::string& prog = jobs[i].program;
      const std::string digest = hex(jr.result_digest);
      const auto want = ref.find("digest." + prog);
      const bool ok = jr.status.ok() &&
                      jr.code_bytes == images[i].code().size() &&
                      want != ref.end() && want->second == digest &&
                      validate_chains(images[i], jr.chains[0], goal, a.seed);
      out.attempted++;
      if (!ok) {
        out.failed++;
        std::fprintf(stderr, "obf-plan: %s/%s mismatch (digest %s, status %s)\n",
                     prog.c_str(), kProfile, digest.c_str(),
                     jr.status.to_string().c_str());
      }
      e2e.op_s.push_back(jr.seconds);
      e2e.op_scale.push_back(scale);
    }
    if (traced) events = gp::trace::snapshot();
    gp::trace::set_enabled(false);
    if (a.trace) {
      if (!traced) {
        untraced_wall = wall * scale;
        continue;
      }
      LayerInputs in;
      in.counters = std::move(counters);
      in.spans = span_totals(events);
      in.compile_s = compile_s;
      for (const auto& img : images) in.code_bytes += static_cast<double>(img.code().size());
      in.wall_s = wall * scale;
      in.untraced_wall_s = untraced_wall;
      double busy = 0;
      for (const auto& jr : sum.results) {
        busy += jr.seconds;
        if (jr.total_chains() == 0) in.zero_chain_s += jr.stages.plan_seconds;
        char row[512];
        std::snprintf(row, sizeof row,
                      "\"job\": \"%s/%s\", \"seconds\": %.4f, \"extract_s\": %.4f, "
                      "\"subsume_s\": %.4f, \"plan_s\": %.4f, \"chains\": %d, "
                      "\"digest\": \"%s\"",
                      jr.program.c_str(), jr.obfuscation.c_str(), jr.seconds,
                      jr.stages.extract_seconds, jr.stages.subsume_seconds,
                      jr.stages.plan_seconds, jr.total_chains(),
                      hex(jr.result_digest).c_str());
        print_row(row);
      }
      in.lane_busy_frac = busy / (wall * kLanes);
      in.critical_path_s = sum.critical_path().stage_seconds;
      in.dropped = gp::trace::dropped();
      add_layer_metrics(in, r);
      break;
    }
    e2e.wall_s.push_back(wall);
    e2e.cpu_s.push_back(cpu);
    e2e.pass_scale.push_back(scale);
    if (secs_since(run0) >= a.seconds) break;
  }
  out.correct = out.failed == 0;
  if (!a.trace) add_end_to_end(e2e, out, speed, r);
  return out;
}

}  // namespace perfbench
