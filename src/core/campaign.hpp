// Campaign: fan a corpus of (program, obfuscation-config, goals) jobs
// across Sessions with bounded concurrency — the batch shape of the
// paper's whole evaluation (Figs. 1/5, Tables IV–VII) and of the bench/
// drivers, which hand-rolled exactly this loop before.
//
// Jobs are compiled sequentially (mini-C compilation is milliseconds;
// analysis is the expensive, parallel-safe part), then analyzed by up to
// `concurrency` concurrent Sessions on one Engine, each running under a
// per-session governor carved from the campaign budget
// (GovernorOptions::split_across). Results land in job order regardless of
// lane scheduling, and each job carries a content digest over its chains
// so "concurrency does not change results" is a one-line diff
// (scripts/tier1.sh asserts it).
//
// Summary::to_json() emits the machine-readable BENCH_pipeline.json schema
// (per-stage seconds, pool sizes, chain counts, statuses) that tracks the
// perf trajectory across PRs.
#pragma once

#include <functional>

#include "core/session.hpp"
#include "obfuscate/obfuscate.hpp"

namespace gp::core {

/// Named obfuscation profile: "none", the five single passes
/// ("substitution", "bogus-cf", "flatten", "encode-data", "virtualize"),
/// or the composite "llvm-obf" / "tigress" stacks. Throws gp::Error on an
/// unknown name.
obf::Options profile_by_name(const std::string& name, u64 seed = 7);

/// One unit of campaign work: obfuscate + compile one program, analyze it,
/// plan every goal.
struct Job {
  std::string program;      // corpus name (used as the label too)
  std::string source;       // mini-C source; "" = corpus::by_name(program)
  std::string obfuscation;  // profile label for reports ("" = obf.name())
  obf::Options obf;
  /// Codegen optimization level, 0..2; -1 resolves to the campaign
  /// Engine's Config::opt_level (GP_OPT_LEVEL) at compile time.
  /// Out-of-range values reject with the valid grammar before any job runs.
  int opt_level = -1;
  std::vector<payload::Goal> goals = payload::Goal::all();
};

struct JobResult {
  std::string program;
  std::string obfuscation;
  int opt_level = 0;  // resolved level the job compiled at
  size_t code_bytes = 0;

  StageReport stages;  // includes the per-stage counters

  std::vector<std::string> goal_names;              // indexed like job.goals
  std::vector<int> chains_per_goal;                 // indexed like job.goals
  std::vector<std::vector<payload::Chain>> chains;  // per goal, plan order
  int total_chains() const {
    int n = 0;
    for (const int c : chains_per_goal) n += c;
    return n;
  }

  /// Worst stage status: Ok for a clean run, a degradation code
  /// (deadline/budget/fault/cancel) for a degraded-but-usable run,
  /// Internal when a stage kept failing through every retry, or when the
  /// job (a Session stage, a pipeline.on_stage hook) or its on_job hook
  /// threw; the message names what threw, and every other job still runs.
  Status status;
  double seconds = 0;  // job wall clock (compile excluded)
  /// Job start/finish as offsets from the campaign clock — the timeline
  /// the critical-path analysis works on.
  double start_seconds = 0;
  double end_seconds = 0;

  /// fnv1a over the serialized chains of every goal (plan_goals): two runs
  /// produced identical results iff their digests match, regardless of
  /// timing noise. The campaign determinism drill compares exactly this.
  u64 result_digest = 0;

  /// This job's object in the gp-campaign-v1 "results" array: stage
  /// seconds, pool sizes, statuses, chain counts, the digest, and a
  /// "metrics" map holding every stage counter under its registry name
  /// with '.' replaced by '_' ("plan.expansions" -> "plan_expansions").
  std::string to_json() const;
};

/// The one source -> obfuscate -> compile path of a job: mini-C `source`
/// (when empty, corpus program `program`'s source) is obfuscated by `obf`,
/// then compiled at codegen level `opt_level` (0..2), so the optimizer only
/// sees obfuscated IR (DESIGN.md "Optimizer pass ordering"). Throws
/// gp::Error on an unknown program, a compile error or a bad level.
image::Image compile_image(const std::string& program,
                           const std::string& source, const obf::Options& obf,
                           int opt_level);

/// The one goal loop and result digest of a job: plans `goals` on
/// `session` in order, appending each goal's name, chain count and chains
/// to `r`, then sets `r.result_digest` to fnv1a over every goal's name
/// followed by its payload::encode_chains records. Campaign jobs and
/// gp_serve jobs both digest here, so one spec gets one digest either way.
void plan_goals(Session& session, const std::vector<payload::Goal>& goals,
                JobResult& r);

class Campaign {
 public:
  struct Options {
    /// Sessions in flight at once (>= 1). Lanes run on the engine's shared
    /// pool; nested stage parallelism inside each session still works (the
    /// pool is reentrant).
    int concurrency = 1;
    /// Per-session template; PipelineOptions::from(engine.config()) for a
    /// campaign that honours the GP_* budget and store knobs. Campaign
    /// replaces pipeline.governor with a per-session share of it
    /// (split_across(concurrency)): each concurrent session's counted
    /// budgets are carved from the single campaign-level budget, while the
    /// wall-clock deadline is shared.
    PipelineOptions pipeline;
    /// Optional per-job hook, run on the campaign lane after the job's
    /// goals are planned and with the Session still alive — benches use it
    /// to drive baseline tools against the same library/context. Invoked
    /// concurrently when concurrency > 1; the callback synchronizes its
    /// own state. Not invoked for a job that threw.
    std::function<void(const Job&, Session&, JobResult&)> on_job;
  };

  struct Summary {
    std::vector<JobResult> results;  // job order, independent of scheduling
    int jobs_ok = 0;        // every stage Ok
    int jobs_degraded = 0;  // budget/deadline/fault-cut but usable
    int jobs_failed = 0;    // Internal status (see JobResult::status)
    double wall_seconds = 0;
    int concurrency = 1;
    int threads = 1;  // lanes each session stage ran on (Config::threads)
    /// Aggregate metrics-registry snapshot (metrics::Registry::to_json)
    /// taken when the campaign finished; "" when metrics were disabled.
    std::string metrics_json;

    /// The stage that bounded campaign wall time: the longest stage of the
    /// job that finished last. With every lane racing one clock, shaving
    /// anything else cannot move wall_seconds.
    struct CriticalPath {
      int job = -1;  // index into results; -1 for an empty campaign
      std::string program;
      std::string obfuscation;
      std::string stage;  // "extract" | "subsume" | "plan"
      double stage_seconds = 0;
      double end_seconds = 0;  // when that job finished, campaign clock
    };
    CriticalPath critical_path() const;

    /// The BENCH_pipeline.json schema (gp-campaign-v1): one object with
    /// campaign totals, an aggregate "metrics" block, a "critical_path"
    /// block, and a per-job array of stage seconds, pool sizes, chain
    /// counts, per-goal chain maps, statuses and result digests.
    std::string to_json() const;
  };

  explicit Campaign(Engine& engine) : Campaign(engine, Options{}) {}
  Campaign(Engine& engine, Options opts);

  /// Run every job; blocks until all complete. Degradation is data
  /// (JobResult::status), never an exception.
  Summary run(const std::vector<Job>& jobs);

  /// The full corpus × the named obfuscation profiles × the requested
  /// opt levels — the paper's evaluation grid plus the optimization fan
  /// axis. Profiles default to Table IV's rows (none, llvm-obf, tigress);
  /// an empty opt_levels means one job per (program, profile) at the
  /// Engine's configured level (opt_level -1).
  static std::vector<Job> corpus_jobs(
      const std::vector<std::string>& profiles = {"none", "llvm-obf",
                                                  "tigress"},
      int seed = 7, const std::vector<int>& opt_levels = {});

 private:
  Engine& engine_;
  Options opts_;
};

}  // namespace gp::core
