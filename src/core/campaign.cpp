#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "codegen/codegen.hpp"
#include "corpus/corpus.hpp"
#include "minic/minic.hpp"
#include "payload/serialize.hpp"
#include "support/metrics.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace gp::core {

using Clock = std::chrono::steady_clock;

namespace {

// JSON escaping is the shared gp::json_escape (support/str.hpp). The old
// local version emitted a bare backslash before dropping control chars —
// `"a\nb"` became the invalid literal `a\b` — and is gone.

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

/// `"<stage>_<name>": value` for every counter in the stage's table: the
/// registry name "<stage>.<name>" with '.' replaced by '_'.
template <class S>
void append_counters(std::string& j, const char* stage, const S& stats) {
  for (const metrics::CounterField<S>& f : S::kCounters) {
    if (j.back() != '{') j += ", ";
    j += "\"" + std::string(stage) + "_" + f.name +
         "\": " + std::to_string(stats.*f.field);
  }
}

/// Runs `body`, turning an exception it throws into an Internal status
/// naming `what`. Campaign lanes contain every job failure this way: an
/// exception escaping a lane would rethrow out of ThreadPool::run after the
/// barrier, discarding every other job's finished result.
template <class F>
Status contain(const char* what, F&& body) {
  try {
    body();
    return Status();
  } catch (const std::exception& e) {
    return Status::internal(std::string(what) + " threw: " + e.what());
  } catch (...) {
    return Status::internal(std::string(what) + " threw");
  }
}

}  // namespace

obf::Options profile_by_name(const std::string& name, u64 seed) {
  using obf::Options;
  if (name == "none") return Options::none();
  if (name == "substitution") return {.substitution = true, .seed = seed};
  if (name == "bogus-cf") return {.bogus_cf = true, .seed = seed};
  if (name == "flatten") return {.flatten = true, .seed = seed};
  if (name == "encode-data") return {.encode_data = true, .seed = seed};
  if (name == "virtualize") return {.virtualize = true, .seed = seed};
  if (name == "llvm-obf") return Options::llvm_obf(seed);
  if (name == "tigress") return Options::tigress(seed);
  throw Error("unknown obfuscation profile '" + name +
              "' (valid profiles: none, substitution, bogus-cf, flatten, "
              "encode-data, virtualize, llvm-obf, tigress)");
}

image::Image compile_image(const std::string& program,
                           const std::string& source, const obf::Options& obf,
                           int opt_level) {
  auto prog = minic::compile_source(
      source.empty() ? corpus::by_name(program).source : source);
  obf::obfuscate(prog, obf);
  codegen::Options copts;
  copts.opt = codegen::opt_level_from_int(opt_level);
  return codegen::compile(prog, copts);
}

void plan_goals(Session& session, const std::vector<payload::Goal>& goals,
                JobResult& r) {
  serial::Writer digest;
  for (const auto& goal : goals) {
    auto chains = session.find_chains(goal);
    digest.put_str(goal.name);
    for (const auto& rec : payload::encode_chains(chains))
      serial::put_record(digest, rec);
    r.goal_names.push_back(goal.name);
    r.chains_per_goal.push_back(static_cast<int>(chains.size()));
    r.chains.push_back(std::move(chains));
  }
  r.result_digest = serial::fnv1a(digest.bytes());
}

Campaign::Campaign(Engine& engine, Options opts)
    : engine_(engine), opts_(std::move(opts)) {
  opts_.concurrency = std::max(1, opts_.concurrency);
}

std::vector<Job> Campaign::corpus_jobs(const std::vector<std::string>& profiles,
                                       int seed,
                                       const std::vector<int>& opt_levels) {
  // Validate levels up front — rejecting before any job compiles keeps a
  // typo'd sweep from burning a campaign's worth of work.
  for (const int level : opt_levels) codegen::opt_level_from_int(level);
  const std::vector<int> levels =
      opt_levels.empty() ? std::vector<int>{-1} : opt_levels;
  std::vector<Job> jobs;
  for (const auto& program : corpus::benchmark()) {
    for (const auto& profile : profiles) {
      for (const int level : levels) {
        Job job;
        job.program = program.name;
        job.source = program.source;
        job.obfuscation = profile;
        job.obf = profile_by_name(profile, static_cast<u64>(seed));
        job.opt_level = level;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

Campaign::Summary Campaign::run(const std::vector<Job>& jobs) {
  const auto t0 = Clock::now();
  Summary sum;
  sum.concurrency = opts_.concurrency;
  sum.threads = engine_.config().threads;
  sum.results.resize(jobs.size());
  if (jobs.empty()) return sum;

  // Compile phase, sequential and up front: mini-C compilation is
  // milliseconds per job, and keeping the compilers out of the concurrent
  // phase means only Sessions — which are built for it — run in parallel.
  std::vector<image::Image> images(jobs.size());
  const int engine_level = engine_.config().opt_level;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const int level = job.opt_level >= 0 ? job.opt_level : engine_level;
    images[i] = compile_image(job.program, job.source, job.obf, level);
    sum.results[i].opt_level = level;
  }

  // Each concurrent session runs on a share of the campaign budget; the
  // wall-clock deadline (if any) stays common to every lane.
  PipelineOptions popts = opts_.pipeline;
  popts.governor = opts_.pipeline.governor.split_across(opts_.concurrency);

  ThreadPool::shared().run(
      jobs.size(),
      [&](int /*lane*/, u64 i) {
        const Job& job = jobs[i];
        JobResult& r = sum.results[i];
        r.program = job.program;
        r.obfuscation =
            job.obfuscation.empty() ? job.obf.name() : job.obfuscation;
        r.code_bytes = images[i].code().size();

        trace::Span span("job:" + r.program + "/" + r.obfuscation, "job");
        const auto j0 = Clock::now();
        r.start_seconds = std::chrono::duration<double>(j0 - t0).count();
        std::optional<Session> session;
        const Status thrown = contain("job", [&] {
          session.emplace(engine_, std::move(images[i]), popts);
          span.set_session(session->id());
          session->prepare();
          plan_goals(*session, job.goals, r);
          r.stages = session->report();
          r.status = r.stages.worst_status();
        });
        if (!thrown.ok()) r.status = thrown;
        r.seconds = secs_since(j0);
        r.end_seconds = secs_since(t0);
        if (metrics::enabled()) {
          metrics::Registry& reg = metrics::registry();
          reg.counter("campaign.jobs").add();
          if (!r.status.ok()) reg.counter("campaign.jobs_degraded").add();
          reg.histogram("campaign.job_ms")
              .observe(static_cast<u64>(r.seconds * 1e3));
        }
        if (thrown.ok() && opts_.on_job) {
          // The job's chains and digest are already recorded, so a
          // throwing hook leaves the digest deterministic.
          const Status hook = contain(
              "on_job hook", [&] { opts_.on_job(job, *session, r); });
          if (!hook.ok()) r.status = hook;
        }
      },
      opts_.concurrency);

  for (const JobResult& r : sum.results) {
    if (r.status.ok())
      ++sum.jobs_ok;
    else if (r.status.code() == StatusCode::Internal)
      ++sum.jobs_failed;
    else
      ++sum.jobs_degraded;
  }
  sum.wall_seconds = secs_since(t0);
  if (metrics::enabled()) sum.metrics_json = metrics::registry().to_json();
  return sum;
}

Campaign::Summary::CriticalPath Campaign::Summary::critical_path() const {
  CriticalPath cp;
  for (size_t i = 0; i < results.size(); ++i)
    if (cp.job < 0 || results[i].end_seconds >
                          results[static_cast<size_t>(cp.job)].end_seconds)
      cp.job = static_cast<int>(i);
  if (cp.job < 0) return cp;
  const JobResult& r = results[static_cast<size_t>(cp.job)];
  cp.program = r.program;
  cp.obfuscation = r.obfuscation;
  cp.end_seconds = r.end_seconds;
  cp.stage = "extract";
  cp.stage_seconds = r.stages.extract_seconds;
  if (r.stages.subsume_seconds > cp.stage_seconds) {
    cp.stage = "subsume";
    cp.stage_seconds = r.stages.subsume_seconds;
  }
  if (r.stages.plan_seconds > cp.stage_seconds) {
    cp.stage = "plan";
    cp.stage_seconds = r.stages.plan_seconds;
  }
  return cp;
}

std::string JobResult::to_json() const {
  const auto& s = stages;
  std::string j = "{\"program\": \"" + json_escape(program) + "\", ";
  j += "\"obfuscation\": \"" + json_escape(obfuscation) + "\", ";
  j += "\"opt_level\": " + std::to_string(opt_level) + ", ";
  j += "\"code_bytes\": " + std::to_string(code_bytes) + ", ";
  j += "\"status\": \"" + std::string(status_code_name(status.code())) +
       "\", ";
  j += "\"extract_seconds\": " + format_double(s.extract_seconds) + ", ";
  j += "\"subsume_seconds\": " + format_double(s.subsume_seconds) + ", ";
  j += "\"plan_seconds\": " + format_double(s.plan_seconds) + ", ";
  j += "\"job_seconds\": " + format_double(seconds) + ", ";
  j += "\"start_seconds\": " + format_double(start_seconds) + ", ";
  j += "\"end_seconds\": " + format_double(end_seconds) + ", ";
  j += "\"pool_raw\": " + std::to_string(s.pool_raw) + ", ";
  j += "\"pool_minimized\": " + std::to_string(s.pool_minimized) + ", ";
  // kRssUnknown renders as -1: consumers must be able to tell "probe
  // failed" from a real (even zero) measurement.
  j += "\"rss_mb_after_plan\": " +
       (s.rss_mb_after_plan == kRssUnknown
            ? std::string("-1")
            : std::to_string(s.rss_mb_after_plan)) +
       ", ";
  j += "\"attempts\": {\"extract\": " +
       std::to_string(s.extract_runs.attempts) +
       ", \"subsume\": " + std::to_string(s.subsume_runs.attempts) +
       ", \"plan\": " + std::to_string(s.plan_runs.attempts) + "}, ";
  j += "\"retries\": {\"extract\": " +
       std::to_string(s.extract_runs.retries) +
       ", \"subsume\": " + std::to_string(s.subsume_runs.retries) +
       ", \"plan\": " + std::to_string(s.plan_runs.retries) + "}, ";
  j += "\"metrics\": {";
  append_counters(j, "extract", s.extract);
  append_counters(j, "subsume", s.subsume);
  append_counters(j, "plan", s.plan);
  j += "}, ";
  j += "\"goals\": {";
  for (size_t g = 0; g < chains_per_goal.size(); ++g) {
    if (g) j += ", ";
    const std::string name =
        g < goal_names.size() ? goal_names[g] : std::to_string(g);
    j += "\"" + json_escape(name) +
         "\": " + std::to_string(chains_per_goal[g]);
  }
  j += "}, ";
  j += "\"chains_per_goal\": [";
  for (size_t g = 0; g < chains_per_goal.size(); ++g) {
    if (g) j += ", ";
    j += std::to_string(chains_per_goal[g]);
  }
  j += "], ";
  j += "\"chains_total\": " + std::to_string(total_chains()) + ", ";
  j += "\"digest\": \"" + hex16(result_digest) + "\"}";
  return j;
}

std::string Campaign::Summary::to_json() const {
  std::string j;
  j += "{\n";
  j += "  \"schema\": \"gp-campaign-v1\",\n";
  j += "  \"jobs\": " + std::to_string(results.size()) + ",\n";
  j += "  \"concurrency\": " + std::to_string(concurrency) + ",\n";
  j += "  \"threads\": " + std::to_string(threads) + ",\n";
  j += "  \"wall_seconds\": " + format_double(wall_seconds) + ",\n";
  j += "  \"jobs_ok\": " + std::to_string(jobs_ok) + ",\n";
  j += "  \"jobs_degraded\": " + std::to_string(jobs_degraded) + ",\n";
  j += "  \"jobs_failed\": " + std::to_string(jobs_failed) + ",\n";
  j += "  \"metrics\": " +
       (metrics_json.empty() ? std::string("{}") : metrics_json) + ",\n";
  const CriticalPath cp = critical_path();
  j += "  \"critical_path\": {\"job\": " + std::to_string(cp.job) +
       ", \"program\": \"" + json_escape(cp.program) +
       "\", \"obfuscation\": \"" + json_escape(cp.obfuscation) +
       "\", \"stage\": \"" + cp.stage +
       "\", \"stage_seconds\": " + format_double(cp.stage_seconds) +
       ", \"end_seconds\": " + format_double(cp.end_seconds) + "},\n";
  j += "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    j += "    " + results[i].to_json();
    j += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  j += "  ]\n";
  j += "}\n";
  return j;
}

}  // namespace gp::core
