#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "baselines/baselines.hpp"
#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "corpus/corpus.hpp"
#include "gadget/serialize.hpp"
#include "minic/minic.hpp"
#include "payload/serialize.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "x86/encoder.hpp"

namespace gp::core {
namespace {

const char* kCallRichSource = R"(
int scale(int x, int k) { return x * k + 3; }
int clamp(int v, int lo, int hi) { if (v < lo) return lo; if (v > hi) return hi; return v; }
int a[16];
int main() {
  int i = 0;
  while (i < 16) { a[i] = clamp(scale(i, 37), 5, 900) & 0xff; i = i + 1; }
  int j = 0; int best = 0;
  while (j < 16) { if (a[j] > best) best = a[j]; j = j + 1; }
  out(best); return best;
})";

TEST(Session, PipelineStagesReport) {
  auto prog = minic::compile_source(kCallRichSource);
  obf::obfuscate(prog, obf::Options::llvm_obf(7));
  auto img = codegen::compile(prog);
  Session gp(Engine::shared(), img);
  gp.prepare();
  const auto& rep = gp.report();
  EXPECT_GT(rep.pool_raw, 100u);
  EXPECT_LE(rep.pool_minimized, rep.pool_raw);
  EXPECT_GE(rep.extract_seconds, 0.0);
  EXPECT_EQ(gp.library().size(), rep.pool_minimized);
}

TEST(Session, FindsChainsOnObfuscatedProgram) {
  auto prog = minic::compile_source(kCallRichSource);
  obf::obfuscate(prog, obf::Options::llvm_obf(7));
  auto img = codegen::compile(prog);
  Session gp(Engine::shared(), img);
  gp.prepare();
  auto chains = gp.find_chains(payload::Goal::execve());
  EXPECT_FALSE(chains.empty());
  for (const auto& c : chains) {
    EXPECT_TRUE(payload::validate(img, c, payload::Goal::execve(),
                                  image::kStackTop - 0x2000, 0x5eed));
  }
  EXPECT_GT(gp.report().plan.validated, 0u);
  EXPECT_GT(gp.report().plan_seconds, 0.0);
}

TEST(Session, SubsumptionAblation) {
  auto prog = minic::compile_source(kCallRichSource);
  obf::obfuscate(prog, obf::Options::llvm_obf(7));
  auto img = codegen::compile(prog);

  PipelineOptions with;
  PipelineOptions without;
  without.run_subsumption = false;
  Session a(Engine::shared(), img, with);
  a.prepare();
  Session b(Engine::shared(), img, without);
  b.prepare();
  EXPECT_LT(a.library().size(), b.library().size());
  // The minimized pool must not lose the ability to build chains.
  EXPECT_FALSE(a.find_chains(payload::Goal::execve()).empty());
}

TEST(Engine, SharedIsProcessWide) {
  Engine& a = Engine::shared();
  Engine& b = Engine::shared();
  EXPECT_EQ(&a, &b);
}

TEST(Engine, ConfigReachesSessionsAndCampaigns) {
  // Per-analysis policy reaches sessions and campaigns through the
  // Engine's Config alone: none of these knobs is set in the environment.
  for (const char* knob : {"GP_STORE_DIR", "GP_SYM_STEPS", "GP_OPT_LEVEL"})
    unsetenv(knob);
  Config cfg;
  cfg.store_dir = ::testing::TempDir() + "gp-engine-config-store";
  cfg.governor.max_sym_steps = 40;  // starves extraction through every retry
  cfg.opt_level = 1;
  Engine engine(cfg);

  auto prog = minic::compile_source(kCallRichSource);
  Session session(engine, codegen::compile(prog),
                  PipelineOptions::from(engine.config()));
  EXPECT_NE(session.store(), nullptr);
  EXPECT_FALSE(session.extract().ok());
  EXPECT_EQ(session.report().extract_runs.attempts, 3u);  // two retries

  // A job without a level compiles at the engine's, not the process's.
  Job job;
  job.program = "call_rich";
  job.source = kCallRichSource;
  job.goals = {};
  const auto sum = Campaign(engine).run({job});
  ASSERT_EQ(sum.results.size(), 1u);
  EXPECT_EQ(sum.results[0].opt_level, 1);
  codegen::Options o1;
  o1.opt = codegen::opt_level_from_int(1);
  EXPECT_EQ(sum.results[0].code_bytes, codegen::compile(prog, o1).code().size());
  EXPECT_NE(sum.results[0].code_bytes, codegen::compile(prog).code().size());
}

// GP_THREADS reaches a session only through its Engine's Config: two
// private Engines that differ only in `threads` extract the same raw pools
// and counters, and only the multi-lane one takes the parallel paths (the
// sharded extraction merge, and subsumption lanes on the shared pool).
TEST(Engine, ThreadsComeFromTheEngineConfig) {
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(true);
  std::vector<image::Image> imgs;
  for (const char* name : {"bubble_sort", "gcd_lcm", "state_machine"}) {
    auto prog = minic::compile_source(corpus::by_name(name).source);
    obf::obfuscate(prog, obf::Options::llvm_obf(7));
    imgs.push_back(codegen::compile(prog));
  }
  metrics::Counter& merged =
      metrics::registry().counter("extract.merge_nodes");
  metrics::Counter& tasks = metrics::registry().counter("pool.tasks");

  struct Run {
    std::vector<std::vector<std::vector<u8>>> pools;
    std::vector<gadget::ExtractStats> stats;
    u64 merge_nodes = 0;
    u64 subsume_tasks = 0;
  };
  auto run = [&](int threads) {
    Config cfg;
    cfg.threads = threads;
    Engine engine(cfg);
    PipelineOptions raw;
    raw.run_subsumption = false;  // the library is the raw pool
    Run r;
    const u64 merged0 = merged.value();
    for (const image::Image& img : imgs) {
      Session s(engine, img, raw);
      EXPECT_TRUE(s.extract().ok());
      r.pools.push_back(gadget::encode_pool(s.ctx(), s.library().all()));
      r.stats.push_back(s.extract_stats());
    }
    r.merge_nodes = merged.value() - merged0;
    Session full(engine, imgs[0]);
    (void)full.extract();
    const u64 tasks0 = tasks.value();
    (void)full.subsume();
    r.subsume_tasks = tasks.value() - tasks0;
    return r;
  };
  const Run one = run(1);
  const Run four = run(4);

  for (size_t i = 0; i < imgs.size(); ++i) {
    EXPECT_FALSE(one.pools[i].empty()) << i;
    EXPECT_EQ(one.pools[i], four.pools[i]) << i;
    for (const auto& f : gadget::ExtractStats::kCounters)
      EXPECT_EQ(one.stats[i].*f.field, four.stats[i].*f.field)
          << i << " " << f.name;
  }
  EXPECT_EQ(one.merge_nodes, 0u);
  EXPECT_GT(four.merge_nodes, 0u);
  EXPECT_EQ(one.subsume_tasks, 0u);
  EXPECT_GT(four.subsume_tasks, 0u);
  metrics::set_enabled(metrics_was);
}

// GP_FAULT reaches the fault harness only through an Engine's Config.
TEST(Engine, FaultSpecComesFromTheEngineConfig) {
  fault::disable();
  {
    Config cfg;
    cfg.fault_spec = "seed=3,decode=1";
    Engine engine(cfg);
    EXPECT_TRUE(fault::enabled());
    Session session(engine,
                    codegen::compile(minic::compile_source(kCallRichSource)));
    (void)session.extract();
    EXPECT_GT(session.extract_stats().decode_failures, 0u);
    EXPECT_EQ(session.extract_stats().gadgets, 0u);
    fault::disable();
  }
  {
    // An empty spec leaves an armed harness alone.
    fault::ScopedSpec scoped("seed=5,solver=0.5");
    Engine engine(Config{});
    EXPECT_TRUE(fault::enabled());
  }
  EXPECT_FALSE(fault::enabled());

  Config bogus;
  bogus.fault_spec = "bogus=1";
  EXPECT_THROW({ Engine engine(bogus); }, Error);
  EXPECT_FALSE(fault::enabled());
}

// Config::threads is the lane count of every session stage; 0 no longer
// means "read GP_THREADS". Building an Engine starts no thread.
TEST(Engine, RejectsThreadsOutsideTheLaneRange) {
  for (const int threads : {0, -1, 513}) {
    Config cfg;
    cfg.threads = threads;
    EXPECT_THROW({ Engine engine(cfg); }, Error) << threads;
  }
  for (const int threads : {1, 512}) {
    Config cfg;
    cfg.threads = threads;
    EXPECT_NO_THROW({ Engine engine(cfg); }) << threads;
  }
}

TEST(Session, StagesAreLazyExplicitAndIdempotent) {
  auto prog = minic::compile_source(kCallRichSource);
  obf::obfuscate(prog, obf::Options::llvm_obf(7));
  auto img = codegen::compile(prog);

  Session session(Engine::shared(), img);
  EXPECT_EQ(session.report().extract_runs.attempts, 0u);  // nothing ran yet

  EXPECT_TRUE(session.extract().ok());
  const u64 raw = session.report().pool_raw;
  EXPECT_GT(raw, 100u);
  EXPECT_TRUE(session.extract().ok());  // idempotent: no second attempt
  EXPECT_EQ(session.report().extract_runs.attempts, 1u);

  EXPECT_TRUE(session.subsume().ok());
  EXPECT_LE(session.report().pool_minimized, raw);
  EXPECT_EQ(session.library().size(), session.report().pool_minimized);
  EXPECT_EQ(session.report().subsume_runs.attempts, 1u);
  EXPECT_TRUE(session.report().worst_status().ok());
}

TEST(Session, OwningConstructorKeepsImageAlive) {
  PipelineOptions popts;
  popts.plan.max_chains = 2;
  auto make = [&] {
    auto prog = minic::compile_source(kCallRichSource);
    obf::obfuscate(prog, obf::Options::llvm_obf(7));
    return Session(Engine::shared(), codegen::compile(prog), popts);
  };
  Session session = make();  // the temporary image is gone; session owns it
  EXPECT_FALSE(session.find_chains(payload::Goal::execve()).empty());
}

TEST(Campaign, BatchSummaryAndJson) {
  std::vector<Job> jobs;
  for (const char* obf_name : {"none", "llvm-obf"}) {
    Job job;
    job.program = "call_rich";
    job.source = kCallRichSource;
    job.obfuscation = obf_name;
    job.obf = profile_by_name(obf_name, 7);
    job.goals = {payload::Goal::execve()};
    jobs.push_back(std::move(job));
  }

  Campaign::Options copts;
  copts.concurrency = 2;
  copts.pipeline.plan.max_chains = 4;
  int hook_calls = 0;
  std::mutex hook_mu;
  copts.on_job = [&](const Job&, Session& s, JobResult& r) {
    EXPECT_EQ(s.library().size(), r.stages.pool_minimized);
    std::lock_guard<std::mutex> lock(hook_mu);
    ++hook_calls;
  };
  const auto summary = Campaign(Engine::shared(), copts).run(jobs);

  ASSERT_EQ(summary.results.size(), 2u);
  EXPECT_EQ(hook_calls, 2);
  EXPECT_EQ(summary.jobs_ok + summary.jobs_degraded + summary.jobs_failed, 2);
  EXPECT_EQ(summary.jobs_failed, 0);
  EXPECT_EQ(summary.results[0].program, "call_rich");
  EXPECT_EQ(summary.results[0].obfuscation, "none");
  EXPECT_EQ(summary.results[1].obfuscation, "llvm-obf");
  // The obfuscated job finds at least as many chains (the paper's point).
  EXPECT_LE(summary.results[0].total_chains(),
            summary.results[1].total_chains());
  EXPECT_NE(summary.results[1].result_digest, 0u);

  const std::string json = summary.to_json();
  EXPECT_NE(json.find("\"schema\": \"gp-campaign-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs_failed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"program\": \"call_rich\""), std::string::npos);
  // Observability additions to the schema: an aggregate metrics block, the
  // critical-path verdict, and per-job goal maps / campaign-clock offsets.
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"goals\": {\"execve\""), std::string::npos);
  EXPECT_NE(json.find("\"start_seconds\""), std::string::npos);

  const auto cp = summary.critical_path();
  ASSERT_GE(cp.job, 0);
  ASSERT_LT(cp.job, 2);
  EXPECT_EQ(cp.program, "call_rich");
  EXPECT_TRUE(cp.stage == "extract" || cp.stage == "subsume" ||
              cp.stage == "plan");
  EXPECT_GT(cp.end_seconds, 0.0);
  const auto& last = summary.results[static_cast<size_t>(cp.job)];
  EXPECT_GE(last.end_seconds, summary.results[0].end_seconds);
  EXPECT_GE(last.end_seconds, summary.results[1].end_seconds);
}

TEST(Campaign, JsonEscapesHostileNames) {
  // Program/obfuscation names flow into the summary verbatim; quotes and
  // backslashes (the old local escaper's blind spots) must come out as
  // valid JSON escapes.
  Campaign::Summary sum;
  JobResult r;
  r.program = "evil\"name";
  r.obfuscation = "back\\slash\nline";
  r.goal_names = {"goal\"x"};
  r.chains_per_goal = {3};
  r.end_seconds = 1.0;
  r.stages.rss_mb_after_plan = kRssUnknown;  // probe failed on this job
  sum.results.push_back(std::move(r));

  const std::string json = sum.to_json();
  EXPECT_NE(json.find("evil\\\"name"), std::string::npos) << json;
  EXPECT_NE(json.find("back\\\\slash\\nline"), std::string::npos) << json;
  EXPECT_NE(json.find("\"goal\\\"x\": 3"), std::string::npos) << json;
  EXPECT_EQ(json.find("evil\"name"), std::string::npos);
  EXPECT_EQ(json.find("slash\nline"), std::string::npos);
  // The hand-built job never ran: RSS is unknown and must render as the
  // -1 sentinel, not as a huge unsigned number.
  EXPECT_NE(json.find("\"rss_mb_after_plan\": -1"), std::string::npos);
}

TEST(Campaign, CriticalPathEmptyCampaign) {
  Campaign::Summary sum;
  EXPECT_EQ(sum.critical_path().job, -1);
}

TEST(Campaign, CorpusJobsCoverTheGrid) {
  const auto jobs = Campaign::corpus_jobs({"none", "llvm-obf"}, 7);
  EXPECT_EQ(jobs.size(), corpus::benchmark().size() * 2);
  for (const auto& job : jobs) {
    EXPECT_FALSE(job.source.empty());
    EXPECT_EQ(job.goals.size(), payload::Goal::all().size());
  }
  EXPECT_THROW(profile_by_name("no-such-profile"), Error);
}

TEST(CurrentRss, ReportsSomethingPlausible) {
  const u64 rss = current_rss_mb();
  EXPECT_NE(rss, kRssUnknown);  // /proc/self/status exists on Linux
  EXPECT_GT(rss, 0u);
  EXPECT_LT(rss, 64u * 1024u);
}

TEST(CurrentRss, ParseVmRssRoundsToNearestMiB) {
  EXPECT_EQ(parse_vmrss_mb("VmRSS:\t    2048 kB\n"), 2u);
  EXPECT_EQ(parse_vmrss_mb("VmRSS:\t    1536 kB\n"), 2u);  // rounds up
  EXPECT_EQ(parse_vmrss_mb("VmRSS:\t    1023 kB\n"), 1u);  // rounds up too
  EXPECT_EQ(parse_vmrss_mb("VmRSS:\t     100 kB\n"), 0u);  // rounds down
  // Only the first digit run after the label counts.
  EXPECT_EQ(parse_vmrss_mb("VmRSS: 3072 kB extra 9999\n"), 3u);
  // A realistic multi-line /proc/self/status slice.
  EXPECT_EQ(parse_vmrss_mb("Name:\tgp\nVmPeak:\t9999 kB\n"
                           "VmRSS:\t 5120 kB\nVmData:\t1 kB\n"),
            5u);
}

TEST(CurrentRss, ParseVmRssRejectsMissingOrMalformed) {
  EXPECT_EQ(parse_vmrss_mb(""), std::nullopt);
  EXPECT_EQ(parse_vmrss_mb("Name:\tgp\nVmPeak:\t9999 kB\n"), std::nullopt);
  EXPECT_EQ(parse_vmrss_mb("VmRSS:\t kB\n"), std::nullopt);  // no digits
}

TEST(CurrentRss, FormatDistinguishesUnknown) {
  EXPECT_EQ(format_rss_mb(kRssUnknown), "n/a");
  EXPECT_EQ(format_rss_mb(0), "0");
  EXPECT_EQ(format_rss_mb(42), "42");
}

TEST(Engine, SessionIdsAreUniqueAndNonZero) {
  Engine& eng = Engine::shared();
  const u64 a = eng.next_session_id();
  const u64 b = eng.next_session_id();
  EXPECT_NE(a, 0u);  // 0 means "no session" in trace events
  EXPECT_GT(b, a);
}

TEST(Campaign, RunsAllToolsOnObfuscatedBenchmark) {
  Job job;
  job.program = "call_rich";
  job.source = kCallRichSource;
  job.obf = obf::Options::llvm_obf(7);
  Campaign::Options copts;
  copts.pipeline.plan.max_chains = 4;
  // The baselines ride along in the hook, on the job's context and library.
  std::vector<int> rop_gadget, angrop, sgc;  // chains per goal
  copts.on_job = [&](const Job& j, Session& s, JobResult&) {
    for (const auto& goal : j.goals) {
      rop_gadget.push_back(static_cast<int>(
          baselines::rop_gadget(s.img(), goal).chains.size()));
      angrop.push_back(static_cast<int>(
          baselines::angrop(s.ctx(), s.library(), s.img(), goal)
              .chains.size()));
      sgc.push_back(static_cast<int>(
          baselines::sgc(s.ctx(), s.library(), s.img(), goal, 4)
              .chains.size()));
    }
  };
  const auto sum = Campaign(Engine::shared(), copts).run({job});
  ASSERT_EQ(sum.results.size(), 1u);
  const JobResult& r = sum.results[0];
  EXPECT_EQ(r.obfuscation, "sub+bcf+fla");
  // Obfuscated binary: Gadget-Planner finds chains the strict template
  // matcher cannot — the paper's headline result.
  int rop_total = 0;
  for (const int n : rop_gadget) rop_total += n;
  EXPECT_GT(r.total_chains(), rop_total);
  // Positive average chain length.
  int insts = 0;
  for (const auto& goal_chains : r.chains)
    for (const auto& c : goal_chains) insts += c.total_insts;
  EXPECT_GT(insts, 0);
  const size_t goals = payload::Goal::all().size();
  EXPECT_EQ(rop_gadget.size(), goals);
  EXPECT_EQ(angrop.size(), goals);
  EXPECT_EQ(sgc.size(), goals);
  EXPECT_EQ(r.chains_per_goal.size(), goals);
}

TEST(Campaign, ThrowingOnJobHookIsContainedAndDeterministic) {
  auto make_jobs = [] {
    std::vector<Job> jobs;
    for (const char* obf_name : {"none", "llvm-obf"}) {
      Job job;
      job.program = "call_rich";
      job.source = kCallRichSource;
      job.obfuscation = obf_name;
      job.obf = profile_by_name(obf_name, 7);
      job.goals = {payload::Goal::execve()};
      jobs.push_back(std::move(job));
    }
    return jobs;
  };
  Campaign::Options copts;
  copts.concurrency = 2;
  copts.pipeline.plan.max_chains = 4;

  // Reference run: no hook.
  const auto clean = Campaign(Engine::shared(), copts).run(make_jobs());
  ASSERT_EQ(clean.results.size(), 2u);
  ASSERT_EQ(clean.jobs_failed, 0);

  // Hostile hook: one lane throws a std::exception, the other a non-std
  // value. Neither may deadlock the barrier, corrupt another lane's
  // result, or escape Campaign::run.
  copts.on_job = [](const Job& job, Session&, JobResult&) {
    if (job.obfuscation == "none") throw std::runtime_error("hook boom");
    throw 42;
  };
  const auto hostile = Campaign(Engine::shared(), copts).run(make_jobs());
  ASSERT_EQ(hostile.results.size(), 2u);
  EXPECT_EQ(hostile.jobs_failed, 2);
  EXPECT_EQ(hostile.jobs_ok, 0);
  for (size_t i = 0; i < 2; ++i) {
    const JobResult& r = hostile.results[i];
    EXPECT_EQ(r.status.code(), StatusCode::Internal);
    EXPECT_NE(r.status.message().find("on_job hook threw"),
              std::string::npos)
        << r.status.message();
    // The chains and digest were recorded before the hook ran: the
    // deterministic result survives the hook's failure byte-for-byte.
    EXPECT_EQ(r.result_digest, clean.results[i].result_digest);
    EXPECT_EQ(r.total_chains(), clean.results[i].total_chains());
  }
  const std::string msg = hostile.results[0].status.message();
  EXPECT_NE(msg.find("hook boom"), std::string::npos) << msg;

  // A job whose Session throws (here its pipeline.on_stage hook) fails
  // alone: the campaign returns, and the other job's result is the clean
  // run's byte for byte.
  copts.on_job = nullptr;
  std::atomic<bool> thrown{false};
  copts.pipeline.on_stage = [&](const char* stage) {
    if (std::string(stage) == "extract" && !thrown.exchange(true))
      throw std::runtime_error("stage boom");
  };
  const auto broken = Campaign(Engine::shared(), copts).run(make_jobs());
  ASSERT_EQ(broken.results.size(), 2u);
  EXPECT_EQ(broken.jobs_failed, 1);
  int failed = 0;
  for (size_t i = 0; i < 2; ++i) {
    const JobResult& r = broken.results[i];
    if (r.status.code() == StatusCode::Internal) {
      ++failed;
      EXPECT_NE(r.status.message().find("stage boom"), std::string::npos)
          << r.status.message();
    } else {
      EXPECT_EQ(r.result_digest, clean.results[i].result_digest);
      EXPECT_EQ(r.total_chains(), clean.results[i].total_chains());
    }
  }
  EXPECT_EQ(failed, 1);
}

TEST(Session, UnreachablePrecheckCountsMicroseconds) {
  // The planner's reachability precheck finishes in well under a
  // millisecond, so a ms-granular counter would truncate every
  // observation to zero. plan.precheck_us records the measured time.
  metrics::set_enabled(true);
  metrics::registry().reset();

  auto prog = minic::compile_source(kCallRichSource);
  obf::obfuscate(prog, obf::Options::llvm_obf(7));
  Session session(Engine::shared(), codegen::compile(prog));
  for (const auto& goal : payload::Goal::all())
    (void)session.find_chains(goal);
  EXPECT_GT(session.report().plan.precheck_us, 0u);

  const auto snap = metrics::registry().snapshot();
  ASSERT_TRUE(snap.counters.count("plan.precheck_us"));
  const u64 us = snap.counters.at("plan.precheck_us");
  EXPECT_GT(us, 0u) << "precheck ran but recorded zero microseconds";
  metrics::set_enabled(false);
}

TEST(Session, OnePlannerIndexServesEveryGoal) {
  // The session keeps one planner, so the candidate index is built by the
  // first goal and reused by the rest, and reuse changes no chain.
  auto prog = minic::compile_source(kCallRichSource);
  obf::obfuscate(prog, obf::Options::llvm_obf(7));
  const auto img = codegen::compile(prog);
  PipelineOptions opts;  // in-memory reuse only, no checkpoints

  Session all(Engine::shared(), img, opts);
  std::vector<std::vector<std::vector<u8>>> per_goal;
  for (const auto& goal : payload::Goal::all())
    per_goal.push_back(payload::encode_chains(all.find_chains(goal)));
  EXPECT_EQ(all.report().plan.index_builds, 1u);
  EXPECT_EQ(all.report().plan_runs.attempts, payload::Goal::all().size());

  // The first goal matches a fresh session that plans only that goal.
  Session one(Engine::shared(), img, opts);
  EXPECT_EQ(payload::encode_chains(one.find_chains(payload::Goal::all()[0])),
            per_goal[0]);

  // Every goal matches a fresh Planner per goal over one shared session
  // context: later goals search a context that the earlier goals'
  // concretizations grew, so the reference keeps the same goal order.
  Session ref(Engine::shared(), img, opts);
  ref.prepare();
  size_t g = 0;
  for (const auto& goal : payload::Goal::all()) {
    planner::Planner fresh(ref.ctx(), ref.library(), ref.img());
    EXPECT_EQ(payload::encode_chains(fresh.plan(goal, opts.plan)),
              per_goal[g++])
        << goal.name;
    EXPECT_EQ(fresh.stats().index_builds, 1u);
  }
  EXPECT_GT(per_goal[0].size(), 1u) << "execve found no chain";
}

TEST(Session, PlanStatusKeepsAnEarlierGoalsCut) {
  // plan_status is the first reason the plan stage ran degraded, so a
  // clean goal planned after a cut one must not reset it to Ok.
  x86::Assembler a;
  a.pop(x86::Reg::RAX);
  a.ret();
  a.pop(x86::Reg::RSI);
  a.ret();
  a.pop(x86::Reg::RDX);
  a.ret();
  a.mov(x86::Reg::RDI, x86::Reg::RBX);  // rdi only from rbx, which no
  a.ret();                              // gadget sets: execve unreachable
  a.syscall();
  Governor expired;  // every search is cut at its first pop
  expired.set_deadline(Deadline::after_seconds(-1));
  PipelineOptions opts;
  opts.plan.governor = &expired;
  Session session(Engine::shared(),
                  image::Image(a.finish(), {}, image::kCodeBase), opts);

  const payload::Goal set_rax{
      "set_rax", 60,
      {{x86::Reg::RAX, payload::RegTarget::Kind::Const, 60, {}}}};
  EXPECT_TRUE(session.find_chains(set_rax).empty());
  ASSERT_EQ(session.report().plan_status.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(session.report().plan.deadline_cuts, 1u);

  // The precheck rejects execve before any search: a clean plan() call.
  EXPECT_TRUE(session.find_chains(payload::Goal::execve()).empty());
  EXPECT_EQ(session.report().plan.unreachable_goals, 1u);
  EXPECT_EQ(session.report().plan.deadline_cuts, 1u);
  EXPECT_EQ(session.report().plan_status.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(session.report().worst_status().code(),
            StatusCode::DeadlineExceeded);
}

TEST(Campaign, RegistryRollupMatchesJobStats) {
  // Each stage names its counters once (Stats::kCounters). Session
  // publishes every attempt's counters to the registry, and the per-job
  // JSON serializes them from the same table, so with one attempt per
  // stage the registry totals equal the per-job sums, counter for counter.
  metrics::set_enabled(true);
  metrics::registry().reset();

  std::vector<Job> jobs;
  for (const char* obf_name : {"none", "llvm-obf"}) {
    Job job;
    job.program = "call_rich";
    job.source = kCallRichSource;
    job.obfuscation = obf_name;
    job.obf = profile_by_name(obf_name, 7);
    job.goals = {payload::Goal::execve()};
    jobs.push_back(std::move(job));
  }
  Campaign::Options copts;
  copts.concurrency = 2;
  copts.pipeline.plan.max_chains = 4;
  const auto sum = Campaign(Engine::shared(), copts).run(jobs);
  ASSERT_EQ(sum.results.size(), 2u);
  for (const JobResult& r : sum.results) {
    ASSERT_EQ(r.stages.extract_runs.attempts, 1u);
    ASSERT_EQ(r.stages.subsume_runs.attempts, 1u);
    ASSERT_EQ(r.stages.plan_runs.attempts, 1u);
    // Every concretize call is validated or counted under one reason.
    const planner::Stats& p = r.stages.plan;
    EXPECT_EQ(p.concretize_calls,
              p.validated + p.concretize_bad_flow + p.concretize_too_big +
                  p.concretize_unsat + p.concretize_unknown +
                  p.concretize_resource_cut +
                  p.concretize_validation_failed);
  }

  const auto counters = metrics::registry().snapshot().counters;
  auto check = [&](const std::string& stage, auto stats_of) {
    using S = std::remove_cvref_t<decltype(stats_of(sum.results[0]))>;
    for (const metrics::CounterField<S>& f : S::kCounters) {
      u64 total = 0;
      for (const JobResult& r : sum.results) {
        const u64 v = stats_of(r).*f.field;
        total += v;
        const std::string json = r.to_json();
        const std::string kv =
            "\"" + stage + "_" + f.name + "\": " + std::to_string(v);
        const size_t at = json.find(kv);
        ASSERT_NE(at, std::string::npos) << kv;
        const char next = json[at + kv.size()];
        EXPECT_TRUE(next == ',' || next == '}') << kv << next;
      }
      const std::string name = stage + "." + f.name;
      ASSERT_TRUE(counters.count(name)) << name << " never published";
      EXPECT_EQ(counters.at(name), total) << name;
    }
  };
  check("extract", [](const JobResult& r) { return r.stages.extract; });
  check("subsume", [](const JobResult& r) { return r.stages.subsume; });
  check("plan", [](const JobResult& r) { return r.stages.plan; });
  metrics::set_enabled(false);
}

TEST(Campaign, OriginalProgramsYieldFewerChains) {
  std::vector<Job> jobs(2);
  jobs[0].obf = obf::Options::none();
  jobs[1].obf = obf::Options::llvm_obf(7);
  for (Job& job : jobs) {
    job.program = "call_rich";
    job.source = kCallRichSource;
  }
  Campaign::Options copts;
  copts.pipeline.plan.max_chains = 4;
  const auto sum = Campaign(Engine::shared(), copts).run(jobs);
  ASSERT_EQ(sum.results.size(), 2u);
  const JobResult& original = sum.results[0];
  const JobResult& obfuscated = sum.results[1];
  EXPECT_LT(original.code_bytes, obfuscated.code_bytes);
  EXPECT_LE(original.total_chains(), obfuscated.total_chains());
}

}  // namespace
}  // namespace gp::core
