// Tests for the gp_serve daemon stack: wire protocol round-trips, the
// admission/shed state machine, disconnect-surviving jobs, drain semantics
// and socket-fault hardening. Every daemon test runs a real Server on a
// unix socket in a private temp dir against a private Engine.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/serial.hpp"

namespace gp::serve {
namespace {

// Same fast call-rich mini-C program the core tests use: milliseconds per
// job, still yields a real pool and chains.
const char* kTinySource = R"(
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

JobSpec tiny_spec(u64 seed = 7) {
  JobSpec spec;
  spec.program = "inline_tiny";
  spec.source = kTinySource;
  spec.obf = "none";
  spec.goal = "execve";
  spec.seed = seed;
  return spec;
}

/// A live server in a fresh mkdtemp dir with its own engine.
struct TestDaemon {
  explicit TestDaemon(int queue_limit = 8, int max_active = 2,
                      bool with_store = true) {
    char tmpl[] = "/tmp/gp_serve_test_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p) dir = p;
    engine = std::make_unique<core::Engine>(Config{});
    ServeOptions opts;
    opts.socket_path = dir + "/gp.sock";
    opts.queue_limit = queue_limit;
    opts.max_active = max_active;
    if (with_store) opts.store_dir = dir + "/store";
    server = std::make_unique<Server>(*engine, opts);
    const Status st = server->start();
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  ~TestDaemon() {
    server.reset();
    // Tests share a process: leave no temp dirs behind.
    std::system(("rm -rf " + dir).c_str());
  }
  std::string sock() const { return dir + "/gp.sock"; }

  std::string dir;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<Server> server;
};

TEST(ServeProtocol, JobSpecAndOutcomeRoundTrip) {
  JobSpec spec = tiny_spec(11);
  spec.deadline_ms = 1500;
  spec.solver_checks = 4000;
  serial::Writer w;
  spec.encode(w);
  serial::Reader r(w.bytes());
  const auto back = JobSpec::decode(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->program, spec.program);
  EXPECT_EQ(back->source, spec.source);
  EXPECT_EQ(back->seed, 11u);
  EXPECT_DOUBLE_EQ(back->deadline_ms, 1500);
  EXPECT_EQ(back->solver_checks, 4000u);

  JobOutcome out;
  out.job_id = "job-0123456789abcdef";
  out.status_code = static_cast<u8>(StatusCode::DeadlineExceeded);
  out.status_msg = "deadline";
  out.digest = 0xfeedface;
  out.seconds = 1.25;
  out.warm = true;
  out.chains_per_goal = {{"execve", 3}, {"mmap", 0}};
  serial::Writer w2;
  out.encode(w2);
  serial::Reader r2(w2.bytes());
  const auto out2 = JobOutcome::decode(r2);
  ASSERT_TRUE(out2.has_value());
  EXPECT_EQ(out2->job_id, out.job_id);
  EXPECT_EQ(out2->digest, 0xfeedfaceu);
  EXPECT_TRUE(out2->warm);
  EXPECT_EQ(out2->chains_total(), 3u);
}

TEST(ServeProtocol, JobIdHashesResultDeterminingFieldsOnly) {
  const JobSpec a = tiny_spec(7);
  EXPECT_EQ(a.job_id(), tiny_spec(7).job_id());
  EXPECT_EQ(a.job_id().substr(0, 4), "job-");
  // Pinned ids: served, journaled and attach ids must not move when the
  // spec's encoding changes (literals recorded from an earlier build).
  EXPECT_EQ(a.job_id(), "job-63bf8a191714c2b7");
  JobSpec budgeted = tiny_spec(7);
  budgeted.deadline_ms = 1500;
  budgeted.solver_checks = 4000;
  budgeted.sym_steps = 50000;
  budgeted.expr_nodes = 200000;
  EXPECT_EQ(budgeted.job_id(), "job-5a2efecc232fe738");

  // Any result-determining field forks the id.
  JobSpec c = tiny_spec(8);
  EXPECT_NE(a.job_id(), c.job_id());
  JobSpec d = tiny_spec(7);
  d.goal = "mmap";
  EXPECT_NE(a.job_id(), d.job_id());
  JobSpec e = tiny_spec(7);
  e.solver_checks = 1;
  EXPECT_NE(a.job_id(), e.job_id());
}

TEST(ServeProtocol, FramesSurviveRoundTripAndRejectCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<u8> payload = make_progress("job-1", "extract");
  ASSERT_TRUE(write_frame(fds[0], payload).ok());
  auto got = read_frame(fds[1]);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), payload);

  // Bit-flip the payload on the wire: CRC must reject it as a Status.
  std::vector<u8> raw;
  {
    serial::Writer w;
    w.put_u32(static_cast<u32>(payload.size()));
    w.put_u32(serial::crc32(payload));
    w.put_raw(payload);
    raw = w.take();
  }
  raw[9] ^= 0x40;
  ASSERT_EQ(::send(fds[0], raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  auto bad = read_frame(fds[1]);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::Internal);
  EXPECT_NE(bad.status().message().find("CRC"), std::string::npos);

  // A clean close at a frame boundary is Cancelled, not an error.
  ::close(fds[0]);
  auto eof = read_frame(fds[1]);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::Cancelled);
  ::close(fds[1]);
}

TEST(ServeProtocol, OversizedFrameLengthIsRejectedBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serial::Writer w;
  w.put_u32(kMaxFrame + 1);
  w.put_u32(0);
  ASSERT_EQ(::send(fds[0], w.bytes().data(), w.size(), 0),
            static_cast<ssize_t>(w.size()));
  auto got = read_frame(fds[1]);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("exceeds limit"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeDaemon, SubmitStreamsStagesAndDedupesResubmits) {
  TestDaemon d;
  auto c = Client::connect(d.sock());
  ASSERT_TRUE(c.ok()) << c.status().to_string();
  ASSERT_TRUE(c.value().ping().ok());

  auto adm = c.value().submit(tiny_spec());
  ASSERT_TRUE(adm.ok()) << adm.status().to_string();
  ASSERT_TRUE(adm.value().accepted);
  EXPECT_FALSE(adm.value().ok.already_done);

  std::vector<std::string> stages;
  auto outcome = c.value().wait_result(
      [&](const ProgressMsg& p) { stages.push_back(p.stage); });
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome.value().job_id, tiny_spec().job_id());
  EXPECT_EQ(static_cast<StatusCode>(outcome.value().status_code),
            StatusCode::Ok);
  EXPECT_NE(outcome.value().digest, 0u);
  // The streamed stages arrive in pipeline order. (Whether the first
  // observed frame is "queued" or "starting" depends on how fast a worker
  // grabbed the job — both are legal.)
  ASSERT_GE(stages.size(), 2u);
  const auto extract_at =
      std::find(stages.begin(), stages.end(), "extract");
  const auto plan_at = std::find(stages.begin(), stages.end(), "plan");
  ASSERT_NE(extract_at, stages.end());
  ASSERT_NE(plan_at, stages.end());
  EXPECT_LT(extract_at - stages.begin(), plan_at - stages.begin());

  // Identical resubmit on a fresh connection: dedupe onto the done record,
  // byte-identical digest, no second analysis.
  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  auto adm2 = c2.value().submit(tiny_spec());
  ASSERT_TRUE(adm2.ok());
  ASSERT_TRUE(adm2.value().accepted);
  EXPECT_TRUE(adm2.value().ok.already_done);
  auto outcome2 = c2.value().wait_result();
  ASSERT_TRUE(outcome2.ok());
  EXPECT_EQ(outcome2.value().digest, outcome.value().digest);
}

TEST(ServeDaemon, ShedsWhenQueueIsFullAndReportsRetryAfter) {
  metrics::set_enabled(true);
  TestDaemon d(/*queue_limit=*/1, /*max_active=*/1);
  // Freeze the workers: admitted jobs stay queued, so the second distinct
  // submit must overflow the 1-deep queue deterministically.
  d.server->hold_workers(true);

  auto c1 = Client::connect(d.sock());
  ASSERT_TRUE(c1.ok());
  auto adm1 = c1.value().submit(tiny_spec(100), /*stream=*/false);
  ASSERT_TRUE(adm1.ok());
  EXPECT_TRUE(adm1.value().accepted);

  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  auto adm2 = c2.value().submit(tiny_spec(101), /*stream=*/false);
  ASSERT_TRUE(adm2.ok());
  ASSERT_FALSE(adm2.value().accepted);
  EXPECT_EQ(adm2.value().shed.reason, "queue-full");
  EXPECT_GE(adm2.value().shed.retry_after_ms, 50u);

  // A duplicate of the QUEUED job is never shed — it dedupes.
  auto c3 = Client::connect(d.sock());
  ASSERT_TRUE(c3.ok());
  auto adm3 = c3.value().submit(tiny_spec(100), /*stream=*/false);
  ASSERT_TRUE(adm3.ok());
  EXPECT_TRUE(adm3.value().accepted);

  const auto snap = metrics::registry().snapshot();
  EXPECT_GE(snap.counters.at("serve.shed"), 1u);
  EXPECT_GE(snap.counters.at("serve.dedup_hits"), 1u);

  d.server->hold_workers(false);
  d.server->stop(/*drain=*/true);
}

TEST(ServeDaemon, ClientDisconnectDoesNotCancelTheJob) {
  TestDaemon d;
  const JobSpec spec = tiny_spec(300);
  {
    // Submit, then vanish without reading a single progress frame.
    auto c = Client::connect(d.sock());
    ASSERT_TRUE(c.ok());
    auto adm = c.value().submit(spec);
    ASSERT_TRUE(adm.ok());
    ASSERT_TRUE(adm.value().accepted);
  }  // ~Client closes the socket mid-stream.

  // Reconnect and attach by id: the orphaned job finished anyway and the
  // result is waiting in the registry.
  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  Result<JobOutcome> outcome = Status::internal("unset");
  for (int i = 0; i < 200; ++i) {
    auto adm = c2.value().attach(spec.job_id());
    ASSERT_TRUE(adm.ok()) << adm.status().to_string();
    outcome = c2.value().wait_result();
    if (outcome.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    c2 = Client::connect(d.sock());
    ASSERT_TRUE(c2.ok());
  }
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(outcome.value().job_id, spec.job_id());
  EXPECT_EQ(static_cast<StatusCode>(outcome.value().status_code),
            StatusCode::Ok);
  EXPECT_NE(outcome.value().digest, 0u);
}

TEST(ServeDaemon, AttachUnknownJobIsAnErrorNotACrash) {
  TestDaemon d;
  auto c = Client::connect(d.sock());
  ASSERT_TRUE(c.ok());
  auto adm = c.value().attach("job-ffffffffffffffff");
  ASSERT_FALSE(adm.ok());
  EXPECT_NE(adm.status().message().find("unknown job"), std::string::npos);
  // The daemon is still healthy on a fresh connection (the error closed
  // only the job stream, not the listener).
  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2.value().ping().ok());
}

TEST(ServeDaemon, DrainShedsNewWorkFinishesAdmittedWork) {
  TestDaemon d;
  auto c = Client::connect(d.sock());
  ASSERT_TRUE(c.ok());
  auto adm = c.value().submit(tiny_spec(400));
  ASSERT_TRUE(adm.ok());
  ASSERT_TRUE(adm.value().accepted);

  d.server->request_drain();

  // New (distinct) work is shed with reason "draining"...
  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  auto late = c2.value().submit(tiny_spec(401), /*stream=*/false);
  ASSERT_TRUE(late.ok());
  ASSERT_FALSE(late.value().accepted);
  EXPECT_EQ(late.value().shed.reason, "draining");

  // ...but the admitted job still completes and streams its result.
  auto outcome = c.value().wait_result();
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(static_cast<StatusCode>(outcome.value().status_code),
            StatusCode::Ok);
  d.server->stop(/*drain=*/true);
}

TEST(ServeDaemon, RequestDeadlineAloneFreesTheWorker) {
  // One worker, no store: a checkpoint hit cannot mask the deadline, and
  // the follow-up job can only run if the expired one gave the worker back.
  TestDaemon d(/*queue_limit=*/8, /*max_active=*/1, /*with_store=*/false);
  JobSpec expired = tiny_spec(640);
  expired.deadline_ms = 0.001;
  auto c = Client::connect(d.sock());
  ASSERT_TRUE(c.ok());
  auto adm = c.value().submit(expired);
  ASSERT_TRUE(adm.ok()) << adm.status().to_string();
  ASSERT_TRUE(adm.value().accepted);
  auto outcome = c.value().wait_result();
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(static_cast<StatusCode>(outcome.value().status_code),
            StatusCode::DeadlineExceeded);

  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  auto adm2 = c2.value().submit(tiny_spec(641));
  ASSERT_TRUE(adm2.ok()) << adm2.status().to_string();
  ASSERT_TRUE(adm2.value().accepted);
  auto next = c2.value().wait_result();
  ASSERT_TRUE(next.ok()) << next.status().to_string();
  EXPECT_EQ(static_cast<StatusCode>(next.value().status_code),
            StatusCode::Ok);
  EXPECT_NE(next.value().digest, 0u);
}

TEST(ServeDaemon, RestartOnSameStoreResumesWarmWithIdenticalDigest) {
  char tmpl[] = "/tmp/gp_serve_test_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);
  const std::string store = dir + "/store";
  const JobSpec spec = tiny_spec(500);
  u64 cold_digest = 0;

  {
    core::Engine engine{Config{}};
    ServeOptions opts;
    opts.socket_path = dir + "/gen1.sock";
    opts.store_dir = store;
    Server server(engine, opts);
    ASSERT_TRUE(server.start().ok());
    auto c = Client::connect(opts.socket_path);
    ASSERT_TRUE(c.ok());
    auto adm = c.value().submit(spec);
    ASSERT_TRUE(adm.ok());
    auto outcome = c.value().wait_result();
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome.value().warm);
    cold_digest = outcome.value().digest;
    server.stop(/*drain=*/true);
  }  // Generation 1 gone — registry with it, store checkpoints survive.

  {
    core::Engine engine{Config{}};  // fresh engine: no in-process caches
    ServeOptions opts;
    opts.socket_path = dir + "/gen2.sock";
    opts.store_dir = store;
    Server server(engine, opts);
    ASSERT_TRUE(server.start().ok());
    auto c = Client::connect(opts.socket_path);
    ASSERT_TRUE(c.ok());
    auto adm = c.value().submit(spec);
    ASSERT_TRUE(adm.ok());
    ASSERT_TRUE(adm.value().accepted);
    EXPECT_FALSE(adm.value().ok.already_done);  // new registry
    auto outcome = c.value().wait_result();
    ASSERT_TRUE(outcome.ok());
    // Cross-process resume: served from the dead generation's checkpoints,
    // byte-identical to the cold result.
    EXPECT_TRUE(outcome.value().warm);
    EXPECT_EQ(outcome.value().digest, cold_digest);
    server.stop(/*drain=*/true);
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(ServeDaemon, ServedDigestMatchesCampaign) {
  // A served job and a campaign job over the same spec share one goal loop
  // and digest (core::plan_goals), so they must agree byte for byte. Both
  // run without a store on a fresh default-config Engine with one lane;
  // the llvm-obf profile makes the tiny program yield chains.
  struct Case {
    const char* goal;
    std::vector<payload::Goal> goals;
  };
  const Case cases[] = {{"execve", {payload::Goal::execve()}},
                        {"all", payload::Goal::all()}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.goal);
    JobSpec spec = tiny_spec();
    spec.obf = "llvm-obf";
    spec.goal = c.goal;

    JobOutcome served;
    {
      TestDaemon d(/*queue_limit=*/8, /*max_active=*/1, /*with_store=*/false);
      auto client = Client::connect(d.sock());
      ASSERT_TRUE(client.ok()) << client.status().to_string();
      auto adm = client.value().submit(spec);
      ASSERT_TRUE(adm.ok()) << adm.status().to_string();
      auto outcome = client.value().wait_result();
      ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
      served = outcome.value();
    }

    core::Engine engine{Config{}};
    core::Job job;
    job.program = spec.program;
    job.source = spec.source;
    job.obf = core::profile_by_name(spec.obf, spec.seed);
    job.goals = c.goals;
    core::Campaign::Options copts;
    copts.pipeline = core::PipelineOptions::from(engine.config());
    const auto sum = core::Campaign(engine, copts).run({job});
    ASSERT_EQ(sum.results.size(), 1u);
    const core::JobResult& r = sum.results[0];

    EXPECT_EQ(static_cast<StatusCode>(served.status_code), StatusCode::Ok);
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_EQ(served.digest, r.result_digest);
    ASSERT_EQ(served.chains_per_goal.size(), c.goals.size());
    ASSERT_EQ(r.chains_per_goal.size(), c.goals.size());
    for (size_t g = 0; g < c.goals.size(); ++g) {
      EXPECT_EQ(served.chains_per_goal[g].first, c.goals[g].name);
      EXPECT_EQ(static_cast<int>(served.chains_per_goal[g].second),
                r.chains_per_goal[g]);
    }
    EXPECT_GT(r.total_chains(), 0);
  }
}

TEST(ServeDaemon, SocketFaultsDegradeRequestsNeverTheDaemon) {
  metrics::set_enabled(true);
  TestDaemon d;
  // Warm the job first so the fault leg measures transport, not analysis.
  {
    auto c = Client::connect(d.sock());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value().submit(tiny_spec(600)).ok());
    ASSERT_TRUE(c.value().wait_result().ok());
  }
  int completed = 0, request_errors = 0;
  {
    fault::ScopedSpec chaos("accept=0.2,sock_read=0.1,sock_write=0.1,seed=9");
    for (int i = 0; i < 60; ++i) {
      auto c = Client::connect(d.sock());
      if (!c.ok()) {
        ++request_errors;
        continue;
      }
      auto adm = c.value().submit(tiny_spec(600));
      if (!adm.ok() || !adm.value().accepted) {
        ++request_errors;
        continue;
      }
      auto outcome = c.value().wait_result();
      if (outcome.ok())
        ++completed;
      else
        ++request_errors;
    }
  }
  // With these rates both sides of the split must be non-trivial: faults
  // actually fired, and the daemon kept serving through them.
  EXPECT_GT(completed, 0);
  EXPECT_GT(request_errors, 0);
  auto c = Client::connect(d.sock());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c.value().ping().ok());
  const auto snap = metrics::registry().snapshot();
  auto count = [&](const char* k) -> u64 {
    auto it = snap.counters.find(k);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const u64 injected = count("serve.accept_faults") +
                       count("serve.sock_read_faults") +
                       count("serve.sock_write_faults");
  EXPECT_GT(injected, 0u);
}

TEST(ServeDaemon, StatsReportsQueueGaugesAndMetrics) {
  metrics::set_enabled(true);
  TestDaemon d;
  auto c = Client::connect(d.sock());
  ASSERT_TRUE(c.ok());
  auto json = c.value().stats();
  ASSERT_TRUE(json.ok()) << json.status().to_string();
  EXPECT_NE(json.value().find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.value().find("\"max_active\""), std::string::npos);
  EXPECT_NE(json.value().find("\"draining\": false"), std::string::npos);
  EXPECT_NE(json.value().find("\"metrics\""), std::string::npos);
}

TEST(ServeDaemon, BadBytesOnTheSocketGetErrorNotCrash) {
  TestDaemon d;
  // A well-framed (valid CRC) payload whose content is garbage: a bogus
  // type byte and a truncated version field.
  const std::vector<u8> garbage = {0xff, 0x01, 0x02, 0x03};
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                d.sock().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_TRUE(write_frame(fd, garbage).ok());
  auto reply = read_frame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  serial::Reader r(reply.value());
  EXPECT_EQ(read_header(r), std::optional<MsgType>(MsgType::kError));
  ::close(fd);
  // Daemon survives.
  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2.value().ping().ok());
}

// -- durable job journal ------------------------------------------------------

/// mkdtemp scratch dir with rm -rf cleanup, for tests that drive Journal
/// or Server generations directly.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/gp_journal_test_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p) path = p;
  }
  ~TempDir() { std::system(("rm -rf " + path).c_str()); }
  std::string path;
};

TEST(ServeJournal, RoundTripReplaysAdmitStartDone) {
  TempDir t;
  const std::string jpath = t.path + "/journal.gpj";
  const JobSpec spec = tiny_spec(600);
  {
    Journal j(jpath);
    ASSERT_TRUE(j.open().ok());
    EXPECT_TRUE(j.take_replay().jobs.empty());
    ASSERT_TRUE(j.append_admit(spec, spec.job_id()).ok());
    ASSERT_TRUE(j.append_start(spec.job_id()).ok());
    ASSERT_TRUE(j.append_done(spec.job_id(), 0, 0xfeedbeefcafe).ok());
  }
  Journal j2(jpath);
  ASSERT_TRUE(j2.open().ok());
  const ReplayResult r = j2.take_replay();
  EXPECT_EQ(r.records, 3u);
  EXPECT_EQ(r.torn_tail_bytes, 0u);
  EXPECT_FALSE(r.rotated);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.jobs[0].job_id, spec.job_id());
  EXPECT_FALSE(r.jobs[0].open);
  EXPECT_EQ(r.jobs[0].done_digest, 0xfeedbeefcafeu);
  EXPECT_EQ(r.jobs[0].dead_incarnations, 0u);
  // The replayed spec is byte-equivalent: same job id.
  EXPECT_EQ(r.jobs[0].spec.job_id(), spec.job_id());
}

TEST(ServeJournal, UnmatchedStartsCountDeadIncarnations) {
  TempDir t;
  const std::string jpath = t.path + "/journal.gpj";
  const JobSpec spec = tiny_spec(601);
  {
    Journal j(jpath);
    ASSERT_TRUE(j.open().ok());
    ASSERT_TRUE(j.append_admit(spec, spec.job_id()).ok());
    ASSERT_TRUE(j.append_start(spec.job_id()).ok());
  }  // incarnation 1 "dies": Start with no terminal record
  {
    Journal j(jpath);
    ASSERT_TRUE(j.open().ok());
    const ReplayResult r = j.take_replay();
    ASSERT_EQ(r.jobs.size(), 1u);
    EXPECT_TRUE(r.jobs[0].open);
    EXPECT_EQ(r.jobs[0].dead_incarnations, 1u);
    ASSERT_TRUE(j.append_start(spec.job_id()).ok());
  }  // incarnation 2 dies the same way
  Journal j3(jpath);
  ASSERT_TRUE(j3.open().ok());
  EXPECT_EQ(j3.take_replay().jobs[0].dead_incarnations, 2u);
}

TEST(ServeJournal, ServerReplaysBacklogAndCompletesWithoutResubmission) {
  TempDir t;
  const std::string store = t.path + "/store";
  const JobSpec spec = tiny_spec(602);

  // What the journal of a SIGKILLed daemon looks like: an admitted job
  // with no terminal record. Written directly — no server ever saw it.
  {
    Journal j(store + "/journal.gpj");
    ASSERT_TRUE(j.open().ok());
    ASSERT_TRUE(j.append_admit(spec, spec.job_id()).ok());
  }

  core::Engine engine{Config{}};
  ServeOptions opts;
  opts.socket_path = t.path + "/gp.sock";
  opts.store_dir = store;
  Server server(engine, opts);
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.replay_summary().requeued, 1u);

  // Attach ONLY — the job must complete from the journal alone.
  auto c = Client::connect(opts.socket_path);
  ASSERT_TRUE(c.ok());
  auto adm = c.value().attach(spec.job_id());
  ASSERT_TRUE(adm.ok()) << adm.status().to_string();
  ASSERT_TRUE(adm.value().accepted);
  auto outcome = c.value().wait_result();
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_EQ(static_cast<StatusCode>(outcome.value().status_code),
            StatusCode::Ok);
  const u64 replayed_digest = outcome.value().digest;
  server.stop(/*drain=*/true);

  // Digest identity: the same spec submitted normally to a fresh daemon
  // (fresh store, fresh engine) must agree byte-for-byte.
  TestDaemon d;
  auto c2 = Client::connect(d.sock());
  ASSERT_TRUE(c2.ok());
  auto adm2 = c2.value().submit(spec);
  ASSERT_TRUE(adm2.ok());
  auto out2 = c2.value().wait_result();
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2.value().digest, replayed_digest);
}

TEST(ServeJournal, PoisonJobIsQuarantinedAndAnsweredPoisoned) {
  TempDir t;
  const std::string store = t.path + "/store";
  const JobSpec spec = tiny_spec(603);

  // Two incarnations started and never finished, and the log ends dirty:
  // exactly what GP_FAULT=job_crash=1 leaves behind after two daemon
  // deaths (tier1.sh drills the out-of-process version of this).
  {
    Journal j(store + "/journal.gpj");
    ASSERT_TRUE(j.open().ok());
    ASSERT_TRUE(j.append_admit(spec, spec.job_id()).ok());
    ASSERT_TRUE(j.append_start(spec.job_id()).ok());
    ASSERT_TRUE(j.append_start(spec.job_id()).ok());
  }

  core::Engine engine{Config{}};
  ServeOptions opts;
  opts.socket_path = t.path + "/gp.sock";
  opts.store_dir = store;
  Server server(engine, opts);
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.replay_summary().quarantined, 1u);
  EXPECT_EQ(server.replay_summary().requeued, 0u);

  auto c = Client::connect(opts.socket_path);
  ASSERT_TRUE(c.ok());
  auto adm = c.value().attach(spec.job_id());
  ASSERT_TRUE(adm.ok());
  ASSERT_TRUE(adm.value().accepted);
  EXPECT_TRUE(adm.value().ok.already_done);
  auto outcome = c.value().wait_result();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(static_cast<StatusCode>(outcome.value().status_code),
            StatusCode::Internal);
  EXPECT_NE(outcome.value().status_msg.find("poisoned"), std::string::npos);

  // An identical resubmit dedupes onto the pinned quarantine record — it
  // is never re-admitted to the queue.
  auto c2 = Client::connect(opts.socket_path);
  ASSERT_TRUE(c2.ok());
  auto readm = c2.value().submit(spec);
  ASSERT_TRUE(readm.ok());
  ASSERT_TRUE(readm.value().accepted);
  EXPECT_TRUE(readm.value().ok.already_done);
  auto again = c2.value().wait_result();
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().status_msg.find("poisoned"), std::string::npos);

  auto stats = Client::connect(opts.socket_path);
  ASSERT_TRUE(stats.ok());
  auto json = stats.value().stats();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json.value().find("\"quarantined\": 1"), std::string::npos);
  server.stop(/*drain=*/true);

  // Quarantine survives the clean shutdown's compaction: a third daemon
  // generation still answers `poisoned` without re-running anything.
  core::Engine engine2{Config{}};
  opts.socket_path = t.path + "/gen2.sock";
  Server server2(engine2, opts);
  ASSERT_TRUE(server2.start().ok());
  EXPECT_EQ(server2.replay_summary().quarantined, 1u);
  server2.stop(/*drain=*/true);
}

TEST(ServeJournal, CorruptionSweepReadsAsEndOfLogNeverACrash) {
  TempDir t;
  const std::string jpath = t.path + "/journal.gpj";
  const JobSpec closed = tiny_spec(604), open = tiny_spec(605);
  {
    Journal j(jpath);
    ASSERT_TRUE(j.open().ok());
    ASSERT_TRUE(j.append_admit(closed, closed.job_id()).ok());
    ASSERT_TRUE(j.append_start(closed.job_id()).ok());
    ASSERT_TRUE(j.append_done(closed.job_id(), 0, 42).ok());
    ASSERT_TRUE(j.append_admit(open, open.job_id()).ok());
  }
  auto pristine = serial::read_file(jpath);
  ASSERT_TRUE(pristine.ok());
  const std::vector<u8> bytes = pristine.value();

  auto restore = [&](const std::vector<u8>& b) {
    ASSERT_TRUE(serial::write_file_atomic(jpath, b).ok());
  };
  auto replay = [&]() -> ReplayResult {
    Journal j(jpath);
    const Status st = j.open();
    EXPECT_TRUE(st.ok()) << st.to_string();
    return j.take_replay();
  };

  // Truncated tail: the cut record reads as end-of-log; every record
  // before it survives.
  {
    std::vector<u8> cut(bytes.begin(), bytes.end() - 7);
    restore(cut);
    const ReplayResult r = replay();
    EXPECT_GT(r.torn_tail_bytes, 0u);
    ASSERT_EQ(r.jobs.size(), 1u);
    EXPECT_FALSE(r.jobs[0].open);
  }

  // Bit flip inside the final record: CRC rejects it, prefix survives.
  {
    std::vector<u8> flipped = bytes;
    flipped[flipped.size() - 3] ^= 0x40;
    restore(flipped);
    const ReplayResult r = replay();
    EXPECT_GT(r.torn_tail_bytes, 0u);
    EXPECT_EQ(r.records, 3u);
  }

  // Torn final append (injected): the journal's own fault point models a
  // crash mid-write; the next open truncates the torn half-record.
  {
    restore(bytes);
    {
      Journal j(jpath);
      ASSERT_TRUE(j.open().ok());
      (void)j.take_replay();
      fault::ScopedSpec tear("journal_append=1,seed=5");
      const Status st = j.append_start(open.job_id());
      EXPECT_EQ(st.code(), StatusCode::FaultInjected);
    }
    const ReplayResult r = replay();
    EXPECT_GT(r.torn_tail_bytes, 0u);
    EXPECT_EQ(r.records, 4u);  // the torn Start is gone, nothing else
    EXPECT_EQ(r.jobs[1].dead_incarnations, 0u);
  }

  // Version bump: the whole file reads as a foreign log and is rotated
  // out; replay starts empty rather than misparsing.
  {
    std::vector<u8> bumped = bytes;
    bumped[4] ^= 0xff;  // u32 version little-endian low byte
    restore(bumped);
    const ReplayResult r = replay();
    EXPECT_TRUE(r.rotated);
    EXPECT_TRUE(r.jobs.empty());
  }

  // Injected replay corruption: reads as end-of-log, never a crash.
  {
    restore(bytes);
    fault::ScopedSpec bad("journal_replay=1,seed=9");
    const ReplayResult r = replay();
    EXPECT_EQ(r.records, 0u);
    EXPECT_TRUE(r.jobs.empty());
  }
}

TEST(ServeJournal, CompactionKeepsLiveJobsAndCleanDrainMarksShutdown) {
  TempDir t;
  const std::string store = t.path + "/store";
  {
    core::Engine engine{Config{}};
    ServeOptions opts;
    opts.socket_path = t.path + "/gp.sock";
    opts.store_dir = store;
    // Tiny threshold: every completion triggers compaction, so the log
    // must stay bounded by live backlog, not by history.
    opts.journal_compact_bytes = 256;
    Server server(engine, opts);
    ASSERT_TRUE(server.start().ok());
    for (u64 seed = 620; seed < 626; ++seed) {
      auto c = Client::connect(opts.socket_path);
      ASSERT_TRUE(c.ok());
      auto adm = c.value().submit(tiny_spec(seed));
      ASSERT_TRUE(adm.ok());
      ASSERT_TRUE(adm.value().accepted);
      auto out = c.value().wait_result();
      ASSERT_TRUE(out.ok());
    }
    server.stop(/*drain=*/true);
  }
  // After six jobs and a clean drain the log holds only the header and
  // the CleanShutdown marker — history was compacted away.
  Journal j(store + "/journal.gpj");
  ASSERT_TRUE(j.open().ok());
  const ReplayResult r = j.take_replay();
  EXPECT_TRUE(r.clean_shutdown);
  EXPECT_TRUE(r.jobs.empty());
  EXPECT_LT(j.size_bytes(), 64u);
}

}  // namespace
}  // namespace gp::serve
