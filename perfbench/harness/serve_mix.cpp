// serve-mix: an in-process serve::Server on a private socket with a fresh
// store and journal, max_active 4 and GP_THREADS=1. Set-up primes the 12
// corpus programs x none x execve; then 4 closed-loop client connections
// (each sends its next request only after the previous reply, as
// gp_client callers do) work through a fixed-seed schedule:
//
//   ~90% dedupe  a resubmit of a primed spec, answered from the registry;
//   ~10% resume  a never-seen job id (same program under none, fresh seed),
//                whose image is byte-identical, so every stage is served
//                from the store through Session.
//
// This measures the serving layers: protocol, admission, dedupe, journal
// appends and store reads, with reads and writes side by side. Extraction
// and planning do no work in the timed phase. Every result's digest must
// equal its primed job's digest, and the primed digests must equal the
// committed sequential reference.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common.hpp"
#include "corpus/corpus.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr int kMaxActive = 4;
constexpr int kSetupReps = 3;
constexpr int kPassRequests = 9000;
constexpr double kResumeShare = 0.10;
/// A pass adds one registry record per resume; the server keeps 4096 done
/// records before evicting the oldest, and the primed ones must survive.
constexpr int kMaxPasses = 4;

gp::serve::JobSpec spec_for(const std::string& program, u64 seed) {
  gp::serve::JobSpec spec;
  spec.program = program;
  spec.obf = "none";
  spec.goal = "execve";
  spec.seed = seed;
  return spec;
}

struct Request {
  size_t program = 0;
  bool resume = false;
  u64 seed = 0;
  // Filled by the client thread that sends it.
  double latency_ms = 0;
  double analysis_s = 0;
  bool ok = false;
};

/// One closed-loop client per thread; requests are claimed in schedule
/// order from a shared cursor.
void run_clients(const std::string& sock, std::vector<Request>& reqs,
                 const std::vector<std::string>& programs,
                 const std::vector<gp::u64>& primed) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto conn = gp::serve::Client::connect(sock);
      if (!conn.ok()) return;  // its requests stay !ok
      gp::serve::Client& client = conn.value();
      for (size_t i = next.fetch_add(1); i < reqs.size(); i = next.fetch_add(1)) {
        Request& q = reqs[i];
        const auto t0 = Clock::now();
        gp::Result<gp::serve::Client::Admission> adm = [&] {
          gp::trace::Span span("bench.submit", "bench");
          return client.submit(spec_for(programs[q.program], q.seed));
        }();
        if (!adm.ok() || !adm.value().accepted) {
          q.latency_ms = secs_since(t0) * 1e3;
          if (!adm.ok()) break;  // connection is gone
          continue;
        }
        gp::Result<gp::serve::JobOutcome> res = [&] {
          gp::trace::Span span("bench.wait", "bench");
          return client.wait_result();
        }();
        q.latency_ms = secs_since(t0) * 1e3;
        if (!res.ok()) break;
        const gp::serve::JobOutcome& o = res.value();
        q.analysis_s = o.seconds;
        q.ok = o.status_code == static_cast<gp::u8>(gp::StatusCode::Ok) &&
               o.digest == primed[q.program];
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Server::stop publishes its stop flag to the workers without holding the
/// queue mutex, so a worker that has just finished the last job and is
/// between its wait predicate and the wait itself misses the wake-up and
/// stop() never returns (seen once in ten runs). Letting the workers reach
/// their wait first closes that window; the shutdown is outside every
/// measurement.
void stop_server(gp::serve::Server& server) {
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.stop(/*drain=*/true);
}

}  // namespace

Outcome run_serve_mix(const Args& a, Report& r) {
  namespace fs = std::filesystem;
  print_stamp(a, gp::config().threads, "max_active", kMaxActive);
  const gp::payload::Goal goal = gp::payload::Goal::execve();
  const u64 prime_seed = gp::serve::JobSpec{}.seed;

  std::vector<std::string> programs;
  for (const auto& p : gp::corpus::benchmark()) programs.push_back(p.name);

  const std::string ref_path = a.reference_dir + "/serve-mix.txt";
  const auto ref = read_reference(ref_path);
  if (ref.empty() && !a.write_reference) {
    std::fprintf(stderr, "serve-mix: no reference at %s\n", ref_path.c_str());
    return {false, 1, 1};
  }

  // Set-up, repeated for its median: engine start, compiling the images,
  // daemon start on a fresh store, and priming every program. The last
  // repetition's server stays up for the timed phase.
  std::vector<gp::image::Image> images;
  std::vector<gp::u64> primed(programs.size());
  std::unique_ptr<gp::core::Engine> engine;
  std::unique_ptr<gp::serve::Server> server;
  std::string store_dir, sock;
  double compile_s = 0;
  bool primed_ok = true;
  HostSpeed speed;
  EndToEnd e2e;
  std::vector<double> setup_reps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) stop_server(*server);
    server.reset();
    const std::string dir = a.work_dir + "/serve-" + std::to_string(rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    store_dir = dir + "/store";
    sock = dir + "/sock";

    const auto s0 = Clock::now();
    engine = std::make_unique<gp::core::Engine>(gp::Config::from_env());
    const auto t0 = Clock::now();
    images.clear();
    for (const auto& p : programs) images.push_back(compile_image(p, "none", prime_seed));
    compile_s = secs_since(t0);

    gp::serve::ServeOptions sopts;
    sopts.socket_path = sock;
    sopts.store_dir = store_dir;
    sopts.max_active = kMaxActive;
    server = std::make_unique<gp::serve::Server>(*engine, sopts);
    if (!server->start().ok()) {
      primed_ok = false;
      break;
    }
    std::vector<Request> prime(programs.size());
    for (size_t i = 0; i < prime.size(); ++i) prime[i] = {i, false, prime_seed};
    std::vector<gp::u64> expect(programs.size());
    for (size_t i = 0; i < programs.size(); ++i) {
      const auto it = ref.find("digest." + programs[i]);
      expect[i] = it == ref.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 16);
    }
    run_clients(sock, prime, programs, expect);
    setup_reps.push_back(secs_since(s0));
    for (const auto& q : prime) primed_ok = primed_ok && (q.ok || a.write_reference);
  }
  e2e.setup_s = median(setup_reps);
  e2e.setup_scale = speed.next_scale();
  if (!primed_ok && !a.write_reference) {
    if (server) stop_server(*server);
    std::fprintf(stderr, "serve-mix: priming did not reproduce the reference\n");
    return {false, 1, 1};
  }

  // The primed digests and chains, read back through Session from the
  // server's store: the chains are re-validated in the emulator, and the
  // digests become the expectation for every served result.
  gp::core::PipelineOptions popts;
  popts.store_dir = store_dir;
  auto check_store = [&](std::map<std::string, std::string>* write) {
    bool ok = true;
    for (size_t i = 0; i < programs.size(); ++i) {
      gp::core::Session s(*engine, images[i], popts);
      const auto chains = s.find_chains(goal);
      primed[i] = chains_digest(goal.name, chains);
      ok = ok && validate_chains(images[i], chains, goal, a.seed);
      if (write) (*write)["digest." + programs[i]] = hex(primed[i]);
      else ok = ok && ref.count("digest." + programs[i]) &&
                ref.at("digest." + programs[i]) == hex(primed[i]);
    }
    return ok;
  };
  if (a.write_reference) {
    // Run with GP_PLAN_INDEX=0 so the primed jobs take the linear planner.
    std::map<std::string, std::string> out_ref;
    const bool ok = check_store(&out_ref);
    stop_server(*server);
    std::printf("wrote %s\n", ref_path.c_str());
    return {ok && write_reference(ref_path, out_ref), programs.size(), 0};
  }
  if (!check_store(nullptr)) {
    stop_server(*server);
    std::fprintf(stderr, "serve-mix: stored chains differ from the reference\n");
    return {false, 1, 1};
  }

  Outcome out;
  std::vector<double> dedupe_ms, resume_ms;
  std::map<std::string, double> counters;
  std::vector<gp::trace::Event> events;
  double untraced_wall = 0, traced_wall = 0, traced_raw_wall = 0;
  double resume_s = 0, queue_wait_ms = 0;
  u64 next_seed = 1'000'000;
  const auto run0 = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = a.trace && pass == 1;
    gp::Rng rng(a.seed * 1000 + static_cast<u64>(pass));
    std::vector<Request> reqs(kPassRequests);
    for (auto& q : reqs) {
      q.program = rng.below(programs.size());
      q.resume = rng.chance(kResumeShare);
      q.seed = q.resume ? next_seed++ : prime_seed;
    }
    gp::metrics::registry().reset();
    gp::trace::reset();
    gp::trace::set_enabled(traced);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    run_clients(sock, reqs, programs, primed);
    const double wall = secs_since(t0);
    const double cpu = cpu_seconds() - c0;
    const double scale = speed.next_scale();
    if (traced) {
      counters = registry_counters();
      events = gp::trace::snapshot();
    }
    gp::trace::set_enabled(false);

    double waits = 0;
    u64 resumes = 0;
    for (const auto& q : reqs) {
      out.attempted++;
      if (!q.ok) out.failed++;
      if (!a.trace) {
        e2e.op_s.push_back(q.latency_ms / 1e3);
        e2e.op_scale.push_back(scale);
      }
      (q.resume ? resume_ms : dedupe_ms).push_back(q.latency_ms);
      if (q.resume) {
        resume_s += q.analysis_s;
        waits += q.latency_ms - q.analysis_s * 1e3;
        resumes++;
      }
    }
    if (a.trace && pass == 0) {
      untraced_wall = wall * scale;
      dedupe_ms.clear(), resume_ms.clear();
      resume_s = 0;
      continue;
    }
    if (traced) {
      traced_wall = wall * scale;
      traced_raw_wall = wall;
      queue_wait_ms = resumes ? waits / static_cast<double>(resumes) : 0;
      break;
    }
    e2e.wall_s.push_back(wall);
    e2e.cpu_s.push_back(cpu);
    e2e.pass_scale.push_back(scale);
    if (pass + 1 >= kMaxPasses || secs_since(run0) >= a.seconds) break;
  }
  stop_server(*server);
  out.correct = out.failed == 0;
  if (out.failed)
    std::fprintf(stderr, "serve-mix: %llu of %llu requests failed or mismatched\n",
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted));
  std::fprintf(stderr,
               "serve-mix latency (n=%zu dedupe, n=%zu resume): dedupe p50 %.4f "
               "ms p99 %.4f ms, resume p50 %.4f ms p99 %.4f ms\n",
               dedupe_ms.size(), resume_ms.size(), percentile(dedupe_ms, 0.5),
               percentile(dedupe_ms, 0.99), percentile(resume_ms, 0.5),
               percentile(resume_ms, 0.99));

  if (!a.trace) {
    add_end_to_end(e2e, out, speed, r);
    return out;
  }

  LayerInputs in;
  in.counters = std::move(counters);
  in.spans = span_totals(events);
  in.compile_s = compile_s;
  for (const auto& img : images) in.code_bytes += static_cast<double>(img.code().size());
  in.wall_s = traced_wall;
  in.untraced_wall_s = untraced_wall;
  in.lane_busy_frac = resume_s / (traced_raw_wall * kMaxActive);
  in.resume_s = resume_s;
  in.queue_wait_ms = queue_wait_ms;
  in.dedupe_p50_ms = percentile(dedupe_ms, 0.5);
  in.dedupe_p99_ms = percentile(dedupe_ms, 0.99);
  in.resume_p50_ms = percentile(resume_ms, 0.5);
  in.resume_p99_ms = percentile(resume_ms, 0.99);
  in.dropped = gp::trace::dropped();
  add_layer_metrics(in, r);
  return out;
}

}  // namespace perfbench
