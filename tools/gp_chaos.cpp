// gp_chaos: fault-matrix chaos harness for the gp_serve daemon.
//
//   gp_chaos [--serve-bin <path>] [--points p1,p2] [--rates r1,r2]
//            [--quick] [--no-kill] [--out <json>] [--keep]
//
// Sweeps every registered GP_FAULT point (from fault::valid_point_names(),
// so a newly added point is swept automatically) crossed with injection
// rates and kill timings against a REAL daemon child process, and asserts
// the recovery contract after each round:
//
//   1. the daemon is alive at the end — either it survived the round or a
//      bounded number of restarts brought it back (restarts keep the fault
//      spec for the first two incarnations so persistent faults exercise
//      the quarantine path, then disable it: the operator's "revert and
//      restart");
//   2. journal replay converges: the restarted daemon works its re-enqueued
//      backlog down to journal_depth == 0 on its own;
//   3. no job is both lost and unreported — every submitted job ends with a
//      terminal outcome via attach, or via one resubmit when the fault ate
//      its admission before the journal saw it;
//   4. for fault points that do not perturb the analysis itself (store I/O,
//      sockets, journal), the final digests are byte-identical to a clean
//      reference round. Points that alter analysis results or kill workers
//      (decode/solver/emu/alloc/job_crash) are exempt from (4) only.
//
// Exit 0 when every round holds all invariants; 1 otherwise. --out writes a
// per-round JSON summary (EXPERIMENTS.md's chaos-matrix table is generated
// from it).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/fault.hpp"

namespace {

using namespace gp;
using gp::serve::Client;
using gp::serve::JobOutcome;
using gp::serve::JobSpec;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Same fast call-rich mini-C program the serve tests use: milliseconds per
// job, still a real pool + chains, so a 50-round sweep stays minutes.
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

std::vector<JobSpec> chaos_jobs() {
  std::vector<JobSpec> jobs;
  for (u64 seed : {11, 12, 13}) {
    JobSpec spec;
    spec.program = "chaos_tiny";
    spec.source = kTinySource;
    spec.obf = "none";
    spec.goal = "execve";
    spec.seed = seed;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

/// Fault points whose whole job is to perturb the analysis (or kill the
/// worker): their outcomes legitimately differ from the clean reference,
/// so invariant (4) does not apply to them.
bool perturbs_analysis(const std::string& point) {
  return point == "decode" || point == "solver" || point == "emu" ||
         point == "alloc" || point == "job_crash";
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string item = s.substr(pos, comma - pos);
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (!item.empty()) out.push_back(std::move(item));
    pos = comma + 1;
  }
  return out;
}

/// One gp_serve child process.
struct Daemon {
  pid_t pid = -1;

  bool alive() {
    if (pid < 0) return false;
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    if (r == pid) pid = -1;
    return pid >= 0;
  }

  void kill_hard() {
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }

  /// SIGTERM + bounded wait, escalating to SIGKILL.
  void stop() {
    if (pid < 0) return;
    ::kill(pid, SIGTERM);
    for (int i = 0; i < 100; ++i) {
      if (::waitpid(pid, nullptr, WNOHANG) == pid) {
        pid = -1;
        return;
      }
      sleep_ms(100);
    }
    kill_hard();
  }
};

/// fork/exec gp_serve and wait for its --ready-fd byte (or early death).
Daemon spawn_daemon(const std::string& serve_bin, const std::string& sock,
                    const std::string& store, const std::string& fault_spec) {
  int ready[2];
  if (::pipe(ready) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(ready[0]);
    ::close(ready[1]);
    return {};
  }
  if (pid == 0) {
    ::close(ready[0]);
    if (fault_spec.empty())
      ::unsetenv("GP_FAULT");
    else
      ::setenv("GP_FAULT", fault_spec.c_str(), 1);
    // Tiny jobs + a 2s deadline keep a wedged round from stalling the
    // sweep: a session past its deadline comes home at its next poll.
    ::setenv("GP_DEADLINE_MS", "2000", 1);
    const std::string ready_fd = std::to_string(ready[1]);
    // stderr to /dev/null: 50 rounds of daemon banners would drown the
    // matrix output. The harness judges by protocol, not logs.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, 2);
    ::execl(serve_bin.c_str(), serve_bin.c_str(), "--sock", sock.c_str(),
            "--store", store.c_str(), "--max-active", "2", "--ready-fd",
            ready_fd.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(ready[1]);
  Daemon d{pid};
  pollfd pfd{ready[0], POLLIN, 0};
  if (::poll(&pfd, 1, 15'000) <= 0 || !(pfd.revents & POLLIN)) {
    ::close(ready[0]);
    d.kill_hard();
    return {};
  }
  char byte = 0;
  (void)!::read(ready[0], &byte, 1);
  ::close(ready[0]);
  return d;
}

i64 stats_i64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + needle.size());
}

struct RoundResult {
  std::string point;
  double rate = 0;
  bool kill = false;
  bool converged = false;
  bool all_answered = false;
  bool digests_ok = true;  // only meaningful for non-perturbing points
  bool digests_checked = false;
  int restarts = 0;
  int resubmits = 0;
  int poisoned = 0;
  std::string note;

  bool pass() const { return converged && all_answered && digests_ok; }
};

class Round {
 public:
  Round(std::string serve_bin, std::string dir, std::string fault_spec)
      : serve_bin_(std::move(serve_bin)),
        dir_(std::move(dir)),
        sock_(dir_ + "/gp.sock"),
        store_(dir_ + "/store"),
        fault_spec_(std::move(fault_spec)) {
    std::error_code ec;
    std::filesystem::create_directories(store_, ec);
  }

  ~Round() { daemon_.stop(); }

  /// Bring a daemon up (or back up), keeping the fault spec for the first
  /// kKeepFaultRestarts incarnations so a persistent fault (job_crash)
  /// exercises poison counting, then reverting to a clean daemon.
  bool ensure_alive(RoundResult& r) {
    if (daemon_.alive()) return true;
    for (int attempt = 0; attempt < kMaxRestarts; ++attempt) {
      if (spawned_once_) r.restarts++;
      if (r.restarts > kMaxRestarts) break;
      const bool keep_fault = r.restarts <= kKeepFaultRestarts;
      daemon_ = spawn_daemon(serve_bin_, sock_, store_,
                             keep_fault ? fault_spec_ : "");
      if (daemon_.alive()) {
        spawned_once_ = true;
        return true;
      }
    }
    r.note = "daemon would not come back after " +
             std::to_string(kMaxRestarts) + " restarts";
    return false;
  }

  /// Connect with a 30s I/O timeout: a fault-wedged daemon (e.g. a reply
  /// write eaten by sock_write) must never wedge the harness — a timed-out
  /// call fails like any other I/O error and the attempt is retried.
  Result<Client> dial() {
    auto c = Client::connect(sock_);
    if (c.ok()) (void)c.value().set_io_timeout_ms(30'000);
    return c;
  }

  bool submit_all(const std::vector<JobSpec>& jobs, RoundResult& r) {
    for (const JobSpec& spec : jobs) {
      bool admitted = false;
      for (int attempt = 0; attempt < 50 && !admitted; ++attempt) {
        if (!ensure_alive(r)) return false;
        auto c = dial();
        if (!c.ok()) {
          sleep_ms(100);
          continue;
        }
        auto adm = c.value().submit(spec, /*stream=*/false);
        if (!adm.ok()) {
          sleep_ms(100);  // injected socket fault or mid-crash: retry
          continue;
        }
        if (!adm.value().accepted) {
          sleep_ms(static_cast<int>(
              std::min<u32>(adm.value().shed.retry_after_ms, 500)));
          continue;
        }
        admitted = true;
      }
      if (!admitted) {
        r.note = "job " + spec.job_id() + " never admitted";
        return false;
      }
    }
    return true;
  }

  bool converge(RoundResult& r) {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::seconds(90)) {
      if (!ensure_alive(r)) return false;
      auto c = dial();
      if (!c.ok()) {
        sleep_ms(150);
        continue;
      }
      auto stats = c.value().stats();
      if (!stats.ok()) {
        sleep_ms(150);
        continue;
      }
      if (stats_i64(stats.value(), "journal_depth") == 0) return true;
      sleep_ms(150);
    }
    r.note = "journal_depth never reached 0";
    return false;
  }

  /// Terminal outcome for every job: attach, or one resubmit when the
  /// fault ate the admission before it became durable.
  bool collect(const std::vector<JobSpec>& jobs,
               std::map<std::string, JobOutcome>& outcomes, RoundResult& r) {
    for (const JobSpec& spec : jobs) {
      const std::string id = spec.job_id();
      std::optional<JobOutcome> out;
      for (int attempt = 0; attempt < 40 && !out; ++attempt) {
        if (!ensure_alive(r)) return false;
        auto c = dial();
        if (!c.ok()) {
          sleep_ms(150);
          continue;
        }
        auto adm = c.value().attach(id);
        if (!adm.ok()) {
          // Unknown job: the admission was lost before the journal saw
          // it (that round's fault fired between accept and append).
          // Lost-but-reported is exactly what resubmission is for.
          auto re = c.value().submit(spec, /*stream=*/true);
          if (re.ok() && re.value().accepted) {
            r.resubmits++;
            auto res = c.value().wait_result();
            if (res.ok()) out = std::move(res.value());
          } else {
            sleep_ms(150);
          }
          continue;
        }
        if (!adm.value().accepted) {
          sleep_ms(150);
          continue;
        }
        auto res = c.value().wait_result();
        if (res.ok()) out = std::move(res.value());
      }
      if (!out) {
        r.note = "job " + id + " unreported";
        return false;
      }
      if (out->status_msg.find("poisoned") != std::string::npos)
        r.poisoned++;
      outcomes[id] = std::move(*out);
    }
    return true;
  }

  Daemon& daemon() { return daemon_; }

 private:
  static constexpr int kMaxRestarts = 6;
  static constexpr int kKeepFaultRestarts = 2;

  std::string serve_bin_;
  std::string dir_;
  std::string sock_;
  std::string store_;
  std::string fault_spec_;
  Daemon daemon_;
  bool spawned_once_ = false;  // the initial spawn is not a "restart"
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--serve-bin <path>] [--points p1,p2] "
               "[--rates r1,r2] [--quick] [--no-kill] [--out <json>] "
               "[--keep]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string serve_bin;
  std::string points_csv;
  std::string rates_csv;
  std::string out_path;
  bool quick = false;
  bool no_kill = false;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--serve-bin" && v) {
      serve_bin = v;
      ++i;
    } else if (arg == "--points" && v) {
      points_csv = v;
      ++i;
    } else if (arg == "--rates" && v) {
      rates_csv = v;
      ++i;
    } else if (arg == "--out" && v) {
      out_path = v;
      ++i;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-kill") {
      no_kill = true;
    } else if (arg == "--keep") {
      keep = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (serve_bin.empty()) {
    // Default: gp_serve next to this binary (both live in build/tools).
    const std::filesystem::path self(argv[0]);
    serve_bin = (self.parent_path() / "gp_serve").string();
  }
  if (!std::filesystem::exists(serve_bin)) {
    std::fprintf(stderr, "gp_chaos: no gp_serve at %s (--serve-bin?)\n",
                 serve_bin.c_str());
    return 2;
  }

  // The registered fault points ARE the matrix rows: a new Point enum
  // entry shows up here without touching this tool.
  std::vector<std::string> points =
      points_csv.empty() ? split_csv(fault::valid_point_names())
                         : split_csv(points_csv);
  std::vector<double> rates;
  for (const std::string& r :
       split_csv(rates_csv.empty() ? (quick ? "0.25" : "0.05,0.5")
                                   : rates_csv))
    rates.push_back(std::atof(r.c_str()));
  std::vector<bool> kills = no_kill ? std::vector<bool>{false}
                                    : std::vector<bool>{false, true};

  char tmpl[] = "/tmp/gp_chaos_XXXXXX";
  const char* workdir = ::mkdtemp(tmpl);
  if (!workdir) {
    std::fprintf(stderr, "gp_chaos: mkdtemp failed\n");
    return 1;
  }

  const std::vector<JobSpec> jobs = chaos_jobs();

  // Clean reference round: the digests every non-perturbing round must
  // reproduce byte-for-byte.
  std::map<std::string, u64> reference;
  {
    RoundResult ref;
    Round round(serve_bin, std::string(workdir) + "/ref", "");
    std::map<std::string, JobOutcome> outcomes;
    if (!round.ensure_alive(ref) || !round.submit_all(jobs, ref) ||
        !round.converge(ref) || !round.collect(jobs, outcomes, ref)) {
      std::fprintf(stderr, "gp_chaos: clean reference round failed: %s\n",
                   ref.note.c_str());
      return 1;
    }
    for (const auto& [id, out] : outcomes) reference[id] = out.digest;
    std::fprintf(stderr, "gp_chaos: reference digests captured (%zu jobs)\n",
                 reference.size());
  }

  std::vector<RoundResult> results;
  int round_idx = 0;
  for (const std::string& point : points) {
    for (const double rate : rates) {
      for (const bool kill : kills) {
        RoundResult r;
        r.point = point;
        r.rate = rate;
        r.kill = kill;
        char spec[128];
        std::snprintf(spec, sizeof spec, "%s=%.3f,seed=13", point.c_str(),
                      rate);
        Round round(serve_bin,
                    std::string(workdir) + "/r" + std::to_string(round_idx++),
                    spec);
        std::map<std::string, JobOutcome> outcomes;
        do {
          if (!round.ensure_alive(r)) break;
          if (!round.submit_all(jobs, r)) break;
          if (kill) {
            sleep_ms(200);
            round.daemon().kill_hard();
          }
          if (!round.converge(r)) break;
          r.converged = true;
          if (!round.collect(jobs, outcomes, r)) break;
          r.all_answered = true;
        } while (false);
        if (r.all_answered && !perturbs_analysis(point)) {
          r.digests_checked = true;
          for (const auto& [id, out] : outcomes)
            if (out.digest != reference[id]) {
              r.digests_ok = false;
              r.note = "digest mismatch for " + id;
            }
        }
        std::fprintf(stderr,
                     "gp_chaos: %-16s rate=%.2f kill=%d -> %s "
                     "(restarts=%d resubmits=%d poisoned=%d%s%s)\n",
                     point.c_str(), rate, kill ? 1 : 0,
                     r.pass() ? "PASS" : "FAIL", r.restarts, r.resubmits,
                     r.poisoned, r.note.empty() ? "" : ", ",
                     r.note.c_str());
        results.push_back(std::move(r));
      }
    }
  }

  int failed = 0;
  for (const RoundResult& r : results)
    if (!r.pass()) failed++;

  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f) {
      std::fprintf(f, "{\"rounds\": [\n");
      for (size_t i = 0; i < results.size(); ++i) {
        const RoundResult& r = results[i];
        std::fprintf(
            f,
            "  {\"point\": \"%s\", \"rate\": %.3f, \"kill\": %s, "
            "\"pass\": %s, \"converged\": %s, \"all_answered\": %s, "
            "\"digests_checked\": %s, \"digests_ok\": %s, "
            "\"restarts\": %d, \"resubmits\": %d, \"poisoned\": %d, "
            "\"note\": \"%s\"}%s\n",
            r.point.c_str(), r.rate, r.kill ? "true" : "false",
            r.pass() ? "true" : "false", r.converged ? "true" : "false",
            r.all_answered ? "true" : "false",
            r.digests_checked ? "true" : "false",
            r.digests_ok ? "true" : "false", r.restarts, r.resubmits,
            r.poisoned, r.note.c_str(),
            i + 1 < results.size() ? "," : "");
      }
      std::fprintf(f, "], \"failed\": %d, \"total\": %zu}\n", failed,
                   results.size());
      std::fclose(f);
    }
  }

  if (!keep) {
    std::error_code ec;
    std::filesystem::remove_all(workdir, ec);
  }

  std::fprintf(stderr, "gp_chaos: %zu rounds, %d failed\n", results.size(),
               failed);
  return failed == 0 ? 0 : 1;
}
