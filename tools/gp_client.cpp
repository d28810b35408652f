// gp_client: command-line client for the gp_serve daemon.
//
//   gp_client --sock <path> submit [--program <name>] [--source-file <f>]
//             [--obf <profile>] [--goal <g>] [--seed <n>]
//             [--deadline-ms <x>] [--solver-checks <n>] [--no-stream]
//             [--retries <n>] [--quiet]
//   gp_client --sock <path> attach <job-id>
//   gp_client --sock <path> stats|ping|shutdown
//
// submit prints the admission verdict, streamed stage transitions, and the
// terminal result line:
//
//   job=job-<hex16> status=ok digest=<hex16> chains=12 warm=1 seconds=0.42
//
// Exit codes mirror gp_pipeline's campaign taxonomy so scripts can branch
// without parsing: 0 job ok, 3 degraded (deadline/budget/fault), 4 failed
// (internal), 5 shed and retries exhausted, 1 connection/protocol error,
// 2 usage. --retries N covers BOTH flavors of transient failure: a shed
// honors the daemon's retry_after_ms hint, while a connect refusal or a
// mid-stream read error (a daemon restarting under it) gets exponential
// backoff and a fresh submit — the identical spec dedupes onto the live
// record or replayed journal entry, so riding out a restart is free.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "serve/client.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --sock <path> submit [--program <name>] "
      "[--source-file <f>] [--obf <profile>] [--goal <g>] [--seed <n>]\n"
      "                [--deadline-ms <x>] [--solver-checks <n>] "
      "[--no-stream] [--retries <n>] [--quiet]\n"
      "       %s --sock <path> attach <job-id>\n"
      "       %s --sock <path> stats|ping|shutdown\n",
      argv0, argv0, argv0);
  return 2;
}

int outcome_exit_code(const gp::serve::JobOutcome& out) {
  const auto code = static_cast<gp::StatusCode>(out.status_code);
  if (code == gp::StatusCode::Ok) return 0;
  if (code == gp::StatusCode::Internal) return 4;
  return 3;
}

void print_outcome(const gp::serve::JobOutcome& out) {
  std::printf("job=%s status=%s digest=%016llx chains=%u warm=%d "
              "seconds=%.3f\n",
              out.job_id.c_str(),
              gp::status_code_name(static_cast<gp::StatusCode>(
                  out.status_code)),
              static_cast<unsigned long long>(out.digest),
              out.chains_total(), out.warm ? 1 : 0, out.seconds);
  if (out.status_code != 0 && !out.status_msg.empty())
    std::fprintf(stderr, "gp_client: job status: %s\n",
                 out.status_msg.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gp;
  using serve::Client;

  std::string sock, command, job_id;
  serve::JobSpec spec;
  spec.program = "hash_table";
  bool stream = true, quiet = false;
  int retries = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--sock" && v) {
      sock = v;
      ++i;
    } else if (arg == "--program" && v) {
      spec.program = v;
      ++i;
    } else if (arg == "--source-file" && v) {
      std::ifstream in(v);
      if (!in) {
        std::fprintf(stderr, "gp_client: cannot read %s\n", v);
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      spec.source = ss.str();
      ++i;
    } else if (arg == "--obf" && v) {
      spec.obf = v;
      ++i;
    } else if (arg == "--goal" && v) {
      spec.goal = v;
      ++i;
    } else if (arg == "--seed" && v) {
      spec.seed = static_cast<u64>(std::atoll(v));
      ++i;
    } else if (arg == "--deadline-ms" && v) {
      spec.deadline_ms = std::atof(v);
      ++i;
    } else if (arg == "--solver-checks" && v) {
      spec.solver_checks = static_cast<u64>(std::atoll(v));
      ++i;
    } else if (arg == "--no-stream") {
      stream = false;
    } else if (arg == "--retries" && v) {
      retries = std::atoi(v);
      ++i;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (command.empty() && !arg.empty() && arg[0] != '-') {
      command = arg;
    } else if (command == "attach" && job_id.empty()) {
      job_id = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (sock.empty() || command.empty()) return usage(argv[0]);

  auto connect = [&]() -> Result<Client> { return Client::connect(sock); };

  if (command == "ping" || command == "stats" || command == "shutdown") {
    auto c = connect();
    if (!c.ok()) {
      std::fprintf(stderr, "gp_client: %s\n", c.status().to_string().c_str());
      return 1;
    }
    Status st;
    if (command == "ping") {
      st = c.value().ping();
      if (st.ok()) std::printf("pong\n");
    } else if (command == "shutdown") {
      st = c.value().shutdown_server();
      if (st.ok()) std::printf("draining\n");
    } else {
      auto json = c.value().stats();
      st = json.status();
      if (json.ok()) std::printf("%s\n", json.value().c_str());
    }
    if (!st.ok()) {
      std::fprintf(stderr, "gp_client: %s\n", st.to_string().c_str());
      return 1;
    }
    return 0;
  }

  if (command == "attach") {
    if (job_id.empty()) return usage(argv[0]);
    auto c = connect();
    if (!c.ok()) {
      std::fprintf(stderr, "gp_client: %s\n", c.status().to_string().c_str());
      return 1;
    }
    auto adm = c.value().attach(job_id);
    if (!adm.ok()) {
      std::fprintf(stderr, "gp_client: %s\n",
                   adm.status().to_string().c_str());
      return 1;
    }
    auto outcome = c.value().wait_result([&](const serve::ProgressMsg& p) {
      if (!quiet) std::fprintf(stderr, "stage: %s\n", p.stage.c_str());
    });
    if (!outcome.ok()) {
      std::fprintf(stderr, "gp_client: %s\n",
                   outcome.status().to_string().c_str());
      return 1;
    }
    print_outcome(outcome.value());
    return outcome_exit_code(outcome.value());
  }

  if (command != "submit") return usage(argv[0]);

  // Transient-failure backoff: 100ms doubling to a 2s ceiling. Shed
  // retries ignore this and use the daemon's own hint instead.
  auto backoff = [](int attempt) {
    const int ms = std::min(100 << std::min(attempt, 5), 2'000);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  auto transient = [&](int attempt, const Status& st) {
    std::fprintf(stderr, "gp_client: %s%s\n", st.to_string().c_str(),
                 attempt < retries ? " (will retry)" : "");
    if (attempt >= retries) return false;
    backoff(attempt);
    return true;
  };

  for (int attempt = 0;; ++attempt) {
    auto c = connect();
    if (!c.ok()) {
      if (transient(attempt, c.status())) continue;
      return 1;
    }
    auto adm = c.value().submit(spec, stream);
    if (!adm.ok()) {
      if (transient(attempt, adm.status())) continue;
      return 1;
    }
    if (!adm.value().accepted) {
      const auto& shed = adm.value().shed;
      std::fprintf(stderr, "gp_client: shed (%s), retry after %ums\n",
                   shed.reason.c_str(), shed.retry_after_ms);
      if (attempt >= retries) {
        std::printf("shed reason=%s retry_after_ms=%u\n", shed.reason.c_str(),
                    shed.retry_after_ms);
        return 5;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(shed.retry_after_ms));
      continue;
    }
    const auto& ok = adm.value().ok;
    if (!quiet)
      std::fprintf(stderr, "accepted job=%s%s\n", ok.job_id.c_str(),
                   ok.already_done ? " (already done)" : "");
    if (!stream) {
      std::printf("job=%s submitted\n", ok.job_id.c_str());
      return 0;
    }
    auto outcome = c.value().wait_result([&](const serve::ProgressMsg& p) {
      if (!quiet) std::fprintf(stderr, "stage: %s\n", p.stage.c_str());
    });
    if (!outcome.ok()) {
      // Mid-stream loss (daemon killed under us). Resubmitting the same
      // spec lands on the journal-replayed record, warm from the store.
      if (transient(attempt, outcome.status())) continue;
      return 1;
    }
    print_outcome(outcome.value());
    return outcome_exit_code(outcome.value());
  }
}
