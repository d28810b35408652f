// gp_serve: long-running analysis daemon over a unix-domain socket.
//
//   gp_serve --sock /tmp/gp.sock [--store <dir>] [--queue <n>]
//            [--max-active <n>] [--ready-fd <fd>]
//
// Flags default from the shared Engine's Config (GP_SERVE_SOCK,
// GP_STORE_DIR, GP_SERVE_QUEUE, GP_SERVE_MAX_ACTIVE); every job runs under
// that Config's budgets (GP_DEADLINE_MS, GP_SOLVER_CHECKS, GP_SYM_STEPS,
// GP_EXPR_NODES), lane count (GP_THREADS) and codegen level
// (GP_OPT_LEVEL), and the Engine arms that Config's chaos knob (GP_FAULT).
// --ready-fd writes one byte ("R") to the given fd once the socket is
// listening, so harness scripts can wait for readiness without polling.
//
// Lifecycle:
//   - SIGTERM/SIGINT: graceful drain — stop admitting (new submits are
//     shed with reason "draining"), finish queued + in-flight jobs (their
//     stage outputs checkpoint to the store), then exit 0.
//   - kShutdown from a client: same drain, same exit 0.
//   - SIGKILL: nothing to handle — every artifact whose rename landed is
//     a complete, self-checking file, and a restarted daemon on the same
//     --store dir replays the job journal: the incomplete backlog is
//     re-enqueued server-side (no client resubmission) and finishes to
//     byte-identical digests; jobs whose incarnations keep dying are
//     quarantined and answered `poisoned`.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <poll.h>

#include "core/engine.hpp"
#include "serve/server.hpp"
#include "support/metrics.hpp"
#include "support/signal.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --sock <path> [--store <dir>] [--queue <n>] "
               "[--max-active <n>] [--ready-fd <fd>]\n"
               "env: GP_SERVE_SOCK, GP_SERVE_QUEUE, GP_SERVE_MAX_ACTIVE, "
               "GP_STORE_DIR, GP_DEADLINE_MS, GP_SOLVER_CHECKS, "
               "GP_SYM_STEPS, GP_EXPR_NODES, GP_OPT_LEVEL, GP_FAULT, "
               "GP_THREADS, GP_METRICS\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gp;

  core::Engine& engine = core::Engine::shared();
  serve::ServeOptions opts = serve::ServeOptions::from(engine.config());
  int ready_fd = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--sock" && v) {
      opts.socket_path = v;
      ++i;
    } else if (arg == "--store" && v) {
      opts.store_dir = v;
      ++i;
    } else if (arg == "--queue" && v) {
      opts.queue_limit = std::atoi(v);
      ++i;
    } else if (arg == "--max-active" && v) {
      opts.max_active = std::atoi(v);
      ++i;
    } else if (arg == "--ready-fd" && v) {
      ready_fd = std::atoi(v);
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) return usage(argv[0]);

  // The drill scripts read serve.* counters out of kStats replies; a
  // serving daemon without metrics is flying blind, so default them on.
  metrics::set_enabled(true);

  sig::ignore_sigpipe();
  sig::install_drain_handler();

  serve::Server server(engine, opts);
  if (Status st = server.start(); !st.ok()) {
    std::fprintf(stderr, "gp_serve: %s\n", st.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "gp_serve: listening on %s (queue=%d, max-active=%d, "
               "store=%s)\n",
               opts.socket_path.c_str(), server.options().queue_limit,
               server.options().max_active,
               opts.store_dir.empty() ? "<disabled>" : opts.store_dir.c_str());
  if (const serve::ReplaySummary& rs = server.replay_summary();
      rs.journal_enabled) {
    std::fprintf(stderr,
                 "gp_serve: journal replay: %llu records, %llu requeued, "
                 "%llu completed, %llu quarantined%s%s%s\n",
                 static_cast<unsigned long long>(rs.records),
                 static_cast<unsigned long long>(rs.requeued),
                 static_cast<unsigned long long>(rs.completed),
                 static_cast<unsigned long long>(rs.quarantined),
                 rs.clean_shutdown ? " (clean shutdown)" : "",
                 rs.torn_tail_bytes ? " (torn tail truncated)" : "",
                 rs.rotated ? " (rotated: bad header)" : "");
  }
  if (ready_fd >= 0) {
    const char r = 'R';
    (void)!::write(ready_fd, &r, 1);
    ::close(ready_fd);
  }

  // Sleep on the signal self-pipe until SIGTERM/SIGINT or a client's
  // kShutdown asks for drain.
  while (!sig::drain_requested() && !server.shutdown_requested()) {
    pollfd pfd{sig::drain_wakeup_fd(), POLLIN, 0};
    (void)::poll(&pfd, 1, 200);
  }

  std::fprintf(stderr, "gp_serve: draining (%s)\n",
               sig::drain_requested() ? "signal" : "client shutdown");
  server.stop(/*drain=*/true);
  std::fprintf(stderr, "gp_serve: drained, exiting\n");
  return 0;
}
