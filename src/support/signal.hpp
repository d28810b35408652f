// Process signal utilities for the long-running daemon (tools/gp_serve).
//
// Two concerns, both kept deliberately tiny and async-signal-safe:
//
//  - SIGPIPE must never kill the process. A served client can vanish
//    between any two bytes we write; the write has to fail with EPIPE (a
//    Status the server maps to "client disconnected"), not deliver a fatal
//    signal. ignore_sigpipe() installs SIG_IGN once, process-wide.
//
//  - SIGTERM / SIGINT request a *graceful drain*, not an exit. The handler
//    only sets a flag and writes one byte to a self-pipe; everything else
//    (stop admitting, finish in-flight jobs, compact the job journal with
//    its clean-shutdown marker) happens on normal threads that either poll
//    drain_requested() or include drain_wakeup_fd() in their poll() set.
//
// SIGKILL is deliberately not handled — it cannot be. Crash recovery is
// the artifact store's job: a killed daemon restarted on the same
// GP_STORE_DIR resumes every interrupted job from its last checkpoint
// (scripts/tier1.sh drills exactly this).
#pragma once

namespace gp::sig {

/// Ignore SIGPIPE process-wide (idempotent). Every socket writer calls it;
/// a dead peer then surfaces as an EPIPE write error instead of a fatal
/// signal.
void ignore_sigpipe();

/// Install SIGTERM + SIGINT handlers that record a drain request
/// (idempotent). The handler is async-signal-safe: one flag store and one
/// self-pipe write.
void install_drain_handler();

/// Has SIGTERM/SIGINT fired since install_drain_handler()?
bool drain_requested();

/// Readable fd that becomes ready when a drain is requested; include it in
/// a poll() set to wake a blocked loop promptly. -1 before
/// install_drain_handler(). The fd stays readable once signalled (the
/// byte is never drained) so every poller observes it.
int drain_wakeup_fd();

/// Reset the drain flag (tests re-running handler scenarios in-process).
void reset_drain_for_test();

}  // namespace gp::sig
