// Deterministic, seed-driven fault injection for the pipeline-under-fault
// test suite (and for manual chaos runs via the GP_FAULT env var, which a
// core::Engine arms from its Config::fault_spec when it is built).
//
// Each instrumented site names a fault Point; should_fire(point) draws a
// deterministic pseudo-random decision from (seed, point, per-point trial
// ordinal). The trial counters are atomic, so the set of firing ordinals is
// a pure function of the spec — sequential runs are exactly reproducible,
// and parallel runs fire the same *number* of faults per point even when
// lane interleaving varies.
//
// Spec grammar (comma-separated key=value):
//   seed=<u64>        decision seed (default 1)
//   decode=<rate>     x86::decode returns nullopt           (forced decode failure)
//   solver=<rate>     solver::Solver query returns Unknown  (solver timeout)
//   emu=<rate>        emu::Emulator::step traps             (emulated crash)
//   alloc=<rate>      expression interning throws           (allocation failure)
//   write=<rate>      atomic file write persists a prefix   (torn write)
//   read=<rate>       file read flips one bit               (media corruption)
//   rename=<rate>     checkpoint publish rename fails       (full disk / EIO)
//   accept=<rate>     gp_serve drops an accepted connection (accept() EMFILE)
//   sock_read=<rate>  socket frame read fails               (connection reset)
//   sock_write=<rate> socket frame write fails              (peer gone / EPIPE)
//   journal_append=<rate>  gp_serve job-journal append is torn (crash mid-append)
//   journal_replay=<rate>  journal replay treats a record as corrupt (end-of-log)
//   job_crash=<rate>  gp_serve worker aborts the process at job start
//                     (the pathological-image crash the quarantine absorbs)
// with <rate> a probability in [0, 1], e.g.
//   GP_FAULT="seed=42,decode=0.01,solver=0.05,alloc=0.001"
// Unknown keys are rejected with an error that lists the valid points.
//
// When no spec is active, every should_fire() call is a single relaxed
// atomic load — cheap enough to leave the hooks in release builds.
#pragma once

#include <array>
#include <atomic>
#include <string>

#include "support/status.hpp"

namespace gp::fault {

enum class Point : u8 {
  Decode = 0,    // x86 decoder rejects the bytes
  Solver,        // constraint query returns Unknown
  Emu,           // emulator traps (validation fails, chain dropped)
  Alloc,         // expression-node allocation fails
  ShortWrite,    // serial::write_file_atomic persists only a prefix
  ReadCorrupt,   // serial::read_file flips one deterministic bit
  RenameFail,    // checkpoint publish (temp-file rename) fails
  Accept,        // serve: accepted connection is dropped immediately
  SockRead,      // serve: socket frame read fails (connection reset)
  SockWrite,     // serve: socket frame write fails (peer gone / EPIPE)
  JournalAppend, // serve: job-journal append persists only a prefix
  JournalReplay, // serve: journal replay reads a record as corrupt
  JobCrash,      // serve: worker std::abort()s right after the start record
  kCount,
};
/// The point's GP_FAULT spec key ("decode", "write", ...).
const char* point_name(Point p);
/// Comma-separated list of every valid spec key (for error messages).
std::string valid_point_names();

struct Spec {
  u64 seed = 1;
  std::array<double, static_cast<size_t>(Point::kCount)> rates{};  // all 0

  bool any() const {
    for (const double r : rates)
      if (r > 0) return true;
    return false;
  }
  double rate(Point p) const { return rates[static_cast<size_t>(p)]; }
};

/// Parse a GP_FAULT-style spec string. Unknown keys, bad numbers or rates
/// outside [0, 1] are errors (a chaos run with a silently-ignored typo'd
/// rate would report fake robustness).
Result<Spec> parse_spec(const std::string& text);

/// Install `spec` process-wide (replacing any active spec) and reset the
/// per-point trial counters. Passing a default Spec disables injection.
void configure(const Spec& spec);
/// Disable injection (equivalent to configure({})).
void disable();

/// Is any fault point active? Single relaxed load.
bool enabled();

/// Should the fault at `point` fire for this trial? Deterministic in
/// (seed, point, trial ordinal). Always false when disabled.
bool should_fire(Point point);

/// Trials drawn at `point` since the last configure() (test introspection).
u64 trials(Point point);

/// RAII spec installer for tests: configures on construction, restores
/// disabled state on destruction.
class ScopedSpec {
 public:
  explicit ScopedSpec(const Spec& spec) { configure(spec); }
  explicit ScopedSpec(const std::string& text) {
    configure(parse_spec(text).value());
  }
  ~ScopedSpec() { disable(); }
  ScopedSpec(const ScopedSpec&) = delete;
  ScopedSpec& operator=(const ScopedSpec&) = delete;
};

}  // namespace gp::fault
