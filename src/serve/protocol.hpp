// Wire protocol for the gp_serve daemon: length-framed, CRC-checked
// messages over a local (unix-domain) stream socket.
//
// Framing reuses the artifact store's record discipline (support/serial):
// every frame is [u32 payload_len][u32 crc32(payload)][payload], so a
// truncated or bit-flipped frame is detected by the CRC/length check and
// surfaces as a Status — never as a malformed message handed to the
// decoder. Payloads are serial::Writer/Reader encodings beginning with a
// one-byte message type; the Reader's sticky-failure contract means a
// hostile or corrupt payload degrades to "decode failed", never UB.
//
// Job identity is content-addressed: JobSpec::job_id() hashes exactly the
// fields that determine the analysis result (program, source, obfuscation,
// seed, goal, budget overrides — NOT the streaming preference), which are
// also exactly the fields JobSpec::encode writes. A client that reconnects
// after a dropped connection, or re-submits after the daemon was SIGKILLed
// and restarted, lands on the same id; combined with the content-addressed
// artifact store this makes re-issued requests resume instead of
// recompute.
//
// The protocol is deliberately version-pinned (kProtocolVersion in every
// frame'd Hello-free world: the version rides in each request) and bounded
// (kMaxFrame) so a garbage or adversarial peer cannot make the daemon
// allocate unboundedly.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/serial.hpp"
#include "support/status.hpp"

namespace gp::serve {

/// Bumped on any wire-format change; a mismatched peer gets kError.
constexpr u32 kProtocolVersion = 2;

/// Upper bound on one frame's payload bytes. Requests are tiny; responses
/// carry at most a stats JSON blob. Anything larger is a corrupt length or
/// a hostile peer and is rejected before allocation.
constexpr u32 kMaxFrame = 4u << 20;

enum class MsgType : u8 {
  // Requests.
  kSubmit = 1,    // run (or attach to) an analysis job
  kAttach = 2,    // re-attach to an existing job by id (reconnect path)
  kStats = 3,     // metrics/registry + server gauges as JSON
  kPing = 4,      // liveness probe
  kShutdown = 5,  // request graceful drain

  // Responses.
  kAccepted = 64,     // job admitted (or deduplicated onto a live/done job)
  kShed = 65,         // admission refused; retry after the given delay
  kProgress = 66,     // job stage transition (streamed while waiting)
  kResult = 67,       // terminal job outcome
  kStatsReply = 68,
  kPong = 69,
  kError = 70,        // malformed request / unknown job / version mismatch
  kShutdownAck = 71,
};

/// One analysis request: what to analyze and under which resource budget.
/// Zero-valued budget fields inherit the server's configuration.
struct JobSpec {
  std::string program;  // corpus name (label when source is inline)
  std::string source;   // optional inline mini-C source ("" = corpus lookup)
  std::string obf = "llvm-obf";
  std::string goal = "execve";  // "execve" | "mprotect" | "mmap" | "all"
  u64 seed = 5;
  double deadline_ms = 0;  // per-request deadline override (0 = server's)
  u64 solver_checks = 0;   // counted-budget overrides (0 = server's)
  u64 sym_steps = 0;
  u64 expr_nodes = 0;

  /// Content-addressed identity: fnv1a over encode(), which writes only
  /// result-determining fields. Filename- and log-safe ("job-<hex16>").
  std::string job_id() const;

  void encode(serial::Writer& w) const;
  static std::optional<JobSpec> decode(serial::Reader& r);
};

/// Terminal outcome of one job, as sent to every waiter.
struct JobOutcome {
  std::string job_id;
  u8 status_code = 0;  // gp::StatusCode of the worst stage
  std::string status_msg;
  u64 digest = 0;      // core::plan_goals' result digest (as a campaign's)
  double seconds = 0;  // analysis wall clock (queue wait excluded)
  /// True when any stage was served from a checkpoint (same-process cache
  /// hit or cross-process resume) — the drill's "resumed warm" signal.
  bool warm = false;
  std::vector<std::pair<std::string, u32>> chains_per_goal;  // goal -> count

  u32 chains_total() const {
    u32 n = 0;
    for (const auto& [name, c] : chains_per_goal) n += c;
    return n;
  }

  void encode(serial::Writer& w) const;
  static std::optional<JobOutcome> decode(serial::Reader& r);
};

// -- request/response payload helpers ---------------------------------------
// Each builder returns a full frame payload (type byte + fields); each
// parse_* expects the Reader positioned after the type byte.

std::vector<u8> make_submit(const JobSpec& spec, bool stream);
struct SubmitMsg {
  JobSpec spec;
  bool stream = true;  // keep the connection and stream progress + result
};
std::optional<SubmitMsg> parse_submit(serial::Reader& r);

std::vector<u8> make_attach(const std::string& job_id);
std::optional<std::string> parse_attach(serial::Reader& r);

std::vector<u8> make_simple(MsgType t);  // kStats/kPing/kShutdown/kPong/...

std::vector<u8> make_accepted(const std::string& job_id, bool already_done);
struct AcceptedMsg {
  std::string job_id;
  bool already_done = false;
};
std::optional<AcceptedMsg> parse_accepted(serial::Reader& r);

std::vector<u8> make_shed(u32 retry_after_ms, const std::string& reason);
struct ShedMsg {
  u32 retry_after_ms = 0;
  std::string reason;  // "queue-full" | "draining"
};
std::optional<ShedMsg> parse_shed(serial::Reader& r);

std::vector<u8> make_progress(const std::string& job_id,
                              const std::string& stage);
struct ProgressMsg {
  std::string job_id;
  std::string stage;  // "queued" | "extract" | "subsume" | "plan"
};
std::optional<ProgressMsg> parse_progress(serial::Reader& r);

std::vector<u8> make_result(const JobOutcome& outcome);
std::optional<JobOutcome> parse_result(serial::Reader& r);

std::vector<u8> make_stats_reply(const std::string& json);
std::optional<std::string> parse_stats_reply(serial::Reader& r);

std::vector<u8> make_error(const std::string& message);
std::optional<std::string> parse_error(serial::Reader& r);

/// Consume the leading [type byte][u32 protocol version] every message
/// carries; nullopt on a short payload or version mismatch. The parse_*
/// helpers above expect the Reader positioned right after this.
std::optional<MsgType> read_header(serial::Reader& r);

// -- socket framing ----------------------------------------------------------
// Blocking, EINTR-retrying full-frame I/O over a connected stream socket.
// Every failure is a Status: a clean peer close reads as Cancelled
// ("peer closed"), a CRC/length violation as Internal, an injected
// sock_read/sock_write fault as FaultInjected. Nothing here ever throws
// and nothing raises SIGPIPE (sends use MSG_NOSIGNAL; sig::ignore_sigpipe
// covers exotic paths).

Status write_frame(int fd, std::span<const u8> payload);
Result<std::vector<u8>> read_frame(int fd, u32 max_len = kMaxFrame);

}  // namespace gp::serve
