// Durable job journal for the gp_serve daemon: an append-only, CRC-framed
// write-ahead log of admission state, so a SIGKILLed daemon restarted on
// the same store dir re-enqueues its own backlog instead of waiting for
// clients to resubmit.
//
// File layout (<store_dir>/journal.gpj):
//
//   [u32 magic "GPJL"][u32 journal version]
//   record*            each record = serial::put_record framing
//                      ([u32 len][u32 crc32(payload)][payload])
//   payload = [u8 event][str job_id][event-specific fields]
//
// Design rules, inherited from the artifact store's discipline:
//  - Appends are a single write() of a complete framed record followed by
//    fdatasync. A crash mid-append leaves a torn tail whose CRC/length
//    check fails on the next replay — the tail then reads as end-of-log,
//    never as a crash or a bad record.
//  - Nothing in the file is trusted. A bad magic or bumped version reads
//    as an empty log (the file is rotated to a fresh header); a corrupt or
//    truncated record ends the replay at the last good record.
//  - Compaction rewrites the log with only the still-live jobs (admit +
//    start records carrying the accumulated dead-incarnation count) via
//    temp-file + rename, so a crash mid-compaction leaves the old log.
//
// Poison detection: a Start record with no terminal record when the log
// ends — and no CleanShutdown marker — means that incarnation of the job
// died in flight. Replay counts such dead incarnations per job id (plus
// any count carried over by compaction); the server quarantines jobs at
// kPoisonRetries (server.hpp) dead incarnations.
//
// Thread safety: all methods are serialized by an internal mutex; the
// server additionally calls every append under its own registry lock so
// per-job record order (Admit before Start before Done) follows the job's
// state machine.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "support/status.hpp"

namespace gp::serve {

/// Bumped on any journal layout change; an old-version file reads as an
/// empty log and is rotated.
constexpr u32 kJournalVersion = 2;

enum class JournalEvent : u8 {
  kAdmit = 1,        // job admitted: spec + carried incarnations
  kStart = 2,        // a worker began running the job
  kDone = 3,         // terminal outcome: status code + digest
  kQuarantined = 4,  // poison threshold crossed; answered `poisoned`
  kCleanShutdown = 5,  // drain completed; open entries are not poison
};

/// One job's state as reconstructed by replay().
struct ReplayedJob {
  JobSpec spec;
  std::string job_id;
  /// Start records never matched by a terminal record, plus the count an
  /// earlier compaction carried over — i.e. incarnations that died in
  /// flight (only meaningful when the log did not end cleanly).
  u32 dead_incarnations = 0;
  /// True while the job has an Admit but no terminal record.
  bool open = true;
  bool quarantined = false;
  /// Valid when a Done record closed the job (result servable by digest).
  u8 done_status = 0;
  u64 done_digest = 0;
};

struct ReplayResult {
  std::vector<ReplayedJob> jobs;  // in first-admit order
  bool clean_shutdown = false;    // log ended with kCleanShutdown
  u64 records = 0;                // well-formed records consumed
  u64 torn_tail_bytes = 0;        // bytes discarded after the last good record
  bool rotated = false;           // bad magic/version: log discarded
};

/// A still-live job handed to compact(): everything replay needs to
/// reconstruct it, minus the history.
struct LiveJob {
  JobSpec spec;
  std::string job_id;
  u32 dead_incarnations = 0;
  bool started = false;  // currently Active: compaction re-emits the Start
  /// Poisoned jobs stay in the compacted log (Admit + Quarantined records)
  /// so the `poisoned` answer survives any number of restarts.
  bool quarantined = false;
};

class Journal {
 public:
  explicit Journal(std::string path) : path_(std::move(path)) {}
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating parent dirs and the file as needed) and parse the
  /// existing log. A bad header rotates the file; a torn tail is
  /// truncated away so new appends extend the last good record. The
  /// parsed state is returned exactly once, by the replay() that follows.
  Status open();

  /// The state parsed by open(). Call once; the server turns it into
  /// registry records and a re-enqueued backlog.
  ReplayResult take_replay();

  // Appends. Every failure (including the injected journal_append torn
  // write) is a Status; the caller degrades to non-durable admission and
  // counts it — the daemon never dies over its audit trail.
  Status append_admit(const JobSpec& spec, const std::string& job_id);
  Status append_start(const std::string& job_id);
  Status append_done(const std::string& job_id, u8 status_code, u64 digest);

  /// Rewrite the log to exactly `live` (admit + start/quarantined records,
  /// the admit carrying each job's dead-incarnation count), appending
  /// a CleanShutdown marker when `clean`. Atomic (temp file + rename); on
  /// failure the old log stays.
  Status compact(const std::vector<LiveJob>& live, bool clean);

  /// Current file size (bytes appended since open/compact); the server's
  /// size-threshold compaction trigger.
  u64 size_bytes() const;

  const std::string& path() const { return path_; }

 private:
  Status append_locked(const std::vector<u8>& payload);
  Status reopen_locked();

  std::string path_;
  mutable std::mutex mu_;
  int fd_ = -1;
  u64 size_ = 0;
  std::optional<ReplayResult> replay_;
};

}  // namespace gp::serve
