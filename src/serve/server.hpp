// gp_serve's daemon core: a crash-tolerant, multi-tenant analysis server
// multiplexing jobs onto one warm core::Engine.
//
// Architecture (all threads owned by Server):
//
//   accept thread ── poll(listen fd) ──▶ one handler thread per connection
//        │                                 │  parses frames, runs admission,
//        │                                 │  streams progress/results; ALL
//        │                                 │  socket I/O happens here
//        ▼                                 ▼
//   admission control            bounded job queue  ──▶ N worker threads
//   (shed with RETRY_AFTER)      (GP_SERVE_QUEUE)       (GP_SERVE_MAX_ACTIVE)
//                                                      run Sessions on the
//                                                      shared Engine
//
// Robustness contracts:
//  - Jobs are DETACHED from connections. A worker owns the running
//    Session; the connection thread merely observes the job record. A
//    client hangup therefore never cancels an admitted job — the result
//    lands in the registry (and, stage by stage, in the artifact store)
//    and a reconnecting client re-attaches by job id.
//  - Admission is bounded. Beyond GP_SERVE_QUEUE queued jobs, a submit
//    gets an immediate kShed with a retry_after_ms hint instead of
//    queueing unboundedly. Identical resubmits (same JobSpec::job_id)
//    dedupe onto the live or finished record and are never shed.
//  - Every socket error is a Status (injected accept/sock_read/sock_write
//    faults included): the connection dies, the daemon does not.
//  - Graceful drain (SIGTERM / kShutdown): stop admitting, finish queued +
//    in-flight jobs (their stage outputs checkpoint to the store as they
//    complete), then exit 0. SIGKILL needs no cooperation: a restart on
//    the same store dir resumes re-issued jobs from the surviving
//    checkpoints to byte-identical digests (tier1.sh drills this).
//  - Admission is durable (serve/journal). With a store dir, every admit/
//    start/done is written ahead to an append-only CRC-framed journal;
//    a restart replays it and re-enqueues the incomplete backlog itself,
//    with NO client resubmission. A job whose incarnations keep dying
//    in flight is quarantined after kPoisonRetries deaths and answered
//    `poisoned` instead of being allowed to kill another worker.
//
// Per-request deadlines/budgets: JobSpec overrides are resolved against
// the engine's gp::Config and split across GP_SERVE_MAX_ACTIVE workers via
// GovernorOptions::split_across; degraded stages ride the Session's
// supervised retry path and are returned with their Status, never dropped.
// A job's deadline is what frees its worker: every governor poll in the
// pipeline checks the deadline and the cancel flag together, so a session
// past its deadline comes home degraded at its next poll point.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"

namespace gp::serve {

/// Dead in-flight incarnations (journal Start with no terminal record
/// across a dirty shutdown) tolerated before a job is quarantined.
constexpr u32 kPoisonRetries = 2;

struct ServeOptions {
  std::string socket_path;  // unix-domain socket to listen on (required)
  int queue_limit = 64;     // queued (not yet running) jobs before shedding
  int max_active = 4;       // concurrent analysis workers
  std::string store_dir;    // checkpoint/resume directory ("" disables)
  /// Journal size that triggers compaction on the next job completion.
  u64 journal_compact_bytes = u64{1} << 20;

  /// Defaults plus cfg's GP_SERVE_SOCK / GP_SERVE_QUEUE /
  /// GP_SERVE_MAX_ACTIVE / GP_STORE_DIR fields; gp_serve feeds it the
  /// shared Engine's Config.
  static ServeOptions from(const Config& cfg);
};

/// What journal replay did at startup — surfaced so the daemon can log one
/// honest line about recovery before accepting traffic.
struct ReplaySummary {
  bool journal_enabled = false;
  bool clean_shutdown = false;
  bool rotated = false;        // bad magic/version: old log discarded
  u64 records = 0;             // well-formed records read
  u64 torn_tail_bytes = 0;     // discarded after the last good record
  u64 requeued = 0;            // incomplete jobs re-enqueued (no client)
  u64 completed = 0;           // finished jobs re-installed for attach
  u64 quarantined = 0;         // jobs now answered `poisoned`
};

class Server {
 public:
  Server(core::Engine& engine, ServeOptions opts);
  ~Server();  // stop(/*drain=*/false) if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on options().socket_path and start the accept and
  /// worker threads. A stale socket file from a SIGKILLed predecessor is
  /// replaced (after probing that no live daemon answers on it).
  Status start();

  /// Stop admitting new jobs (submits shed with reason "draining");
  /// already-admitted jobs keep running. Idempotent, non-blocking.
  void request_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Block until the queue is empty and no job is active.
  void wait_drained();

  /// Shut down. drain=true finishes queued + active jobs first (the
  /// SIGTERM path); drain=false cancels active sessions via their
  /// governors and fails queued jobs as cancelled. Joins every thread;
  /// idempotent.
  void stop(bool drain);

  /// True once a client sent kShutdown — the daemon main loop's cue to
  /// stop(drain=true) and exit.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// {"serve": {queue_depth, active, draining, ...}, "metrics": {...}}.
  std::string stats_json() const;

  const ServeOptions& options() const { return opts_; }

  /// Test hook: freeze/unfreeze workers so admission behavior (queue
  /// bounds, shedding, dedupe) can be exercised deterministically while
  /// jobs are provably still queued.
  void hold_workers(bool hold);

  /// What journal replay did in start(). Zero-valued (journal_enabled ==
  /// false) when the server runs without a store dir.
  const ReplaySummary& replay_summary() const { return replay_summary_; }

 private:
  struct JobRecord {
    JobSpec spec;
    std::string id;
    enum class State : u8 { Queued, Active, Done } state = State::Queued;
    /// Every stage the job has entered, in order. A streamer sends each
    /// stage it has not sent yet, so one that starts and ends between two
    /// of its wake-ups is still reported.
    std::vector<std::string> stages{"queued"};
    /// Bumped (under mu_) on every observable change; streamers wait on
    /// cv_ for it to advance.
    u64 gen = 1;
    JobOutcome outcome;  // valid once state == Done
    /// Live only while a worker runs the job (guarded by mu_); the abort
    /// path cancels through it.
    core::Session* session = nullptr;
    std::chrono::steady_clock::time_point enqueued_at;
    /// Incarnations of this job that died in flight (from journal replay).
    u32 dead_incarnations = 0;
    /// Quarantined records are pinned: answered `poisoned`, never evicted.
    bool quarantined = false;

    /// Journal::compact's view of this record.
    LiveJob live() const;
  };
  using RecordPtr = std::shared_ptr<JobRecord>;

  void accept_loop();
  void worker_loop();
  /// Turn the journal's replayed state into registry records: completed
  /// jobs become attachable Done records, poisoned jobs become pinned
  /// `poisoned` answers, incomplete jobs re-enter the queue. Runs before
  /// any thread starts; finishes with a compaction that rebaselines
  /// dead-incarnation counts.
  void apply_replay(ReplayResult replay);
  /// Live-jobs snapshot for Journal::compact (caller holds mu_).
  std::vector<LiveJob> live_jobs_locked() const;
  void maybe_compact_locked();
  void handle_connection(u64 conn_id, int fd);
  /// Returns the record to stream (nullptr when shed / not streaming).
  // `keep` is cleared when the admission reply could not be written: the
  // client never saw a verdict, so the only safe move is to close the
  // connection (leaving it open deadlocks both sides in read — the
  // client waiting for the reply, the handler for the next request).
  RecordPtr handle_submit(int fd, const SubmitMsg& msg, bool& keep);
  RecordPtr handle_attach(int fd, const std::string& job_id, bool& keep);
  /// Stream progress frames until the job completes, then the result.
  /// Returns false when the client disconnected mid-stream.
  bool stream_job(int fd, const RecordPtr& rec);
  void run_job(const RecordPtr& rec);
  void finish_job(const RecordPtr& rec, JobOutcome outcome);
  void set_stage(const RecordPtr& rec, const char* stage);
  void join_finished_connections_locked();
  void update_queue_gauges_locked();

  core::Engine& engine_;
  ServeOptions opts_;

  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> stop_accept_{false};
  std::atomic<bool> stop_conns_{false};
  std::atomic<bool> hold_workers_{false};

  mutable std::mutex mu_;  // registry + queue + job records + conn table
  std::condition_variable cv_;  // broadcast on any job/queue/stop change
  std::map<std::string, RecordPtr> jobs_;
  std::deque<RecordPtr> queue_;
  std::deque<std::string> done_order_;  // Done-record eviction (kDoneCap)
  int active_ = 0;
  /// EWMA of recent job seconds; scales the shed retry_after_ms hint.
  double avg_job_seconds_ = 0.5;

  std::vector<std::thread> workers_;
  std::thread accept_thread_;
  std::map<u64, std::thread> conn_threads_;
  std::map<u64, int> conn_fds_;
  std::vector<u64> finished_conns_;
  u64 next_conn_id_ = 0;

  std::unique_ptr<Journal> journal_;  // null when store_dir is empty
  ReplaySummary replay_summary_;  // written before any thread starts
};

}  // namespace gp::serve
