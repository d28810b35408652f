#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "core/campaign.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/signal.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace gp::serve {

using Clock = std::chrono::steady_clock;

namespace {

/// Done records kept for late re-attach before eviction. The artifact store
/// makes an evicted job cheap to recompute (a resubmit resumes warm), so
/// this only bounds registry memory, not correctness.
constexpr size_t kDoneCap = 4096;

int close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
  return -1;
}

}  // namespace

ServeOptions ServeOptions::from(const Config& cfg) {
  ServeOptions o;
  o.socket_path = cfg.serve_sock;
  o.queue_limit = cfg.serve_queue;
  o.max_active = cfg.serve_max_active;
  o.store_dir = cfg.store_dir;
  return o;
}

Server::Server(core::Engine& engine, ServeOptions opts)
    : engine_(engine), opts_(std::move(opts)) {
  opts_.queue_limit = std::max(1, opts_.queue_limit);
  opts_.max_active = std::max(1, opts_.max_active);
}

Server::~Server() { stop(/*drain=*/false); }

Status Server::start() {
  if (started_.load()) return Status::internal("server already started");
  if (opts_.socket_path.empty())
    return Status::internal("no socket path (set GP_SERVE_SOCK or --sock)");

  sig::ignore_sigpipe();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof addr.sun_path)
    return Status::internal("socket path too long: " + opts_.socket_path);
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);

  // A socket file left behind by a SIGKILLed predecessor would make bind()
  // fail forever. Probe it first: if a live daemon answers the connect we
  // refuse to usurp it; a dead file is unlinked and replaced.
  int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const bool live = ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                                sizeof addr) == 0;
    close_quiet(probe);
    if (live)
      return Status::internal("socket " + opts_.socket_path +
                              " already served by a live daemon");
    ::unlink(opts_.socket_path.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return Status::internal(std::string("socket: ") + std::strerror(errno));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int e = errno;
    listen_fd_ = close_quiet(listen_fd_);
    return Status::internal(std::string("bind ") + opts_.socket_path + ": " +
                            std::strerror(e));
  }
  if (::listen(listen_fd_, 128) < 0) {
    const int e = errno;
    listen_fd_ = close_quiet(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
    return Status::internal(std::string("listen: ") + std::strerror(e));
  }

  // Recover before the first thread exists: replay the journal into the
  // registry and queue, so workers see the re-enqueued backlog the moment
  // they start and no client races a half-replayed state.
  replay_summary_ = ReplaySummary{};
  if (!opts_.store_dir.empty()) {
    journal_ = std::make_unique<Journal>(opts_.store_dir + "/journal.gpj");
    if (Status st = journal_->open(); !st.ok()) {
      // The daemon never dies over its audit trail: serve non-durably and
      // let the metrics say why.
      metrics::registry().counter("serve.journal_open_failures").add();
      journal_.reset();
    } else {
      replay_summary_.journal_enabled = true;
      apply_replay(journal_->take_replay());
    }
  }

  started_.store(true);
  stopped_.store(false);
  draining_.store(false);
  stop_workers_.store(false);
  stop_conns_.store(false);
  stop_accept_.store(false);
  for (int i = 0; i < opts_.max_active; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status();
}

void Server::apply_replay(ReplayResult replay) {
  metrics::Registry& reg = metrics::registry();
  replay_summary_.clean_shutdown = replay.clean_shutdown;
  replay_summary_.rotated = replay.rotated;
  replay_summary_.records = replay.records;
  replay_summary_.torn_tail_bytes = replay.torn_tail_bytes;
  reg.counter("serve.journal_replayed").add(replay.records);

  std::lock_guard<std::mutex> lock(mu_);
  for (ReplayedJob& job : replay.jobs) {
    auto rec = std::make_shared<JobRecord>();
    rec->spec = std::move(job.spec);
    rec->id = job.job_id;
    rec->dead_incarnations = job.dead_incarnations;
    rec->enqueued_at = Clock::now();

    const bool poisoned =
        job.quarantined ||
        (job.open && !replay.clean_shutdown &&
         job.dead_incarnations >= kPoisonRetries);
    if (poisoned) {
      // Every incarnation of this job has killed its worker. Stop feeding
      // it workers: pin a terminal `poisoned` answer that dedupe and
      // attach will serve, and that compaction keeps across restarts.
      rec->state = JobRecord::State::Done;
      rec->quarantined = true;
      rec->outcome.job_id = rec->id;
      rec->outcome.status_code = static_cast<u8>(StatusCode::Internal);
      rec->outcome.status_msg =
          "poisoned: " + std::to_string(job.dead_incarnations) +
          " incarnation(s) died in flight";
      jobs_[rec->id] = rec;  // never in done_order_: exempt from eviction
      replay_summary_.quarantined++;
      reg.counter("serve.quarantined").add();
      continue;
    }
    if (!job.open) {
      // Finished before the crash. Cancelled outcomes are NOT re-installed
      // (a dedupe hit on one would answer `cancelled` forever); dropping
      // them means a resubmit re-runs warm from the artifact store.
      if (job.done_status == static_cast<u8>(StatusCode::Cancelled)) continue;
      rec->state = JobRecord::State::Done;
      rec->outcome.job_id = rec->id;
      rec->outcome.status_code = job.done_status;
      rec->outcome.status_msg =
          job.done_status == static_cast<u8>(StatusCode::Ok) ? ""
                                                             : "replayed";
      rec->outcome.digest = job.done_digest;
      rec->outcome.warm = true;
      jobs_[rec->id] = rec;
      done_order_.push_back(rec->id);
      replay_summary_.completed++;
      continue;
    }
    // Incomplete: the crashed daemon owes this answer. Re-enqueue it
    // ourselves — the client only ever needs to attach, never resubmit.
    jobs_[rec->id] = rec;
    queue_.push_back(rec);
    replay_summary_.requeued++;
    reg.counter("serve.journal_requeued").add();
  }
  update_queue_gauges_locked();

  // Rebaseline: the compacted log carries each live job's dead-incarnation
  // count in its Admit record and drops everything already answered
  // (except quarantined pins), so journal growth is bounded by backlog,
  // not history.
  if (journal_) (void)journal_->compact(live_jobs_locked(), /*clean=*/false);
}

LiveJob Server::JobRecord::live() const {
  LiveJob l;
  l.spec = spec;
  l.job_id = id;
  l.dead_incarnations = dead_incarnations;
  l.started = state == State::Active;
  l.quarantined = quarantined;
  return l;
}

std::vector<LiveJob> Server::live_jobs_locked() const {
  std::vector<LiveJob> live;
  for (const auto& [id, rec] : jobs_)
    if (rec->quarantined || rec->state != JobRecord::State::Done)
      live.push_back(rec->live());
  return live;
}

void Server::maybe_compact_locked() {
  if (!journal_ || journal_->size_bytes() < opts_.journal_compact_bytes)
    return;
  (void)journal_->compact(live_jobs_locked(), /*clean=*/false);
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void Server::wait_drained() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void Server::hold_workers(bool hold) {
  hold_workers_.store(hold, std::memory_order_release);
  cv_.notify_all();
}

void Server::stop(bool drain) {
  if (!started_.load() || stopped_.exchange(true)) return;

  request_drain();
  std::vector<LiveJob> leftover;  // jobs the final journal must keep open
  if (drain) {
    hold_workers_.store(false);
    wait_drained();
  } else {
    // Cancel whatever is running and fail whatever is queued; cancelled
    // sessions observe the token at their next poll point and return
    // degraded, so workers come home quickly.
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& [id, rec] : jobs_)
      if (rec->session) rec->session->governor().cancel();
    while (!queue_.empty()) {
      RecordPtr rec = queue_.front();
      queue_.pop_front();
      // The client that attached gets `cancelled` now, but the journal
      // keeps the job open: a restart on this store dir re-enqueues it.
      leftover.push_back(rec->live());
      rec->state = JobRecord::State::Done;
      rec->outcome.job_id = rec->id;
      rec->outcome.status_code = static_cast<u8>(StatusCode::Cancelled);
      rec->outcome.status_msg = "server stopped before the job ran";
      rec->gen++;
    }
    update_queue_gauges_locked();
    lock.unlock();
    cv_.notify_all();
    wait_drained();
  }

  {
    // Under mu_, the lock worker_loop waits on: an unlocked store could
    // land between a worker's predicate check and its wait, and the
    // notify below would then be lost.
    std::lock_guard<std::mutex> lock(mu_);
    stop_workers_.store(true);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();

  // Final compaction: quarantined pins always survive; a drain shutdown
  // adds the CleanShutdown marker (no open job is poison evidence); a
  // cancel shutdown keeps the just-cancelled backlog open for the next
  // incarnation to re-enqueue.
  if (journal_) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<LiveJob> live = live_jobs_locked();
    for (auto& l : leftover) live.push_back(std::move(l));
    (void)journal_->compact(live, /*clean=*/drain);
  }

  // Flag first, close after the join: the accept loop polls with a short
  // timeout, so it observes the flag without ever racing the fd teardown.
  stop_accept_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = close_quiet(listen_fd_);

  stop_conns_.store(true);
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (;;) {
    std::map<u64, std::thread> conns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns.swap(conn_threads_);
    }
    if (conns.empty()) break;
    for (auto& [id, t] : conns) t.join();
  }

  ::unlink(opts_.socket_path.c_str());
  started_.store(false);
}

// -- accept / connection side ------------------------------------------------

void Server::accept_loop() {
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, 200);
    if (stop_accept_.load()) break;
    {
      std::lock_guard<std::mutex> lock(mu_);
      join_finished_connections_locked();
    }
    if (n <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen fd closed by stop()
    }
    if (fault::should_fire(fault::Point::Accept)) {
      // The injected failure mode is "connection lost right after accept":
      // the client sees a peer close, the daemon sheds the connection and
      // keeps serving.
      metrics::registry().counter("serve.accept_faults").add();
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const u64 id = next_conn_id_++;
    conn_fds_[id] = fd;
    conn_threads_.emplace(id, std::thread([this, id, fd] {
                            handle_connection(id, fd);
                          }));
  }
}

void Server::join_finished_connections_locked() {
  for (const u64 id : finished_conns_) {
    auto it = conn_threads_.find(id);
    if (it != conn_threads_.end()) {
      it->second.join();
      conn_threads_.erase(it);
    }
  }
  finished_conns_.clear();
}

void Server::handle_connection(u64 conn_id, int fd) {
  metrics::registry().counter("serve.connections").add();
  for (;;) {
    auto frame = read_frame(fd);
    if (!frame.ok()) {
      if (frame.status().code() != StatusCode::Cancelled)
        metrics::registry().counter("serve.read_errors").add();
      break;
    }
    serial::Reader r(frame.value());
    const auto type = read_header(r);
    if (!type) {
      (void)write_frame(fd, make_error("bad message header or version"));
      metrics::registry().counter("serve.bad_requests").add();
      break;
    }
    bool keep = true;
    switch (*type) {
      case MsgType::kPing:
        keep = write_frame(fd, make_simple(MsgType::kPong)).ok();
        break;
      case MsgType::kStats:
        keep = write_frame(fd, make_stats_reply(stats_json())).ok();
        break;
      case MsgType::kShutdown:
        shutdown_requested_.store(true, std::memory_order_release);
        request_drain();
        keep = write_frame(fd, make_simple(MsgType::kShutdownAck)).ok();
        break;
      case MsgType::kSubmit: {
        auto msg = parse_submit(r);
        if (!msg) {
          (void)write_frame(fd, make_error("malformed submit"));
          metrics::registry().counter("serve.bad_requests").add();
          keep = false;
          break;
        }
        RecordPtr rec = handle_submit(fd, *msg, keep);
        if (keep && rec && msg->stream) keep = stream_job(fd, rec);
        break;
      }
      case MsgType::kAttach: {
        auto id = parse_attach(r);
        if (!id) {
          (void)write_frame(fd, make_error("malformed attach"));
          metrics::registry().counter("serve.bad_requests").add();
          keep = false;
          break;
        }
        RecordPtr rec = handle_attach(fd, *id, keep);
        if (keep && rec) keep = stream_job(fd, rec);
        break;
      }
      default:
        (void)write_frame(fd, make_error("unexpected message type"));
        metrics::registry().counter("serve.bad_requests").add();
        keep = false;
        break;
    }
    if (!keep) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  conn_fds_.erase(conn_id);
  finished_conns_.push_back(conn_id);
}

Server::RecordPtr Server::handle_submit(int fd, const SubmitMsg& msg,
                                        bool& keep) {
  metrics::Registry& reg = metrics::registry();
  const std::string id = msg.spec.job_id();

  std::unique_lock<std::mutex> lock(mu_);
  if (auto it = jobs_.find(id); it != jobs_.end()) {
    // Identical resubmit (retry, reconnect, or a second tenant asking the
    // same question): piggyback on the existing record. Never shed — the
    // work is already paid for.
    RecordPtr rec = it->second;
    const bool done = rec->state == JobRecord::State::Done;
    lock.unlock();
    reg.counter("serve.dedup_hits").add();
    // A resubmit of a quarantined job streams its pinned `poisoned`
    // outcome — it is never allowed back into the queue.
    if (rec->quarantined) reg.counter("serve.poisoned_answers").add();
    keep = write_frame(fd, make_accepted(id, done)).ok();
    return rec;
  }

  auto shed = [&](const std::string& reason) -> RecordPtr {
    const size_t depth = queue_.size();
    const double avg = avg_job_seconds_;
    lock.unlock();
    // Hint when a queue slot should plausibly free up: the current backlog
    // worked off at the recent per-job rate across all workers.
    const double eta_ms = (static_cast<double>(depth + 1) * avg * 1e3) /
                          static_cast<double>(opts_.max_active);
    const u32 retry_ms =
        static_cast<u32>(std::clamp(eta_ms, 50.0, 60'000.0));
    reg.counter("serve.shed").add();
    reg.counter("serve.shed." + reason).add();
    keep = write_frame(fd, make_shed(retry_ms, reason)).ok();
    return nullptr;
  };

  if (draining_.load(std::memory_order_acquire)) return shed("draining");
  if (static_cast<int>(queue_.size()) >= opts_.queue_limit)
    return shed("queue-full");

  auto rec = std::make_shared<JobRecord>();
  rec->spec = msg.spec;
  rec->id = id;
  rec->enqueued_at = Clock::now();
  jobs_[id] = rec;
  queue_.push_back(rec);
  update_queue_gauges_locked();
  // Write-ahead, inside the admission lock so per-job record order matches
  // the state machine (no worker can journal a Start before this Admit).
  // An append failure degrades this job to non-durable admission — the
  // daemon keeps serving and the failure is counted, never fatal.
  if (journal_ && !journal_->append_admit(msg.spec, id).ok())
    reg.counter("serve.journal_append_failures").add();
  lock.unlock();
  cv_.notify_all();

  reg.counter("serve.admitted").add();
  keep = write_frame(fd, make_accepted(id, /*already_done=*/false)).ok();
  return rec;
}

Server::RecordPtr Server::handle_attach(int fd, const std::string& job_id,
                                        bool& keep) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    lock.unlock();
    metrics::registry().counter("serve.attach_misses").add();
    keep = write_frame(fd, make_error("unknown job " + job_id)).ok();
    return nullptr;
  }
  RecordPtr rec = it->second;
  const bool done = rec->state == JobRecord::State::Done;
  lock.unlock();
  metrics::registry().counter("serve.attaches").add();
  keep = write_frame(fd, make_accepted(job_id, done)).ok();
  if (!keep) return nullptr;
  return rec;
}

bool Server::stream_job(int fd, const RecordPtr& rec) {
  u64 seen_gen = 0;
  // Stages rec->stages[0, sent) are sent or skipped. The first wake-up
  // starts at the current stage (none for a finished job); from then on
  // every stage the job enters is sent, in order.
  std::optional<size_t> sent;
  for (;;) {
    JobRecord::State state;
    std::vector<std::string> stages;
    JobOutcome outcome;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return rec->gen > seen_gen || stop_conns_.load();
      });
      if (stop_conns_.load() && rec->state != JobRecord::State::Done)
        return false;
      seen_gen = rec->gen;
      state = rec->state;
      const size_t n = rec->stages.size();
      if (!sent) sent = state == JobRecord::State::Done ? n : n - 1;
      stages.assign(rec->stages.begin() + *sent, rec->stages.end());
      sent = n;
      if (state == JobRecord::State::Done) outcome = rec->outcome;
    }
    for (const std::string& stage : stages) {
      if (!write_frame(fd, make_progress(rec->id, stage)).ok()) {
        // Client went away mid-stream. The job is NOT cancelled — the
        // worker finishes it into the registry/store and a later kAttach
        // (or identical resubmit) picks the result up.
        metrics::registry().counter("serve.disconnects").add();
        return false;
      }
    }
    if (state == JobRecord::State::Done) {
      if (!write_frame(fd, make_result(outcome)).ok()) {
        metrics::registry().counter("serve.disconnects").add();
        return false;
      }
      metrics::registry().counter("serve.results_streamed").add();
      return true;
    }
  }
}

// -- worker side -------------------------------------------------------------

void Server::worker_loop() {
  for (;;) {
    RecordPtr rec;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_workers_.load() ||
               (!queue_.empty() && !hold_workers_.load());
      });
      if (stop_workers_.load()) return;
      rec = queue_.front();
      queue_.pop_front();
      rec->state = JobRecord::State::Active;
      rec->stages.emplace_back("starting");
      rec->gen++;
      active_++;
      // Durable BEFORE the work begins: if this process dies mid-job, the
      // unmatched Start is the next incarnation's poison evidence.
      if (journal_ && !journal_->append_start(rec->id).ok())
        metrics::registry().counter("serve.journal_append_failures").add();
      update_queue_gauges_locked();
      metrics::registry().gauge("serve.active").set(active_);
      metrics::registry()
          .histogram("serve.queue_wait_ms")
          .observe(static_cast<u64>(secs_since(rec->enqueued_at) * 1e3));
    }
    cv_.notify_all();
    run_job(rec);
  }
}

void Server::set_stage(const RecordPtr& rec, const char* stage) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec->stages.emplace_back(stage);
    rec->gen++;
  }
  cv_.notify_all();
}

void Server::run_job(const RecordPtr& rec) {
  // The quarantine drill's crash site: the Start record is already durable,
  // so this abort is exactly "worker died in flight" — the next incarnation
  // replays an unmatched Start and counts a dead incarnation.
  if (fault::should_fire(fault::Point::JobCrash)) std::abort();

  const auto t0 = Clock::now();
  const JobSpec& spec = rec->spec;
  JobOutcome out;
  out.job_id = rec->id;

  // Workers must survive anything a request can throw at them: unknown
  // corpus names, mini-C compile errors, bad obfuscation profiles, and the
  // analysis itself all land in the outcome's Status, never on the floor.
  try {
    trace::Span span("serve:" + rec->id, "job");

    image::Image img = core::compile_image(
        spec.program, spec.source, core::profile_by_name(spec.obf, spec.seed),
        engine_.config().opt_level);

    const std::vector<payload::Goal> goals = payload::Goal::by_name(spec.goal);
    if (goals.empty()) throw Error("unknown goal '" + spec.goal + "'");

    // Per-request budget: the engine's configured governor, overridden by
    // any non-zero JobSpec field, then split across the worker slots so one
    // tenant's request cannot starve the others' shares. The store is the
    // server's own (--store), not the engine's.
    core::PipelineOptions popts = core::PipelineOptions::from(engine_.config());
    GovernorOptions& g = popts.governor;
    if (spec.deadline_ms > 0) g.deadline_seconds = spec.deadline_ms / 1e3;
    if (spec.solver_checks > 0) g.max_solver_checks = spec.solver_checks;
    if (spec.sym_steps > 0) g.max_sym_steps = spec.sym_steps;
    if (spec.expr_nodes > 0) g.max_expr_nodes = spec.expr_nodes;
    g = g.split_across(opts_.max_active);
    popts.store_dir = opts_.store_dir;
    popts.on_stage = [this, &rec](const char* stage) {
      set_stage(rec, stage);
    };

    core::Session session(engine_, std::move(img), popts);
    span.set_session(session.id());
    {
      std::lock_guard<std::mutex> lock(mu_);
      rec->session = &session;
    }

    // core::plan_goals is the campaign's own goal loop and digest, so a
    // served job and a campaign job over the same spec agree byte for byte
    // (ServeDaemon.ServedDigestMatchesCampaign checks it; tier1.sh's
    // kill/restart drill compares digests across daemon generations).
    core::JobResult planned;
    core::plan_goals(session, goals, planned);
    for (size_t g = 0; g < goals.size(); ++g)
      out.chains_per_goal.emplace_back(
          planned.goal_names[g], static_cast<u32>(planned.chains_per_goal[g]));

    {
      std::lock_guard<std::mutex> lock(mu_);
      rec->session = nullptr;
    }

    const core::StageReport& rep = session.report();
    const Status worst = rep.worst_status();
    out.status_code = static_cast<u8>(worst.code());
    out.status_msg = worst.message();
    out.digest = planned.result_digest;
    out.warm = (rep.extract_runs.cache_hits + rep.extract_runs.resumes +
                rep.subsume_runs.cache_hits + rep.subsume_runs.resumes +
                rep.plan_runs.cache_hits + rep.plan_runs.resumes) > 0;
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    rec->session = nullptr;
    out.status_code = static_cast<u8>(StatusCode::Internal);
    out.status_msg = e.what();
  }

  out.seconds = secs_since(t0);
  finish_job(rec, std::move(out));
}

void Server::finish_job(const RecordPtr& rec, JobOutcome outcome) {
  metrics::Registry& reg = metrics::registry();
  reg.counter("serve.done").add();
  if (outcome.status_code == static_cast<u8>(StatusCode::Internal))
    reg.counter("serve.failed").add();
  else if (outcome.status_code != static_cast<u8>(StatusCode::Ok))
    reg.counter("serve.degraded").add();
  if (outcome.warm) reg.counter("serve.warm_hits").add();
  reg.histogram("serve.job_ms")
      .observe(static_cast<u64>(outcome.seconds * 1e3));

  {
    std::lock_guard<std::mutex> lock(mu_);
    rec->outcome = std::move(outcome);
    rec->state = JobRecord::State::Done;
    rec->gen++;
    active_--;
    reg.gauge("serve.active").set(active_);
    avg_job_seconds_ =
        0.7 * avg_job_seconds_ + 0.3 * rec->outcome.seconds;
    done_order_.push_back(rec->id);
    while (done_order_.size() > kDoneCap) {
      auto it = jobs_.find(done_order_.front());
      done_order_.pop_front();
      if (it != jobs_.end() && it->second->state == JobRecord::State::Done)
        jobs_.erase(it);
    }
    // Terminal record inside the lock, so a compaction snapshot can never
    // list this job live while its Done lands in a pre-rename file.
    if (journal_ && !journal_->append_done(rec->id,
                                           rec->outcome.status_code,
                                           rec->outcome.digest).ok())
      reg.counter("serve.journal_append_failures").add();
    update_queue_gauges_locked();
    maybe_compact_locked();
  }
  cv_.notify_all();
}

void Server::update_queue_gauges_locked() {
  metrics::registry()
      .gauge("serve.queue_depth")
      .set(static_cast<i64>(queue_.size()));
  // Open (not yet answered) journal obligations: queued + running jobs.
  metrics::registry()
      .gauge("serve.journal_depth")
      .set(static_cast<i64>(queue_.size()) + active_);
}

std::string Server::stats_json() const {
  size_t depth, njobs;
  int active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
    njobs = jobs_.size();
    active = active_;
  }
  const u64 journal_bytes = journal_ ? journal_->size_bytes() : 0;
  std::string j = "{\"serve\": {";
  j += "\"queue_depth\": " + std::to_string(depth);
  j += ", \"active\": " + std::to_string(active);
  j += ", \"jobs\": " + std::to_string(njobs);
  j += ", \"queue_limit\": " + std::to_string(opts_.queue_limit);
  j += ", \"max_active\": " + std::to_string(opts_.max_active);
  j += std::string(", \"draining\": ") + (draining() ? "true" : "false");
  j += ", \"journal_depth\": " + std::to_string(depth + active);
  j += ", \"journal_bytes\": " + std::to_string(journal_bytes);
  j += ", \"quarantined\": " + std::to_string(replay_summary_.quarantined);
  j += "}, \"metrics\": " + metrics::registry().to_json() + "}";
  return j;
}

}  // namespace gp::serve
