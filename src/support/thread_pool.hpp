// Thread pool shared by the gadget pipeline's parallel stages (extraction
// shards, subsumption buckets, campaign lanes).
//
// Design: N worker threads take lane tasks from one FIFO. One mutex guards
// the queue and the stop flag; one condition variable wakes the workers.
// `run()` is the only user-facing entry point: it executes `items` work
// items with bounded parallelism, the calling thread participating as one
// of the lanes, and it rethrows the first exception any item raised. A
// run() queues at most `max_lanes - 1` tasks, each of which claims items
// from a shared counter, so the queue sees a few tasks per run() — there is
// no per-item task traffic to spread across per-worker queues.
//
// Thread-count policy (the GP_THREADS knob):
//  - shared() sizes the process-wide pool once, from the gp::config()
//    snapshot's `threads`;
//  - the lanes one stage call may use are a parameter of that call: a
//    Session passes its Engine's Config::threads, and the stage caps it at
//    what shared() can grant (granted_lanes) before it sizes per-lane
//    scratch or its shard count;
//  - callers with a lane count of 1 must take their sequential path and
//    never touch the pool — that is what restores the exact single-threaded
//    pipeline.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/common.hpp"

namespace gp {

class ThreadPool {
 public:
  /// Spawns `workers` background threads (0 is valid: run() then executes
  /// everything on the calling thread).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The most lanes one stage call uses (GP_THREADS clamps to it too).
  static constexpr int kMaxLanes = 512;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Execute `fn(lane, item)` for every item in [0, items). At most
  /// `max_lanes` items run concurrently (the caller counts as one lane);
  /// lane ids are dense in [0, lanes) so callers can keep per-lane scratch
  /// state (e.g. a cloned solver context) without locking. Items are
  /// claimed dynamically from a shared counter, so uneven item costs
  /// balance automatically. Blocks until every item completed, running
  /// queued tasks (its own or another run()'s) while it waits, so a run()
  /// issued from inside an item cannot deadlock the pool. Rethrows the
  /// first exception thrown by any item; the unclaimed items are skipped.
  void run(u64 items, const std::function<void(int lane, u64 item)>& fn,
           int max_lanes);

  /// The process-wide pool, sized once from gp::config().threads. Sized
  /// generously (at least 3 workers even on small hosts) so explicit lane
  /// requests from tests keep real parallelism; an idle worker costs only
  /// a sleeping thread.
  static ThreadPool& shared();

  /// The lanes a stage call asking shared() for `threads` lanes gets:
  /// at most kMaxLanes and shared().workers() + 1, all run() grants. A
  /// request for one lane (or fewer) is 1 and leaves the pool untouched.
  static int granted_lanes(int threads);

 private:
  using Task = std::function<void()>;

  /// Runs the oldest queued task, if any. `lk` holds m_ on entry and on
  /// return; it is released while the task runs.
  bool run_one(std::unique_lock<std::mutex>& lk);
  void worker_loop();

  std::mutex m_;  // guards queue_ and stop_
  std::condition_variable wake_cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace gp
