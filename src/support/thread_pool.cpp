#include "support/thread_pool.hpp"

#include <algorithm>

#include "support/config.hpp"
#include "support/metrics.hpp"

namespace gp {

ThreadPool::ThreadPool(int workers) {
  workers = std::max(0, workers);
  for (int i = 0; i < workers; ++i)
    queues_.push_back(std::make_unique<Queue>());
  for (int i = 0; i < workers + 1; ++i)  // +1: external-caller row
    stats_.push_back(std::make_unique<StatsCell>());
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  // The store happens under sleep_m_ so it cannot land between a worker's
  // predicate check and its wait (a lost wakeup that hung the join).
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
    stop_.store(true);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Task t) {
  GP_CHECK(!queues_.empty(), "submit on a worker-less pool");
  const size_t idx = rr_.fetch_add(1) % queues_.size();
  {
    std::lock_guard<std::mutex> lk(queues_[idx]->m);
    queues_[idx]->q.push_back(std::move(t));
  }
  {
    std::lock_guard<std::mutex> lk(sleep_m_);  // see ~ThreadPool
    pending_.fetch_add(1);
  }
  wake_cv_.notify_one();
}

/// Pop from our own deque's back; otherwise steal from the front of the
/// first non-empty victim. `self` is -1 for external (non-worker) callers,
/// who always steal.
bool ThreadPool::try_run_one(int self) {
  Task task;
  bool stolen = false;
  const int n = static_cast<int>(queues_.size());
  if (self >= 0) {
    std::lock_guard<std::mutex> lk(queues_[self]->m);
    if (!queues_[self]->q.empty()) {
      task = std::move(queues_[self]->q.back());
      queues_[self]->q.pop_back();
    }
  }
  if (!task) {
    for (int k = 0; k < n && !task; ++k) {
      const int victim = (self >= 0 ? self + 1 + k : k) % n;
      if (victim == self) continue;
      std::lock_guard<std::mutex> lk(queues_[victim]->m);
      if (!queues_[victim]->q.empty()) {
        task = std::move(queues_[victim]->q.front());
        queues_[victim]->q.pop_front();
        stolen = true;
      }
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1);
  StatsCell& cell =
      *stats_[self >= 0 ? static_cast<size_t>(self) : stats_.size() - 1];
  (stolen ? cell.stolen : cell.run).fetch_add(1, std::memory_order_relaxed);
  {
    static metrics::Counter& tasks =
        metrics::registry().counter("pool.tasks");
    static metrics::Counter& steals =
        metrics::registry().counter("pool.steals");
    tasks.add();
    if (stolen) steals.add();
  }
  task();
  return true;
}

void ThreadPool::worker_loop(int idx) {
  while (true) {
    if (try_run_one(idx)) continue;
    stats_[static_cast<size_t>(idx)]->sleeps.fetch_add(
        1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(sleep_m_);
    wake_cv_.wait(lk, [this] {
      return stop_.load() || pending_.load() > 0;
    });
    if (stop_.load() && pending_.load() == 0) return;
  }
}

void ThreadPool::run(u64 items,
                     const std::function<void(int lane, u64 item)>& fn,
                     int max_lanes) {
  if (items == 0) return;
  max_lanes = std::max(1, max_lanes);

  struct RunState {
    std::atomic<u64> next{0};
    std::atomic<int> lanes_left{0};
    std::atomic<int> next_lane{0};
    std::mutex m;
    std::condition_variable done;
    std::exception_ptr error;
  };
  auto rs = std::make_shared<RunState>();
  const int lanes = static_cast<int>(std::min<u64>(
      items,
      static_cast<u64>(std::min(max_lanes, workers() + 1))));
  rs->lanes_left.store(lanes);

  auto lane_body = [rs, &fn, items] {
    const int lane = rs->next_lane.fetch_add(1);
    for (u64 i; (i = rs->next.fetch_add(1)) < items;) {
      try {
        fn(lane, i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(rs->m);
        if (!rs->error) rs->error = std::current_exception();
        // Drain the remaining items: a failed run still has to join.
        rs->next.store(items);
      }
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lk(rs->m);
      last = rs->lanes_left.fetch_sub(1) == 1;
    }
    if (last) rs->done.notify_all();
  };

  for (int i = 1; i < lanes; ++i) submit(lane_body);
  lane_body();  // the caller is a lane too

  // Help drain queued tasks (ours or another run's) while waiting, so a
  // run() issued from inside a pool task can never deadlock the pool.
  while (rs->lanes_left.load() > 0)
    if (!try_run_one(-1)) break;
  {
    std::unique_lock<std::mutex> lk(rs->m);
    rs->done.wait(lk, [&] { return rs->lanes_left.load() == 0; });
  }
  if (rs->error) std::rethrow_exception(rs->error);
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(stats_.size());
  for (const auto& cell : stats_)
    out.push_back({cell->run.load(std::memory_order_relaxed),
                   cell->stolen.load(std::memory_order_relaxed),
                   cell->sleeps.load(std::memory_order_relaxed)});
  return out;
}

int ThreadPool::env_threads() {
  // Fresh parse so tests that setenv("GP_THREADS") observe the change;
  // Config::from_env already applied the clamp and hardware fallback.
  return Config::from_env().threads;
}

int ThreadPool::resolve(int threads) {
  if (threads <= 0) return env_threads();
  return std::min(threads, 512);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(3, env_threads() - 1));
  return pool;
}

}  // namespace gp
