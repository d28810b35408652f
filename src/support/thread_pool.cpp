#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "support/config.hpp"
#include "support/metrics.hpp"

namespace gp {

ThreadPool::ThreadPool(int workers) {
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::run_one(std::unique_lock<std::mutex>& lk) {
  if (queue_.empty()) return false;
  Task task = std::move(queue_.front());
  queue_.pop_front();
  lk.unlock();
  static metrics::Counter& tasks = metrics::registry().counter("pool.tasks");
  tasks.add();
  task();
  lk.lock();
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(m_);
  while (true) {
    wake_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (!run_one(lk)) return;  // stopped, and the queue is drained
  }
}

void ThreadPool::run(u64 items,
                     const std::function<void(int lane, u64 item)>& fn,
                     int max_lanes) {
  if (items == 0) return;

  // On this frame, not shared: a lane's last touch of it is the decrement
  // under m_, and run() returns only once every lane has made it.
  struct RunState {
    std::atomic<u64> next{0};
    std::atomic<int> next_lane{0};
    int lanes_left = 0;        // guarded by m_
    std::exception_ptr error;  // guarded by m_
    std::condition_variable done;
  } rs;
  const int lanes = static_cast<int>(std::min<u64>(
      items, static_cast<u64>(std::clamp(max_lanes, 1, workers() + 1))));
  rs.lanes_left = lanes;

  auto lane_body = [this, &rs, &fn, items] {
    const int lane = rs.next_lane.fetch_add(1);
    for (u64 i; (i = rs.next.fetch_add(1)) < items;) {
      try {
        fn(lane, i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m_);
        if (!rs.error) rs.error = std::current_exception();
        // Skip the unclaimed items: a failed run still has to join.
        rs.next.store(items);
      }
    }
    std::lock_guard<std::mutex> lk(m_);
    if (--rs.lanes_left == 0) rs.done.notify_all();
  };

  {
    std::lock_guard<std::mutex> lk(m_);
    for (int i = 1; i < lanes; ++i) queue_.push_back(lane_body);
  }
  for (int i = 1; i < lanes; ++i) wake_cv_.notify_one();
  lane_body();  // the caller is a lane too

  // Run queued tasks (ours or another run's) while waiting; sleep only
  // once the queue is empty, when every remaining lane of ours is running.
  std::unique_lock<std::mutex> lk(m_);
  while (rs.lanes_left > 0)
    if (!run_one(lk)) rs.done.wait(lk);
  lk.unlock();
  if (rs.error) std::rethrow_exception(rs.error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(3, config().threads - 1));
  return pool;
}

int ThreadPool::granted_lanes(int threads) {
  if (threads <= 1) return 1;
  return std::min({threads, kMaxLanes, shared().workers() + 1});
}

}  // namespace gp
