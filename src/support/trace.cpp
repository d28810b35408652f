#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "support/config.hpp"
#include "support/serial.hpp"
#include "support/str.hpp"

namespace gp::trace {

namespace {

u64 now_us() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Single-writer ring. `count` is the total ever written (monotonic, the
/// slot index is count % capacity); `busy` brackets each write so drains
/// can wait out an in-flight slot store.
struct Ring {
  explicit Ring(u32 capacity, u32 tid_) : slots(capacity), tid(tid_) {}
  std::vector<Event> slots;
  std::atomic<u64> count{0};
  std::atomic<bool> busy{false};
  u32 tid;
};

struct Collector {
  std::mutex mu;  // guards rings registration and drains
  std::vector<std::shared_ptr<Ring>> rings;
  std::atomic<u32> next_tid{1};
  std::atomic<u64> recorded{0};
  std::atomic<u64> dropped{0};
  std::atomic<u32> ring_capacity{0};  // 0 = take GP_TRACE_BUF on first ring
};

Collector& collector() {
  static Collector* c = new Collector();  // leaked: worker threads may
  return *c;                              // record during late shutdown
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{gp::config().trace};
  return flag;
}

u32 ring_capacity() {
  Collector& c = collector();
  u32 cap = c.ring_capacity.load(std::memory_order_relaxed);
  if (cap == 0) {
    cap = gp::config().trace_buf;
    c.ring_capacity.store(cap, std::memory_order_relaxed);
  }
  return std::max<u32>(cap, 16);
}

Ring& local_ring() {
  thread_local const std::shared_ptr<Ring> ring = [] {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    auto r = std::make_shared<Ring>(
        ring_capacity(), c.next_tid.fetch_add(1, std::memory_order_relaxed));
    c.rings.push_back(r);
    return r;
  }();
  return *ring;
}

/// Wait until no ring has a write in flight. Caller must already have
/// disabled recording (seq_cst) and hold the collector mutex; the two-flag
/// handshake guarantees every writer either observed disabled (and wrote
/// nothing) or finishes the slot before we read it.
void quiesce_locked(Collector& c) {
  for (const auto& ring : c.rings)
    while (ring->busy.load(std::memory_order_seq_cst))
      std::this_thread::yield();
}

std::vector<Event> snapshot_impl(bool clear) {
  Collector& c = collector();
  const bool was = enabled();
  set_enabled(false);
  std::vector<Event> out;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    quiesce_locked(c);
    for (const auto& ring : c.rings) {
      const u64 total = ring->count.load(std::memory_order_acquire);
      const u64 cap = ring->slots.size();
      const u64 n = std::min(total, cap);
      for (u64 i = total - n; i < total; ++i)
        out.push_back(ring->slots[i % cap]);
      if (clear) ring->count.store(0, std::memory_order_release);
    }
    if (clear) {
      c.recorded.store(0, std::memory_order_relaxed);
      c.dropped.store(0, std::memory_order_relaxed);
    }
  }
  set_enabled(was);
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

void copy_field(char* dst, size_t cap, const char* src) {
  std::strncpy(dst, src ? src : "", cap - 1);
  dst[cap - 1] = '\0';
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_seq_cst);
}

void set_ring_capacity(u32 events) {
  collector().ring_capacity.store(std::max<u32>(events, 16),
                                  std::memory_order_relaxed);
}

void record(const Event& e) {
  Ring& r = local_ring();
  r.busy.store(true, std::memory_order_seq_cst);
  if (!enabled_flag().load(std::memory_order_seq_cst)) {
    // A drain is (or just was) in progress; drop rather than race it.
    r.busy.store(false, std::memory_order_relaxed);
    return;
  }
  const u64 c = r.count.load(std::memory_order_relaxed);
  const u64 cap = r.slots.size();
  Event& slot = r.slots[c % cap];
  slot = e;
  slot.tid = r.tid;
  r.count.store(c + 1, std::memory_order_release);
  r.busy.store(false, std::memory_order_release);
  collector().recorded.fetch_add(1, std::memory_order_relaxed);
  if (c >= cap) collector().dropped.fetch_add(1, std::memory_order_relaxed);
}

u64 recorded() { return collector().recorded.load(std::memory_order_relaxed); }
u64 dropped() { return collector().dropped.load(std::memory_order_relaxed); }

std::vector<Event> snapshot() { return snapshot_impl(/*clear=*/false); }

void reset() { (void)snapshot_impl(/*clear=*/true); }

Status export_chrome_json(const std::string& path) {
  const std::vector<Event> events = snapshot();
  u64 base = ~u64{0};
  for (const Event& e : events) base = std::min(base, e.ts_us);
  if (events.empty()) base = 0;

  std::string j = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    j += "{\"name\": \"" + json_escape(e.name) + "\", \"cat\": \"" +
         json_escape(e.cat) + "\", \"ph\": \"X\", \"ts\": " +
         std::to_string(e.ts_us - base) + ", \"dur\": " +
         std::to_string(e.dur_us) + ", \"pid\": 1, \"tid\": " +
         std::to_string(e.tid) + ", \"args\": {\"session\": " +
         std::to_string(e.session) + "}}";
    j += (i + 1 < events.size()) ? ",\n" : "\n";
  }
  j += "]}\n";
  return serial::write_file_atomic(path,
                                   std::vector<u8>(j.begin(), j.end()));
}

Span::Span(const char* name, const char* cat, u64 session) {
  if (!enabled()) return;
  armed_ = true;
  copy_field(ev_.name, sizeof ev_.name, name);
  copy_field(ev_.cat, sizeof ev_.cat, cat);
  ev_.session = session;
  ev_.ts_us = now_us();
}

Span::~Span() {
  if (!armed_ || !enabled()) return;
  ev_.dur_us = now_us() - ev_.ts_us;
  record(ev_);
}

}  // namespace gp::trace
