#include "support/fault.hpp"

namespace gp::fault {

namespace {

constexpr size_t kPoints = static_cast<size_t>(Point::kCount);

struct State {
  std::atomic<bool> enabled{false};
  // Rates are only written under configure() (callers synchronize runs and
  // configuration); thresholds are pre-scaled to u64 so the hot path is an
  // integer compare.
  std::array<std::atomic<u64>, kPoints> thresholds{};
  std::array<std::atomic<u64>, kPoints> counters{};
  std::atomic<u64> seed{1};
};

State& state() {
  static State s;
  return s;
}

/// splitmix64: decision = hash(seed, point, ordinal) scaled to [0, 2^64).
u64 mix(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

u64 rate_to_threshold(double rate) {
  if (rate <= 0) return 0;
  if (rate >= 1) return ~u64{0};
  return static_cast<u64>(rate * 18446744073709551615.0);
}

}  // namespace

const char* point_name(Point p) {
  switch (p) {
    case Point::Decode: return "decode";
    case Point::Solver: return "solver";
    case Point::Emu: return "emu";
    case Point::Alloc: return "alloc";
    case Point::ShortWrite: return "write";
    case Point::ReadCorrupt: return "read";
    case Point::RenameFail: return "rename";
    case Point::Accept: return "accept";
    case Point::SockRead: return "sock_read";
    case Point::SockWrite: return "sock_write";
    case Point::JournalAppend: return "journal_append";
    case Point::JournalReplay: return "journal_replay";
    case Point::JobCrash: return "job_crash";
    case Point::kCount: break;
  }
  return "<bad>";
}

std::string valid_point_names() {
  std::string out;
  for (size_t i = 0; i < kPoints; ++i) {
    if (i) out += ", ";
    out += point_name(static_cast<Point>(i));
  }
  return out;
}

Result<Spec> parse_spec(const std::string& text) {
  Spec spec;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos)
      return Status::internal("GP_FAULT item missing '=': " + item);
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    char* end = nullptr;
    if (key == "seed") {
      spec.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end)
        return Status::internal("GP_FAULT bad seed: " + val);
      continue;
    }
    const double rate = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end || rate < 0 || rate > 1)
      return Status::internal("GP_FAULT bad rate for " + key + ": " + val);
    bool matched = false;
    for (size_t i = 0; i < kPoints; ++i) {
      if (key == point_name(static_cast<Point>(i))) {
        spec.rates[i] = rate;
        matched = true;
        break;
      }
    }
    if (!matched)
      return Status::internal("GP_FAULT unknown point '" + key +
                              "' (valid points: " + valid_point_names() +
                              ")");
  }
  return spec;
}

void configure(const Spec& spec) {
  State& s = state();
  // Publish rates before flipping enabled so a concurrent should_fire never
  // mixes old thresholds with the new flag.
  s.seed.store(spec.seed, std::memory_order_relaxed);
  for (size_t i = 0; i < kPoints; ++i) {
    s.thresholds[i].store(rate_to_threshold(spec.rates[i]),
                          std::memory_order_relaxed);
    s.counters[i].store(0, std::memory_order_relaxed);
  }
  s.enabled.store(spec.any(), std::memory_order_release);
}

void disable() { configure(Spec{}); }

bool enabled() {
  return state().enabled.load(std::memory_order_acquire);
}

bool should_fire(Point point) {
  State& s = state();
  if (!s.enabled.load(std::memory_order_acquire)) return false;
  const size_t i = static_cast<size_t>(point);
  const u64 threshold = s.thresholds[i].load(std::memory_order_relaxed);
  if (threshold == 0) return false;
  const u64 trial = s.counters[i].fetch_add(1, std::memory_order_relaxed);
  const u64 seed = s.seed.load(std::memory_order_relaxed);
  const u64 draw = mix(seed ^ mix(static_cast<u64>(i) << 32 ^ trial));
  return draw < threshold;
}

u64 trials(Point point) {
  return state()
      .counters[static_cast<size_t>(point)]
      .load(std::memory_order_relaxed);
}

}  // namespace gp::fault
