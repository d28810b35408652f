#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "corpus/corpus.hpp"
#include "minic/minic.hpp"
#include "payload/serialize.hpp"
#include "support/config.hpp"
#include "support/serial.hpp"

namespace perfbench {

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The probe kernel: xorshift, multiply and a data-dependent branch over a
/// 32 KiB table that stays in L1. Returns its own run time.
double probe_kernel() {
  constexpr size_t kWords = 8192;
  constexpr int kSteps = 50'000'000;
  std::vector<gp::u32> mem(kWords, 1);
  gp::u64 x = 0x9e3779b97f4a7c15ULL, acc = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    gp::u32& w = mem[(x ^ acc) & (kWords - 1)];
    acc += (w & 1) ? w * 2654435761u : w >> 3;
    w = static_cast<gp::u32>(acc + static_cast<gp::u64>(i));
  }
  const double s = secs_since(t0);
  static std::atomic<gp::u64> sink{0};
  sink += acc;
  return s;
}

/// One probe: the kernel on every hardware thread at once, like the
/// workloads, which keep all cores busy (a single-thread probe lands on the
/// least loaded core and missed about half of a measured slowdown). The
/// mean of the per-thread times.
double probe_seconds() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> t(n);
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < n; ++i) ts.emplace_back([&t, i] { t[i] = probe_kernel(); });
  for (auto& th : ts) th.join();
  double sum = 0;
  for (const double v : t) sum += v;
  return sum / n;
}

}  // namespace

HostSpeed::HostSpeed() : last_(probe_seconds()) { probes_.push_back(last_); }

double HostSpeed::next_scale() {
  const double p = probe_seconds();
  probes_.push_back(p);
  const double scale = kReferenceProbeSeconds / ((last_ + p) / 2);
  last_ = p;
  return scale;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(rank ? rank - 1 : 0, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

u64 chains_digest(const std::string& goal_name,
                  const std::vector<gp::payload::Chain>& chains) {
  gp::serial::Writer w;
  w.put_str(goal_name);
  for (const auto& rec : gp::payload::encode_chains(chains))
    gp::serial::put_record(w, rec);
  return gp::serial::fnv1a(w.bytes());
}

namespace {

bool commutative(gp::solver::Op op) {
  using gp::solver::Op;
  return op == Op::Add || op == Op::Mul || op == Op::And || op == Op::Or ||
         op == Op::Xor || op == Op::Eq;
}

}  // namespace

u64 pool_digest(const gp::solver::Context& ctx,
                const std::vector<gp::gadget::Record>& pool) {
  // Expressions hash by structure (memoized per node), so the digest does
  // not depend on the order the context interned them in.
  std::unordered_map<gp::solver::ExprRef, u64> memo;
  std::function<u64(gp::solver::ExprRef)> expr = [&](gp::solver::ExprRef e) {
    if (e == gp::solver::kNoExpr) return u64{0};
    if (const auto it = memo.find(e); it != memo.end()) return it->second;
    const gp::solver::Node& n = ctx.node(e);
    gp::serial::Writer w;
    w.put_u8(static_cast<gp::u8>(n.op));
    w.put_u8(n.width);
    w.put_u8(n.aux);
    if (n.op == gp::solver::Op::Const) {
      w.put_u64(n.cval);
    } else if (n.op == gp::solver::Op::Var) {
      w.put_str(ctx.var_name(e));
    } else {
      u64 a = expr(n.a), b = expr(n.b);
      // Commutative operands are ordered by node index, i.e. by history.
      if (commutative(n.op) && a > b) std::swap(a, b);
      w.put_u64(a);
      w.put_u64(b);
      w.put_u64(expr(n.c));
    }
    return memo[e] = gp::serial::fnv1a(w.bytes());
  };
  gp::serial::Writer all;
  for (const gp::gadget::Record& g : pool) {
    gp::serial::Writer w;
    w.put_u64(g.addr);
    w.put_u32(g.len);
    w.put_u32(static_cast<gp::u32>(g.n_insts));
    w.put_u8(static_cast<gp::u8>(g.end));
    w.put_bool(g.has_cond_jump);
    w.put_bool(g.has_direct_jump);
    w.put_u16(g.clobbered);
    w.put_u16(g.controlled);
    w.put_u16(g.settable);
    for (const auto e : g.final_regs) w.put_u64(expr(e));
    for (const auto e : g.precond) w.put_u64(expr(e));
    w.put_u64(expr(g.next_rip));
    w.put_i64(g.stack_delta.value_or(std::numeric_limits<gp::i64>::min()));
    for (const auto& mw : g.writes) {
      w.put_u64(expr(mw.addr));
      w.put_u64(expr(mw.value));
      w.put_u8(mw.width);
    }
    for (const auto& ir : g.ind_reads) {
      w.put_u64(expr(ir.addr));
      w.put_u64(expr(ir.var));
      w.put_u8(ir.width);
    }
    for (const gp::i64 off : g.stack_reads) w.put_i64(off);
    for (const auto& step : g.path) {
      w.put_u64(step.inst.addr);
      w.put_u8(step.inst.len);
      w.put_bool(step.branch_taken);
    }
    w.put_bool(g.aliased_memory);
    gp::serial::put_record(all, w.bytes());
  }
  return gp::serial::fnv1a(all.bytes());
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool validate_chains(const gp::image::Image& img,
                     const std::vector<gp::payload::Chain>& chains,
                     const gp::payload::Goal& goal, u64 reg_seed) {
  const gp::payload::ConcretizeOptions defaults;
  for (size_t i = 0; i < chains.size(); ++i) {
    gp::trace::Span span("bench.validate", "bench");
    if (!gp::payload::validate(img, chains[i], goal, defaults.stack_base,
                               reg_seed * 1000 + i))
      return false;
  }
  return true;
}

gp::image::Image compile_image(const std::string& program,
                               const std::string& profile, u64 obf_seed) {
  auto prog = gp::minic::compile_source(gp::corpus::by_name(program).source);
  gp::obf::obfuscate(prog, gp::core::profile_by_name(profile, obf_seed));
  gp::codegen::Options copts;
  copts.opt = gp::codegen::opt_level_from_int(gp::Config::from_env().opt_level);
  return gp::codegen::compile(prog, copts);
}

std::map<std::string, std::string> read_reference(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key, value;
    if (ss >> key >> value) out[key] = value;
  }
  return out;
}

bool write_reference(const std::string& path,
                     const std::map<std::string, std::string>& entries) {
  std::ofstream out(path);
  for (const auto& [k, v] : entries) out << k << ' ' << v << '\n';
  return static_cast<bool>(out);
}

std::map<std::string, double> registry_counters() {
  std::map<std::string, double> out;
  const gp::metrics::Snapshot s = gp::metrics::registry().snapshot();
  for (const auto& [k, v] : s.counters) out[k] = static_cast<double>(v);
  for (const auto& [k, h] : s.histograms) {
    out[k + ".count"] = static_cast<double>(h.count);
    out[k + ".sum"] = static_cast<double>(h.sum);
  }
  return out;
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<gp::trace::Event>& events) {
  std::map<gp::u32, std::vector<const gp::trace::Event*>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(&e);
  std::map<std::string, SpanTotals> out;
  for (auto& [tid, evs] : by_tid) {
    // Parents first: earlier start, then longer duration.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    struct Open {
      const gp::trace::Event* ev;
      double child_us = 0;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      const std::string name(o.ev->name);
      SpanTotals& t = out[std::string(o.ev->cat) + "/" +
                          name.substr(0, name.find(':'))];
      t.total_s += static_cast<double>(o.ev->dur_us) / 1e6;
      t.self_s += std::max(0.0, static_cast<double>(o.ev->dur_us) - o.child_us) / 1e6;
      t.count++;
    };
    for (const auto* e : evs) {
      while (!stack.empty() &&
             stack.back().ev->ts_us + stack.back().ev->dur_us <= e->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += static_cast<double>(e->dur_us);
      stack.push_back({e});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return out;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The layer a span belongs to, by its name (program spans and the
/// benchmark's own "bench.*" spans around the same calls).
const char* layer_of(const std::string& key) {
  const std::string name = key.substr(key.find('/') + 1);
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"extract", "gadget"},        {"bench.extract", "gadget"},
      {"subsume", "subsume"},       {"bench.subsume", "subsume"},
      {"plan", "planner"},          {"store.", "store"},
      {"serve", "serve"},           {"job", "core"},
      {"backoff", "core"},          {"bench.validate", "emu"},
      {"bench.submit", "client"},   {"bench.wait", "client"},
  };
  for (const auto& [prefix, layer] : kPrefixes)
    if (name.rfind(prefix, 0) == 0) return layer;
  return "other";
}

}  // namespace

void add_layer_metrics(const LayerInputs& in, Report& r) {
  auto c = [&](const char* name) {
    const auto it = in.counters.find(name);
    return it == in.counters.end() ? 0.0 : it->second;
  };
  auto span_s = [&](const char* key) {
    const auto it = in.spans.find(key);
    return it == in.spans.end() ? 0.0 : it->second.total_s;
  };
  // Stage work actually done: "attempt" spans wrap the supervised stage
  // body, so checkpoint hits (serve-mix resumes) count no stage time.
  const double extract_s = span_s("attempt/extract");
  const double subsume_s = span_s("attempt/subsume");
  const double plan_s = span_s("attempt/plan");

  r.add("codegen.compile_s", in.compile_s, "s");
  r.add("codegen.code_kb", in.code_bytes / 1024, "KiB");

  r.add("gadget.extract_s", extract_s, "s");
  r.add("gadget.offsets_per_s", ratio(c("extract.offsets_scanned"), extract_s), "1/s");
  r.add("gadget.yield", ratio(c("extract.gadgets"), c("extract.offsets_scanned")), "frac");
  r.add("x86.decode_attempts", c("decode.attempts"), "count");
  r.add("x86.decode_fail_frac", ratio(c("decode.failures"), c("decode.attempts")), "frac");
  r.add("sym.steps", c("sym.steps"), "count");
  r.add("solver.expr_interned", c("expr.interned"), "count");

  r.add("subsume.minimize_s", subsume_s, "s");
  r.add("subsume.removed_frac", ratio(c("subsume.removed"), c("subsume.input")), "frac");
  r.add("subsume.semantic_removed", c("subsume.removed") - c("subsume.structural_hits"), "count");
  r.add("subsume.budget_units", c("subsume.solver_checks"), "count");
  r.add("subsume.solver_unknown", c("subsume.solver_unknown"), "count");
  r.add("subsume.kept_delta", in.kept_delta, "count");
  r.add("subsume.slowest_binary_s", in.slowest_subsume_s, "s");

  r.add("solver.checks", c("solver.checks"), "count");
  r.add("solver.unknown", c("solver.unknown"), "count");
  r.add("solver.sat_frac", ratio(c("solver.sat"), c("solver.checks")), "frac");
  r.add("solver.cache_hit_frac", ratio(c("solver.cache_hits"), c("solver.checks")), "frac");

  r.add("planner.find_chains_s", plan_s, "s");
  r.add("planner.zero_chain_s", in.zero_chain_s, "s");
  r.add("planner.expansions", c("plan.expansions"), "count");
  r.add("planner.dead_end_frac", ratio(c("plan.dead_ends"), c("plan.expansions")), "frac");
  r.add("planner.index_hits", c("plan.index_hits"), "count");
  r.add("planner.failure_budget_cuts", c("plan.failure_budget_cuts"), "count");
  r.add("payload.concretize_calls", c("plan.concretize_calls"), "count");
  r.add("payload.validated_frac", ratio(c("plan.validated"), c("plan.concretize_calls")), "frac");
  r.add("emu.validate_s", span_s("bench/bench.validate"), "s");

  r.add("core.lane_busy_frac", in.lane_busy_frac, "frac");
  r.add("core.critical_path_s", in.critical_path_s, "s");

  r.add("store.resume_s", in.resume_s, "s");
  r.add("store.bytes_read", c("store.bytes_read"), "bytes");

  r.add("serve.dedupe_p50_ms", in.dedupe_p50_ms, "ms");
  r.add("serve.dedupe_p99_ms", in.dedupe_p99_ms, "ms");
  r.add("serve.resume_p50_ms", in.resume_p50_ms, "ms");
  r.add("serve.resume_p99_ms", in.resume_p99_ms, "ms");
  r.add("serve.queue_wait_ms", in.queue_wait_ms, "ms");
  r.add("serve.journal_appends", c("serve.journal_appends"), "count");
  r.add("serve.dedupe_hits", c("serve.dedup_hits"), "count");
  r.add("serve.shed", c("serve.shed"), "count");

  r.add("pool.steals", c("pool.steals"), "count");
  r.add("trace.overhead_frac",
        ratio(in.wall_s - in.untraced_wall_s, in.untraced_wall_s), "frac");
  r.add("trace.dropped", static_cast<double>(in.dropped), "count");

  // Self time per layer, from the trace of the traced pass.
  std::map<std::string, double> self;
  for (const char* layer : {"gadget", "subsume", "planner", "emu", "core",
                            "store", "serve", "client"})
    self[layer] = 0;
  for (const auto& [key, t] : in.spans) {
    const char* layer = layer_of(key);
    if (self.count(layer)) self[layer] += t.self_s;
  }
  for (const auto& [layer, s] : self) r.add(layer + ".self_s", s, "s");
}

void add_end_to_end(const EndToEnd& e, const Outcome& out,
                    const HostSpeed& speed, Report& r) {
  auto scaled = [](const std::vector<double>& v, const std::vector<double>& k) {
    std::vector<double> o(v.size());
    for (size_t i = 0; i < v.size(); ++i) o[i] = v[i] * k[i];
    return o;
  };
  r.add("setup_s", e.setup_s * e.setup_scale, "s");
  r.add("wall_s", median(scaled(e.wall_s, e.pass_scale)), "s");
  r.add("cpu_s", median(scaled(e.cpu_s, e.pass_scale)), "s");
  r.add("job_p50_s", median(scaled(e.op_s, e.op_scale)), "s");
  r.add("ok_frac", static_cast<double>(out.attempted - out.failed) /
                       static_cast<double>(out.attempted), "frac");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");

  auto list = [](const std::vector<double>& v) {
    std::string j = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", v[i]);
      j += buf;
    }
    return j + "]";
  };
  std::printf("{\"raw\": {\"setup_s\": %.6g, \"wall_s\": %s, \"cpu_s\": %s, "
              "\"job_p50_s\": %.6g, \"probe_s\": %s, \"reference_probe_s\": %g}}\n",
              e.setup_s, list(e.wall_s).c_str(), list(e.cpu_s).c_str(),
              median(e.op_s), list(speed.probes()).c_str(),
              HostSpeed::kReferenceProbeSeconds);
}

void Report::print(bool correct, u64 attempted, u64 failed) const {
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char val[64];
    std::snprintf(val, sizeof val, "%.9g", m.value);
    std::fprintf(stderr, "  %-28s %14s %s\n", m.name.c_str(), val,
                 m.unit.c_str());
    if (i) j += ", ";
    j += "\"" + m.name + "\": {\"value\": " + val + ", \"unit\": \"" + m.unit +
         "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

void print_stamp(const Args& a, int gp_threads, const std::string& lanes_key,
                 int lanes) {
  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"host_nproc\": %ld, \"gp_threads\": %d, \"%s\": %d, "
      "\"build_type\": \"%s\", \"commit\": \"%s\"}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), gp_threads,
      lanes_key.c_str(), lanes, GP_PERFBENCH_BUILD_TYPE, a.commit.c_str());
  std::fflush(stdout);
}

void print_row(const std::string& json_fields) {
  std::printf("{\"row\": {%s}}\n", json_fields.c_str());
}

}  // namespace perfbench
