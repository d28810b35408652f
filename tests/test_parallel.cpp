// Determinism of the parallel pipeline: extraction and subsumption must
// yield the same gadget pool at any thread count. Workers explore offset
// shards in private solver contexts, so equality across runs is checked
// with a canonical cross-context expression form (commutative operand
// order in an interned DAG depends on context-local ref numbering).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "corpus/corpus.hpp"
#include "gadget/gadget.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "payload/serialize.hpp"
#include "subsume/subsume.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace gp::gadget {
namespace {

const char* kSource = R"(
int scale(int x, int k) { return x * k + 3; }
int clamp(int v, int lo, int hi) { if (v < lo) return lo; if (v > hi) return hi; return v; }
int a[16];
int main() {
  int i = 0;
  while (i < 16) { a[i] = clamp(scale(i, 37), 5, 900) & 0xff; i = i + 1; }
  int j = 0; int best = 0;
  while (j < 16) { if (a[j] > best) best = a[j]; j = j + 1; }
  out(best); return best;
})";

const image::Image& obfuscated_image() {
  static const image::Image img = [] {
    auto prog = minic::compile_source(kSource);
    obf::obfuscate(prog, obf::Options::llvm_obf(7));
    return codegen::compile(prog);
  }();
  return img;
}

using Memo = std::unordered_map<solver::ExprRef, std::string>;

/// Canonical string form of an expression, independent of the owning
/// context's ref numbering: commutative operand lists are re-sorted by
/// canonical form and constants always print their width.
std::string canon(const solver::Context& ctx, solver::ExprRef e, Memo& memo) {
  if (e == solver::kNoExpr) return "-";
  auto it = memo.find(e);
  if (it != memo.end()) return it->second;
  const solver::Node& n = ctx.node(e);
  std::string s;
  switch (n.op) {
    case solver::Op::Const:
      s = "c" + std::to_string(n.cval) + "w" + std::to_string(n.width);
      break;
    case solver::Op::Var:
      s = "v" + ctx.var_name(e) + "w" + std::to_string(n.width);
      break;
    default: {
      std::vector<std::string> ops;
      if (n.a != solver::kNoExpr) ops.push_back(canon(ctx, n.a, memo));
      if (n.b != solver::kNoExpr) ops.push_back(canon(ctx, n.b, memo));
      if (n.c != solver::kNoExpr) ops.push_back(canon(ctx, n.c, memo));
      switch (n.op) {
        case solver::Op::Add:
        case solver::Op::Mul:
        case solver::Op::And:
        case solver::Op::Or:
        case solver::Op::Xor:
        case solver::Op::Eq:
          std::sort(ops.begin(), ops.end());
          break;
        default:
          break;
      }
      s = "(" + std::to_string(static_cast<int>(n.op)) + "w" +
          std::to_string(n.width) + "x" + std::to_string(n.aux);
      for (const std::string& o : ops) s += " " + o;
      s += ")";
    }
  }
  memo.emplace(e, s);
  return s;
}

/// Full content signature of a record (context-independent).
std::string sig(const solver::Context& ctx, const Record& r, Memo& memo) {
  std::string s = std::to_string(r.addr) + "|" + std::to_string(r.len) + "|" +
                  std::to_string(r.n_insts) + "|" +
                  std::to_string(static_cast<int>(r.end)) + "|" +
                  std::to_string(r.has_cond_jump) +
                  std::to_string(r.has_direct_jump) +
                  std::to_string(r.aliased_memory) + "|" +
                  std::to_string(r.clobbered) + "," +
                  std::to_string(r.controlled) + "," +
                  std::to_string(r.settable) + "|" +
                  (r.stack_delta ? std::to_string(*r.stack_delta) : "-");
  s += "|regs";
  for (const solver::ExprRef e : r.final_regs) s += ";" + canon(ctx, e, memo);
  s += "|pre";
  for (const solver::ExprRef e : r.precond) s += ";" + canon(ctx, e, memo);
  s += "|rip;" + canon(ctx, r.next_rip, memo);
  s += "|wr";
  for (const auto& w : r.writes)
    s += ";" + canon(ctx, w.addr, memo) + ":" + canon(ctx, w.value, memo) +
         ":" + std::to_string(w.width);
  s += "|ind";
  for (const auto& ir : r.ind_reads)
    s += ";" + canon(ctx, ir.addr, memo) + ":" + canon(ctx, ir.var, memo);
  s += "|stk";
  for (const i64 off : r.stack_reads) s += ";" + std::to_string(off);
  s += "|path" + std::to_string(r.path.size());
  return s;
}

std::vector<std::string> sigs(const solver::Context& ctx,
                              const std::vector<Record>& pool) {
  Memo memo;
  std::vector<std::string> out;
  out.reserve(pool.size());
  for (const Record& r : pool) out.push_back(sig(ctx, r, memo));
  return out;
}

/// Every counter in the stage's table must match.
template <class S>
void expect_stats_equal(const S& a, const S& b) {
  for (const metrics::CounterField<S>& f : S::kCounters)
    EXPECT_EQ(a.*f.field, b.*f.field) << f.name;
}

TEST(Parallel, ExtractionMatchesSequential) {
  const image::Image& img = obfuscated_image();

  solver::Context c1;
  Extractor e1(c1, img);
  ExtractOptions o1;
  o1.threads = 1;
  auto p1 = e1.extract(o1);
  ASSERT_GT(p1.size(), 100u);

  for (const int threads : {2, 4}) {
    solver::Context cn;
    Extractor en(cn, img);
    ExtractOptions on;
    on.threads = threads;
    auto pn = en.extract(on);

    expect_stats_equal(e1.stats(), en.stats());
    ASSERT_EQ(p1.size(), pn.size()) << "threads=" << threads;
    // The chunk-ordered merge reproduces the sequential scan order exactly,
    // so the pools match record-for-record, not just as sets.
    EXPECT_EQ(sigs(c1, p1), sigs(cn, pn)) << "threads=" << threads;
  }
}

TEST(Parallel, MinimizeMatchesSequential) {
  const image::Image& img = obfuscated_image();
  solver::Context ctx;
  Extractor ex(ctx, img);
  ExtractOptions opts;
  opts.threads = 1;
  auto pool = ex.extract(opts);
  ASSERT_GT(pool.size(), 100u);

  subsume::Stats s1;
  auto k1 = subsume::minimize(ctx, pool, &s1, /*max_solver_checks=*/100'000'000,
                              /*threads=*/1);
  ASSERT_FALSE(s1.budget_exhausted);  // precondition for exact equality

  for (const int threads : {2, 4}) {
    subsume::Stats sn;
    auto kn = subsume::minimize(ctx, pool, &sn, /*max_solver_checks=*/100'000'000,
                                threads);
    expect_stats_equal(s1, sn);
    EXPECT_FALSE(sn.budget_exhausted);
    ASSERT_EQ(k1.size(), kn.size()) << "threads=" << threads;
    EXPECT_EQ(sigs(ctx, k1), sigs(ctx, kn)) << "threads=" << threads;
  }
}

TEST(Parallel, CancellationPropagatesToWorkers) {
  const image::Image& img = obfuscated_image();
  Governor gov;
  gov.cancel();  // cancelled before any worker starts

  solver::Context ctx;
  Extractor ex(ctx, img);
  ExtractOptions opts;
  opts.threads = 4;
  opts.governor = &gov;
  auto pool = ex.extract(opts);

  EXPECT_TRUE(pool.empty());
  const ExtractStats& st = ex.stats();
  EXPECT_EQ(st.offsets_scanned, 0u);
  EXPECT_EQ(st.offsets_skipped, img.code().size());
  EXPECT_EQ(st.status.code(), StatusCode::Cancelled);
}

TEST(Parallel, MidRunCancellationStopsPromptly) {
  const image::Image& img = obfuscated_image();
  Governor gov;

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    gov.cancel();
  });

  solver::Context ctx;
  Extractor ex(ctx, img);
  ExtractOptions opts;
  opts.threads = 4;
  opts.governor = &gov;
  auto pool = ex.extract(opts);
  canceller.join();

  // Whether the cancel landed mid-scan or after completion, every offset is
  // accounted for exactly once and the partial pool is self-consistent.
  const ExtractStats& st = ex.stats();
  EXPECT_EQ(st.offsets_scanned + st.offsets_skipped, img.code().size());
  EXPECT_EQ(st.gadgets, pool.size());
  if (st.offsets_skipped > 0)
    EXPECT_EQ(st.status.code(), StatusCode::Cancelled);
}

TEST(Parallel, MinimizeObservesCancellation) {
  const image::Image& img = obfuscated_image();
  solver::Context ctx;
  Extractor ex(ctx, img);
  ExtractOptions opts;
  opts.threads = 2;
  auto pool = ex.extract(opts);
  ASSERT_GT(pool.size(), 100u);

  Governor gov;
  gov.cancel();
  subsume::Stats st;
  auto kept = subsume::minimize(ctx, pool, &st, /*max_solver_checks=*/100'000,
                                /*threads=*/4, &gov);
  // Cancellation degrades to structural-only subsumption: no solver work,
  // but the result is still a valid (if less minimized) pool.
  EXPECT_EQ(st.solver_checks, 0u);
  EXPECT_EQ(st.status.code(), StatusCode::Cancelled);
  EXPECT_LE(kept.size(), pool.size());
  EXPECT_GT(kept.size(), 0u);
}

// The multi-tenant contract: N concurrent lazily-staged Sessions over
// distinct images on one Engine produce byte-identical chains to N
// sequential eagerly-prepared ones. Counted caps only — a wall-clock
// budget would make the cut timing-dependent and the comparison
// meaningless.
TEST(Parallel, ConcurrentSessionsMatchSequentialFacade) {
  const char* names[] = {"bubble_sort", "gcd_lcm", "bit_tricks"};
  std::vector<image::Image> imgs;
  for (const char* name : names) {
    auto prog = minic::compile_source(corpus::by_name(name).source);
    obf::obfuscate(prog, obf::Options::llvm_obf(7));
    imgs.push_back(codegen::compile(prog));
  }
  core::PipelineOptions popts;
  popts.plan.max_chains = 2;
  const auto goal = payload::Goal::execve();

  // Sequential reference: prepare() up front, one image at a time.
  std::vector<std::vector<std::vector<u8>>> ref;
  for (const auto& img : imgs) {
    core::Session gp(core::Engine::shared(), img, popts);
    gp.prepare();
    ref.push_back(payload::encode_chains(gp.find_chains(goal)));
  }

  // All sessions at once against the shared engine.
  std::vector<std::vector<std::vector<u8>>> got(imgs.size());
  std::vector<std::thread> drivers;
  for (size_t i = 0; i < imgs.size(); ++i)
    drivers.emplace_back([&, i] {
      core::Session session(core::Engine::shared(), imgs[i], popts);
      got[i] = payload::encode_chains(session.find_chains(goal));
    });
  for (auto& t : drivers) t.join();

  for (size_t i = 0; i < imgs.size(); ++i) {
    EXPECT_FALSE(ref[i].empty()) << names[i];
    EXPECT_EQ(ref[i], got[i]) << names[i];
  }
}

// Campaign result digests must not depend on the concurrency level.
TEST(Parallel, CampaignConcurrencyInvariantDigests) {
  std::vector<core::Job> jobs;
  for (const char* name : {"bubble_sort", "state_machine"}) {
    core::Job job;
    job.program = name;
    job.obf = obf::Options::llvm_obf(7);
    job.goals = {payload::Goal::execve()};
    jobs.push_back(std::move(job));
  }

  auto digests = [&](int concurrency) {
    core::Campaign::Options copts;
    copts.concurrency = concurrency;
    copts.pipeline.plan.max_chains = 2;
    const auto summary =
        core::Campaign(core::Engine::shared(), copts).run(jobs);
    EXPECT_EQ(summary.jobs_failed, 0);
    std::vector<u64> out;
    for (const auto& r : summary.results) out.push_back(r.result_digest);
    return out;
  };

  const auto sequential = digests(1);
  const auto concurrent = digests(static_cast<int>(jobs.size()));
  EXPECT_EQ(sequential, concurrent);
}

TEST(Parallel, EnvKnobDrivesPipeline) {
  const image::Image& img = obfuscated_image();

  solver::Context c1;
  Extractor e1(c1, img);
  ExtractOptions o1;
  o1.threads = 1;
  auto p1 = e1.extract(o1);

  // threads = 0 defers to GP_THREADS.
  setenv("GP_THREADS", "3", 1);
  solver::Context ce;
  Extractor ee(ce, img);
  auto pe = ee.extract({});
  unsetenv("GP_THREADS");

  expect_stats_equal(e1.stats(), ee.stats());
  ASSERT_EQ(p1.size(), pe.size());
  EXPECT_EQ(sigs(c1, p1), sigs(ce, pe));
}

TEST(Parallel, MetricsAndTraceTotalsAreExactUnderContention) {
  // The observability layer's whole claim is "sum over threads ==
  // sequential": counters are thread-sharded and spans go to per-thread
  // rings, so hammering them from many threads must lose nothing. This is
  // also the tsan drill for the ring's two-flag drain handshake —
  // snapshot() runs concurrently with the writers below.
  const bool metrics_was = metrics::enabled();
  const bool trace_was = trace::enabled();
  metrics::set_enabled(true);
  trace::set_enabled(true);

  metrics::Counter& counter =
      metrics::registry().counter("test.parallel.hammer");
  metrics::Histogram& hist =
      metrics::registry().histogram("test.parallel.hist");
  counter.reset();
  hist.reset();
  const u64 spans_before = trace::recorded();

  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 5000;
  auto hammer = [](int t) {
    for (u64 i = 0; i < kPerThread; ++i) {
      metrics::registry().counter("test.parallel.hammer").add();
      metrics::registry().histogram("test.parallel.hist").observe(i & 0xff);
      if (i % 64 == 0) {
        trace::Span span("hammer", "test", static_cast<u64>(t));
      }
    }
  };

  // Phase 1 — exactness: writers only, no concurrent drain. Every add,
  // observe and span must land.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(hammer, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.value(), static_cast<u64>(kThreads) * kPerThread);
  EXPECT_EQ(hist.count(), static_cast<u64>(kThreads) * kPerThread);
  const u64 spans_per_thread = (kPerThread + 63) / 64;  // ceil(5000/64)
  EXPECT_EQ(trace::recorded() - spans_before,
            static_cast<u64>(kThreads) * spans_per_thread);

  // Phase 2 — the tsan drill for the ring drain handshake: snapshot()
  // races the writers. A drain pauses recording, so spans started in that
  // window are deliberately dropped (never torn); metrics don't pause, so
  // counter totals stay exact even here.
  counter.reset();
  threads.clear();
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(hammer, t);
  for (int i = 0; i < 16; ++i) (void)trace::snapshot();
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), static_cast<u64>(kThreads) * kPerThread);

  counter.reset();
  hist.reset();
  metrics::set_enabled(metrics_was);
  trace::set_enabled(trace_was);
}

}  // namespace
}  // namespace gp::gadget
