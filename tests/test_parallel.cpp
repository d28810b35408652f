// Determinism of the parallel pipeline: extraction and subsumption must
// yield the same gadget pool at any thread count. Workers explore offset
// shards in private solver contexts, and the merge replays the nodes the
// shards' records reach into the main one in offset order, so a sharded
// extraction builds the sequential scan's context restricted to those
// nodes. Pools are therefore compared by their store encoding
// (gadget::encode_pool), byte for byte, and once canonicalized (compacted
// into a fresh context, as a Session does) by their refs.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "corpus/corpus.hpp"
#include "gadget/gadget.hpp"
#include "gadget/serialize.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "payload/serialize.hpp"
#include "subsume/subsume.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
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

/// A pool compacted into a fresh context, as a Session canonicalizes it.
struct Canonical {
  solver::Context ctx;
  std::vector<Record> pool;
};

Canonical canonical(const solver::Context& ctx, std::vector<Record> pool) {
  Canonical c{{}, std::move(pool)};
  EXPECT_TRUE(compact_pool(ctx, c.pool, c.ctx));
  return c;
}

/// The canonical pools of two extractions match ref for ref, and their
/// store encodings byte for byte.
void expect_same_pool(const solver::Context& ca, const std::vector<Record>& pa,
                      const solver::Context& cb, const std::vector<Record>& pb,
                      const std::string& label) {
  const Canonical ka = canonical(ca, pa), kb = canonical(cb, pb);
  EXPECT_EQ(ka.ctx.num_nodes(), kb.ctx.num_nodes()) << label;
  EXPECT_EQ(pool_refs(ka.pool), pool_refs(kb.pool)) << label;
  EXPECT_EQ(encode_pool(ca, pa), encode_pool(cb, pb)) << label;
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
  auto p1 = e1.extract(nullptr, /*threads=*/1);
  ASSERT_GT(p1.size(), 100u);

  for (const int threads : {2, 4}) {
    solver::Context cn;
    Extractor en(cn, img);
    auto pn = en.extract(nullptr, threads);

    expect_stats_equal(e1.stats(), en.stats());
    ASSERT_EQ(p1.size(), pn.size()) << "threads=" << threads;
    // The chunk-ordered merge replays the nodes the records reach in the
    // sequential scan's order, so the canonical pools match record for
    // record and byte for byte.
    expect_same_pool(c1, p1, cn, pn, "threads=" + std::to_string(threads));
  }
}

// The merge picks the shard nodes to replay by a structural hash. A
// collision only widens the replay mask by garbage nodes whose operands
// are kept, so replaying a pool's exact mask and a mask widened that way
// must give the same canonical pool byte for byte.
TEST(Parallel, MergeHashCollisionsNeverChangeThePool) {
  using solver::ExprRef;
  using solver::kNoExpr;
  solver::Context src;
  const auto pool = Extractor(src, obfuscated_image()).extract();
  ASSERT_GT(pool.size(), 100u);

  std::vector<bool> exact(src.num_nodes(), false);
  for (const ExprRef r : src.reachable(pool_refs(pool))) exact[r] = true;
  // Every third node no record reaches, if its operands are kept.
  std::vector<bool> widened = exact;
  const auto kept = [&](ExprRef e) { return e == kNoExpr || widened[e]; };
  for (ExprRef r = 0; r < src.num_nodes(); r += 3) {
    const solver::Node& n = src.node(r);
    if (kept(n.a) && kept(n.b) && kept(n.c)) widened[r] = true;
  }

  // Replay a mask into a fresh context and remap the records, as the
  // merge does with each shard.
  const auto replayed = [&](const std::vector<bool>& keep,
                            solver::Context& dst) {
    std::vector<Record> out = pool;
    const std::vector<ExprRef> table = dst.replay(src, keep);
    for (Record& r : out)
      for_each_ref(r, [&](ExprRef& e) {
        if (e != kNoExpr) e = table[e];
      });
    return out;
  };
  solver::Context exact_ctx, widened_ctx;
  const auto exact_pool = replayed(exact, exact_ctx);
  const auto widened_pool = replayed(widened, widened_ctx);
  EXPECT_GT(widened_ctx.num_nodes(), exact_ctx.num_nodes());
  expect_same_pool(exact_ctx, exact_pool, widened_ctx, widened_pool,
                   "widened mask");
  expect_same_pool(src, pool, widened_ctx, widened_pool, "sequential");
}

TEST(Parallel, MinimizeMatchesSequential) {
  const image::Image& img = obfuscated_image();
  solver::Context ctx;
  Extractor ex(ctx, img);
  auto pool = ex.extract(nullptr, /*threads=*/1);
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
    EXPECT_EQ(pool_refs(k1), pool_refs(kn)) << "threads=" << threads;
    EXPECT_EQ(encode_pool(ctx, k1), encode_pool(ctx, kn))
        << "threads=" << threads;
  }
}

// Sharded extraction once interned nodes in a different order than the
// sequential scan, and commutative operands follow ref order. On
// hash_table/none that turned `rax0*rcx0` into `rcx0*rax0` at 2+ threads,
// and subsumption then hit the solver's conflict budget on two pairs the
// sequential pool settles in milliseconds. Pools must be byte-identical at
// any thread count, and that binary's winnow must decide every pair.
TEST(Parallel, CorpusPoolsAreThreadCountInvariant) {
  const std::pair<const char*, const char*> binaries[] = {
      {"hash_table", "none"},
      {"fibonacci", "llvm-obf"},
      {"state_machine", "virtualize"},
  };
  for (const auto& [program, profile] : binaries) {
    const std::string label = std::string(program) + "/" + profile;
    auto prog = minic::compile_source(corpus::by_name(program).source);
    obf::obfuscate(prog, core::profile_by_name(profile, /*seed=*/7));
    const image::Image img = codegen::compile(prog);

    solver::Context c1, c4;
    Extractor e1(c1, img), e4(c4, img);
    const auto p1 = e1.extract(nullptr, /*threads=*/1);
    const auto p4 = e4.extract(nullptr, /*threads=*/4);
    ASSERT_FALSE(p1.empty()) << label;
    expect_same_pool(c1, p1, c4, p4, label);
    if (label != "hash_table/none") continue;

    // The winnow runs on the canonical pool, as in a Session.
    Canonical k1 = canonical(c1, p1), k4 = canonical(c4, p4);
    subsume::Stats s1, s4;
    const auto m1 = subsume::minimize(k1.ctx, k1.pool, &s1,
                                      /*max_solver_checks=*/20'000,
                                      /*threads=*/1);
    const auto m4 = subsume::minimize(k4.ctx, k4.pool, &s4,
                                      /*max_solver_checks=*/20'000,
                                      /*threads=*/4);
    ASSERT_FALSE(s1.budget_exhausted);  // so the 4-lane winnow is exact too
    EXPECT_EQ(s4.solver_unknown, 0u);
    EXPECT_EQ(encode_pool(k1.ctx, m1), encode_pool(k4.ctx, m4));
  }
}

// The pool grants a stage call at most workers() + 1 lanes. A larger
// request is capped before it sizes per-lane scratch and the shard count,
// so it scans the shards of a request for exactly the granted lanes and
// extracts the same pool as a 4-lane request.
TEST(Parallel, LaneRequestsAreCappedAtWhatThePoolGrants) {
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Counter& merged =
      metrics::registry().counter("extract.merge_nodes");
  const int granted = ThreadPool::shared().workers() + 1;
  EXPECT_EQ(ThreadPool::granted_lanes(ThreadPool::kMaxLanes), granted);
  EXPECT_EQ(ThreadPool::granted_lanes(1), 1);

  const image::Image& img = obfuscated_image();
  struct Run {
    solver::Context ctx;
    std::vector<Record> pool;
    u64 merge_nodes = 0;
  };
  const auto run = [&](int threads) {
    Run r;
    const u64 before = merged.value();
    r.pool = Extractor(r.ctx, img).extract(nullptr, threads);
    r.merge_nodes = merged.value() - before;
    return r;
  };
  Run four = run(4);
  Run most = run(ThreadPool::kMaxLanes);
  const Run exact = run(granted);
  ASSERT_GT(four.pool.size(), 100u);
  EXPECT_EQ(encode_pool(four.ctx, four.pool), encode_pool(most.ctx, most.pool));
  EXPECT_GT(most.merge_nodes, 0u);
  EXPECT_EQ(most.merge_nodes, exact.merge_nodes);

  subsume::Stats s4, smost;
  const auto k4 = subsume::minimize(four.ctx, four.pool, &s4,
                                    /*max_solver_checks=*/100'000'000, 4);
  const auto kmost =
      subsume::minimize(most.ctx, most.pool, &smost,
                        /*max_solver_checks=*/100'000'000,
                        ThreadPool::kMaxLanes);
  ASSERT_FALSE(s4.budget_exhausted);
  EXPECT_EQ(encode_pool(four.ctx, k4), encode_pool(most.ctx, kmost));
  metrics::set_enabled(metrics_was);
}

// The DAG walks keep their scratch on the walking thread's stack, so lanes
// may walk one shared const context at once (the TSan leg runs this).
TEST(Parallel, SharedContextWalksAreRaceFree) {
  using solver::ExprRef;
  solver::Context ctx;
  const auto pool = Extractor(ctx, obfuscated_image()).extract(nullptr, 1);
  std::vector<ExprRef> roots;
  for (const ExprRef r : pool_refs(pool))
    if (r != solver::kNoExpr) roots.push_back(r);
  ASSERT_GT(roots.size(), 100u);

  struct Walk {
    std::vector<ExprRef> vars;
    size_t size = 0;
    u64 value = 0;
    bool operator==(const Walk&) const = default;
  };
  const solver::Context& shared = ctx;
  const auto walk = [&](ExprRef r) {
    Walk w;
    w.vars = shared.variables(r);
    w.size = shared.dag_size(r);
    std::unordered_map<ExprRef, u64> env;
    for (const ExprRef v : w.vars) env[v] = u64{v} * 0x9e3779b97f4a7c15ULL;
    w.value = shared.eval(r, env);
    return w;
  };
  std::vector<Walk> want;
  for (const ExprRef r : roots) want.push_back(walk(r));

  constexpr int kLanes = 4;
  std::vector<size_t> mismatches(kLanes);
  ThreadPool::shared().run(
      kLanes,
      [&](int, u64 item) {
        for (size_t i = 0; i < roots.size(); ++i)
          if (!(walk(roots[i]) == want[i])) ++mismatches[item];
      },
      kLanes);
  EXPECT_EQ(mismatches, std::vector<size_t>(kLanes, 0));
}

TEST(Parallel, CancellationPropagatesToWorkers) {
  const image::Image& img = obfuscated_image();
  Governor gov;
  gov.cancel();  // cancelled before any worker starts

  solver::Context ctx;
  Extractor ex(ctx, img);
  auto pool = ex.extract(&gov, /*threads=*/4);

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
  auto pool = ex.extract(&gov, /*threads=*/4);
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
  auto pool = ex.extract(nullptr, /*threads=*/2);
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
