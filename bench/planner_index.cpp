// Planner index ablation: the plan stage with the postcondition-indexed
// gadget store + nogood learning (GP_PLAN_INDEX=1, the default) versus the
// linear reference path, on the same extracted pools. Prints per-program
// plan seconds for both modes, the speedup, and the search counters that
// explain it (expansions, dead ends, nogood hits) — and hard-fails if the
// two modes disagree on a single chain byte, because the index is required
// to be a pure accelerator.
//
// Each mode runs in its own solver context over its own (deterministic,
// content-identical) extraction, mirroring how the tier-1 harness compares
// GP_PLAN_INDEX=0/1 across separate processes: chain content is allowed to
// depend on solver-context history, so sharing one context between the
// modes would measure that history, not the index.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "codegen/codegen.hpp"
#include "gadget/gadget.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "planner/planner.hpp"
#include "subsume/subsume.hpp"

namespace gp {
namespace {

constexpr u64 kSeed = 5;  // the campaign default, so pools match tier-1

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  std::vector<payload::Chain> chains;
  planner::Stats stats;
  double seconds = 0;
};

ModeResult run_mode(const image::Image& img, bool indexed) {
  solver::Context ctx;
  gadget::Extractor ex(ctx, img);
  auto pool = ex.extract({});
  pool = subsume::minimize(ctx, pool);
  const gadget::Library lib(std::move(pool));

  planner::Planner p(ctx, lib, img);
  planner::Options opts;
  opts.use_index = indexed;
  ModeResult r;
  const double t0 = now_s();
  r.chains = p.plan(payload::Goal::execve(), opts);
  r.seconds = now_s() - t0;
  r.stats = p.stats();
  return r;
}

int run() {
  std::printf("%-14s %9s %9s %7s %10s %10s %9s %7s\n", "program",
              "linear_s", "index_s", "speedup", "expansions", "dead_ends",
              "nogoods", "chains");
  double lin_total = 0, idx_total = 0;
  for (const auto& prog : bench::bench_programs()) {
    auto p = minic::compile_source(prog.source);
    obf::obfuscate(p, obf::Options::llvm_obf(kSeed));
    const image::Image img = codegen::compile(p);

    const ModeResult linear = run_mode(img, false);
    const ModeResult indexed = run_mode(img, true);

    // Equivalence gate: byte-identical chains or the ablation is invalid.
    bool same = linear.chains.size() == indexed.chains.size();
    for (size_t i = 0; same && i < linear.chains.size(); ++i)
      same = linear.chains[i].gadgets == indexed.chains[i].gadgets &&
             linear.chains[i].payload == indexed.chains[i].payload;
    if (!same) {
      std::fprintf(stderr,
                   "%s: indexed chains diverge from linear (%zu vs %zu)\n",
                   prog.name.c_str(), indexed.chains.size(),
                   linear.chains.size());
      return 1;
    }

    lin_total += linear.seconds;
    idx_total += indexed.seconds;
    std::printf("%-14s %9.3f %9.3f %6.1fx %10llu %10llu %9llu %7zu\n",
                prog.name.c_str(), linear.seconds, indexed.seconds,
                linear.seconds / std::max(indexed.seconds, 1e-9),
                static_cast<unsigned long long>(indexed.stats.expansions),
                static_cast<unsigned long long>(indexed.stats.dead_ends),
                static_cast<unsigned long long>(indexed.stats.nogood_hits),
                indexed.chains.size());
  }
  std::printf("%-14s %9.3f %9.3f %6.1fx\n", "TOTAL", lin_total, idx_total,
              lin_total / std::max(idx_total, 1e-9));
  return 0;
}

}  // namespace
}  // namespace gp

int main() { return gp::run(); }
