// Degraded-mode corpus run: the pipeline under an aggressive resource
// governor, alone and combined with deterministic fault injection
// (GP_FAULT-style specs at several seeds). Reports what each configuration
// cut (skipped offsets, cut paths, UNKNOWN solver answers, planner deadline
// cuts) and — the robustness claim — that every chain that still comes out
// re-validates in a clean emulator with injection disabled.
//
// Sessions run on a private one-lane engine, whatever GP_THREADS says: the
// fault harness numbers each point's trials with one process-wide counter,
// so on several lanes extraction and subsumption reach the fault points in
// scheduling order and the faulted rows would differ from run to run. On
// one lane every row is reproducible.
#include "bench_util.hpp"
#include "support/fault.hpp"

int main() {
  using namespace gp;

  struct Config {
    const char* label;
    bool governed;
    const char* fault_spec;  // nullptr: no injection
    u64 fault_seed;
  };
  const Config configs[] = {
      {"ungoverned", false, nullptr, 0},
      {"governed (aggressive)", true, nullptr, 0},
      {"governed + faults s=11", true,
       "decode=0.002,solver=0.05,emu=0.0005,alloc=0.0002", 11},
      {"governed + faults s=22", true,
       "decode=0.002,solver=0.05,emu=0.0005,alloc=0.0002", 22},
      {"governed + faults s=33", true,
       "decode=0.002,solver=0.05,emu=0.0005,alloc=0.0002", 33},
  };

  gp::Config one_lane = core::Engine::shared().config();
  one_lane.threads = 1;
  core::Engine engine(one_lane);

  const auto programs = bench::bench_programs();
  std::printf("Robustness — governed/faulted pipeline over %zu obfuscated "
              "programs (all goals)\n",
              programs.size());
  std::printf("%-24s %7s %7s %7s %8s %7s %7s %7s\n", "configuration", "pool",
              "chains", "valid", "skip", "cut", "unk", "dcut");
  bench::hr(82);

  for (const auto& cfg : configs) {
    u64 pool = 0, skipped = 0, paths_cut = 0, unknown = 0, deadline_cuts = 0;
    int chains_total = 0, valid_total = 0;
    for (const auto& program : programs) {
      const auto img =
          core::compile_image(program.name, program.source,
                              obf::Options::llvm_obf(7),
                              bench::bench_opt_level());

      std::optional<fault::ScopedSpec> scoped;
      if (cfg.fault_spec) {
        fault::Spec spec = fault::parse_spec(cfg.fault_spec).value();
        spec.seed = cfg.fault_seed;
        scoped.emplace(spec);
      }

      core::PipelineOptions popts =
          core::PipelineOptions::from(engine.config());
      if (cfg.governed) {
        popts.governor.deadline_seconds = 20.0;
        popts.governor.max_solver_checks = 3'000;
        popts.governor.max_sym_steps = 3'000'000;
        popts.governor.max_expr_nodes = 6'000'000;
      }
      popts.plan.max_chains = 4;
      // Sessions stay sequential here: the fault scope is process-global,
      // so each program's injected run must not overlap another's.
      core::Session gp(engine, img, popts);
      gp.prepare();
      pool += gp.library().size();
      skipped += gp.extract_stats().offsets_skipped;
      paths_cut += gp.extract_stats().paths_cut;
      unknown += gp.subsume_stats().solver_unknown;

      std::vector<std::pair<payload::Chain, payload::Goal>> found;
      for (const auto& goal : payload::Goal::all())
        for (auto& c : gp.find_chains(goal)) found.emplace_back(c, goal);
      deadline_cuts += gp.report().plan.deadline_cuts;
      chains_total += static_cast<int>(found.size());

      // The payoff: with injection off, every surviving chain still proves
      // out end-to-end in a fresh emulator.
      scoped.reset();
      for (const auto& [chain, goal] : found)
        valid_total += payload::validate(img, chain, goal, payload::kStackBase,
                                         0xabcdefULL ^ cfg.fault_seed);
    }
    std::printf("%-24s %7llu %7d %7d %8llu %7llu %7llu %7llu\n", cfg.label,
                (unsigned long long)pool, chains_total, valid_total,
                (unsigned long long)skipped, (unsigned long long)paths_cut,
                (unsigned long long)unknown,
                (unsigned long long)deadline_cuts);
  }
  std::printf("\n(expected: valid == chains in every row — degradation "
              "shrinks the pool and chain count, never emits a chain that "
              "fails clean validation)\n");
  return 0;
}
