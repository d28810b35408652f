// The paper's Fig. 6 scenario on the SPEC-like suite: run Gadget-Planner and
// the baselines on the mcf-like program (original and obfuscated) and show a
// chain the baselines cannot build — one that leans on conditional-jump or
// register-transfer gadgets.
#include <cstdio>

#include "baselines/baselines.hpp"
#include "codegen/codegen.hpp"
#include "core/session.hpp"
#include "corpus/corpus.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "support/str.hpp"

int main() {
  using namespace gp;

  // Sweep the SPEC-like suite; report every program, and show the chain
  // detail for the first obfuscated build where Gadget-Planner succeeds.
  bool shown_detail = false;
  for (const auto& target : corpus::spec())
  for (const bool obfuscate : {false, true}) {
    auto program = minic::compile_source(target.source);
    if (obfuscate) obf::obfuscate(program, obf::Options::llvm_obf(429));
    const image::Image img = codegen::compile(program);
    std::printf("=== %s (%s), %zu bytes ===\n", target.name.c_str(),
                obfuscate ? "LLVM-Obf" : "original", img.code().size());

    core::Engine& engine = core::Engine::shared();
    auto popts = core::PipelineOptions::from(engine.config());
    popts.plan.max_chains = 6;
    popts.plan.time_budget_seconds = 30;
    core::Session session(engine, img, popts);
    session.prepare();

    const auto goal = payload::Goal::execve();
    auto rg = baselines::rop_gadget(img, goal);
    auto an = baselines::angrop(session.ctx(), session.library(), img, goal);
    auto sg =
        baselines::sgc(session.ctx(), session.library(), img, goal, 2, 10);
    auto chains = session.find_chains(goal);

    std::printf("  ROPGadget: %llu gadgets, %zu chains\n",
                (unsigned long long)rg.gadgets_total, rg.chains.size());
    std::printf("  Angrop:    %llu gadgets, %zu chains\n",
                (unsigned long long)an.gadgets_total, an.chains.size());
    std::printf("  SGC:       %llu gadgets, %zu chains\n",
                (unsigned long long)sg.gadgets_total, sg.chains.size());
    std::printf("  Gadget-Planner: %zu gadgets, %zu chains\n",
                session.library().size(), chains.size());

    // Show the most interesting chain: prefer one using CJ/IJ gadgets.
    if (shown_detail) {
      std::printf("\n");
      continue;
    }
    const payload::Chain* best = nullptr;
    for (const auto& c : chains)
      if (!best || c.cj_gadgets + c.ij_gadgets >
                       best->cj_gadgets + best->ij_gadgets)
        best = &c;
    if (best) {
      std::printf("\n  chain (%d ret / %d ij / %d cj gadgets):\n",
                  best->ret_gadgets, best->ij_gadgets, best->cj_gadgets);
      for (const u32 gi : best->gadgets) {
        const auto& g = session.library()[gi];
        std::printf("    @%s:", hex(g.addr).c_str());
        for (const auto& s : g.path)
          std::printf(" %s;", x86::to_string(s.inst).c_str());
        std::printf("\n");
      }
      const bool ok = payload::validate(img, *best, goal,
                                        image::kStackTop - 0x2000, 0x5eed);
      std::printf("  validation: %s\n", ok ? "PASS" : "FAIL");
      shown_detail = true;
    }
    std::printf("\n");
  }
  return 0;
}
