// Quickstart: compile a small program, obfuscate it, and let Gadget-Planner
// build a validated execve chain from the obfuscated binary.
//
//   $ ./quickstart
#include <cstdio>

#include "codegen/codegen.hpp"
#include "core/session.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "support/str.hpp"

int main() {
  using namespace gp;

  const char* source = R"(
    int scale(int x, int k) { return x * k + 3; }
    int clamp(int v, int lo, int hi) { if (v < lo) return lo; if (v > hi) return hi; return v; }
    int a[16];
    int main() {
      int i = 0;
      while (i < 16) { a[i] = clamp(scale(i, 37), 5, 900) & 0xff; i = i + 1; }
      int j = 0; int best = 0;
      while (j < 16) { if (a[j] > best) best = a[j]; j = j + 1; }
      out(best);
      return best;
    })";

  // 1. Compile and obfuscate (Obfuscator-LLVM profile: substitution +
  //    bogus control flow + flattening).
  auto program = minic::compile_source(source);
  obf::obfuscate(program, obf::Options::llvm_obf(7));
  const image::Image img = codegen::compile(program);
  std::printf("obfuscated binary: %zu bytes of code, %zu bytes of data\n",
              img.code().size(), img.data().size());

  // 2. Extract + subsume + index gadgets. The session takes its budgets
  //    and store directory (GP_* knobs) from the engine's Config.
  core::Engine& engine = core::Engine::shared();
  core::Session session(engine, img,
                        core::PipelineOptions::from(engine.config()));
  session.prepare();
  std::printf("gadget pool: %llu raw -> %llu after subsumption\n",
              (unsigned long long)session.report().pool_raw,
              (unsigned long long)session.report().pool_minimized);

  // 3. Plan chains for execve("/bin/sh", 0, 0).
  auto chains = session.find_chains(payload::Goal::execve());
  std::printf("validated execve chains: %zu\n", chains.size());

  // With GP_STORE_DIR set, stage outputs are checkpointed: a second run (or
  // a run resumed after a crash) serves them from the store.
  const auto& store = session.report().store;
  if (store.hits + store.resumes + store.puts > 0)
    std::printf("checkpoints: %llu served (%llu from an earlier process), "
                "%llu written\n",
                (unsigned long long)(store.hits + store.resumes),
                (unsigned long long)store.resumes,
                (unsigned long long)store.puts);
  std::printf("\n");

  for (size_t i = 0; i < chains.size(); ++i) {
    const auto& c = chains[i];
    std::printf("chain %zu: %zu gadgets, %d instructions, entry %s\n", i,
                c.gadgets.size(), c.total_insts, hex(c.entry).c_str());
    std::printf("  gadget mix: %d ret / %d indirect-jump / %d cond-jump\n",
                c.ret_gadgets, c.ij_gadgets, c.cj_gadgets);
    std::printf("  payload: %zu bytes\n", c.payload.size());
    // Every chain was already emulator-validated; prove it once more.
    const bool ok = payload::validate(img, c, payload::Goal::execve(),
                                      image::kStackTop - 0x2000, 0xabc);
    std::printf("  re-validation: %s\n", ok ? "PASS" : "FAIL");
  }
  return chains.empty() ? 1 : 0;
}
