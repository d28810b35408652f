// Security report for one program: how each obfuscation method changes its
// size, gadget population, and exploitable surface — the practical takeaway
// of the paper ("users must cautiously adopt these obfuscations").
#include <cstdio>

#include "codegen/codegen.hpp"
#include "core/session.hpp"
#include "corpus/corpus.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"

int main(int argc, char** argv) {
  using namespace gp;
  const std::string name = argc > 1 ? argv[1] : "hash_table";
  const auto& target = corpus::by_name(name);
  std::printf("obfuscation risk report for '%s'\n\n", name.c_str());
  std::printf("%-16s %10s %10s %10s %10s %8s\n", "method", "code-B",
              "gadgets", "ret-gdgts", "ind-gdgts", "execve");
  for (int i = 0; i < 70; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);

  struct Method {
    const char* label;
    obf::Options options;
  };
  const Method methods[] = {
      {"(original)", obf::Options::none()},
      {"substitution", {.substitution = true, .seed = 5}},
      {"bogus-cf", {.bogus_cf = true, .seed = 5}},
      {"flattening", {.flatten = true, .seed = 5}},
      {"encode-data", {.encode_data = true, .seed = 5}},
      {"virtualization", {.virtualize = true, .seed = 5}},
      {"llvm-obf", obf::Options::llvm_obf(5)},
      {"tigress", obf::Options::tigress(5)},
  };

  u64 ckpt_served = 0, ckpt_written = 0;
  for (const auto& m : methods) {
    auto prog = minic::compile_source(target.source);
    obf::obfuscate(prog, m.options);
    const auto img = codegen::compile(prog);

    core::Engine& engine = core::Engine::shared();
    auto popts = core::PipelineOptions::from(engine.config());
    popts.plan.max_chains = 8;
    popts.plan.time_budget_seconds = 15;
    core::Session session(engine, img, popts);
    session.prepare();

    u64 ret_g = 0, ind_g = 0;
    for (const auto& g : session.library().all()) {
      if (g.end == gadget::EndKind::Ret) ++ret_g;
      if (g.end == gadget::EndKind::IndJmp ||
          g.end == gadget::EndKind::IndCall)
        ++ind_g;
    }
    const auto chains = session.find_chains(payload::Goal::execve());
    std::printf("%-16s %10zu %10zu %10llu %10llu %8zu\n", m.label,
                img.code().size(), session.library().size(),
                (unsigned long long)ret_g, (unsigned long long)ind_g,
                chains.size());
    ckpt_served += session.report().store.hits + session.report().store.resumes;
    ckpt_written += session.report().store.puts;
  }
  std::printf("\nhigher execve counts = more exploitable attack surface\n");
  if (ckpt_served + ckpt_written > 0)
    std::printf("checkpoints (GP_STORE_DIR): %llu stage outputs served, "
                "%llu written\n",
                (unsigned long long)ckpt_served,
                (unsigned long long)ckpt_written);
  return 0;
}
