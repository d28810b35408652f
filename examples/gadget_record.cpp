// The paper's Table II/III, live: extract the conditional-jump gadget of
// Fig. 4(b) and print its record — length, location, jump type, clobbered
// and controlled registers, and the pre-/post-conditions produced by
// symbolic execution.
#include <cstdio>

#include "gadget/gadget.hpp"
#include "subsume/subsume.hpp"
#include "support/str.hpp"
#include "x86/encoder.hpp"

int main() {
  using namespace gp;
  using x86::Cond;
  using x86::Mnemonic;
  using x86::Reg;

  // Fig. 4(b): mov rdi, rax; cmp rdx, rbx; jnz trap; pop rax; ret
  x86::Assembler a;
  auto trap = a.new_label();
  a.mov(Reg::RDI, Reg::RAX);
  a.alu(Mnemonic::CMP, Reg::RDX, Reg::RBX);
  a.jcc(Cond::NE, trap);
  a.pop(Reg::RAX);
  a.ret();
  a.bind(trap);
  a.int3();
  image::Image img(a.finish(), {}, image::kCodeBase);

  solver::Context ctx;
  gadget::Extractor extractor(ctx, img);
  auto pool = extractor.extract();
  std::printf("extracted %zu gadget records from %zu bytes\n\n", pool.size(),
              img.code().size());

  // Find the full-length conditional variant starting at the first byte.
  const gadget::Record* record = nullptr;
  for (const auto& r : pool)
    if (r.addr == image::kCodeBase && r.has_cond_jump) record = &r;
  if (!record) {
    std::printf("conditional gadget not found\n");
    return 1;
  }

  std::printf("record (paper Table II):\n");
  std::printf("  len       %u bytes\n", record->len);
  std::printf("  location  %s\n", hex(record->addr).c_str());
  std::printf("  jmp-type  %s (crosses a conditional jump)\n",
              gadget::end_kind_name(record->end));

  auto mask_to_names = [](gadget::RegMask m) {
    std::string s;
    for (int i = 0; i < x86::kNumRegs; ++i)
      if (m & gadget::reg_bit(static_cast<Reg>(i)))
        s += std::string(s.empty() ? "" : ", ") +
             x86::reg_name(static_cast<Reg>(i));
    return s;
  };
  std::printf("  clob-reg  %s\n", mask_to_names(record->clobbered).c_str());
  std::printf("  ctrl-reg  %s\n", mask_to_names(record->controlled).c_str());

  std::printf("  pre-cond  ");
  for (size_t i = 0; i < record->precond.size(); ++i)
    std::printf("%s%s", i ? " && " : "",
                ctx.to_string(record->precond[i]).c_str());
  std::printf("\n");

  std::printf("  post-cond rdi := %s\n",
              ctx.to_string(
                      record->final_regs[static_cast<int>(Reg::RDI)])
                  .c_str());
  std::printf("            rax := %s\n",
              ctx.to_string(
                      record->final_regs[static_cast<int>(Reg::RAX)])
                  .c_str());
  std::printf("            rsp := %s\n",
              ctx.to_string(
                      record->final_regs[static_cast<int>(Reg::RSP)])
                  .c_str());
  std::printf("            rip := %s\n", ctx.to_string(record->next_rip).c_str());

  std::printf("\ninstruction path:\n");
  for (const auto& s : record->path)
    std::printf("  %s%s\n", x86::to_string(s.inst).c_str(),
                s.inst.mnemonic == Mnemonic::JCC
                    ? (s.branch_taken ? "   ; taken" : "   ; not taken")
                    : "");

  // Subsumption demo (Sec. IV-C): the unconditional `pop rax; ret` variant
  // subsumes this gadget's rax-setting capability under a looser
  // pre-condition.
  x86::Assembler b;
  b.pop(Reg::RAX);
  b.ret();
  image::Image img2(b.finish(), {}, image::kCodeBase);
  gadget::Extractor ex2(ctx, img2);
  auto pool2 = ex2.extract();
  solver::Solver solver(ctx);
  for (const auto& g1 : pool2) {
    if (g1.addr != image::kCodeBase) continue;
    // `pop rax; ret` has an empty (always-true) pre-condition, which is a
    // superset of the conditional gadget's "rdx == rbx" — eq. (1) holds for
    // the rax-setting capability.
    solver::ExprRef pre2 = ctx.t();
    for (const auto c : record->precond) pre2 = ctx.band(pre2, c);
    std::printf("\nsubsumption (eq. 1) against plain `pop rax; ret`:\n");
    // Each claim is proven by refutation: its negation is UNSAT.
    const bool implied = solver.check(std::vector{pre2, ctx.bnot(ctx.t())}) ==
                         solver::SatResult::Unsat;
    std::printf("  pre_2 -> pre_1 (true):   %s\n", implied ? "holds" : "fails");
    const bool same_rax =
        solver.check(std::vector{
            ctx.ne(g1.final_regs[static_cast<int>(Reg::RAX)],
                   record->final_regs[static_cast<int>(Reg::RAX)])}) ==
        solver::SatResult::Unsat;
    std::printf("  rax post-states equal:   %s\n", same_rax ? "yes" : "no");
  }
  return 0;
}
