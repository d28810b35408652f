// Obfuscation passes over the CFG IR — the reproduction's stand-ins for
// Obfuscator-LLVM and Tigress (Sec. II-A of the paper):
//
//   substitution   instruction substitution: add/sub/xor/and/or rewritten
//                  into equivalent longer forms (identities proven valid in
//                  tests/test_solver.cpp);
//   bogus_cf       bogus control flow guarded by the always-true opaque
//                  predicate (x*x + x) % 2 == 0, with never-executed junk
//                  blocks that decode into gadget-rich machine code;
//   flatten        control-flow flattening through a switch dispatcher
//                  (compiles to an indirect jump through a data-section
//                  table);
//   encode_data    literal encoding: constants split into xor/add pairs with
//                  random keys;
//   virtualize     translation to a custom 16-byte-per-instruction stack
//                  bytecode, executed by a per-function interpreter whose
//                  dispatch is a computed switch — the jump-heavy structure
//                  the paper blames for virtualization's gadget explosion.
//
// Paper profiles: LLVM-Obf = substitution + bogus_cf + flatten;
//                 Tigress  = all five.
// Pass order: substitution, encode_data, virtualize, bogus_cf, flatten —
// so bogus CF and flattening also harden the emitted VM interpreter.
#pragma once

#include "cfg/cfg.hpp"
#include "support/rng.hpp"

namespace gp::obf {

struct Options {
  bool substitution = false;
  bool bogus_cf = false;
  bool flatten = false;
  bool encode_data = false;
  bool virtualize = false;
  u64 seed = 1;

  static Options llvm_obf(u64 seed = 1) {
    return {.substitution = true, .bogus_cf = true, .flatten = true,
            .seed = seed};
  }
  static Options tigress(u64 seed = 1) {
    return {.substitution = true, .bogus_cf = true, .flatten = true,
            .encode_data = true, .virtualize = true, .seed = seed};
  }
  static Options none() { return {}; }
  std::string name() const;
};

/// Apply the selected passes in canonical order. The result passes
/// cfg::verify and is semantically equivalent to the input (property-tested
/// end-to-end through the emulator).
void obfuscate(cfg::Program& prog, const Options& opts);

// Individual passes (exposed for the per-obfuscation experiment, Fig. 5).
// obfuscate() runs one substitution round and instruments a block with
// bogus control flow at probability 0.5 (kSubstitutionRounds and kBogusProb
// in passes.cpp).
void pass_substitution(cfg::Program& prog, Rng& rng, int rounds);
void pass_bogus_cf(cfg::Program& prog, Rng& rng, double prob);
void pass_flatten(cfg::Program& prog, Rng& rng);
void pass_encode_data(cfg::Program& prog, Rng& rng);
void pass_virtualize(cfg::Program& prog, Rng& rng);

}  // namespace gp::obf
