// gp_perfbench: the repository benchmark's measuring process. One
// invocation runs one workload (obf-plan, surface or serve-mix) in its own
// process, checks every output against the committed reference and prints
// the result object as the last stdout line. perfbench/run.py builds it,
// sets the workload's GP_THREADS and passes the arguments:
//
//   gp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --reference <dir> --work <dir> [--commit <id>]
//                [--write-reference]
//
// Exit codes: 0 all outputs correct, 1 a correctness mismatch (the result
// line still prints, with "correct": false), 2 usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gp_perfbench --workload obf-plan|surface|serve-mix "
               "--seed <n> --seconds <s> --trace 0|1 --reference <dir> "
               "--work <dir> [--commit <id>] [--write-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      a.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--reference") a.reference_dir = v;
    else if (flag == "--work") a.work_dir = v;
    else if (flag == "--commit") a.commit = v;
    else return usage();
  }
  if (a.reference_dir.empty() || a.work_dir.empty() || a.seconds <= 0)
    return usage();

  // Large enough that a traced pass never wraps (checked via dropped()).
  gp::trace::set_ring_capacity(1u << 18);

  perfbench::Report report;
  perfbench::Outcome out;
  if (a.workload == "obf-plan") out = perfbench::run_obf_plan(a, report);
  else if (a.workload == "surface") out = perfbench::run_surface(a, report);
  else if (a.workload == "serve-mix") out = perfbench::run_serve_mix(a, report);
  else return usage();

  if (a.write_reference) return out.correct ? 0 : 1;
  report.print(out.correct, out.attempted, out.failed);
  return out.correct ? 0 : 1;
}
