// surface: Session extract() + subsume() only (no goals), one binary at a
// time with GP_THREADS=4, over the 12 corpus programs x {none, llvm-obf,
// tigress, virtualize}.
//
// This is the paper's attack-surface measurement: gadget counts per
// obfuscation against the unobfuscated baseline. It is the only workload
// that runs parallel extraction shards and parallel subsumption lanes, and
// the planner does no work in it, so planner changes should not move it.
// The workload seed permutes the binary order; the images are fixed.
//
// Checked outside the timed window: each binary's raw pool digest against
// the committed GP_THREADS=1 reference (extraction output is defined to be
// the same at any thread count). The minimized pools are NOT gated: the
// parallel subsumption budget makes them vary from run to run, which is
// reported as subsume.kept_delta.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "corpus/corpus.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr u64 kObfSeed = 7;
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
const char* const kProfiles[] = {"none", "llvm-obf", "tigress", "virtualize"};

struct Binary {
  std::string program;
  std::string profile;
  gp::image::Image img;
  std::string label() const { return program + "/" + profile; }
};

/// Fingerprint of a session's extraction, comparable between the timed
/// session and the checking one.
std::string extract_fingerprint(const gp::core::Session& s) {
  const auto& st = s.extract_stats();
  return std::to_string(st.offsets_scanned) + ":" +
         std::to_string(st.decode_failures) + ":" + std::to_string(st.gadgets) +
         ":" + std::to_string(st.with_cond_jump) + ":" +
         std::to_string(st.with_direct_jump) + ":" +
         std::to_string(s.report().pool_raw);
}

/// Digest of the raw pool as the subsumption stage receives it: a session
/// with the winnow switched off keeps exactly that pool as its library.
std::string raw_pool_digest(gp::core::Engine& engine, const Binary& b,
                            std::string* fingerprint) {
  gp::core::PipelineOptions popts;
  popts.run_subsumption = false;
  gp::core::Session s(engine, b.img, popts);
  const auto& lib = s.library();
  *fingerprint = extract_fingerprint(s);
  return hex(pool_digest(s.ctx(), lib.all()));
}

}  // namespace

Outcome run_surface(const Args& a, Report& r) {
  const int threads = gp::config().threads;
  print_stamp(a, threads, "lanes", 1);

  std::vector<Binary> bins;
  for (const auto& p : gp::corpus::benchmark())
    for (const char* profile : kProfiles) bins.push_back({p.name, profile, {}});
  gp::Rng rng(a.seed);
  for (size_t i = bins.size(); i > 1; --i)
    std::swap(bins[i - 1], bins[rng.below(i)]);

  HostSpeed speed;
  EndToEnd e2e;
  double compile_s = 0;
  e2e.setup_s = median_seconds(kSetupReps, kSetupSeconds, [&] {
    gp::core::Engine probe(gp::Config::from_env());
    const auto t0 = Clock::now();
    for (auto& b : bins) b.img = compile_image(b.program, b.profile, kObfSeed);
    compile_s = secs_since(t0);
  });
  e2e.setup_scale = speed.next_scale();
  double code_bytes = 0;
  for (const auto& b : bins) code_bytes += static_cast<double>(b.img.code().size());

  gp::core::Engine engine(gp::Config::from_env());
  const std::string ref_path = a.reference_dir + "/surface.txt";
  if (a.write_reference) {
    // Run with GP_THREADS=1: the sequential extraction and subsumption.
    std::map<std::string, std::string> ref;
    for (const auto& b : bins) {
      std::string fp;
      ref["raw." + b.label()] = raw_pool_digest(engine, b, &fp);
      gp::core::Session s(engine, b.img);
      s.prepare();
      ref["kept." + b.label()] = std::to_string(s.report().pool_minimized);
    }
    std::printf("wrote %s\n", ref_path.c_str());
    return {write_reference(ref_path, ref), bins.size(), 0};
  }
  const auto ref = read_reference(ref_path);
  if (ref.empty()) {
    std::fprintf(stderr, "surface: no reference at %s\n", ref_path.c_str());
    return {false, 1, 1};
  }

  struct Row {
    double extract_s = 0, subsume_s = 0;
    gp::u64 raw = 0, kept = 0, unknown = 0;
    std::string fingerprint;
  };
  Outcome out;
  std::vector<Row> rows(bins.size());
  std::map<std::string, double> counters;
  std::vector<gp::trace::Event> events;
  double untraced_wall = 0, traced_wall = 0;
  const auto run0 = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = a.trace && pass == 1;
    gp::metrics::registry().reset();
    gp::trace::reset();
    gp::trace::set_enabled(traced);
    double wall = 0, cpu = 0;
    for (size_t i = 0; i < bins.size(); ++i) {
      Row& row = rows[i];
      gp::core::Session s(engine, bins[i].img);
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      {
        gp::trace::Span span("bench.extract:" + bins[i].label(), "bench");
        (void)s.extract();
      }
      const auto t1 = Clock::now();
      {
        gp::trace::Span span("bench.subsume:" + bins[i].label(), "bench");
        (void)s.subsume();
      }
      row.extract_s = std::chrono::duration<double>(t1 - t0).count();
      row.subsume_s = secs_since(t1);
      cpu += cpu_seconds() - c0;
      wall += row.extract_s + row.subsume_s;
      row.raw = s.report().pool_raw;
      row.kept = s.report().pool_minimized;
      row.unknown = s.subsume_stats().solver_unknown;
      row.fingerprint = extract_fingerprint(s);
      if (!s.report().worst_status().ok()) row.fingerprint += ":degraded";
    }
    const double scale = speed.next_scale();
    if (traced) {
      counters = registry_counters();
      events = gp::trace::snapshot();
    }
    gp::trace::set_enabled(false);
    if (a.trace) {
      (traced ? traced_wall : untraced_wall) = wall * scale;
      if (traced) break;
      continue;
    }
    e2e.wall_s.push_back(wall);
    e2e.cpu_s.push_back(cpu);
    e2e.pass_scale.push_back(scale);
    for (const Row& row : rows) {
      e2e.op_s.push_back(row.extract_s + row.subsume_s);
      e2e.op_scale.push_back(scale);
    }
    if (secs_since(run0) >= a.seconds) break;
  }

  // Outside the timed window: every binary's raw pool against the
  // reference, and the timed session's extraction against the checked one.
  double kept_delta = 0;
  for (size_t i = 0; i < bins.size(); ++i) {
    const std::string label = bins[i].label();
    std::string fp;
    const std::string digest = raw_pool_digest(engine, bins[i], &fp);
    const auto want = ref.find("raw." + label);
    const bool ok = want != ref.end() && want->second == digest &&
                    fp == rows[i].fingerprint;
    out.attempted++;
    if (!ok) {
      out.failed++;
      std::fprintf(stderr, "surface: %s raw pool %s (%s) vs reference %s (%s)\n",
                   label.c_str(), digest.c_str(), fp.c_str(),
                   want == ref.end() ? "none" : want->second.c_str(),
                   rows[i].fingerprint.c_str());
    }
    const auto kept = ref.find("kept." + label);
    if (kept != ref.end())
      kept_delta += std::fabs(static_cast<double>(rows[i].kept) -
                              std::strtod(kept->second.c_str(), nullptr));
  }
  out.correct = out.failed == 0;

  if (!a.trace) {
    add_end_to_end(e2e, out, speed, r);
    return out;
  }

  LayerInputs in;
  in.counters = std::move(counters);
  in.spans = span_totals(events);
  in.compile_s = compile_s;
  in.code_bytes = code_bytes;
  in.wall_s = traced_wall;
  in.untraced_wall_s = untraced_wall;
  in.lane_busy_frac = 1;  // one binary at a time, no lane idles
  in.kept_delta = kept_delta;
  in.dropped = gp::trace::dropped();
  for (size_t i = 0; i < bins.size(); ++i) {
    const Row& row = rows[i];
    in.slowest_subsume_s = std::max(in.slowest_subsume_s, row.subsume_s);
    const auto kept = ref.find("kept." + bins[i].label());
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"binary\": \"%s\", \"extract_s\": %.4f, \"minimize_s\": %.4f, "
                  "\"raw\": %llu, \"kept\": %llu, \"kept_ref\": %s, "
                  "\"solver_unknown\": %llu",
                  bins[i].label().c_str(), row.extract_s, row.subsume_s,
                  static_cast<unsigned long long>(row.raw),
                  static_cast<unsigned long long>(row.kept),
                  kept == ref.end() ? "null" : kept->second.c_str(),
                  static_cast<unsigned long long>(row.unknown));
    print_row(buf);
  }
  add_layer_metrics(in, r);
  return out;
}

}  // namespace perfbench
