// Shared plumbing for the benchmark workloads: arguments, clocks, the
// result report, reference files, registry deltas and trace self time.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "image/image.hpp"
#include "payload/payload.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace perfbench {

using gp::u64;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  u64 seed = 7;
  double seconds = 10;
  bool trace = false;
  std::string reference_dir;  // committed reference outputs
  std::string work_dir;       // scratch space inside the checkout
  std::string commit;         // source identity, stamped into the output
  /// Write the reference file for the workload instead of checking it.
  bool write_reference = false;
};

double secs_since(Clock::time_point t0);
/// User + system CPU seconds of this process so far.
double cpu_seconds();
/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Host-speed normalization. The benchmark runs on shared hosts whose
/// speed moves by 10-40% over minutes (other tenants, frequency), which
/// moves every time the program takes by the same factor. A fixed probe
/// kernel, timed right before and right after each measured interval,
/// tracks that factor; multiplying a measured time by
/// kReferenceProbeSeconds / (mean of the two probes) gives the time on a
/// host where the probe takes kReferenceProbeSeconds. The probe is the
/// benchmark's own code, so no program change can move it.
class HostSpeed {
 public:
  static constexpr double kReferenceProbeSeconds = 0.3;

  HostSpeed();  // takes the first probe
  /// Probe again; the scale for the interval since the previous probe.
  double next_scale();
  const std::vector<double>& probes() const { return probes_; }

 private:
  double last_;
  std::vector<double> probes_;
};

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Content digest of chains in the campaign's scheme: goal name, then
/// every serialized chain. Same bytes, same digest, in any process.
u64 chains_digest(const std::string& goal_name,
                  const std::vector<gp::payload::Chain>& chains);
/// Content digest of a gadget pool that, unlike gadget::pool_digest of its
/// store encoding, does not depend on the context's node numbering: the
/// encoding lists expression nodes in interning order, which differs
/// between the sequential and the parallel extraction of the same pool.
u64 pool_digest(const gp::solver::Context& ctx,
                const std::vector<gp::gadget::Record>& pool);
std::string hex(u64 v);

/// Re-run every chain in a fresh emulator (payload::validate), independent
/// of the planner that produced it, with uncontrolled registers drawn from
/// `reg_seed`. True when all of them reach the goal.
bool validate_chains(const gp::image::Image& img,
                     const std::vector<gp::payload::Chain>& chains,
                     const gp::payload::Goal& goal, u64 reg_seed);

/// Mini-C compile + obfuscation profile + codegen at the GP_OPT_LEVEL
/// default: the same image a campaign job or a served job builds.
gp::image::Image compile_image(const std::string& program,
                               const std::string& profile, u64 obf_seed);

/// Median wall time of `fn` over at least `min_reps` repetitions spread
/// over at least `min_total_s`: set-up is a milliseconds-scale reading on
/// a shared host whose speed shifts on a sub-second scale, so one sample,
/// or a burst of them, moves with every shift.
template <class Fn>
double median_seconds(int min_reps, double min_total_s, Fn&& fn) {
  std::vector<double> s;
  const auto start = Clock::now();
  while (static_cast<int>(s.size()) < min_reps || secs_since(start) < min_total_s) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(secs_since(t0));
  }
  return median(s);
}

/// "key value" lines, one per item. Missing file = empty map.
std::map<std::string, std::string> read_reference(const std::string& path);
bool write_reference(const std::string& path,
                     const std::map<std::string, std::string>& entries);

/// Registry counters as a name -> value map (histograms as name.count and
/// name.sum).
std::map<std::string, double> registry_counters();

/// Per span, keyed "cat/name" with any ":suffix" of the name dropped
/// ("job/serve" for every served job): summed duration and summed self time
/// (duration minus the part covered by child spans on the same thread).
struct SpanTotals {
  double total_s = 0;
  double self_s = 0;
  u64 count = 0;
};
std::map<std::string, SpanTotals> span_totals(
    const std::vector<gp::trace::Event>& events);

/// What a traced pass hands to add_layer_metrics. Fields a workload does
/// not exercise stay 0, and so do the metrics built from them.
struct LayerInputs {
  std::map<std::string, double> counters;   // registry, traced pass only
  std::map<std::string, SpanTotals> spans;  // keyed "cat/name"
  double compile_s = 0;  // compiling the workload's images once
  double code_bytes = 0;
  double wall_s = 0;           // traced pass
  double untraced_wall_s = 0;  // the same pass without tracing
  double zero_chain_s = 0;     // plan seconds of jobs that found no chain
  double lane_busy_frac = 0;
  double critical_path_s = 0;
  double kept_delta = 0;         // surface: minimized pools vs GP_THREADS=1
  double slowest_subsume_s = 0;  // surface: the largest single-binary time
  double resume_s = 0;           // serve-mix: analysis seconds of resumes
  double queue_wait_ms = 0;      // serve-mix: latency minus analysis time
  double dedupe_p50_ms = 0, dedupe_p99_ms = 0;
  double resume_p50_ms = 0, resume_p99_ms = 0;
  u64 dropped = 0;  // trace events lost to ring wrap (must stay 0)
};
/// The metrics object of the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Print the human-readable lines on stderr and the result object as the
  /// last line of stdout.
  void print(bool correct, u64 attempted, u64 failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Every per-layer metric, in one fixed set for all workloads.
void add_layer_metrics(const LayerInputs& in, Report& r);

struct Outcome {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
};

/// What every workload measures for the end-to-end metrics: raw readings,
/// each with the host-speed scale of the interval it was taken in.
struct EndToEnd {
  double setup_s = 0;  // raw median set-up time
  double setup_scale = 1;
  std::vector<double> wall_s, cpu_s, pass_scale;  // per measured pass
  std::vector<double> op_s;      // per job, binary or request
  std::vector<double> op_scale;  // the scale of the pass each op ran in
};
/// The end-to-end metrics, host-normalized, plus a {"raw": ...} line with
/// the unnormalized readings and the probe times.
void add_end_to_end(const EndToEnd& e, const Outcome& out,
                    const HostSpeed& speed, Report& r);

/// The configuration stamp every output starts with.
void print_stamp(const Args& a, int gp_threads, const std::string& lanes_key,
                 int lanes);
/// One traced-output row (a job, a binary), printed as a JSON line.
void print_row(const std::string& json_fields);

Outcome run_obf_plan(const Args& a, Report& r);
Outcome run_surface(const Args& a, Report& r);
Outcome run_serve_mix(const Args& a, Report& r);

}  // namespace perfbench
