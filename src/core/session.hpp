// Session: one per-image analysis bound to an Engine.
//
// A session's stages are explicit, lazily-run, immutable artifacts rather
// than constructor side effects:
//
//   Session s(engine, img);
//   s.extract();                       // optional: stages run on demand
//   s.subsume();
//   auto chains = s.find_chains(goal); // runs any missing stage first
//
// Each stage runs at most once; its output (the raw pool, the minimized
// library) is immutable afterwards and every accessor observes the same
// artifact. Stages are supervised (retry with widened budgets on
// recoverable failure) and checkpointed through the session's own artifact
// store.
//
// Concurrency contract: ONE thread drives a given session, but any number
// of sessions may run concurrently against one Engine — each session owns
// its solver context, governor, artifact store and stats; everything shared
// (thread pool, fault counters) is internally synchronized, and sessions on
// one store directory share only its self-checking files. N concurrent
// sessions over distinct images produce byte-identical results to N
// sequential runs (tests/test_parallel.cpp proves it under tsan).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "gadget/gadget.hpp"
#include "image/image.hpp"
#include "payload/payload.hpp"
#include "planner/planner.hpp"
#include "store/store.hpp"
#include "subsume/subsume.hpp"

namespace gp::core {

/// Per-session policy. Plain data: the defaults read no environment (an
/// unlimited governor, no store). Entry points that honour the
/// GP_* knobs build their options with from(engine.config()).
struct PipelineOptions {
  bool run_subsumption = true;  // ablation hook (DESIGN.md #1)
  planner::Options plan;
  /// Resource limits for this session. The session owns one Governor built
  /// from these and threads it through every stage (extraction,
  /// subsumption, planning, concretization); zero fields are unlimited.
  /// Campaigns overwrite this with a per-session share of their budget
  /// (GovernorOptions::split_across).
  GovernorOptions governor;
  /// Artifact-store directory for durable checkpoint/resume; "" disables.
  /// Stage outputs (extracted pool, minimized pool, chains per goal) are
  /// checkpointed under content-hash keys of (image bytes, stage options,
  /// format version), so a later run — same process or a fresh one after a
  /// crash/OOM-kill — resumes from the last good checkpoint instead of
  /// recomputing solver work.
  std::string store_dir;
  /// Progress hook, invoked on the session's thread at the start of each
  /// stage ("extract", "subsume", "plan") before any work runs. gp_serve
  /// streams these to attached clients; exceptions from the hook are the
  /// caller's bug and propagate.
  std::function<void(const char* stage)> on_stage;

  /// Defaults plus the policy an Engine's Config carries: the governor
  /// budgets (GP_DEADLINE_MS, GP_SOLVER_CHECKS, GP_SYM_STEPS,
  /// GP_EXPR_NODES) and the store directory (GP_STORE_DIR).
  static PipelineOptions from(const Config& cfg);
};

/// Attempt/resume/cache accounting for one supervised pipeline stage.
struct StageRuns {
  u32 attempts = 0;    // stage-body executions in this process
  u32 retries = 0;     // attempts the supervisor re-ran after a failure
  u32 cache_hits = 0;  // outputs served from a checkpoint this process wrote
  u32 resumes = 0;     // outputs served from an earlier process's checkpoint
};

/// Per-session accounting per pipeline stage: wall clock, sizes, counters
/// (Table VII).
struct StageReport {
  /// Per-stage wall time, every attempt included.
  double extract_seconds = 0;
  double subsume_seconds = 0;
  double plan_seconds = 0;
  u64 pool_raw = 0;        // gadgets out of extraction
  u64 pool_minimized = 0;  // gadgets after subsumption
  u64 rss_mb_after_extract = 0;
  u64 rss_mb_after_subsume = 0;
  u64 rss_mb_after_plan = 0;
  /// Degradation accounting: Ok for a clean run of the stage, otherwise
  /// the first reason (deadline, cancellation, budget, injected fault)
  /// that stage ran degraded. A degraded stage still yields usable —
  /// merely smaller — results; nothing here is an error.
  Status extract_status;
  Status subsume_status;
  Status plan_status;
  /// Supervisor accounting: how many times each stage actually ran, how
  /// many of those were retries, and how often a checkpoint substituted
  /// for the run entirely (cache_hits within this process, resumes across
  /// processes).
  StageRuns extract_runs;
  StageRuns subsume_runs;
  StageRuns plan_runs;
  /// Stage counters: extract/subsume hold the last attempt (a retry starts
  /// over), plan sums every attempt of every goal. Session publishes each
  /// attempt's counters to the registry as "<stage>.<name>".
  gadget::ExtractStats extract;
  subsume::Stats subsume;
  planner::Stats plan;
  /// This session's artifact-store counters (all zero when checkpointing
  /// is disabled).
  store::Stats store;

  /// The worst stage status: Ok for a clean run; the first degradation
  /// code (deadline, budget, fault, cancel) for a degraded-but-usable run.
  Status worst_status() const {
    Status s;
    s.merge(extract_status).merge(subsume_status).merge(plan_status);
    return s;
  }
};

/// current_rss_mb() when /proc is unavailable or VmRSS cannot be parsed.
/// Distinguishable from a genuine measurement — a 0 MiB reading used to be
/// silently ambiguous between "tiny process" and "probe failed".
inline constexpr u64 kRssUnknown = ~u64{0};

/// Resident set size of this process in MiB, rounded to nearest (the old
/// truncating kB/1024 under-reported by up to a full MiB); kRssUnknown when
/// the probe fails. The /proc/self/status fd is opened once and pread from
/// offset 0 per call instead of re-opened per stage.
u64 current_rss_mb();

/// Parse the VmRSS line out of /proc/self/status content; nullopt when the
/// line is absent. Split out (and exported) so the parser is unit-testable
/// without a live /proc.
std::optional<u64> parse_vmrss_mb(const std::string& status_text);

/// "123" or "n/a" for kRssUnknown — every human-facing report shares one
/// rendering of the sentinel.
std::string format_rss_mb(u64 mb);

class Session {
 public:
  /// Borrowing constructor: `img` must outlive the session.
  Session(Engine& engine, const image::Image& img, PipelineOptions opts = {});
  /// Owning constructor: the session keeps the image alive itself (the
  /// shape campaign jobs use — the compiled image has no other home).
  Session(Engine& engine, image::Image&& img, PipelineOptions opts = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Stage 1: gadget extraction (supervised, checkpointed) on
  /// engine().config().threads lanes. Idempotent — the first call computes
  /// the raw pool, later calls return the recorded status without
  /// re-running anything.
  Status extract();
  /// Stage 2: subsumption winnow + library construction (supervised,
  /// checkpointed; runs extract() first if needed) on
  /// engine().config().threads lanes. Idempotent. With
  /// run_subsumption=false the winnow is skipped and the raw pool becomes
  /// the library unchanged.
  Status subsume();
  /// Ensure both pool stages have run (extract + subsume).
  void prepare() { (void)subsume(); }

  /// Stages 3+4 per goal: plan + concretize (supervised, checkpointed per
  /// goal). Runs any missing pool stage first.
  std::vector<payload::Chain> find_chains(const payload::Goal& goal);

  /// The minimized library. The non-const overload runs the missing pool
  /// stages; the const overload requires prepare() to have run.
  const gadget::Library& library() {
    prepare();
    return *lib_;
  }
  const gadget::Library& library() const {
    GP_CHECK(lib_ != nullptr, "Session::library() before prepare()");
    return *lib_;
  }

  Engine& engine() { return engine_; }
  solver::Context& ctx() { return *ctx_; }
  const image::Image& img() const { return *img_; }
  /// Process-unique session id (from Engine::next_session_id); trace spans
  /// carry it so a campaign's interleaved stages stay attributable.
  u64 id() const { return id_; }

  const StageReport& report() const { return report_; }
  const gadget::ExtractStats& extract_stats() const { return report_.extract; }
  const subsume::Stats& subsume_stats() const { return report_.subsume; }
  /// The session's governor (never null). Cancel it from another thread to
  /// stop the session cooperatively at the next poll point.
  Governor& governor() { return *gov_; }

  /// The session's own artifact store backing checkpoint/resume, or
  /// nullptr when disabled (opts.store_dir empty).
  store::ArtifactStore* store() { return store_.get(); }

 private:
  /// Run `body` as a restartable unit: attempt 0 under the session
  /// governor; on a recoverable failure (budget exhaustion, injected
  /// fault, internal error — never deadline expiry or cancellation),
  /// retry at once under a fresh governor with widened counted budgets,
  /// up to kMaxRetries extra attempts.
  /// `body` receives the governor for that attempt and returns the stage
  /// Status; throws from the final attempt propagate.
  Status run_supervised(const char* stage, StageRuns& runs,
                        const std::function<Status(Governor&)>& body);

  /// Key material shared by every stage: the image content (entry, code,
  /// data) and the store format version.
  void append_image_key(serial::Writer& w) const;

  /// Decode `records` (a gadget::encode_pool form) into a fresh context and
  /// adopt it and the decoded pool as ctx_/pool_, so the next stage sees
  /// state that depends only on pool content — the same state a resumed
  /// run reconstructs from a checkpoint. False, adopting nothing, when the
  /// records fail to decode.
  bool adopt_pool(const std::vector<std::vector<u8>>& records);
  /// Compact the computed pool_ into a fresh context (gadget::compact_pool)
  /// and adopt that as ctx_: the state adopt_pool(encode_pool(...)) would
  /// leave, without the bytes. False, changing nothing, when the rebuild is
  /// cut by the node budget; the pool then stays as computed.
  bool canonicalize();

  /// Refresh report_.store from the session's store.
  void snapshot_store_stats();

  Engine& engine_;
  u64 id_ = 0;
  std::optional<image::Image> owned_img_;  // set by the owning constructor
  const image::Image* img_;
  PipelineOptions opts_;
  std::unique_ptr<Governor> gov_;
  std::unique_ptr<solver::Context> ctx_;
  std::unique_ptr<store::ArtifactStore> store_;
  /// Governors built for retries; kept alive for the session because
  /// stage stats may reference them.
  std::vector<std::unique_ptr<Governor>> retry_govs_;

  bool extracted_ = false;  // stage-1 artifact exists
  bool subsumed_ = false;   // stage-2 artifact (lib_) exists
  std::vector<gadget::Record> pool_;  // raw pool between stages 1 and 2
  std::unique_ptr<gadget::Library> lib_;
  /// The session's one planner, created by the first find_chains() that
  /// misses its plan checkpoint; its candidate index is built once and
  /// serves every goal.
  std::unique_ptr<planner::Planner> planner_;

  StageReport report_;
};

}  // namespace gp::core
