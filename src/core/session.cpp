#include "core/session.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>

#include "gadget/serialize.hpp"
#include "payload/serialize.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace gp::core {

using Clock = std::chrono::steady_clock;

/// Stage-supervisor retry policy: a stage that fails for a *recoverable*
/// reason (exhausted counted budget, injected fault, internal error) is
/// re-run at once, up to kMaxRetries extra attempts, with every counted
/// budget widened kBudgetWidenFactor-fold per retry. Deadline expiry and
/// cancellation are never retried: wall-clock budgets and the caller's
/// cancel are hard contracts.
constexpr int kMaxRetries = 2;
constexpr double kBudgetWidenFactor = 4;

PipelineOptions PipelineOptions::from(const Config& cfg) {
  PipelineOptions o;
  o.governor = cfg.governor;
  o.store_dir = cfg.store_dir;
  return o;
}

std::optional<u64> parse_vmrss_mb(const std::string& status_text) {
  size_t pos = 0;
  while (pos < status_text.size()) {
    const size_t eol = status_text.find('\n', pos);
    const std::string line = status_text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    if (line.rfind("VmRSS:", 0) == 0) {
      // Parse only the first digit run after the label. The old loop
      // accumulated EVERY digit in the line, so a hypothetical trailing
      // number would have been glued onto the kB value.
      size_t i = 6;
      while (i < line.size() && !(line[i] >= '0' && line[i] <= '9')) ++i;
      if (i == line.size()) return std::nullopt;
      u64 kb = 0;
      while (i < line.size() && line[i] >= '0' && line[i] <= '9')
        kb = kb * 10 + static_cast<u64>(line[i++] - '0');
      return (kb + 512) / 1024;  // round to nearest MiB, not truncate
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return std::nullopt;
}

u64 current_rss_mb() {
  // /proc files can be pread from offset 0 repeatedly; keeping one fd open
  // avoids a path lookup + open/close per stage boundary.
  static const int fd = ::open("/proc/self/status", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return kRssUnknown;
  char buf[8192];
  const ssize_t n = ::pread(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return kRssUnknown;
  const auto mb = parse_vmrss_mb(std::string(buf, static_cast<size_t>(n)));
  return mb ? *mb : kRssUnknown;
}

std::string format_rss_mb(u64 mb) {
  return mb == kRssUnknown ? "n/a" : std::to_string(mb);
}

Session::Session(Engine& engine, const image::Image& img, PipelineOptions opts)
    : engine_(engine),
      id_(engine.next_session_id()),
      img_(&img),
      opts_(std::move(opts)),
      gov_(std::make_unique<Governor>(opts_.governor)),
      ctx_(std::make_unique<solver::Context>()) {
  ctx_->set_governor(gov_.get());
  if (!opts_.store_dir.empty())
    store_ = std::make_unique<store::ArtifactStore>(opts_.store_dir);
}

Session::Session(Engine& engine, image::Image&& img, PipelineOptions opts)
    : Session(engine, img, std::move(opts)) {
  // Stages are lazy, so nothing has read through img_ yet; adopt the image
  // and repoint before any stage can run.
  owned_img_ = std::move(img);
  img_ = &*owned_img_;
}

void Session::append_image_key(serial::Writer& w) const {
  w.put_u64(img_->entry());
  w.put_bytes(img_->code());
  w.put_bytes(img_->data());
}

void Session::snapshot_store_stats() {
  if (store_) report_.store = store_->stats();
}

Status Session::run_supervised(
    const char* stage, StageRuns& runs,
    const std::function<Status(Governor&)>& body) {
  double widen = 1.0;
  Status st;
  for (int attempt = 0;; ++attempt) {
    Governor* g = gov_.get();
    if (attempt > 0) {
      ++runs.retries;
      {
        static metrics::Counter& retries =
            metrics::registry().counter("supervisor.retries");
        retries.add();
      }
      widen *= kBudgetWidenFactor;
      // Fresh governor for the retry: counted budgets widened (and their
      // consumption reset), but the session's wall-clock deadline and
      // cancel flag carry over — the supervisor never buys time, only
      // counted headroom. Kept alive for the session: stage internals may
      // hold the governor pointer until the session is destroyed.
      auto fresh = std::make_unique<Governor>(opts_.governor.widened(widen));
      fresh->set_deadline(gov_->deadline());
      fresh->set_cancel_token(gov_->cancel_token());
      g = fresh.get();
      retry_govs_.push_back(std::move(fresh));
    }
    ++runs.attempts;
    {
      static metrics::Counter& attempts =
          metrics::registry().counter("supervisor.attempts");
      attempts.add();
    }
    ctx_->set_governor(g);
    std::exception_ptr invariant_error;
    try {
      trace::Span span(stage, "attempt", id_);
      st = body(*g);
    } catch (const ResourceExhausted& e) {
      // A stage let the control-flow exception escape; treat it like the
      // budget status it carries.
      st = e.status();
    } catch (const Error& e) {
      invariant_error = std::current_exception();
      st = Status::internal(std::string(stage) + " threw: " + e.what());
    }
    ctx_->set_governor(gov_.get());

    const StatusCode c = st.code();
    const bool recoverable = c == StatusCode::BudgetExhausted ||
                             c == StatusCode::FaultInjected ||
                             c == StatusCode::Internal;
    // Deadline expiry and cancellation are terminal: the wall clock is the
    // caller's hard contract, so a retry could only fail the same way.
    // Anything else retries at once: every recoverable failure is
    // deterministic (a counted budget, a seeded GP_FAULT decision, a thrown
    // invariant), so sleeping first would only spend wall time.
    if (!recoverable || attempt >= kMaxRetries || gov_->should_stop()) {
      if (invariant_error) std::rethrow_exception(invariant_error);
      return st;
    }
  }
}

// Winnowing and planning must be pure functions of pool *content*, not of
// however the expression arena happened to grow while computing it;
// otherwise a resumed run — which decodes its pool from a checkpoint into a
// fresh arena — would diverge from an uninterrupted one, and the kill-resume
// byte-identity guarantee would not hold. encode_pool is content-determined,
// and compacting a computed pool makes the very rebuild calls decoding its
// encoding makes, so both paths reach the same arena state. Both read an
// exhausted budget as a miss and then leave the session untouched.
bool Session::adopt_pool(const std::vector<std::vector<u8>>& records) {
  trace::Span span("canonicalize", "pool", id_);
  auto fresh = std::make_unique<solver::Context>();
  fresh->set_governor(gov_.get());
  auto decoded = gadget::decode_pool(*fresh, records);
  if (!decoded) return false;
  ctx_ = std::move(fresh);
  pool_ = std::move(*decoded);
  return true;
}

bool Session::canonicalize() {
  trace::Span span("canonicalize", "pool", id_);
  auto fresh = std::make_unique<solver::Context>();
  fresh->set_governor(gov_.get());
  if (!gadget::compact_pool(*ctx_, pool_, *fresh)) return false;
  ctx_ = std::move(fresh);
  return true;
}

/// The store form of a computed pool, for put().
static std::vector<std::vector<u8>> store_records(
    u64 session, const solver::Context& ctx,
    const std::vector<gadget::Record>& pool) {
  trace::Span span("encode", "pool", session);
  return gadget::encode_pool(ctx, pool);
}

/// Checkpoint-served stage outputs, rolled up process-wide (per-session
/// detail stays in StageRuns).
static void count_checkpoint(bool same_process) {
  static metrics::Counter& hits =
      metrics::registry().counter("session.cache_hits");
  static metrics::Counter& resumes =
      metrics::registry().counter("session.resumes");
  (same_process ? hits : resumes).add();
}

Status Session::extract() {
  if (extracted_) return report_.extract_status;
  extracted_ = true;
  if (opts_.on_stage) opts_.on_stage("extract");

  trace::Span span("extract", "stage", id_);
  auto t0 = Clock::now();
  bool have_pool = false;
  std::string extract_key;
  if (store_) {
    serial::Writer material;
    append_image_key(material);
    gadget::append_extract_key(material);
    extract_key = store_->key("extract", material);
    if (auto art = store_->get(extract_key)) {
      if (adopt_pool(art->records)) {
        have_pool = true;
        count_checkpoint(art->same_process);
        ++(art->same_process ? report_.extract_runs.cache_hits
                             : report_.extract_runs.resumes);
        // Checkpoints hold only clean (uncut) runs, so status stays Ok.
      }
    }
  }
  if (!have_pool) {
    report_.extract_status =
        run_supervised("extract", report_.extract_runs, [&](Governor& g) {
          // Each attempt interns into a fresh context, so a retried pool
          // does not depend on what a cut attempt left behind.
          ctx_ = std::make_unique<solver::Context>();
          ctx_->set_governor(&g);
          gadget::Extractor extractor(*ctx_, *img_);
          pool_ = extractor.extract(&g, engine_.config().threads);
          report_.extract = extractor.stats();
          metrics::publish("extract", report_.extract);
          return report_.extract.status;
        });
    // Only a clean run is durable: a budget-cut pool is valid but partial,
    // and caching it would freeze the degradation into future runs. A
    // failed put is counted in store::Stats::put_failures and never fails
    // the stage: the next run just recomputes. A pool whose compaction is
    // cut stays as computed; the run is already degraded then, and
    // degraded results are never checkpointed.
    if (store_ && report_.extract_status.ok())
      (void)store_->put(extract_key, store_records(id_, *ctx_, pool_));
    canonicalize();
  }
  report_.extract_seconds = secs_since(t0);
  report_.pool_raw = pool_.size();
  report_.rss_mb_after_extract = current_rss_mb();
  snapshot_store_stats();
  return report_.extract_status;
}

Status Session::subsume() {
  if (subsumed_) return report_.subsume_status;
  (void)extract();
  subsumed_ = true;
  if (opts_.on_stage) opts_.on_stage("subsume");

  // Span constructed after extract() so a lazily-triggered stage 1 is
  // attributed to its own span, not folded into this one.
  trace::Span span("subsume", "stage", id_);
  auto t1 = Clock::now();
  // A stored winnow decodes once, straight into a fresh context: that is
  // already the canonical state. A computed pool is compacted below.
  bool have_min = false;
  if (opts_.run_subsumption) {
    std::string subsume_key;
    // The subsume key describes the *canonical* extraction output; when
    // extraction ran degraded the input pool is partial, so its minimized
    // form must neither be served from nor written to the store.
    const bool canonical_input = report_.extract_status.ok();
    if (store_ && canonical_input) {
      serial::Writer material;
      append_image_key(material);
      gadget::append_extract_key(material);
      material.put_u64(subsume::kSolverCheckBudget);
      subsume_key = store_->key("subsume", material);
      if (auto art = store_->get(subsume_key)) {
        if (adopt_pool(art->records)) {
          have_min = true;
          count_checkpoint(art->same_process);
          ++(art->same_process ? report_.subsume_runs.cache_hits
                               : report_.subsume_runs.resumes);
        }
      }
    }
    if (!have_min) {
      // pool_ stays the raw pool until every attempt is done: retries
      // need the input.
      std::optional<std::vector<gadget::Record>> kept;
      report_.subsume_status =
          run_supervised("subsume", report_.subsume_runs, [&](Governor& g) {
            report_.subsume = {};
            kept = subsume::minimize(*ctx_, pool_, &report_.subsume,
                                     subsume::kSolverCheckBudget,
                                     engine_.config().threads, &g);
            metrics::publish("subsume", report_.subsume);
            metrics::registry()
                .histogram("subsume.pool_kept")
                .observe(report_.subsume.kept);
            return report_.subsume.status;
          });
      if (kept) pool_ = std::move(*kept);
      // The first cleanly-completed winnow becomes canonical. (Under an
      // exhausted solver-check budget the winnow result can depend on lane
      // scheduling, so pinning the first result in the store is what makes
      // later resumed runs byte-identical.) A failed put is only counted
      // (see extract()).
      if (store_ && canonical_input && report_.subsume_status.ok())
        (void)store_->put(subsume_key, store_records(id_, *ctx_, pool_));
    }
  }
  report_.subsume_seconds = secs_since(t1);
  report_.pool_minimized = pool_.size();
  report_.rss_mb_after_subsume = current_rss_mb();
  snapshot_store_stats();

  if (!have_min) canonicalize();
  lib_ = std::make_unique<gadget::Library>(std::move(pool_));
  return report_.subsume_status;
}

std::vector<payload::Chain> Session::find_chains(const payload::Goal& goal) {
  prepare();
  if (opts_.on_stage) opts_.on_stage("plan");
  trace::Span span("plan", "stage", id_);
  auto t0 = Clock::now();

  // Chains are only exchanged with the store when the library they index
  // is the canonical one (no stage upstream ran degraded).
  const bool canonical_library =
      report_.extract_status.ok() &&
      (!opts_.run_subsumption || report_.subsume_status.ok());
  std::vector<payload::Chain> chains;
  bool have_chains = false;
  std::string plan_key;
  if (store_ && canonical_library) {
    serial::Writer material;
    append_image_key(material);
    gadget::append_extract_key(material);
    material.put_bool(opts_.run_subsumption);
    material.put_str(goal.name);
    opts_.plan.append_key(material);
    plan_key = store_->key("plan", material);
    if (auto art = store_->get(plan_key)) {
      if (auto decoded = payload::decode_chains(art->records, lib_->size())) {
        chains = std::move(*decoded);
        have_chains = true;
        count_checkpoint(art->same_process);
        ++(art->same_process ? report_.plan_runs.cache_hits
                             : report_.plan_runs.resumes);
      }
    }
  }
  if (!have_chains) {
    const Status st =
        run_supervised("plan", report_.plan_runs, [&](Governor& g) {
          // prepare() has fixed ctx_ and lib_ for good, so one planner (and
          // the index its first plan() builds) serves every goal.
          if (!planner_)
            planner_ =
                std::make_unique<planner::Planner>(*ctx_, *lib_, *img_);
          planner::Options popts = opts_.plan;
          if (!popts.governor) popts.governor = &g;
          popts.session_id = id_;
          chains = planner_->plan(goal, popts);
          const auto& s = planner_->stats();
          report_.plan += s;
          metrics::publish("plan", s);
          return s.status;
        });
    // A failed put is only counted (see extract()).
    if (store_ && canonical_library && st.ok())
      (void)store_->put(plan_key, payload::encode_chains(chains));
    report_.plan_status.merge(st);
  }
  // One exit for the plan accounting: a checkpoint-served goal is timed
  // and measured like a planned one.
  snapshot_store_stats();
  report_.plan_seconds += secs_since(t0);
  report_.rss_mb_after_plan = current_rss_mb();
  return chains;
}

}  // namespace gp::core
