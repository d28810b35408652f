#include "gadget/gadget.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "lift/lift.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "x86/decoder.hpp"

namespace gp::gadget {

using solver::ExprRef;
using x86::Inst;
using x86::Mnemonic;
using x86::Reg;

const char* end_kind_name(EndKind k) {
  switch (k) {
    case EndKind::Ret: return "ret";
    case EndKind::IndJmp: return "ind-jmp";
    case EndKind::IndCall: return "ind-call";
    case EndKind::Syscall: return "syscall";
  }
  return "<bad>";
}

std::vector<ExprRef> pool_refs(const std::vector<Record>& pool) {
  std::vector<ExprRef> out;
  for (const Record& r : pool)
    for_each_ref(r, [&](ExprRef e) { out.push_back(e); });
  return out;
}

namespace {

/// In-flight exploration state for one path.
struct Path {
  sym::State st;
  std::vector<PathStep> steps;
  u64 rip;
  int cond_jumps = 0;
  bool has_direct = false;
  u32 first_run_len = 0;
};

/// Decoded and lifted instructions by absolute address: a direct-mapped
/// table, so a byte that many nearby start offsets' paths walk through is
/// decoded and lifted once while it stays in its slot. Both are pure
/// functions of the image bytes, so a hit is exact. Bounded rather than
/// image-wide: an entry per code byte would cost several hundred bytes
/// per offset of every live session.
class DecodeCache {
 public:
  struct Entry {
    u64 addr = ~u64{0};  // no code byte sits at the top of the space
    bool ok = false;     // decoded; `inst` and `lifted` are valid
    Inst inst;
    ir::Lifted lifted;
  };

  const Entry& at(const image::Image& img, u64 addr) {
    Entry& e = slots_[addr & (kSlots - 1)];
    if (e.addr != addr) {
      const auto inst = x86::decode(img.code_at(addr), addr);
      e.addr = addr;
      e.ok = inst.has_value();
      if (e.ok) {
        e.inst = *inst;
        e.lifted = lift::lift(*inst);
      }
    }
    return e;
  }

 private:
  static constexpr size_t kSlots = 1024;
  std::vector<Entry> slots_ = std::vector<Entry>(kSlots);
};

/// Explore every path from one start offset, appending completed gadget
/// records to `out`. A free function so it runs identically against the
/// extractor's main context (sequential) or a worker's private context
/// (parallel shards).
void explore_offset(solver::Context& ctx, sym::Executor& exec,
                    DecodeCache& decoded, const image::Image& img, u64 addr,
                    std::vector<Record>& out, ExtractStats& stats) {
  // Quick pre-filter: must decode at all from this offset.
  if (!decoded.at(img, addr).ok) {
    ++stats.decode_failures;
    return;
  }

  std::vector<Path> frontier;
  try {
    frontier.push_back({exec.initial_state(), {}, addr, 0, false, 0});
  } catch (const ResourceExhausted& e) {
    // Even the initial register file can exceed a (tiny) node budget; treat
    // it like any other cut path so the scan degrades instead of unwinding.
    ++stats.paths_cut;
    stats.status.merge(e.status());
    return;
  }
  const std::array<ExprRef, x86::kNumRegs> init = frontier.back().st.regs;
  const ExprRef rsp0 = init[static_cast<int>(Reg::RSP)];
  int emitted = 0;

  while (!frontier.empty() && emitted < kMaxPaths) {
    Path p = std::move(frontier.back());
    frontier.pop_back();

    try {
    bool dead = false;
    while (!dead) {
      if (static_cast<int>(p.steps.size()) >= kMaxInsts) {
        dead = true;
        break;
      }
      if (!img.in_code(p.rip)) {
        dead = true;
        break;
      }
      const DecodeCache::Entry& d = decoded.at(img, p.rip);
      if (!d.ok) {
        // A path that walks into undecodable bytes is a decode failure
        // too — only counting the first-offset case undercounts.
        ++stats.decode_failures;
        dead = true;
        break;
      }
      if (d.inst.mnemonic == Mnemonic::INT3) {
        dead = true;
        break;
      }
      const sym::Flow flow = exec.step(p.st, d.lifted);
      p.steps.push_back({d.inst, false});
      // `len` reports the contiguous byte run from the start address; it
      // stops growing once a direct-jump merge leaves the run.
      if (!p.has_direct) p.first_run_len += d.inst.len;

      switch (flow.kind) {
        case ir::JumpKind::Fall:
          p.rip = flow.fallthrough;
          continue;

        case ir::JumpKind::Direct:
          if (flow.is_call) {
            // Direct call: following into the callee is equivalent to a
            // direct-jump merge (return address was pushed).
            p.has_direct = true;
            p.rip = flow.target;
            continue;
          }
          // Paper: gadgets ending with a direct jump merge with the gadget
          // at the target address.
          p.has_direct = true;
          p.rip = flow.target;
          continue;

        case ir::JumpKind::CondDirect: {
          if (p.cond_jumps >= kMaxCondJumps) {
            dead = true;
            break;
          }
          ++p.cond_jumps;
          // Fork: not-taken continues here; taken goes on the frontier.
          Path taken = p;
          taken.steps.back().branch_taken = true;
          taken.st.constraints.push_back(flow.cond);
          taken.rip = flow.target;
          taken.has_direct = true;
          frontier.push_back(std::move(taken));

          p.st.constraints.push_back(ctx.bnot(flow.cond));
          p.rip = flow.fallthrough;
          continue;
        }

        case ir::JumpKind::Indirect:
        case ir::JumpKind::Syscall: {
          // A `ret` whose popped target resolves to a constant (a called
          // function returning to the return address pushed within this
          // same path) behaves like a direct jump: merge and continue.
          // Other constant-target indirect transfers (e.g. resolved jump
          // tables) end the gadget normally — following them would turn
          // gadgets into whole-program executions.
          if (flow.kind == ir::JumpKind::Indirect && flow.is_ret &&
              flow.target_expr != solver::kNoExpr &&
              ctx.is_const(flow.target_expr) &&
              img.in_code(ctx.const_val(flow.target_expr))) {
            p.has_direct = true;
            p.rip = ctx.const_val(flow.target_expr);
            continue;
          }
          // Complete gadget.
          Record r;
          r.addr = addr;
          r.len = p.first_run_len;
          r.n_insts = static_cast<int>(p.steps.size());
          if (flow.kind == ir::JumpKind::Syscall) {
            r.end = EndKind::Syscall;
          } else if (flow.is_ret) {
            r.end = EndKind::Ret;
          } else if (flow.is_call) {
            r.end = EndKind::IndCall;
          } else {
            r.end = EndKind::IndJmp;
          }
          r.has_cond_jump = p.cond_jumps > 0;
          r.has_direct_jump = p.has_direct;
          r.next_rip = flow.target_expr;  // kNoExpr for syscall
          r.precond = p.st.constraints;
          r.writes = p.st.writes;
          r.ind_reads = p.st.ind_reads;
          r.stack_reads = p.st.stack_reads;
          r.path = p.steps;
          r.aliased_memory = p.st.assumed_no_alias;

          for (int i = 0; i < x86::kNumRegs; ++i) {
            const Reg reg = static_cast<Reg>(i);
            const ExprRef final = p.st.regs[i];
            r.final_regs[i] = final;
            if (final != init[i]) {
              r.clobbered |= reg_bit(reg);
              // Controlled: a function of payload variables only.
              // Settable: a function of payload variables and/or initial GP
              // registers (register-transfer chaining can finish the job).
              bool payload_only = true;
              bool has_payload = false;
              bool settable = true;
              for (const ExprRef v : ctx.variables(final)) {
                const std::string_view name = ctx.var_name(v);
                if (sym::parse_stack_var(name)) {
                  has_payload = true;
                  continue;
                }
                payload_only = false;
                if (name.rfind("ind", 0) == 0) continue;  // POINTER dep
                if (!sym::is_initial_reg_var(name)) settable = false;
              }
              if (payload_only && has_payload) r.controlled |= reg_bit(reg);
              if (settable) r.settable |= reg_bit(reg);
            }
          }

          const auto rsp =
              sym::split_base_offset(ctx, p.st.regs[static_cast<int>(Reg::RSP)]);
          if (rsp && rsp->base == rsp0) r.stack_delta = rsp->offset;

          ++stats.gadgets;
          if (r.has_cond_jump) ++stats.with_cond_jump;
          if (r.has_direct_jump) ++stats.with_direct_jump;
          out.push_back(std::move(r));
          ++emitted;
          dead = true;  // path complete
          break;
        }
      }
    }
    } catch (const ResourceExhausted& e) {
      // This path's symbolic summary was cut (step/node budget or an
      // injected allocation fault): drop it with a recorded reason and
      // abandon the offset — sibling paths draw from the same exhausted
      // budgets. The pool stays sound, at worst smaller.
      ++stats.paths_cut;
      stats.status.merge(e.status());
      return;
    }
  }
}

/// True when a governed scan should stop before touching another offset:
/// the deadline passed, the cancel token fired, or a global symbolic budget
/// already ran dry (every further path would be cut on its first step, so
/// pressing on would only burn decode time). Records the reason.
bool scan_stopped(Governor* gov, ExtractStats& stats) {
  if (!gov) return false;
  const Status s = gov->poll();
  if (!s.ok()) {
    stats.status.merge(s);
    return true;
  }
  if (gov->sym_steps().exhausted() || gov->expr_nodes().exhausted()) {
    stats.status.merge(
        Status::budget_exhausted("symbolic step/node budget"));
    return true;
  }
  return false;
}

/// Set of structural hashes: open addressing, linear probing, at most
/// half full. 0 marks an empty slot, so hash 0 is stored as 1 — a
/// collision, which the merge tolerates like any other.
class HashSet {
 public:
  explicit HashSet(size_t n) : slots_(std::bit_ceil(2 * n + 2)) {}
  void insert(u64 h) {
    h = h ? h : 1;
    size_t i = h & mask();
    while (slots_[i] != 0 && slots_[i] != h) i = (i + 1) & mask();
    slots_[i] = h;
  }
  bool contains(u64 h) const {
    h = h ? h : 1;
    for (size_t i = h & mask(); slots_[i] != 0; i = (i + 1) & mask())
      if (slots_[i] == h) return true;
    return false;
  }

 private:
  size_t mask() const { return slots_.size() - 1; }
  std::vector<u64> slots_;
};

}  // namespace

std::vector<Record> Extractor::extract(Governor* governor, int threads) {
  const u64 base = img_.code_base();
  const u64 end = img_.code_end();
  const u64 total = base < end ? end - base : 0;

  // Lanes the pool cannot run would only add shards and idle scratch.
  const int lanes = ThreadPool::granted_lanes(threads);
  if (lanes > 1 && total > 1) return extract_parallel(governor, lanes);

  exec_.set_governor(governor);
  DecodeCache decoded;
  std::vector<Record> out;
  for (u64 addr = base; addr < end; ++addr) {
    if (scan_stopped(governor, stats_)) {
      stats_.offsets_skipped += end - addr;
      break;
    }
    ++stats_.offsets_scanned;
    exec_.begin_origin(addr);
    explore_offset(ctx_, exec_, decoded, img_, addr, out, stats_);
  }
  return out;
}

std::vector<Record> Extractor::extract_parallel(Governor* governor,
                                                int threads) {
  const u64 base = img_.code_base();
  const u64 total = img_.code_end() - base;

  // Shard the scan into more chunks than lanes so uneven exploration costs
  // balance via the pool's dynamic item claiming; chunks stay large enough
  // to amortize each worker context's warm-up interning.
  const u64 target = static_cast<u64>(threads) * 8;
  const u64 chunk = std::max<u64>(u64{32}, (total + target - 1) / target);
  const u64 nchunks = (total + chunk - 1) / chunk;

  // Each chunk explores its offsets in a private context (the expression
  // interner is the shared-state bottleneck) with a private executor and
  // stats block; nothing is shared across chunks until the merge below.
  struct Shard {
    std::unique_ptr<solver::Context> ctx;
    std::vector<Record> records;
    ExtractStats stats;
    std::vector<u64> reached;  // hashes of the shard nodes its records reach
    std::vector<bool> keep;    // shard nodes the merge replays
    u64 kept = 0;
  };
  std::vector<Shard> shards(nchunks);
  // Per-lane scratch: structural hashes of the shard at hand, by ref.
  std::vector<std::vector<u64>> lane_hashes(static_cast<size_t>(threads));
  // Per-lane decode caches, reused across the lane's shards.
  std::vector<DecodeCache> lane_decoded(static_cast<size_t>(threads));
  const auto hash_buffer = [&](int lane, const solver::Context& c) -> auto& {
    auto& h = lane_hashes[static_cast<size_t>(lane)];
    if (h.size() < c.num_nodes()) h.resize(c.num_nodes());
    return h;
  };

  ThreadPool::shared().run(
      nchunks,
      [&](int lane, u64 ci) {
        trace::Span span("extract.shard", "shard");
        Shard& s = shards[ci];
        s.ctx = std::make_unique<solver::Context>();
        // The shared governor reaches every worker lane: the shard context
        // draws on the same (atomic) node budget and the per-offset poll
        // below observes the same deadline/cancel token, so cancellation
        // propagates to thread-pool workers within one offset.
        s.ctx->set_governor(governor);
        sym::Executor exec(*s.ctx, &img_);
        exec.set_governor(governor);
        DecodeCache& decoded = lane_decoded[static_cast<size_t>(lane)];
        const u64 lo = base + ci * chunk;
        const u64 hi = base + std::min((ci + 1) * chunk, total);
        for (u64 addr = lo; addr < hi; ++addr) {
          if (scan_stopped(governor, s.stats)) {
            s.stats.offsets_skipped += hi - addr;
            break;
          }
          ++s.stats.offsets_scanned;
          exec.begin_origin(addr);
          explore_offset(*s.ctx, exec, decoded, img_, addr, s.records,
                         s.stats);
        }
        // The operands of a reached node are reached too, with smaller
        // refs, so hashing the reached nodes in ref order needs no others.
        auto& h = hash_buffer(lane, *s.ctx);
        for (const ExprRef r : s.ctx->reachable(pool_refs(s.records))) {
          h[r] = s.ctx->structural_hash(r, h);
          s.reached.push_back(h[r]);
        }
      },
      threads);

  lane_decoded = {};

  // Deterministic merge. Replaying every shard's nodes into the main
  // context in chunk (= offset) order would rebuild the sequential scan's
  // context ref for ref: a shard lists its nodes in the order its offsets
  // first created them, and the sequential scan appends exactly the ones
  // the main context still lacks, in that order. Most of those nodes are
  // garbage no record reaches, so the merge replays only the terms some
  // shard's records reach (by structural hash) whose operands it keeps.
  // That decision depends on the term alone, so a kept term is kept in
  // every shard that has it, garbage there or not: the kept nodes land in
  // the full replay's relative order with its commutative operand order,
  // and the records' sub-DAGs match the full replay's node for node. A
  // hash collision only keeps an extra unreachable node.
  trace::Span merge_span("extract.merge", "pool");
  size_t n_reached = 0;
  for (const Shard& s : shards) n_reached += s.reached.size();
  HashSet wanted(n_reached);
  for (Shard& s : shards) {
    for (const u64 h : s.reached) wanted.insert(h);
    s.reached = {};
  }
  ThreadPool::shared().run(
      nchunks,
      [&](int lane, u64 ci) {
        Shard& s = shards[ci];
        const solver::Context& c = *s.ctx;
        auto& h = hash_buffer(lane, c);
        s.keep.assign(c.num_nodes(), false);
        const auto kept = [&](ExprRef e) {
          return e == solver::kNoExpr || s.keep[e];
        };
        for (ExprRef r = 0; r < c.num_nodes(); ++r) {
          h[r] = c.structural_hash(r, h);
          const solver::Node& n = c.node(r);
          if (wanted.contains(h[r]) && kept(n.a) && kept(n.b) && kept(n.c)) {
            s.keep[r] = true;
            ++s.kept;
          }
        }
      },
      threads);
  lane_hashes = {};

  size_t total_kept = ctx_.num_nodes();
  for (const Shard& s : shards) total_kept += s.kept;
  ctx_.reserve(total_kept);
  static metrics::Counter& merged =
      metrics::registry().counter("extract.merge_nodes");
  std::vector<Record> out;
  bool exhausted = false;
  for (Shard& s : shards) {
    if (!exhausted) {
      try {
        merged.add(s.kept);
        const std::vector<ExprRef> table = ctx_.replay(*s.ctx, s.keep);
        for (Record& r : s.records) {
          for_each_ref(r, [&](ExprRef& e) {
            if (e != solver::kNoExpr) e = table[e];
          });
          out.push_back(std::move(r));
        }
      } catch (const ResourceExhausted& e) {
        // An allocation fault hit mid-replay: this shard's records (and
        // later shards') are dropped with a recorded reason rather than
        // remapped through a partial table.
        stats_.paths_cut += 1;
        stats_.status.merge(e.status());
        exhausted = true;
      }
    }
    // Every shard's offsets stay accounted, replayed or not, so
    // offsets_scanned + offsets_skipped still covers the code bytes.
    stats_ += s.stats;
    s.ctx.reset();  // drop the worker interner as soon as it is replayed
    s.keep = {};
  }
  return out;
}

Library::Library(std::vector<Record> records) : records_(std::move(records)) {
  // Directly payload-controlled gadgets first (cheapest for the planner),
  // register-transfer gadgets after; within each class, shorter first.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<u32> order(records_.size());
    for (u32 i = 0; i < records_.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
      if (records_[a].n_insts != records_[b].n_insts)
        return records_[a].n_insts < records_[b].n_insts;
      return records_[a].addr < records_[b].addr;
    });
    for (const u32 i : order) {
      const Record& r = records_[i];
      for (int reg = 0; reg < x86::kNumRegs; ++reg) {
        const bool pure = r.controlled & reg_bit(static_cast<Reg>(reg));
        const bool transfer =
            (r.settable & reg_bit(static_cast<Reg>(reg))) && !pure;
        if ((pass == 0 && pure) || (pass == 1 && transfer))
          by_reg_[reg].push_back(i);
      }
    }
  }
  for (u32 i = 0; i < records_.size(); ++i)
    if (records_[i].end == EndKind::Syscall) syscall_gadgets_.push_back(i);
}

}  // namespace gp::gadget
