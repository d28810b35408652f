#include "solver/sat.hpp"

#include <algorithm>
#include <cmath>

namespace gp::solver {

u32 Sat::new_var() {
  const u32 v = static_cast<u32>(assign_.size());
  assign_.push_back(2);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(0);
  polarity_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(kNotInHeap);
  heap_insert(v);
  return v;
}

void Sat::heap_insert(u32 v) {
  heap_pos_[v] = static_cast<u32>(heap_.size());
  heap_.push_back(v);
  sift_up(heap_pos_[v]);
}

void Sat::sift_up(u32 pos) {
  const u32 v = heap_[pos];
  while (pos > 0) {
    const u32 parent = (pos - 1) / 2;
    if (!before(v, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

void Sat::sift_down(u32 pos) {
  const u32 v = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * static_cast<size_t>(pos) + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], v)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = pos;
    pos = static_cast<u32>(child);
  }
  heap_[pos] = v;
  heap_pos_[v] = pos;
}

bool Sat::add_clause(std::span<const Lit> in) {
  if (unsat_) return false;
  GP_CHECK(trail_lim_.empty(), "add_clause only at decision level 0");

  // Deduplicate; drop clauses containing both l and ~l (tautology) or
  // literals already false at level 0. The kept literals are compacted to
  // the front of scratch_, in sorted order.
  scratch_.assign(in.begin(), in.end());
  std::sort(scratch_.begin(), scratch_.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  size_t n = 0;
  Lit prev{kNoReason};
  for (size_t i = 0; i < scratch_.size(); ++i) {
    const Lit l = scratch_[i];
    if (i + 1 < scratch_.size() && scratch_[i + 1].code == (l.code ^ 1))
      return true;  // tautology
    if (l == prev) continue;
    prev = l;
    const i8 v = value(l);
    if (v == 1) return true;  // already satisfied at level 0
    if (v == 0) continue;     // already false: drop literal
    scratch_[n++] = l;
  }

  if (n == 0) {
    unsat_ = true;
    return false;
  }
  if (n == 1) {
    enqueue(scratch_[0], kNoReason);
    if (propagate() != kNoReason) {
      unsat_ = true;
      return false;
    }
    return true;
  }
  store(std::span<const Lit>(scratch_.data(), n), false);
  return true;
}

u32 Sat::store(std::span<const Lit> ls, bool learned) {
  GP_CHECK(arena_.size() + ls.size() <= 0xffffffffu, "clause arena full");
  const u32 idx = static_cast<u32>(clauses_.size());
  clauses_.push_back({static_cast<u32>(arena_.size()),
                      static_cast<u32>(ls.size()), learned});
  arena_.insert(arena_.end(), ls.begin(), ls.end());
  watches_[(~ls[0]).code].push_back({idx, ls[1]});
  watches_[(~ls[1]).code].push_back({idx, ls[0]});
  return idx;
}

void Sat::enqueue(Lit l, u32 reason) {
  GP_CHECK(value(l) == 2, "enqueue on assigned literal");
  assign_[l.var()] = static_cast<i8>(!l.sign());
  level_[l.var()] = static_cast<u32>(trail_lim_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

u32 Sat::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p became true; scan watches of p
    auto& ws = watches_[p.code];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      const Watch w = ws[i];
      if (value(w.blocker) == 1) {
        ws[keep++] = w;
        continue;
      }
      Lit* c = lits(w.clause);
      const u32 size = clauses_[w.clause].size;
      // Ensure the false literal (~p) is at position 1.
      if (c[0] == ~p) std::swap(c[0], c[1]);
      if (value(c[0]) == 1) {
        ws[keep++] = {w.clause, c[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (u32 k = 2; k < size; ++k) {
        if (value(c[k]) != 0) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code].push_back({w.clause, c[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      ws[keep++] = w;
      if (value(c[0]) == 0) {
        // Conflict: copy the remaining watches and report.
        for (size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        qhead_ = trail_.size();
        return w.clause;
      }
      enqueue(c[0], w.clause);
    }
    ws.resize(keep);
  }
  return kNoReason;
}

void Sat::bump(u32 v) {
  activity_[v] += activity_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    activity_inc_ *= 1e-100;
    // Scaling keeps the activity order but can create ties, and ties are
    // ordered by index: rebuild rather than trust the old shape.
    for (size_t i = heap_.size() / 2; i-- > 0;) sift_down(static_cast<u32>(i));
  } else if (heap_pos_[v] != kNotInHeap) {
    sift_up(heap_pos_[v]);
  }
}

void Sat::decay() { activity_inc_ *= 1.0 / 0.95; }

void Sat::analyze(u32 confl, u32& backtrack_level) {
  learnt_.clear();
  learnt_.push_back({0});  // placeholder for the asserting literal
  int counter = 0;
  Lit p{0};
  bool first = true;
  size_t index = trail_.size();
  const u32 cur_level = static_cast<u32>(trail_lim_.size());

  for (;;) {
    const Lit* c = lits(confl);
    const u32 size = clauses_[confl].size;
    for (u32 j = first ? 0 : 1; j < size; ++j) {
      const Lit q = c[j];
      if (!seen_[q.var()] && level_[q.var()] > 0) {
        seen_[q.var()] = 1;
        bump(q.var());
        if (level_[q.var()] >= cur_level) {
          ++counter;
        } else {
          learnt_.push_back(q);
        }
      }
    }
    // Walk the trail backwards to the next marked literal.
    do {
      --index;
      p = trail_[index];
    } while (!seen_[p.var()]);
    seen_[p.var()] = 0;
    --counter;
    first = false;
    if (counter == 0) break;
    confl = reason_[p.var()];
    GP_CHECK(confl != kNoReason, "analyze hit a decision without reason");
  }
  learnt_[0] = ~p;

  // Backtrack level: highest level among the other literals.
  backtrack_level = 0;
  size_t max_i = 1;
  for (size_t i = 1; i < learnt_.size(); ++i) {
    if (level_[learnt_[i].var()] > backtrack_level) {
      backtrack_level = level_[learnt_[i].var()];
      max_i = i;
    }
  }
  if (learnt_.size() > 1) std::swap(learnt_[1], learnt_[max_i]);
  for (const Lit l : learnt_) seen_[l.var()] = 0;
}

void Sat::backtrack(u32 target) {
  if (trail_lim_.size() <= target) return;
  const size_t bound = trail_lim_[target];
  for (size_t i = trail_.size(); i-- > bound;) {
    const u32 v = trail_[i].var();
    polarity_[v] = static_cast<u8>(assign_[v]);
    assign_[v] = 2;
    reason_[v] = kNoReason;
    if (heap_pos_[v] == kNotInHeap) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target);
  qhead_ = bound;
}

Lit Sat::decide() {
  // Pop the top until it is unassigned: variables assigned since they
  // were inserted are removed lazily, here.
  while (!heap_.empty()) {
    const u32 best = heap_.front();
    heap_pos_[best] = kNotInHeap;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    if (assign_[best] == 2)
      return polarity_[best] ? Lit::pos(best) : Lit::neg(best);
  }
  return {kNoReason};
}

SatResult Sat::solve(i64 conflict_budget, const Governor* governor) {
  if (unsat_) return SatResult::Unsat;
  u64 restart_limit = 128;
  u64 conflicts_since_restart = 0;
  // Deadline/cancel poll stride: one steady_clock read per 128
  // propagate+decide rounds keeps the poll cost invisible next to unit
  // propagation while bounding overshoot to a few milliseconds.
  constexpr u64 kGovernorStride = 128;
  u64 since_poll = 0;

  for (;;) {
    if (governor && ++since_poll >= kGovernorStride) {
      since_poll = 0;
      if (governor->should_stop()) return SatResult::Unknown;
    }
    const u32 confl = propagate();
    if (confl != kNoReason) {
      ++conflicts_;
      ++conflicts_since_restart;
      if (conflict_budget >= 0 &&
          conflicts_ > static_cast<u64>(conflict_budget))
        return SatResult::Unknown;
      if (trail_lim_.empty()) return SatResult::Unsat;

      u32 bt_level = 0;
      analyze(confl, bt_level);
      backtrack(bt_level);

      if (learnt_.size() == 1) {
        enqueue(learnt_[0], kNoReason);
      } else {
        enqueue(learnt_[0], store(learnt_, true));
      }
      decay();
    } else {
      if (conflicts_since_restart >= restart_limit) {
        conflicts_since_restart = 0;
        restart_limit = restart_limit + (restart_limit >> 1);
        backtrack(0);
      }
      const Lit next = decide();
      if (next.code == kNoReason) return SatResult::Sat;
      trail_lim_.push_back(static_cast<u32>(trail_.size()));
      enqueue(next, kNoReason);
    }
  }
}

}  // namespace gp::solver
