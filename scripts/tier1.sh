#!/usr/bin/env bash
# Tier-1 verification: a diagnostics lint, full build + test suite, then
# the concurrency tests again under ThreadSanitizer (catches data races
# the functional suite can't), then the robustness/fault-injection suite
# under ASan+UBSan (catches memory errors on the degradation paths, which
# by design unwind through partially-built state), then a kill-resume
# drill: SIGKILL the pipeline mid-extraction and prove the checkpoint
# store resumes it to byte-identical payloads. Run from the repo root.
#
# Suites carry ctest labels (unit / robustness / slow) so stages can select:
#   ctest -L robustness        only the chaos/degradation suites
#   ctest -LE slow             everything but the whole-pipeline sweeps
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: diagnostics lint =="
# One diagnostics channel: library code reports through Stats counters,
# the metrics registry and trace spans, never by printing to stderr, and
# reads the environment only through gp::Config (support/config.cpp).
# Each violation prints as file:line:text.
lint_failed=0
lint() { # rule, grep hits ("" = clean)
  [ -z "$2" ] && return 0
  echo "lint: $1"
  echo "$2"
  lint_failed=1
}
lint "stderr printer in src/" \
  "$(grep -rnE 'fprintf\(\s*stderr|std::cerr' src || true)"
lint "getenv outside src/support/config.cpp" \
  "$(grep -rnE 'getenv\s*\(' src | grep -v '^src/support/config\.cpp:' || true)"
lint "debug-trace env knob" \
  "$(grep -rn 'GP_DEBU[G]_' src tools scripts || true)"
# One configuration path: lanes, fault spec and per-analysis policy reach
# sessions only through an Engine's Config, and the process-wide state
# (pool size, metrics and trace switches) reads the gp::config() snapshot,
# so inside src/ only the config parser calls Config::from_env(), and the
# deleted env-reading helpers stay gone.
lint "Config::from_env() call outside support/config.cpp" \
  "$(grep -rn 'Config::from_env()' src \
     | grep -vE '^src/support/config\.cpp:' \
     | grep -vE '^[^:]+:[0-9]+:\s*//' || true)"
lint "deleted env-reading option helper" \
  "$(grep -rnE 'GovernorOptions::from_env|SupervisorOptions|store_dir_from_env|ArtifactStore::from_env|ServeOptions::from_env|GP_RETRIES|env_threads|ThreadPool::resolve|configure_from_env' \
     src tools bench examples || true)"
# One configuration surface: an analysis bound with a single value in use
# is a named constant, not an option field, so the deleted knobs stay gone.
lint "deleted analysis knob" \
  "$(grep -rnwE 'ExtractOptions|merge_hash_bits|drop_wild_stores|max_retries|validation_trials|max_plan_gadgets|max_open_goals|max_concretize_failures|time_budget_seconds' \
     src tools bench examples tests || true)"
# One stop clock: the governor's deadline is the only wall clock a stage
# stops on, so no stage builds a private Deadline of its own.
lint "private deadline outside support/governor.hpp" \
  "$(grep -rn 'Deadline::after_seconds(' src \
     | grep -v '^src/support/governor\.hpp:' || true)"
# One job path: core::compile_image is the one source -> obfuscate ->
# compile path and core::plan_goals the one goal loop and result digest
# (campaign.cpp), so no other program code encodes chains (session.cpp's
# plan checkpoint aside) or compiles mini-C itself.
lint "job path outside core::compile_image / core::plan_goals" \
  "$(grep -rn 'encode_chains(' src tools bench \
       | grep -vE '^(src/payload/|src/core/(campaign|session)\.cpp:)' || true
     grep -rnE 'minic::compile_source|codegen::compile\(' src/serve tools bench \
       examples || true)"
[ "$lint_failed" -eq 0 ] || { echo "diagnostics lint failed"; exit 1; }
echo "diagnostics lint ok"

echo "== tier-1: build + full test suite (GP_THREADS=1, then 4) =="
# The sequential path and the parallel shard/lane paths are different
# code; the suite must pass on both, whatever the host's core count.
cmake -B build -S .
cmake --build build -j
for threads in 1 4; do
  echo "-- ctest at GP_THREADS=$threads"
  (cd build && GP_THREADS=$threads ctest --output-on-failure -j)
done

echo "== tier-1: kill-resume determinism drill =="
# GP_THREADS=1 pins the exact sequential path: the subsumption winnow is
# deterministic even when its solver-check budget is exhausted, so a cold
# run and a killed-then-resumed run must emit byte-identical payloads.
KR_TMP=$(mktemp -d)
trap 'rm -rf "$KR_TMP"' EXIT
mkdir -p "$KR_TMP/cold" "$KR_TMP/warm" "$KR_TMP/store"
PIPELINE=build/tools/gp_pipeline
# True once <dir> holds at least one published artifact.
has_artifact() { compgen -G "$1/*.gpa" >/dev/null; }

echo "-- cold reference run (no store)"
GP_THREADS=1 "$PIPELINE" --goal execve --out "$KR_TMP/cold" --report

echo "-- interrupted run (SIGKILL mid-pipeline)"
# The kill must land AFTER at least one stage checkpoint has committed
# (extract+subsume finish in ~0.3s; planning takes ~1s) or the "resume"
# would just be a cold recompute. An artifact counts once its rename
# lands: a *.gpa file is complete and self-checking, and a kill before
# the rename leaves only a temp file the store never reads. Retry with a
# longer fuse on slow or loaded machines until a checkpoint has committed.
set +e
for fuse in 0.45 0.9 1.8 3.6; do
  GP_THREADS=1 GP_STORE_DIR="$KR_TMP/store" \
    "$PIPELINE" --goal execve --out "$KR_TMP/warm" >/dev/null 2>&1 &
  victim=$!
  sleep "$fuse"
  kill -KILL "$victim" 2>/dev/null
  wait "$victim" 2>/dev/null
  has_artifact "$KR_TMP/store" && break
  echo "   (no checkpoint committed within ${fuse}s; retrying)"
done
set -e
has_artifact "$KR_TMP/store"

echo "-- resumed run (same store)"
GP_THREADS=1 GP_STORE_DIR="$KR_TMP/store" \
  "$PIPELINE" --goal execve --out "$KR_TMP/warm" --report \
  | tee "$KR_TMP/resumed.report"
# The dead writer's checkpoints must be served as cross-process resumes.
grep -q "resumes=1" "$KR_TMP/resumed.report"
# Each artifact file is its own proof: the store keeps no manifest.
[ ! -e "$KR_TMP/store/manifest.gpm" ] \
  || { echo "store wrote a manifest.gpm"; exit 1; }

echo "-- diffing payloads"
diff -r "$KR_TMP/cold" "$KR_TMP/warm"
echo "kill-resume payloads byte-identical"

echo "== tier-1: campaign batch run (4 concurrent sessions) =="
# The whole corpus through gp_pipeline --campaign: 4 sessions at a time on
# one engine. The JSON summary must parse, no job may fail outright
# (degraded-but-usable statuses are acceptable), and — the multi-tenant
# determinism claim — the per-job result digests must be byte-identical to
# a sequential (--jobs 1) run of the same campaign: concurrency does not
# change results. The 4-way summary is kept as the BENCH_pipeline.json
# perf artifact (per-stage seconds, pool sizes, chain counts per job).
# Campaign exit codes are 0 ok / 3 degraded / 4 failed; degraded jobs
# (deadline/budget, still usable) are acceptable here — the python below
# separately asserts that nothing failed outright.
rc=0
"$PIPELINE" --campaign --profiles llvm-obf --goal execve --jobs 4 \
  --summary BENCH_pipeline.json --trace-out "$KR_TMP/trace.json" || rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ]
rc=0
"$PIPELINE" --campaign --profiles llvm-obf --goal execve \
  --jobs 1 --summary "$KR_TMP/campaign-seq.json" >/dev/null || rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ]
python3 - BENCH_pipeline.json "$KR_TMP/campaign-seq.json" <<'PY'
import json, sys
par, seq = (json.load(open(p)) for p in sys.argv[1:3])
assert par["schema"] == "gp-campaign-v1", par["schema"]
assert par["jobs"] == len(par["results"]) > 0
bad = [r for r in par["results"] if r["status"] == "internal"]
assert par["jobs_failed"] == 0 and not bad, f"failed jobs: {bad}"
dig = lambda s: {(r["program"], r["obfuscation"], r["opt_level"]): r["digest"]
                 for r in s["results"]}
assert dig(par) == dig(seq), "concurrency changed campaign results"
print(f'campaign: {par["jobs"]} jobs ok, '
      f'4-way digests == sequential digests')
PY

echo "== tier-1: SAT identity (campaign digests == perfbench reference) =="
# Every chain comes out of the SAT core's decisions and models, so a change
# to the search (decision order, learned clauses, models) shows as a
# changed result digest. The sequential llvm-obf campaign must reproduce
# the digest.* lines of perfbench/reference/obf-plan.txt (read only): both
# are fnv1a over the goal name and encode_chains of each job's chains.
rc=0
GP_THREADS=1 "$PIPELINE" --campaign --profiles llvm-obf --seed 7 --jobs 4 \
  --goal execve --summary "$KR_TMP/sat-identity.json" >/dev/null || rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ]
python3 - "$KR_TMP/sat-identity.json" perfbench/reference/obf-plan.txt <<'PY'
import json, sys
summary = json.load(open(sys.argv[1]))
ref = {}
for line in open(sys.argv[2]):
    key, _, value = line.strip().partition(" ")
    if key.startswith("digest."):
        ref[key[len("digest."):]] = value
got = {r["program"]: r["digest"] for r in summary["results"]}
diff = sorted(set(got.items()) ^ set(ref.items()))
assert ref and got == ref, f"SAT search changed campaign digests: {diff}"
print(f"SAT identity: {len(got)} llvm-obf digests == perfbench reference")
PY

echo "== tier-1: planner index drill =="
# Three claims over the campaign run:
#  1. Unreachable goals fail fast: any job the reachability precheck
#     rejected must spend under a second in the plan stage (they used to
#     burn the full ~57s search budget each to find nothing).
#  2. The search stays out of dead ends: the aggregate dead-end/expansion
#     ratio stays bounded (the pre-index planner sat near 195 dead ends
#     per expansion on this corpus).
#  3. The planner counters are present and the index actually served the
#     search (hits > 0 across the campaign). Counters of deleted planner
#     machinery must not come back.
python3 - BENCH_pipeline.json <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
res = s["results"]
counters = ("plan_index_hits", "plan_needs_truncated",
            "plan_unreachable_goals")
for r in res:
    for c in counters:
        assert c in r["metrics"], f'{r["program"]}: missing {c}'
    for c in ("plan_nogood_hits", "plan_nogood_learned"):
        assert c not in r["metrics"], f'{r["program"]}: stale counter {c}'
unreachable = [r for r in res if r["metrics"]["plan_unreachable_goals"] > 0]
slow = [(r["program"], r["obfuscation"], r["plan_seconds"])
        for r in unreachable if r["plan_seconds"] >= 1.0]
assert not slow, f"unreachable jobs not fast-failed: {slow}"
for r in unreachable:
    assert r["chains_total"] == 0, \
        f'{r["program"]}: precheck rejected a goal that produced chains'
exp = sum(r["metrics"]["plan_expansions"] for r in res)
dead = sum(r["metrics"]["plan_dead_ends"] for r in res)
ratio = dead / max(exp, 1)
assert ratio < 32, f"dead-end/expansion ratio regressed: {ratio:.1f}"
assert sum(r["metrics"]["plan_index_hits"] for r in res) > 0
print(f'planner drill: {len(unreachable)} unreachable jobs fast-failed, '
      f'dead-end ratio {ratio:.2f}, index counters live')
PY

echo "== tier-1: observability drill =="
# The campaign above also wrote a Chrome trace (--trace-out). It must
# parse, every job must carry a job span, every session all three stage
# spans, and the summary the aggregate metrics block plus the
# critical-path verdict. Solver accounting: every check() counts exactly
# one outcome (there is no query memo), so checks == sat + unsat + unknown.
# Extraction decodes each byte about once: decode.attempts counts decode
# cache misses, which stay under two per scanned offset (without the cache
# every path step decoded again, ~9.9 per offset).
python3 - BENCH_pipeline.json "$KR_TMP/trace.json" <<'PY'
import json, sys
summary, trace = (json.load(open(p)) for p in sys.argv[1:3])
assert trace.get("displayTimeUnit") == "ms"
events = trace["traceEvents"]
assert events and all(e["ph"] == "X" and "ts" in e and "dur" in e
                      for e in events)
jobs = [e for e in events if e["cat"] == "job"]
assert len(jobs) == summary["jobs"], (len(jobs), summary["jobs"])
sessions = {}
for e in events:
    if e["cat"] == "stage" and e["args"]["session"]:
        sessions.setdefault(e["args"]["session"], set()).add(e["name"])
with_all = [s for s in sessions.values()
            if {"extract", "subsume", "plan"} <= s]
assert len(with_all) >= summary["jobs"], (len(with_all), summary["jobs"])
counters = summary["metrics"]["counters"]
assert counters["solver.checks"] > 0 and counters["extract.gadgets"] > 0
outcomes = sum(counters[f"solver.{k}"] for k in ("sat", "unsat", "unknown"))
assert counters["solver.checks"] == outcomes, (counters["solver.checks"],
                                               outcomes)
assert "solver.cache_hits" not in counters
decodes, scanned = counters["decode.attempts"], counters["extract.offsets_scanned"]
assert decodes <= 2 * scanned, \
    f"decode cache not serving: {decodes} decodes for {scanned} offsets"
cp = summary["critical_path"]
assert cp["job"] >= 0 and cp["stage"] in ("extract", "subsume", "plan"), cp
print(f'observability: {len(jobs)} job spans, {len(with_all)} sessions '
      f'with all three stage spans, aggregate metrics + critical path ok, '
      f'{decodes / scanned:.2f} decodes per scanned offset')
PY

# Disabled-mode cost: GP_METRICS=0 GP_TRACE=0 must stay within noise of
# the default instrumented run. The bound is deliberately generous (25%)
# so loaded CI machines don't flake; the traced cost is measured by
# perfbench's trace.overhead_frac. Each side is the best of 5 runs in
# user+sys CPU seconds, which other tenants of a shared host disturb far
# less than wall time.
python3 - "$PIPELINE" <<'PY'
import os, resource, subprocess, sys
pipeline = sys.argv[1]
def cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
def best(extra, runs=5):
    env = dict(os.environ, **extra)
    times = []
    for _ in range(runs):
        c0 = cpu_s()
        subprocess.run([pipeline, "--goal", "execve"], check=True,
                       stdout=subprocess.DEVNULL, env=env)
        times.append(cpu_s() - c0)
    return min(times)
on = best({"GP_METRICS": "1", "GP_TRACE": "1"})
off = best({"GP_METRICS": "0", "GP_TRACE": "0"})
assert off <= on * 1.25, f"disabled run slower than instrumented: {off} vs {on}"
print(f"observability overhead: instrumented {on:.2f} CPU s, "
      f"disabled {off:.2f} CPU s")
PY

echo "== tier-1: opt-level drill (determinism, distinctness, store isolation) =="
# Three claims about codegen -O0/-O2:
#  1. Per-level determinism: compiling the same program twice at one level
#     yields byte-identical images, and a campaign re-run at the same
#     levels yields identical result digests per (program, profile, level).
#  2. Distinctness: the O0 and O2 images of one program differ (the
#     optimizer is not a no-op).
#  3. Store isolation: artifact-store keys are derived from image bytes,
#     so a warm O2 run over a store populated at O0 must recompute from
#     scratch — never serve an O0 checkpoint to an O2 analysis. A second
#     O2 run over the same store then must resume (positive control that
#     the store itself works at O2).
OPT="$KR_TMP/opt"
mkdir -p "$OPT/store"
# Single-job pipeline runs exit 1 when a goal finds zero chains; at O2
# that is a legitimate measured outcome (the optimizer shrinks the gadget
# surface), not a tooling failure. Tolerate exit<=1, reject anything else.
run_opt() { # opt_level image_path [extra args...]
  local _lvl="$1" _img="$2" _rc=0; shift 2
  GP_OPT_LEVEL=$_lvl "$PIPELINE" --goal execve \
    --save-image "$_img" "$@" >/dev/null || _rc=$?
  [ "$_rc" -le 1 ] || { echo "O$_lvl pipeline failed (rc=$_rc)"; exit 1; }
}
for level in 0 2; do
  run_opt "$level" "$OPT/a$level.gpim"
  run_opt "$level" "$OPT/b$level.gpim"
  cmp "$OPT/a$level.gpim" "$OPT/b$level.gpim" \
    || { echo "O$level images not deterministic"; exit 1; }
done
cmp -s "$OPT/a0.gpim" "$OPT/a2.gpim" \
  && { echo "O0 and O2 images are byte-identical (optimizer inert)"; exit 1; }
echo "   image determinism per level ok; O0 != O2"

rc=0
"$PIPELINE" --campaign --profiles none --opt-levels 0,2 --goal execve \
  --jobs 2 --summary "$OPT/opt-a.json" >/dev/null || rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ]
rc=0
"$PIPELINE" --campaign --profiles none --opt-levels 0,2 --goal execve \
  --jobs 2 --summary "$OPT/opt-b.json" >/dev/null || rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ]
python3 - "$OPT/opt-a.json" "$OPT/opt-b.json" <<'PY'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
dig = lambda s: {(r["program"], r["obfuscation"], r["opt_level"]): r["digest"]
                 for r in s["results"]}
da, db = dig(a), dig(b)
assert da == db, "campaign digests not deterministic per opt level"
levels = {k[2] for k in da}
assert levels == {0, 2}, f"opt_level axis not fanned: {levels}"
print(f'   campaign: {len(da)} (program, profile, level) digests '
      f'deterministic across re-runs, levels {sorted(levels)} present')
PY

echo "-- store isolation: O2 over an O0-populated store must recompute"
GP_THREADS=1 GP_OPT_LEVEL=0 GP_STORE_DIR="$OPT/store" \
  "$PIPELINE" --goal execve >/dev/null
# Capture reports to files rather than grepping mid-pipe: under pipefail
# an exit-1 (zero chains) from the O2 pipeline would poison the pipe
# status and mask what the grep actually found.
run_o2_report() { # report_path
  local _rc=0
  GP_THREADS=1 GP_OPT_LEVEL=2 GP_STORE_DIR="$OPT/store" \
    "$PIPELINE" --goal execve --report >"$1" || _rc=$?
  [ "$_rc" -le 1 ] || { echo "O2 pipeline failed (rc=$_rc)"; exit 1; }
}
run_o2_report "$OPT/o2-cold.report"
grep -E 'hits=[1-9]|resumes=[1-9]' "$OPT/o2-cold.report" \
  && { echo "O2 run reused O0 checkpoints (store keys not isolated)"; exit 1; }
run_o2_report "$OPT/o2-warm.report"
grep -Eq 'hits=[1-9]|resumes=[1-9]' "$OPT/o2-warm.report" \
  || { echo "second O2 run did not reuse its own checkpoints"; exit 1; }
echo "   O0-store never served the O2 run; O2 re-run reused its own work"

echo "== tier-1: serve drill (concurrency, SIGKILL, resume, shed, drain) =="
# The daemon's crash-tolerance claims, end to end over a real socket:
#   1. 32 concurrent gp_client submits against one warm engine all succeed
#      and their digests form the reference set.
#   2. SIGKILL the daemon mid-flight on a fresh store; the artifact
#      store's committed checkpoints survive the crash.
#   3. A restarted daemon on the same store resumes the reissued requests
#      warm (cache hits / resumes observed) to byte-identical digests.
#   4. With GP_SERVE_QUEUE-sized admission (queue=1, max-active=1) a
#      burst is shed with RETRY_AFTER (gp_client exit 5, serve.shed > 0,
#      every shed counted as queue-full).
#   5. SIGTERM drains: admitted work finishes, exit status 0, artifacts
#      on disk.
#   6. Journal replay: a SIGKILLed daemon's *backlog* (admitted, not yet
#      finished) is re-enqueued by the restarted daemon itself and
#      finishes with digests identical to a clean run — clients only
#      attach, nothing is resubmitted.
#   7. Poison quarantine: a job that crashes the daemon twice
#      (GP_FAULT=job_crash=1) is quarantined by the third, healthy
#      daemon and answered `poisoned` instead of crashing it again.
SERVE=build/tools/gp_serve
CLIENT=build/tools/gp_client
SV="$KR_TMP/serve"
mkdir -p "$SV/store-ref" "$SV/store" "$SV/out"
SOCK="$SV/gp.sock"
SERVE_PID=

start_serve() { # store_dir queue max_active
  : > "$SV/ready"
  "$SERVE" --sock "$SOCK" --store "$1" --queue "$2" --max-active "$3" \
    --ready-fd 3 3>"$SV/ready" 2>>"$SV/serve.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$SV/ready" ] && return 0
    sleep 0.1
  done
  echo "gp_serve failed to become ready"; return 1
}

# 8 cheap corpus programs x 4 seeds = 32 distinct jobs (seed is part of
# the job id and, under an obfuscating profile, of the result).
PROGRAMS=(bubble_sort binary_search crc32 fibonacci
          gcd_lcm primes_sieve string_search state_machine)
submit_all() { # outdir  — 32 concurrent clients, wait for all
  local outdir=$1 i=0 pids=()
  for prog in "${PROGRAMS[@]}"; do
    for seed in 5 6 7 8; do
      "$CLIENT" --sock "$SOCK" submit --program "$prog" --obf substitution \
        --seed "$seed" --quiet --retries 8 \
        > "$outdir/$i.out" 2>"$outdir/$i.err" &
      pids+=($!)
      i=$((i + 1))
    done
  done
  local ok=0
  for pid in "${pids[@]}"; do
    wait "$pid" && ok=$((ok + 1)) || true
  done
  echo "$ok"
}
digests() { # outdir — "program seed digest" per completed request, sorted
  local outdir=$1 i=0
  for prog in "${PROGRAMS[@]}"; do
    for seed in 5 6 7 8; do
      local line
      line=$(grep -o 'digest=[0-9a-f]*' "$outdir/$i.out" 2>/dev/null || true)
      [ -n "$line" ] && echo "$prog $seed $line"
      i=$((i + 1))
    done
  done | sort
}

echo "-- reference pass: 32 concurrent requests, SIGTERM drain"
start_serve "$SV/store-ref" 64 4
mkdir -p "$SV/out/ref"
ok=$(submit_all "$SV/out/ref")
[ "$ok" -eq 32 ] || { echo "reference pass: only $ok/32 requests ok"; exit 1; }
digests "$SV/out/ref" > "$SV/ref.digests"
[ "$(wc -l < "$SV/ref.digests")" -eq 32 ]
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"   # drain must exit 0 (set -e enforces)
has_artifact "$SV/store-ref"
echo "   32/32 ok, SIGTERM drain exited 0, artifacts committed"

echo "-- crash pass: SIGKILL mid-flight on a fresh store"
# The kill must land after at least one checkpoint committed but while
# requests are still in flight; retry with a longer fuse on slow machines.
for fuse in 0.4 0.8 1.6 3.2; do
  rm -rf "$SV/store"; mkdir -p "$SV/store"
  start_serve "$SV/store" 64 4
  mkdir -p "$SV/out/crash"
  ( submit_all "$SV/out/crash" >/dev/null 2>&1 || true ) &
  burst=$!
  sleep "$fuse"
  kill -KILL "$SERVE_PID" 2>/dev/null || true
  wait "$SERVE_PID" 2>/dev/null || true
  wait "$burst" 2>/dev/null || true
  has_artifact "$SV/store" && break
  echo "   (no checkpoint committed within ${fuse}s; retrying)"
done
has_artifact "$SV/store"

echo "-- restart pass: same store, reissue all 32, byte-identical digests"
start_serve "$SV/store" 64 4   # probes + replaces the stale socket
mkdir -p "$SV/out/warm"
ok=$(submit_all "$SV/out/warm")
[ "$ok" -eq 32 ] || { echo "restart pass: only $ok/32 requests ok"; exit 1; }
digests "$SV/out/warm" > "$SV/warm.digests"
diff "$SV/ref.digests" "$SV/warm.digests"
grep -q 'warm=1' "$SV"/out/warm/*.out \
  || { echo "no request resumed warm after restart"; exit 1; }
warm_n=$(grep -l 'warm=1' "$SV"/out/warm/*.out | wc -l)
echo "   digests byte-identical to reference; $warm_n/32 resumed warm"
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"

echo "-- shed pass: queue=1, max-active=1, burst must shed with RETRY_AFTER"
start_serve "$SV/store" 1 1
# Fill the one active slot and the one queue slot with fresh (uncached)
# jobs, then a burst of further submits must be shed: gp_client exits 5
# and prints the daemon's retry hint.
"$CLIENT" --sock "$SOCK" submit --program hash_table --obf llvm-obf \
  --seed 101 --no-stream --quiet >/dev/null
"$CLIENT" --sock "$SOCK" submit --program hash_table --obf llvm-obf \
  --seed 102 --no-stream --quiet >/dev/null
shed=0
for seed in 103 104 105; do
  rc=0
  "$CLIENT" --sock "$SOCK" submit --program hash_table --obf llvm-obf \
    --seed "$seed" --no-stream --quiet >"$SV/shed.$seed.out" 2>/dev/null \
    || rc=$?
  [ "$rc" -eq 5 ] && grep -q 'retry_after_ms=' "$SV/shed.$seed.out" \
    && shed=$((shed + 1))
done
[ "$shed" -gt 0 ] || { echo "tiny queue never shed a request"; exit 1; }
"$CLIENT" --sock "$SOCK" stats > "$SV/stats.json"
python3 - "$SV/stats.json" "$shed" <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
counters = stats["metrics"]["counters"]
assert counters.get("serve.shed", 0) >= int(sys.argv[2]), counters
# queue-full is the only admission limit a live daemon sheds on (draining
# aside), so the per-reason counter must account for every shed.
assert counters["serve.shed"] == counters.get("serve.shed.queue-full", 0), \
    counters
assert stats["serve"]["queue_limit"] == 1
# The job deadline is what frees a worker; no separate watchdog exists.
assert "watchdog_kills" not in stats["serve"], stats["serve"]
assert "serve.watchdog_kills" not in counters, counters
print(f'   shed {counters["serve.shed"]} requests '
      f'(client saw {sys.argv[2]} exit-5s), counters live')
PY
# Drain must still finish the admitted (slow, llvm-obf) jobs and exit 0.
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
has_artifact "$SV/store"

echo "-- replay pass: SIGKILL with a queued backlog; the journal re-enqueues it"
# Four slow jobs are admitted --no-stream (the clients are gone before
# any work starts), then the daemon is SIGKILLed. The restarted daemon
# must finish the backlog FROM THE JOURNAL ALONE: clients only attach,
# and every digest matches a clean never-crashed run byte for byte.
rm -rf "$SV/store-j" "$SV/store-jref"
mkdir -p "$SV/store-j" "$SV/store-jref" "$SV/out/replay"
start_serve "$SV/store-j" 64 2
for seed in 111 112 113 114; do
  "$CLIENT" --sock "$SOCK" submit --program hash_table --obf llvm-obf \
    --seed "$seed" --no-stream --quiet > "$SV/out/replay/$seed.sub"
done
kill -KILL "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
start_serve "$SV/store-j" 64 2
grep -q 'journal replay:' "$SV/serve.log"
depth=-1
for _ in $(seq 1 240); do
  depth=$("$CLIENT" --sock "$SOCK" stats | python3 -c \
    'import json,sys; print(json.load(sys.stdin)["serve"]["journal_depth"])')
  [ "$depth" -eq 0 ] && break
  sleep 0.25
done
[ "$depth" -eq 0 ] || { echo "journal backlog never drained"; exit 1; }
for seed in 111 112 113 114; do
  jid=$(grep -o 'job-[0-9a-f]*' "$SV/out/replay/$seed.sub" | head -1)
  "$CLIENT" --sock "$SOCK" attach "$jid" --quiet > "$SV/out/replay/$seed.out"
  grep -q 'status=ok' "$SV/out/replay/$seed.out"
done
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
start_serve "$SV/store-jref" 64 2   # clean reference: same specs, no crash
for seed in 111 112 113 114; do
  "$CLIENT" --sock "$SOCK" submit --program hash_table --obf llvm-obf \
    --seed "$seed" --quiet > "$SV/out/replay/$seed.ref"
done
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
for seed in 111 112 113 114; do
  diff <(grep -o 'digest=[0-9a-f]*' "$SV/out/replay/$seed.out") \
       <(grep -o 'digest=[0-9a-f]*' "$SV/out/replay/$seed.ref")
done
echo "   journal replay finished 4 killed jobs; digests match the clean run"

echo "-- quarantine pass: a job that crashes the daemon twice is poisoned"
# GP_FAULT=job_crash=1 makes the worker abort() the whole process at job
# start. The submit itself races the abort (admission is journaled before
# the reply, but the reply write can lose), so admitting the poison job
# retries — an identical resubmit dedupes onto the journaled record, and
# every extra daemon death only pushes the job further past the
# kPoisonRetries (2) threshold.
rm -rf "$SV/store-q"; mkdir -p "$SV/store-q"
jid=
for _ in 1 2 3; do
  : > "$SV/ready"
  GP_FAULT=job_crash=1 "$SERVE" --sock "$SOCK" --store "$SV/store-q" \
    --ready-fd 3 3>"$SV/ready" 2>>"$SV/serve.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$SV/ready" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
  done
  "$CLIENT" --sock "$SOCK" submit --program crc32 --obf substitution \
    --seed 201 --no-stream --quiet > "$SV/poison.submit" 2>/dev/null || true
  jid=$(grep -o 'job-[0-9a-f]*' "$SV/poison.submit" | head -1 || true)
  for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
  done
  kill -KILL "$SERVE_PID" 2>/dev/null || true
  wait "$SERVE_PID" 2>/dev/null || true
  [ -n "$jid" ] && break
done
[ -n "$jid" ] || { echo "could not admit the poison job"; exit 1; }
# Incarnation 2: replay re-enqueues the job; the worker aborts again. If
# earlier attempts already pushed it past the threshold, the daemon
# quarantines at replay and stays alive — terminate it ourselves then.
GP_FAULT=job_crash=1 "$SERVE" --sock "$SOCK" --store "$SV/store-q" \
  2>>"$SV/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 300); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
kill -KILL "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
start_serve "$SV/store-q" 64 4      # healthy incarnation 3
rc=0
"$CLIENT" --sock "$SOCK" attach "$jid" --quiet \
  > "$SV/poison.out" 2>"$SV/poison.err" || rc=$?
[ "$rc" -eq 4 ] || { echo "poisoned job not answered failed (rc=$rc)"; exit 1; }
grep -q 'poisoned' "$SV/poison.err"
"$CLIENT" --sock "$SOCK" stats | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["serve"]["quarantined"] >= 1, s["serve"]
print("   quarantined after repeated daemon deaths; poisoned answer, exit 4")'
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
echo "serve drill: crash-resume digests identical, shed + drain verified,"
echo "             journal replay + poison quarantine verified"

echo "== tier-1: chaos matrix (bounded) =="
# The full sweep (every fault point x rates x kill timings) lives in
# tools/gp_chaos and EXPERIMENTS.md; this bounded slice keeps tier-1
# honest on the journal's own fault points plus sock_write (whose eaten
# admission replies once deadlocked handler and client in read — the
# regression this slice pins). gp_chaos exits non-zero if any round
# loses a job, diverges a digest, or fails to converge.
build/tools/gp_chaos --quick \
  --points journal_append,journal_replay,job_crash,sock_write \
  --out "$KR_TMP/chaos.json"
python3 - "$KR_TMP/chaos.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))
assert c["failed"] == 0 and c["total"] >= 8, (c["failed"], c["total"])
print(f'chaos: {c["total"]} rounds, 0 failed')
PY

echo "== tier-1: concurrency tests under ThreadSanitizer =="
cmake --preset tsan
cmake --build build-tsan -j --target test_support test_parallel
(cd build-tsan && ctest -R 'ThreadPool|Parallel' --output-on-failure)

echo "== tier-1: robustness + fault-injection tests under ASan/UBSan =="
# test_serve carries the journal corruption sweep (torn tail, bit flip,
# torn append, version bump) — exactly the paths that unwind through
# partially-parsed bytes, so they run under ASan here too. The solver
# suites run here as well: the SAT core's order heap (heap slots, child
# positions) and clause arena (clause offsets), the bit-blaster's gate
# table, the expression interner's open-addressing table and its variable
# index (probe and growth slot arithmetic; the Context suite grows the
# index through eleven doublings), and the DAG walks' inline buffers
# spilling to the heap, are index arithmetic of the kind ASan catches.
cmake --preset asan
cmake --build build-asan -j --target test_governor test_robustness test_store \
  test_serve test_solver
(cd build-asan && ctest -L robustness --output-on-failure)
(cd build-asan && ctest -R 'SatCore|Solver|ExprTest|Context\.' \
  --output-on-failure)

echo "== tier-1: OK =="
