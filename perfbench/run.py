#!/usr/bin/env python3
"""Repository benchmark: build the harness from source and run one workload.

    python3 perfbench/run.py --workload obf-plan|surface|serve-mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library sources plus the harness, RelWithDebInfo) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
only what changed. Every workload runs in its own process with its own
GP_THREADS. The last line of stdout is the result object; the lines before
it are the configuration stamp and, in traced runs, one row per job or
binary. Exit status is non-zero on a build failure, a correctness mismatch
or a timeout.

    python3 perfbench/run.py --workload <name> --write-reference

regenerates perfbench/reference/<name>.txt from the sequential reference
path (GP_THREADS=1, GP_PLAN_INDEX=0).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# GP_THREADS per workload (see README.md for why each one).
WORKLOAD_THREADS = {"obf-plan": "1", "surface": "4", "serve-mix": "1"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    res = subprocess.run(
        ["cmake", "--build", bdir, "--target", "gp_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(bdir, "gp_perfbench")
    return exe if res.returncode == 0 and os.path.exists(exe) else None


def source_id():
    """git HEAD when the checkout is a repository, plus a digest of the
    sources the harness builds, so a stamp names the exact program."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "src-" + h.hexdigest()[:16]
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            ident = head.stdout.strip() + "+" + ident
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ident


def work_dir(bdir):
    # serve-mix puts a unix socket here, and socket paths are short (108
    # bytes), so prefer a path relative to the checkout root.
    rel = os.path.relpath(os.path.join(bdir, f"work-{os.getpid()}"), ROOT)
    if len(rel) > 60 or rel.startswith(".."):
        rel = f".bench_build/work-{os.getpid()}"
    return rel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_THREADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log("build failed")
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("GP_")}
    env["GP_THREADS"] = WORKLOAD_THREADS[args.workload]
    if args.write_reference:
        env["GP_THREADS"] = "1"
        env["GP_PLAN_INDEX"] = "0"

    work = work_dir(bdir)
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference"), "--work", work,
           "--commit", source_id()]
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    lines = res.stdout.splitlines()
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    if res.returncode != 0:
        log(f"{args.workload} exited with {res.returncode}")
        return 1
    if args.write_reference:
        return 0
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok or not result["correct"]:
        log("no valid result line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
