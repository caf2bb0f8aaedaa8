#!/usr/bin/env python3
"""Checks that a change leaves every simulated metric bit-identical.

    python3 scripts/sim_identity.py --base <git-rev> [--allow-move <field>]...

The simulator is deterministic, so a change that only touches host time or
simplifies code must not move a single simulated number. This script builds
the perfbench binary twice, once from <git-rev> and once from the working
tree, runs every workload at --scale 0.25 for seeds 1 and 7919 with each
binary, and compares the binaries' "sim" objects and operation counts field
by field, exactly. Host-time figures are ignored. Fields named with
--allow-move are reported but tolerated.

perfbench runs SwitchFS only. The programs that also run the four baseline
systems (BASELINE_PROGRAMS) are built from both trees too, run at
SFS_BENCH_SCALE=0.1, and their stdout compared exactly; each prints only
simulated figures, so two runs of one binary print the same bytes. The
script exits 1 on any difference outside the allowed fields.

The base revision's committed files are extracted with `git archive` into
.bench_build/sim_identity/base-src, so nothing in the repository's .git is
touched. All builds live under .bench_build/sim_identity; the working
tree's are reused incrementally. The binaries are run directly;
perfbench/run.py is not used.
"""
import difflib
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "sim_identity"
SCALE = 0.25
SEEDS = (1, 7919)
COUNTS = ("correct", "attempted", "failed", "failures")
RUN_TIMEOUT_S = 600
BASELINE_PROGRAMS = ("bench_fig02_motivation", "bench_fig12_throughput",
                     "bench_fig13_latency", "bench_fig17_bursts",
                     "bench_fig19_endtoend", "skewed_create_storm")
BASELINE_SCALE = "0.1"


def sh(cmd, **kw):
    subprocess.run(cmd, check=True, **kw)


def build(src, out, configure_args, targets=()):
    """Configures CMake project `src` into `out` once, then builds `targets`
    (every target when empty)."""
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", str(src), "-B", str(out)] + configure_args + gen,
           stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", str(out), "-j", jobs] +
       (["--target"] + list(targets) if targets else []), stdout=sys.stderr)


def build_perfbench(src, out):
    """Builds perfbench from checkout `src` into `out`; returns the binary."""
    build(src / "perfbench", out, ["-DCMAKE_BUILD_TYPE=Release"])
    return out / "perfbench"


def build_programs(src, out):
    """Builds BASELINE_PROGRAMS from checkout `src` into `out`."""
    build(src, out, ["-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     "-DBUILD_TESTING=OFF"], BASELINE_PROGRAMS)


def run_program(build_dir, name):
    env = dict(os.environ, SFS_BENCH_SCALE=BASELINE_SCALE)
    p = subprocess.run([str(build_dir / name)], capture_output=True, text=True,
                       env=env, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise SystemExit(f"{build_dir / name} exited {p.returncode}: "
                         f"{p.stderr.strip()}")
    return p.stdout


def extract(rev, dest):
    """Writes the committed tree of `rev` to `dest` (replacing it)."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    sh(["tar", "-x", "-C", str(dest)], input=archive)


def run(binary, workload, seed):
    p = subprocess.run([str(binary), "--workload", workload, "--seed",
                        str(seed), "--scale", repr(SCALE)],
                       capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise SystemExit(f"{binary} {workload} seed {seed} exited "
                         f"{p.returncode}: {p.stderr.strip()}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    fields = {name: result[name] for name in COUNTS}
    fields.update(result["sim"])
    return fields


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--allow-move", action="append", default=[],
                    metavar="FIELD", help="a field that may differ")
    args = ap.parse_args()

    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          args.base + "^{commit}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    base_src = BUILD_DIR / "base-src"
    extract(rev, base_src)
    # A fresh extraction changes every source path's mtime, so the base is
    # always rebuilt from scratch.
    shutil.rmtree(BUILD_DIR / "base", ignore_errors=True)
    shutil.rmtree(BUILD_DIR / "base-programs", ignore_errors=True)
    base_bin = build_perfbench(base_src, BUILD_DIR / "base")
    work_bin = build_perfbench(ROOT, BUILD_DIR / "work")
    build_programs(base_src, BUILD_DIR / "base-programs")
    build_programs(ROOT, BUILD_DIR / "work-programs")

    workloads = [
        json.loads(line)["name"] for line in subprocess.run(
            [str(work_bin), "--list"], check=True, capture_output=True,
            text=True).stdout.splitlines() if line.strip()]
    allowed = set(args.allow_move)
    failures = 0
    for workload in workloads:
        for seed in SEEDS:
            base = run(base_bin, workload, seed)
            work = run(work_bin, workload, seed)
            diffs = [(k, base.get(k), work.get(k))
                     for k in sorted(set(base) | set(work))
                     if base.get(k) != work.get(k)]
            bad = [d for d in diffs if d[0] not in allowed]
            status = "DIFFERS" if bad else "identical"
            print(f"{workload} seed {seed}: {status} ({len(base)} fields, "
                  f"{len(diffs)} moved, {len(diffs) - len(bad)} allowed)")
            for name, b, w in diffs:
                tag = "allowed" if name in allowed else "MOVED"
                print(f"  {tag} {name}: {b} -> {w}")
            failures += bool(bad)
    for name in BASELINE_PROGRAMS:
        base = run_program(BUILD_DIR / "base-programs", name)
        work = run_program(BUILD_DIR / "work-programs", name)
        same = base == work
        print(f"{name} (SFS_BENCH_SCALE={BASELINE_SCALE}): "
              f"{'identical' if same else 'DIFFERS'} stdout")
        if not same:
            for line in difflib.unified_diff(
                    base.splitlines(), work.splitlines(), "base", "work",
                    lineterm="", n=0):
                print(f"  {line}")
            failures += 1
    if failures:
        print(f"sim identity vs {args.base}: {failures} run(s) differ")
        return 1
    print(f"sim identity vs {args.base}: all simulated metrics identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
