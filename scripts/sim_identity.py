#!/usr/bin/env python3
"""Checks that a change leaves every simulated perfbench metric bit-identical.

    python3 scripts/sim_identity.py --base <git-rev> [--allow-move <field>]...

The simulator is deterministic, so a change that only touches host time or
simplifies code must not move a single simulated number. This script builds
the perfbench binary twice, once from <git-rev> and once from the working
tree, runs every workload at --scale 0.25 for seeds 1 and 7919 with each
binary, and compares the binaries' "sim" objects and operation counts field
by field, exactly. Host-time figures are ignored. It exits 1 on any
difference except in fields named with --allow-move, which are reported but
tolerated.

The base revision's committed files are extracted with `git archive` into
.bench_build/sim_identity/base-src, so nothing in the repository's .git is
touched. Both builds live under .bench_build/sim_identity; the working
tree's is reused incrementally. The binaries are run directly;
perfbench/run.py is not used.
"""
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


def sh(cmd, **kw):
    subprocess.run(cmd, check=True, **kw)


def build(src, out):
    """Builds perfbench from checkout `src` into `out`; returns the binary."""
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", str(src / "perfbench"), "-B", str(out),
            "-DCMAKE_BUILD_TYPE=Release"] + gen, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", str(out), "-j", jobs], stdout=sys.stderr)
    return out / "perfbench"


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
    base_bin = build(base_src, BUILD_DIR / "base")
    work_bin = build(ROOT, BUILD_DIR / "work")

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
    if failures:
        print(f"sim identity vs {args.base}: {failures} run(s) differ")
        return 1
    print(f"sim identity vs {args.base}: all simulated metrics identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
