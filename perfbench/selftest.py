#!/usr/bin/env python3
"""Fast self-test of the benchmark (about 20 s):

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny scale, untraced and traced,
and checks that each run passes its end-state check with no failed
operation and prints exactly the metrics BENCHMARK.json names, with their
units and finite values (end-to-end ones non-zero). Also checks that one seed gives identical simulated metrics twice,
that the held-out seed runs clean, and that a corrupted namespace model
fails the end-state check (non-zero exit, no result line).
"""
import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCALE = "0.02"
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", SCALE, *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)


def result(p):
    lines = p.stdout.strip().splitlines()
    try:
        r = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return r if isinstance(r, dict) and "metrics" in r else None


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {trace: run.declared_metrics(trace) for trace in (0, 1)}
    binary = run.build()

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            p = bench(w, run.DEFAULT_SEED, trace)
            r = result(p)
            check(p.returncode == 0 and r is not None,
                  f"{w} trace {trace}: runs and prints a result"
                  + ("" if r else f"\n{p.stderr[-2000:]}"))
            if r is None:
                continue
            check(r["correct"] is True and r["attempted"] >= 1
                  and r["failed"] == 0,
                  f"{w} trace {trace}: correct, no failed operation")
            got = [(k, v["unit"]) for k, v in r["metrics"].items()]
            check(got == declared[trace],
                  f"{w} trace {trace}: every named metric with its unit")
            values = [v["value"] for v in r["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v)
                      for v in values),
                  f"{w} trace {trace}: every value is a finite number")
            if trace == 0:
                check(all(v > 0 for v in values),
                      f"{w}: every end-to-end metric is non-zero")

        sims = []
        for _ in range(2):
            p = subprocess.run([str(binary), "--workload", w, "--seed", "5",
                                "--scale", SCALE], capture_output=True,
                               text=True)
            sims.append(json.loads(p.stdout)["sim"] if p.returncode == 0
                        else None)
        check(sims[0] is not None and sims[0] == sims[1],
              f"{w}: one seed gives identical simulated metrics twice")

        p = bench(w, run.HELD_OUT_SEED, 0)
        r = result(p)
        check(p.returncode == 0 and r is not None and r["failed"] == 0,
              f"{w}: held-out seed {run.HELD_OUT_SEED} passes")

        p = bench(w, run.DEFAULT_SEED, 0, "--corrupt-model")
        check(p.returncode != 0 and result(p) is None
              and "end-state check failed" in p.stderr,
              f"{w}: a corrupted model fails the end-state check")

    print("selftest: " + ("OK" if not failures else
                          f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
