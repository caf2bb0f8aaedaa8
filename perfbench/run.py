#!/usr/bin/env python3
"""SwitchFS repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <f>] [--corrupt-model]

Run from the root of a checkout. The binary is built (CMake, Ninja when
present) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
A run is several repetitions, each in a fresh process on a fresh cluster
with inputs drawn from (seed, repetition); every metric is the median over
repetitions, host times scaled to the reference host's speed (see
CALIB_REF_S). The last line of stdout is one JSON object: --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones, from traced
repetitions that are each checked against an untraced twin. A failed build,
end-state check or comparison exits 1 without printing a result.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Host times are reported at the reference host's quiet speed: each is
# multiplied by CALIB_REF_S / calib_s, where calib_s is what a fixed kernel
# (perfbench/src/calibrate.h) took in the same process before set-up, and
# CALIB_REF_S is what it takes on the reference host (a 4-core
# Xeon VM) when nothing else runs. On a shared machine the raw times move by
# up to 70% in episodes of seconds to minutes; the scaled ones mostly follow
# the program alone.
CALIB_REF_S = 0.030
HOST_TIMES = ("host_us_per_op", "run_host_s", "setup_s",
              "sim.host_ns_per_event", "pswitch.host_ns_per_packet")
MIN_SETUPS = 9        # set-up-only rounds top the repetitions up to this
DEADLINE_S = 170      # the whole run, build excluded
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    # Keep the compiler's scratch files inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if p.returncode != 0:
            raise BenchError(f"build step {' '.join(cmd)} exited {p.returncode}")
    return out / "perfbench"


class Runner:
    def __init__(self, binary, workload, scale):
        self.binary = binary
        self.workload = workload
        self.scale = scale
        self.start = time.monotonic()

    def call(self, *flags):
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        cmd = [str(self.binary), "--workload", self.workload, *flags]
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        if p.returncode != 0:
            raise BenchError(p.stderr.strip() or f"{cmd} exited {p.returncode}")
        out = json.loads(p.stdout.strip().splitlines()[-1])
        host = out.get("host", out)
        out["raw"] = {k: host[k] for k in ("run_host_s", "calib_s") if k in host}
        scale = CALIB_REF_S / host["calib_s"]
        for key in HOST_TIMES:
            if key in host:
                host[key] *= scale
        return out

    def rep(self, seed, traced=False, trace_out=None, corrupt=False):
        flags = ["--seed", str(seed), "--scale", repr(self.scale)]
        if traced:
            flags.append("--traced")
        if trace_out:
            flags += ["--trace-out", str(trace_out)]
        if corrupt:
            flags.append("--corrupt-model")
        return self.call(*flags)

    def setup_only(self):
        return self.call("--setup-only")["setup_s"]


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json lists for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [(m["name"], m["unit"])
                for m in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read the metrics of BENCHMARK.json: {e}")


def value(rep, key):
    for part in ("sim", "host"):
        if key in rep[part]:
            return rep[part][key]
    raise BenchError(f"the binary does not produce metric {key}")


def summary(i, r, tag=""):
    s, h = r["sim"], r["host"]
    line = (f"rep {i}{tag}: {r['attempted']} ops, {s['throughput_kops']:.1f} "
            f"kops/s, p50 {s['latency_p50_us']:.2f} us, p99 "
            f"{s['latency_p99_us']:.2f} us ({int(s['latency_samples'])} "
            f"samples), settle {s['changelog.settle_ms']:.3f} ms, "
            f"{s['sim.events_per_op']:.1f} events/op, "
            f"{h['host_us_per_op']:.1f} host us/op, setup {h['setup_s']:.3f} s "
            f"(scaled; raw run {r['raw']['run_host_s']:.3f} s, calib "
            f"{r['raw']['calib_s'] * 1e3:.2f} ms)")
    print(line)
    for code, n in r["failures"].items():
        print(f"rep {i}{tag}: {n} operations failed with {code}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies the operations per repetition")
    ap.add_argument("--corrupt-model", action="store_true",
                    help="self-test: the end-state check must fail")
    args = ap.parse_args()

    declared_metrics(args.trace)  # fail before building if unreadable
    binary = build()
    runner = Runner(binary, args.workload, args.scale)
    specs = {}
    for line in subprocess.run([str(binary), "--list"], capture_output=True,
                               text=True, check=True).stdout.splitlines():
        spec = json.loads(line)
        specs[spec["name"]] = spec
    spec = specs.get(args.workload)
    if spec is None:
        raise BenchError(f"unknown workload {args.workload}; "
                         f"have {', '.join(specs)}")

    reps = max(1, round(args.seconds / spec["rep_seconds"]))
    if args.trace:
        reps = max(1, reps // 2)  # each traced repetition also runs untraced
    print(f"perfbench {args.workload}: seed {args.seed}, {reps} "
          f"repetition(s), trace {args.trace}")

    results, overheads, setups = [], [], []
    attempted = failed = 0
    trace_dir = build_dir() / "traces"
    for i in range(reps):
        seed = args.seed * 1000003 + i
        r = runner.rep(seed, corrupt=args.corrupt_model)
        summary(i, r)
        attempted += r["attempted"]
        failed += r["failed"]
        setups.append(r["host"]["setup_s"])
        if args.trace:
            out = None
            if i == reps - 1:
                trace_dir.mkdir(parents=True, exist_ok=True)
                out = trace_dir / f"{args.workload}-seed{args.seed}.json"
            t = runner.rep(seed, traced=True, trace_out=out)
            summary(i, t, " (traced)")
            attempted += t["attempted"]
            failed += t["failed"]
            diff = [k for k in r["sim"]
                    if k in t["sim"] and r["sim"][k] != t["sim"][k]]
            if diff:
                raise BenchError(f"tracing changed simulated metrics: {diff}")
            overheads.append(t["host"]["run_host_s"] / r["host"]["run_host_s"])
            if out:
                print(f"spans written to {out}")
            r = t
        results.append(r)
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(runner.setup_only())

    print(f"failed_op_ratio {failed / attempted:.6f}")
    if spec["slo_us"] > 0:
        miss = statistics.median(r["sim"]["slo_miss_ratio"] for r in results)
        print(f"open loop at {spec['offered_kops']:g} kops/s offered: "
              f"slo_miss_ratio {miss:.6f} (p99 limit {spec['slo_us']:g} us; "
              f"failures count as misses)")

    metrics = {}
    for name, unit in declared_metrics(args.trace):
        if name == "setup_s":
            v = statistics.median(setups)
        elif name == "trace.host_overhead_ratio":
            v = statistics.median(overheads)
        else:
            v = statistics.median(value(r, name) for r in results)
        metrics[name] = {"value": v, "unit": unit}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    # On SIGTERM, unwind so subprocess.run kills and reaps the repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
