#!/usr/bin/env bash
# One-command gate for SwitchFS PRs: lint, configure, build, run the tier-1
# test suite AND the examples (API changes must not silently rot them), then
# repeat the tests under ASan/UBSan (-DCMAKE_BUILD_TYPE=Asan).
#
#   scripts/check.sh                    # lint + tier-1 + examples + asan
#   scripts/check.sh --fast             # lint + tier-1 + examples only
#   scripts/check.sh --lint-only        # sfs-lint + fixture golden, nothing else
#   SFS_TIDY=1 scripts/check.sh --fast  # also run clang-tidy (needs clang-tidy
#                                       # on PATH; installed in CI, not baked
#                                       # into the dev container)
#   SFS_BENCH_SMOKE=1 scripts/check.sh  # also run the perf smoke benches
#                                       # and the repo benchmark's self-test
#   SFS_SIM_BASE=HEAD~ scripts/check.sh # also check that every simulated
#                                       # perfbench metric is bit-identical
#                                       # to that revision's
#                                       # (scripts/sim_identity.py)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
MODE=${1:-}

run_suite() {
  local build_dir=$1
  shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure --no-tests=error -j "$JOBS"
}

# Blocking lint stage: the fixture golden pins the analyzer's behavior, then
# the tree itself must be clean (zero unsuppressed findings; every
# suppression carries a reason). Runs first — it is the cheapest gate.
echo "== lint: sfs-lint (suspension safety / lock discipline) =="
python3 tools/lint/test_lint.py
python3 scripts/lint/sfs_lint.py src

if [[ "$MODE" == "--lint-only" ]]; then
  echo "Lint passed."
  exit 0
fi

echo "== tier-1: configure/build/ctest =="
run_suite build

echo "== examples: compile-and-run gate =="
# Each example's stdout goes through a pipe; `set -o pipefail` (above) makes
# the example's own exit status win, so a crash AFTER printing (abort,
# SIGSEGV mid-teardown) still fails the gate instead of being masked by the
# consumer's success. Failures are collected so one bad example doesn't hide
# the others.
example_failures=0
for example in examples/*.cpp; do
  name=$(basename "$example" .cpp)
  echo "-- $name"
  if ! ./build/"$name" 2>&1 | tail -n 5 > /dev/null; then
    echo "-- $name FAILED (nonzero exit propagated through the pipe)"
    example_failures=$((example_failures + 1))
  fi
done
if [[ "${SFS_CHECK_SELFTEST:-0}" == "1" ]]; then
  # Deliberate crash-after-print pushed through the same pipe shape: proves
  # the gate trips on an example that dies after producing output.
  if ! bash -c 'echo some output; kill -ABRT $$' 2>&1 | tail -n 5 > /dev/null
  then
    echo "-- selftest: crash-after-print correctly failed the gate"
  else
    echo "-- selftest: crash was masked by the pipe" >&2
    exit 1
  fi
fi
if (( example_failures > 0 )); then
  echo "examples gate: $example_failures failure(s)" >&2
  exit 1
fi

if [[ "${SFS_TIDY:-0}" == "1" ]]; then
  echo "== clang-tidy (SFS_TIDY=1, .clang-tidy curation) =="
  if ! command -v clang-tidy > /dev/null; then
    echo "SFS_TIDY=1 but clang-tidy is not on PATH" >&2
    exit 1
  fi
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  find src -name '*.cc' -print0 |
    xargs -0 -P "$JOBS" -n 4 clang-tidy -p build --quiet \
      --warnings-as-errors='*'
fi

if [[ "${SFS_BENCH_SMOKE:-0}" == "1" ]]; then
  echo "== perf smoke: gated benches (SFS_BENCH_SCALE=small) =="
  scripts/bench_smoke.sh
  echo "== perf smoke: regression gate vs bench/baselines =="
  python3 scripts/bench_check.py BENCH_push_batching.json \
      BENCH_readdir_paging.json BENCH_switch_cache.json \
      BENCH_shard_scaling.json BENCH_wan_replication.json
  # The repo benchmark (BENCHMARK.json) builds src/ itself: a src/ change
  # that breaks its build or its end-state check fails here (~15 s, offline).
  echo "== perf smoke: perfbench self-test =="
  python3 perfbench/selftest.py
fi

if [[ -n "${SFS_SIM_BASE:-}" ]]; then
  echo "== sim identity: simulated perfbench metrics vs $SFS_SIM_BASE =="
  python3 scripts/sim_identity.py --base "$SFS_SIM_BASE"
fi

if [[ "$MODE" != "--fast" ]]; then
  echo "== asan: configure/build/ctest (-DCMAKE_BUILD_TYPE=Asan) =="
  run_suite build-asan -DCMAKE_BUILD_TYPE=Asan
fi

echo "All checks passed."
