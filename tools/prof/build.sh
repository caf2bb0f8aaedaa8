#!/usr/bin/env bash
# Builds the LD_PRELOAD samplers of tools/prof into OUT (default
# .bench_build/prof). They are not part of the CMake build or tier-1.
#
#   tools/prof/build.sh            # -> .bench_build/prof/{cpu,heap}_sampler.so
#   OUT=/tmp/prof tools/prof/build.sh
set -euo pipefail

cd "$(dirname "$0")/../.."
OUT=${OUT:-.bench_build/prof}
CC=${CC:-cc}
mkdir -p "$OUT"
for tool in cpu_sampler heap_sampler; do
  "$CC" -O2 -g -fPIC -shared -Wall -Wextra -o "$OUT/$tool.so" \
    "tools/prof/$tool.c" -lm
done
echo "built $OUT/cpu_sampler.so and $OUT/heap_sampler.so"
