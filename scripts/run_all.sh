#!/usr/bin/env bash
# Full verification pipeline: configure, build, test, run every
# experiment harness, and leave test_output.txt / bench_output.txt in
# the repository root (the artefacts EXPERIMENTS.md refers to).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

{
    for b in build/bench/bench_*; do
        [ -f "$b" ] && [ -x "$b" ] || continue
        echo "##### $b"
        "$b"
        echo
    done
} 2>&1 | tee bench_output.txt

echo "done: test_output.txt and bench_output.txt written"
