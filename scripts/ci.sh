#!/usr/bin/env bash
# CI entry point: build, run the test suite, and smoke the sweep
# harness. `--tsan` additionally rebuilds the sweep harness under
# ThreadSanitizer and re-runs its thread-pool executor;
# `--asan` rebuilds the conformance, service and host-API tests (one
# launch path), the shield-backend, harness,
# observability and trace tests (hostile JSON input, the instruction
# observer), the interpreter, warp, simulator, engine and memory tests
# (lane-mask iteration, register rows, cached frame pointers), the
# common tests (the event queue's node pool moves callbacks by index),
# the property tests (random lane masks and sizes through the coalescer),
# the compiler, check-opt and guard-replacement tests (the static pass
# reads every tenant's kernel) and two CLIs under AddressSanitizer.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j"$JOBS"

# fatal() ratchet: fatal() exits the process, so a call site that input
# can reach lets one tenant end the service for all. ROADMAP item 3
# turned such sites into typed errors; what is left guards internal
# invariants, and no change may raise the count. Today: driver 5 (ID
# partitions, no program, an unmapped page behind a live buffer),
# shield 1 (window exponent).
FATAL_SITES_MAX=6
fatal_sites="$( (grep -rE --include='*.cc' '\bfatal\(([^)]|$)' src || true) \
    | wc -l)"
if (( fatal_sites > FATAL_SITES_MAX )); then
    echo "ci: $fatal_sites fatal() call sites in src/, more than" \
        "$FATAL_SITES_MAX" >&2
    exit 1
fi

ctest --test-dir build --output-on-failure -j"$JOBS"

# Smoke sweep: every cell shape, parallel executor, JSONL/CSV sinks.
./build/src/gpushield-sweep --suite smoke --jobs 4 --quiet \
    --jsonl build/smoke.jsonl --csv build/smoke.csv

# Determinism gate: parallel output must be byte-identical to serial.
./build/src/gpushield-sweep --suite smoke --jobs 1 --quiet \
    --jsonl build/smoke-serial.jsonl > /dev/null
cmp build/smoke.jsonl build/smoke-serial.jsonl

# Golden gate: simulated behaviour must match the committed record.
# A legitimate model change updates tests/golden/smoke.jsonl in the
# same commit. Note the sweeps above run UNPROFILED — the golden file
# has no "obs" fields, so this also guards the profiler's
# disabled-path invisibility.
cmp build/smoke-serial.jsonl tests/golden/smoke.jsonl

# Paper-grid golden gate: the Fig. 14, 15 and 18 grids must match their
# committed records as well. Unlike smoke, their graph cells saturate
# the DRAM channel queues, so this also pins the order in which refused
# DRAM requests retry. The same rule applies: a legitimate model change
# regenerates these files in the same commit.
for suite in fig14 fig15 fig18; do
    ./build/src/gpushield-sweep --suite "$suite" --jobs "$JOBS" --quiet \
        --jsonl "build/$suite.jsonl" > /dev/null
    cmp "build/$suite.jsonl" "tests/golden/$suite.jsonl"
done

# Observer gate: profiling only observes. The whole smoke grid (pair
# cells and the x3 cell included) run under the stall profiler must,
# with its "obs" fields stripped, match the committed golden as well.
./build/src/gpushield-sweep --suite smoke --jobs 4 --quiet --profile \
    --jsonl build/smoke-profiled.jsonl > /dev/null
sed -E 's/,"obs":\{[^}]*\}//' build/smoke-profiled.jsonl \
    | cmp - tests/golden/smoke.jsonl

# Attribution gate: the "obs" fields themselves (the stall breakdown of
# every smoke cell) must match their committed record. A stretch the
# clock jumps is credited in bulk, so this pins the jumping engine's
# attribution to the one recorded cycle by cycle.
./build/src/gpushield-sweep --suite smoke --jobs 1 --quiet --profile \
    --jsonl build/smoke-profiled-serial.jsonl > /dev/null
cmp build/smoke-profiled-serial.jsonl tests/golden/smoke_profiled.jsonl

# Backend gate: the pluggable shield seam. Region routed explicitly
# through --backend must still match the committed golden
# byte-for-byte, and the Armor backend's smoke grid must match its own
# committed record (tests/golden/smoke_armor.jsonl); the conformance
# gates below hold Armor to zero hard false negatives (tag collisions
# and granule slop are counted separately by the oracle).
./build/src/gpushield-sweep --suite smoke --jobs 1 --quiet \
    --backend region --jsonl build/smoke-region.jsonl > /dev/null
cmp build/smoke-region.jsonl tests/golden/smoke.jsonl
./build/src/gpushield-sweep --suite smoke --jobs 1 --quiet \
    --backend armor --jsonl build/smoke-armor.jsonl > /dev/null
cmp build/smoke-armor.jsonl tests/golden/smoke_armor.jsonl

# CLI gate: a malformed or out-of-range number is a usage error (exit
# 2), never an abort, a silent default or a doomed run.
expect_usage_error() {
    local status=0
    "$@" > /dev/null 2>&1 || status=$?
    if [[ "$status" -ne 2 ]]; then
        echo "ci: expected exit 2, got $status: $*" >&2
        exit 1
    fi
}
expect_usage_error ./build/src/gpushield-service --demo --tenants abc
expect_usage_error ./build/src/gpushield-service --attacks --quantum x
expect_usage_error ./build/src/gpushield-service --demo --tenants 0
expect_usage_error ./build/src/gpushield-service --demo --tenants 20000
expect_usage_error ./build/src/gpushield-sweep --suite smoke --jobs abc
expect_usage_error ./build/src/gpushield-profile --benchmark vectoradd \
    --launches abc
expect_usage_error ./build/src/gpushield-conformance --fuzz-one 3 --ntid 0
expect_usage_error ./build/src/gpushield-conformance --fuzz-one 3 \
    --ntid 4096
expect_usage_error ./build/src/gpushield-conformance --fuzz-one 3 \
    --nctaid 0
# The sweep-backed benches read their worker count from GPUSHIELD_JOBS
# and reject a bad one before any worker starts.
expect_usage_error env GPUSHIELD_JOBS=abc ./build/bench/bench_fig18_multikernel
expect_usage_error env GPUSHIELD_JOBS=0 ./build/bench/bench_fig18_multikernel
expect_usage_error env GPUSHIELD_JOBS=257 ./build/bench/bench_fig18_multikernel

# Conformance smoke: every corpus workload differentially checked
# against the functional oracle and the per-lane bounds oracle (zero
# false negatives, zero image divergences), plus a short fuzz round
# with planted out-of-bounds accesses. See docs/CONFORMANCE.md.
./build/src/gpushield-conformance --suite corpus --quiet
./build/src/gpushield-conformance --seeds 20 --quiet
./build/src/gpushield-conformance --suite corpus --backend armor --quiet

# Check-opt gate: the loop-aware check optimization (hoist/widen/
# coalesce with runtime cover probes) must keep the oracle's zero-
# false-negative property on the corpus and on fuzzed loop kernels,
# on both backends; the smoke sweep with the pass *off* must then
# still match the committed golden byte-for-byte (the default path is
# untouched). The bench enforces the >=30% BCU-lookup-savings floor
# on the gated loop-heavy suites (exits 1 below it), and its record
# must match the committed BENCH_check_opt.json byte-for-byte.
./build/src/gpushield-conformance --suite corpus --check-opt --quiet
./build/src/gpushield-conformance --seeds 20 --check-opt --quiet
./build/src/gpushield-conformance --seeds 20 --check-opt --backend armor \
    --quiet
./build/src/gpushield-sweep --suite smoke --jobs 1 --quiet \
    --jsonl build/smoke-postopt.jsonl > /dev/null
cmp build/smoke-postopt.jsonl tests/golden/smoke.jsonl
./build/bench/bench_check_opt --json build/check-opt-smoke.json \
    > /dev/null
cmp build/check-opt-smoke.json BENCH_check_opt.json

# Profile smoke: trace every single-kernel smoke cell, re-parse each
# trace, and verify the stall-attribution invariant (--check). The
# single-benchmark mode is the CLI's path through api::Context: two
# launches on one timeline, parsed back as JSON.
./build/src/gpushield-profile --suite smoke \
    --out-dir build/profile-smoke --check
./build/src/gpushield-profile --benchmark vectoradd --launches 2 --summary \
    --out build/profile-vectoradd.json
python3 -m json.tool build/profile-vectoradd.json > /dev/null

# Service smoke: 2-tenant adversarial battery in both scheduler modes.
# Gate: zero cross-tenant escapes (the binary exits 1 on any escape),
# plus the full fairness bench, whose record must match the committed
# BENCH_service_fairness.json byte-for-byte, and a quick run to keep
# the JSON schema exercised. See docs/SERVICE.md.
./build/src/gpushield-service --attacks --quiet
./build/src/gpushield-service --attacks --mode cosched --quiet
# Zero-escape gate holds on the Armor backend too.
./build/src/gpushield-service --attacks --backend armor --quiet
./build/src/gpushield-service --fairness --json build/service-fairness.json \
    --quiet
cmp build/service-fairness.json BENCH_service_fairness.json
./build/src/gpushield-service --fairness --quick --quiet \
    --json build/service-fairness-smoke.json

# Perf smoke: the repository benchmark's self-test (perfbench/, a
# Release build of src/). It runs every workload briefly and gates on
# correctness only: every cell ok and a stable sim_digest across
# passes. It checks no throughput figure.
python3 perfbench/run.py --self-test

if [[ "${1:-}" == "--tsan" ]]; then
    cmake --preset tsan
    cmake --build build-tsan -j"$JOBS" --target test_harness gpushield-sweep
    ./build-tsan/tests/test_harness
    ./build-tsan/src/gpushield-sweep --suite smoke --jobs 4 --quiet
fi

if [[ "${1:-}" == "--asan" ]]; then
    cmake --preset asan
    cmake --build build-asan -j"$JOBS" \
        --target test_conform test_service test_api test_backend test_harness \
        test_obs test_trace test_interp test_warp test_sim test_engine \
        test_mem test_common test_properties test_compiler test_check_opt \
        test_guard_replace gpushield-conformance gpushield-service
    ./build-asan/tests/test_conform
    ./build-asan/tests/test_service
    ./build-asan/tests/test_api
    ./build-asan/tests/test_backend
    ./build-asan/tests/test_harness
    ./build-asan/tests/test_obs
    ./build-asan/tests/test_trace
    ./build-asan/tests/test_interp
    ./build-asan/tests/test_warp
    ./build-asan/tests/test_sim
    ./build-asan/tests/test_engine
    ./build-asan/tests/test_mem
    ./build-asan/tests/test_common
    ./build-asan/tests/test_properties
    ./build-asan/tests/test_compiler
    ./build-asan/tests/test_check_opt
    ./build-asan/tests/test_guard_replace
    ./build-asan/src/gpushield-conformance --seeds 10 --quiet
    ./build-asan/src/gpushield-conformance --seeds 10 --backend armor \
        --quiet
    ./build-asan/src/gpushield-service --attacks --quiet
    ./build-asan/src/gpushield-service --attacks --backend armor --quiet
fi

echo "ci: OK"
