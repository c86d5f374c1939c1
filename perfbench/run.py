#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first call configures and
builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build.
The C++ driver (perfbench/main.cc) does the measuring. This script
relays its output and checks that the result line carries exactly the
metrics BENCHMARK.json lists, with their units, and for a traced run
that the recorded span tree nests.

Workloads, metric names, units, directions and bounds live only in
BENCHMARK.json; perfbench/metrics.json adds, per metric name, its layer,
the end-to-end metric and workloads it should move, the base count of a
ratio, and what it measures.

--self-test runs every workload at reduced size with both --trace
values and checks, beyond the above, that metrics.json describes exactly
the metrics of BENCHMARK.json and that every ratio is printed with its
base count.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
EPS = 1e-9


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    """BENCHMARK.json joined with the extra fields of metrics.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    extra = json.loads((HERE / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        bench[kind] = [dict(m, **extra.get(m["name"], {}))
                       for m in bench[kind]]
    bench["described"] = set(extra)
    return bench


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not d.is_absolute():
        d = ROOT / d
    return d / "perfbench"


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed", 2)
    if subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        fail("build failed", 2)
    return out / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(binary, args):
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    try:
        r = subprocess.run([str(binary)] + args, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout.splitlines()


def check_result(lines, spec, trace):
    """Validates the final JSON line; returns the parsed object."""
    if not lines:
        fail("benchmark printed nothing")
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON: " + lines[-1][:200])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            fail(f"{name}: unit {got[name].get('unit')!r}, expected {unit!r}")
        if not isinstance(got[name].get("value"), (int, float)):
            fail(f"{name}: value is not a number")
    return res


def check_spans(path):
    """Children lie inside their parent and no span has negative self time."""
    spans = [json.loads(l) for l in open(path)]
    if not spans:
        fail("traced run recorded no spans")
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["end"] < s["start"]:
            fail(f"span {s['id']} {s['name']} ends before it starts")
        p = s["parent"]
        if p < 0:
            continue
        parent = spans[p]
        if not (parent["start"] - EPS <= s["start"] and
                s["end"] <= parent["end"] + EPS):
            fail(f"span {s['id']} {s['name']} escapes parent "
                 f"{p} {parent['name']}")
        if parent["cell"] not in (-1, s["cell"]):
            fail(f"span {s['id']} has a parent from another cell")
        child_time[p] += s["end"] - s["start"]
    for s, kids in zip(spans, child_time):
        if s["end"] - s["start"] - kids < -EPS:
            fail(f"span {s['id']} {s['name']} has negative self time")
    return len(spans)


def measure(binary, spec, workload, seed, seconds, trace, reduced=False):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    spans = None
    if reduced:
        args.append("--reduced")
    if trace:
        spans = build_dir() / "spans" / f"{workload}-{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans-out", str(spans)]
    code, lines = run_binary(binary, args)
    if code not in (0, 1):  # 1: ran, but the correctness gate failed
        fail(f"benchmark exited with status {code}")
    res = check_result(lines, spec, trace)
    if spans is not None:
        check_spans(spans)
    return code == 0 and res["correct"], lines


def self_test(binary, spec):
    names = {m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]}
    if names != spec["described"]:
        fail(f"metrics.json lacks {sorted(names - spec['described'])}, "
             f"has unknown {sorted(spec['described'] - names)}")
    bases = [{m["name"]: m["base"] for m in spec[kind] if "base" in m}
             for kind in ("end_to_end", "per_layer")]
    for w in spec["workloads"]:
        for trace in (0, 1):
            ok, lines = measure(binary, spec, w["name"], 1, 1, trace,
                                reduced=True)
            if not ok:
                fail(f"correctness gate failed: {lines[-1][:300]}")
            for name, base in bases[trace].items():
                if not any(l.strip().startswith(f"{name} = ") and
                           f"(base {base} = " in l for l in lines):
                    fail(f"{name} is not printed with its base {base}")
            print(f"self-test {w['name']} trace={trace}: ok")
    print("self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    if not a.self_test:
        if None in (a.workload, a.seed, a.seconds, a.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        if a.workload not in [w["name"] for w in spec["workloads"]]:
            ap.error(f"unknown workload {a.workload}")
    binary = build()
    if a.self_test:
        self_test(binary, spec)
        return
    ok, lines = measure(binary, spec, a.workload, a.seed, a.seconds, a.trace)
    print("\n".join(lines), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
