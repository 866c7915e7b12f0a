#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload prefill_long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library and the benchmark from source into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later runs only rebuild what changed.
Build output goes to stderr. The benchmark's report and, on its last
line, the JSON result go to stdout. The pool runs at DOTA_THREADS =
the number of CPUs this process may use.

Exit status: the benchmark's (0 when every output check passed), 2 when
the sources or the toolchain are missing or the build fails.
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
WORKLOADS = ["prefill_long", "decode", "serve_gen", "train_joint"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step([cmake, "--build", out, "-j", str(cpu_count()), "--target"] +
         targets)
    return out


def step(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if r.returncode != 0:
        fail(f"failed ({r.returncode}): {' '.join(cmd)}")


def source_id():
    """git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
        top, sha = (r.stdout.split() + ["", ""])[:2]
        if r.returncode == 0 and os.path.samefile(top, ROOT):
            return "git:" + sha[:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ["CMakeLists.txt", "src"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src:" + h.hexdigest()[:12]


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json expects for this mode (None: no file)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def bench_env():
    env = dict(os.environ)
    env["DOTA_THREADS"] = str(cpu_count())
    return env


def run(args):
    out = build(["dota_perfbench"])
    trace_out = os.path.join(
        out, f"trace-{args.workload}-{args.seed}.json")
    cmd = [os.path.join(out, "dota_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--git-sha", source_id()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=bench_env(), text=True,
                           stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    lines = r.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if result is not None:
        want = declared_metrics(args.trace == 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if want is not None and got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))
            print("\n".join(lines[:-1]))
            fail(f"metrics or units differ from BENCHMARK.json: {diff}", 1)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if result is None and r.returncode == 0:
        fail("benchmark printed no result line", 1)
    return r.returncode


def self_test():
    """The helper tests, then the metric list against BENCHMARK.json."""
    out = build(["perfbench_tests", "dota_perfbench"])
    r = subprocess.run([os.path.join(out, "perfbench_tests")], cwd=ROOT)
    if r.returncode != 0:
        return r.returncode
    for trace in (0, 1):
        names = subprocess.run(
            [os.path.join(out, "dota_perfbench"), "--list-metrics",
             str(trace)], cwd=ROOT, env=bench_env(), capture_output=True,
            text=True, timeout=RUN_TIMEOUT_S, check=True).stdout.split()
        want = declared_metrics(trace == 1)
        if want is not None and set(names) != set(want):
            print(f"--trace {trace} metrics differ from BENCHMARK.json: "
                  f"binary-only {sorted(set(names) - set(want))}, "
                  f"json-only {sorted(set(want) - set(names))}")
            return 1
    print("perfbench: metric names match BENCHMARK.json")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
