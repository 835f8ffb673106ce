#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <fig4|compiled|server|all> --seed <n>
                             --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench. The benchmark's report goes to stdout;
its last line is the result JSON. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed", 1)
    cmd = ["cmake", "--build", out, "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 1)
    return out


def declared_metrics():
    """Metric names BENCHMARK.json promises, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result keys {sorted(result)}", 1)
    declared = declared_metrics()
    if declared is not None:
        want = declared[1] if trace else declared[0]
        if list(result["metrics"]) != want:
            fail("reported metrics differ from BENCHMARK.json", 1)


WORKLOADS = ["fig4", "compiled", "server"]


def run_workload(out, workload, args):
    """Runs one workload; returns its report, whose last line is the result."""
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(args.seed % 2**32), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {workload} exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"workload {workload} failed (exit {proc.returncode})", 1)
    check_result(lines[-1], args.trace)
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"],
                    help="'all' runs every workload in turn and ends with a "
                         "summary table instead of a result line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the tests of the benchmark's own logic")
    args = ap.parse_args()

    overrides = sorted(k for k in os.environ if k.startswith("OMPI_"))
    if overrides:
        fail(f"refusing to run with {', '.join(overrides)} set: the benchmark "
             "measures the default OMPI_* configuration")
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if args.workload != "all":
        sys.stdout.write(run_workload(out, args.workload, args))
        return

    results = {}
    for w in WORKLOADS:
        report = run_workload(out, w, args)
        sys.stdout.write(report)
        results[w] = json.loads(report.splitlines()[-1])
    print("# summary: workload metric value unit")
    for w, r in results.items():
        print(f"# {w} attempted={r['attempted']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"# {w} {name} {m['value']:.9g} {m['unit']}")
    if any(r["failed"] or not r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
