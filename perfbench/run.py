#!/usr/bin/env python3
"""Builds the xprel benchmark binary from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fig4-small, xmark-large-service, update-mix (see perfbench/README.md).
The binary is configured and built into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; later runs only re-check the build.
The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's record (host fingerprint, per-query result node counts), which is also
written to <build dir>/perfbench-out/.

BENCHMARK.json is the one list of metric names and units: the result must
hold every end_to_end metric (--trace 0) or only per_layer metrics
(--trace 1), each with its declared unit, or the run fails. Per-layer
metrics of layers a workload does not exercise are printed as 0.

Extra flags passed through to the binary: --scale-factor <f> (shrinks every
workload's XMark scale; used by the smoke test) and --corrupt-one-answer
(self-test: the run must then report a wrong answer).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile exists only after a configure step that succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "xprel_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "xprel_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace == "1" else "end_to_end"]


def checked_result(line, declared, trace):
    """The binary's result line with its metrics checked against the
    declaration and put in declared order; None when a metric is missing,
    undeclared or has the wrong unit."""
    result = json.loads(line)
    got = result["metrics"]
    names = {m["name"] for m in declared}
    ok = True
    for name in got:
        if name not in names:
            print("perfbench: undeclared metric %s" % name, file=sys.stderr)
            ok = False
    metrics = {}
    for m in declared:
        if m["name"] not in got:
            if trace == "0":
                print("perfbench: workload did not set %s" % m["name"],
                      file=sys.stderr)
                ok = False
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif got[m["name"]]["unit"] != m["unit"]:
            print("perfbench: %s unit %s, declared %s" % (
                m["name"], got[m["name"]]["unit"], m["unit"]), file=sys.stderr)
            ok = False
        else:
            metrics[m["name"]] = got[m["name"]]
    result["metrics"] = metrics
    return result if ok else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["fig4-small", "xmark-large-service", "update-mix"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--scale-factor", type=float)
    p.add_argument("--corrupt-one-answer", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in (0, 600]")

    declared = declared_metrics(args.trace)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_root, "perfbench-out")]
    if args.scale_factor is not None:
        cmd += ["--scale-factor", repr(args.scale_factor)]
    if args.corrupt_one_answer:
        cmd.append("--corrupt-one-answer")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: benchmark binary exited %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = checked_result(lines[-1], declared, args.trace)
    if result is None:
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
