#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload eval-quick --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck     # BENCHMARK.json matches the definition
    python3 perfbench/run.py --write-spec    # regenerate BENCHMARK.json, perfbench/spec.json

The Go program is built from source into .bench_build/ (its build cache
lives there too). Its last output line is checked against BENCHMARK.json
before it is printed: exactly the declared metrics, each with its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(BUILD, exist_ok=True)
    try:
        r = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env)
    except OSError as e:
        fail("cannot run go: %s" % e)
    if r.returncode != 0:
        fail("build failed (the benchmark builds the repository's code from source)")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, bench, traced):
    """Returns the problems with the program's result line."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return ["result keys are not %s" % sorted(RESULT_KEYS)]
    problems = []
    if not isinstance(res["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            problems.append(k + " is not a whole number")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        problems.append("attempted < 1")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    got = res["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        have = set(got) if isinstance(got, dict) else set()
        return problems + ["metrics missing %s, undeclared %s" % (sorted(set(want) - have), sorted(have - set(want)))]
    for name, v in got.items():
        if not isinstance(v, dict) or set(v) != {"value", "unit"}:
            problems.append("%s is not {value, unit}" % name)
        elif v["unit"] != want[name]:
            problems.append("%s has unit %r, BENCHMARK.json says %r" % (name, v["unit"], want[name]))
        elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append("%s is not a finite number" % name)
    return problems


def run(args):
    build()
    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    cmd = [BIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", BUILD]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("run exited with %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], bench, args.trace == 1)
    if problems:
        fail("bad result line: " + "; ".join(problems))
    print("\n".join(lines), flush=True)


def spec(out_dir):
    build()
    r = subprocess.run([BIN, "--spec", out_dir], cwd=ROOT)
    if r.returncode != 0:
        fail("the benchmark definition does not check out")


def selfcheck():
    gen = os.path.join(BUILD, "spec")
    spec(gen)
    for rel in ("BENCHMARK.json", os.path.join("perfbench", "spec.json")):
        with open(os.path.join(ROOT, rel)) as f:
            have = json.load(f)
        with open(os.path.join(gen, rel)) as f:
            want = json.load(f)
        if have != want:
            fail("%s differs from the definition in perfbench/spec.go; run --write-spec" % rel)
    bench = load_benchmark()
    for p in bench["paths"]:
        for d, _, files in os.walk(os.path.join(ROOT, p)):
            for name in files:
                if os.path.islink(os.path.join(d, name)):
                    fail("%s is a link" % os.path.join(d, name))
    for arg in bench["command"]:
        if arg.startswith("/") or ".." in arg.split("/"):
            fail("command argument %r leaves the repository" % arg)
    print("selfcheck: BENCHMARK.json and perfbench/spec.json match the definition; "
          "%d workloads, %d end-to-end and %d per-layer metrics"
          % (len(bench["workloads"]), len(bench["end_to_end"]), len(bench["per_layer"])))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args()
    if args.selfcheck:
        selfcheck()
    elif args.write_spec:
        spec(ROOT)
    elif args.workload:
        run(args)
    else:
        ap.error("give --workload, --selfcheck or --write-spec")


if __name__ == "__main__":
    main()
