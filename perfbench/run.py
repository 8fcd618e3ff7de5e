#!/usr/bin/env python3
"""Repository benchmark: builds the engine and the benchmark driver from
source, runs one workload, checks its outputs, and prints one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload wiki_replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Workloads, metrics and bounds are declared in BENCHMARK.json. With
--trace 0 the JSON carries the end-to-end metrics, with --trace 1 the
per-layer metrics (and a Chrome trace is written under the build
directory). The last line of standard output is the JSON object; the exit
code is 0 only when every call succeeded and every output matched its
reference.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("wiki_replay", "wiki_ft", "airline_albic")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    """CARGO_TARGET_DIR when it names a directory inside the checkout (the
    benchmark writes nowhere else), else .bench_build."""
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.realpath(".")
    full = os.path.realpath(d)
    if full != root and full.startswith(root + os.sep):
        return os.path.relpath(full, root)
    return ".bench_build"


def build(bdir):
    """Configures (once) and builds the benchmark; build output -> stderr."""
    cmake_dir = os.path.join(bdir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--parallel", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}", 3)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)
    return os.path.join(cmake_dir, "albic_perfbench")


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(".git"):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=10, check=False)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wiki-ft-offered-tps", type=float, default=0.0,
                    help="open-loop offered rate of wiki_ft (tuples/s); "
                         "0 runs it closed loop to measure capacity")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found; run from the repository root", 2)
    if not os.path.isfile(os.path.join("src", "engine", "local_engine.h")):
        fail("engine sources (src/) not found; run from the repository root", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    bdir = build_dir()
    binary = build(bdir)
    workdir = os.path.join(bdir, "work")
    cmd = [binary, "--workdir", workdir, "--commit", source_id()]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.workload == "wiki_ft":
            cmd += ["--offered-rate", repr(args.wiki_ft_offered_tps)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}", 4)
    sys.stderr.write(r.stderr)

    measured = {}
    attempted = failed = None
    env = None
    for line in r.stdout.splitlines():
        print(line)
        parts = line.split()
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif len(parts) == 4 and parts[0] == "metric":
            measured[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts and parts[0] == "status":
            kv = dict(p.split("=") for p in parts[1:])
            attempted, failed = int(kv["attempted"]), int(kv["failed"])
    if attempted is None or env is None:
        fail(f"benchmark exited with code {r.returncode} and no result", 4)
    if args.selftest:
        sys.exit(0 if r.returncode == 0 and failed == 0 else 1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    correct = r.returncode == 0 and failed == 0
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                not math.isfinite(got["value"]):
            print(f"run.py: metric {m['name']} missing or malformed",
                  file=sys.stderr)
            correct = False
            failed += 1
            continue
        metrics[m["name"]] = got
    result = {"correct": correct, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}

    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    record = os.path.join(bdir, "results", f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
