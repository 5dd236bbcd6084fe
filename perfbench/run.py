#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first form builds perfbench/bench.exe with dune (build output goes to
standard error) and replaces itself with it; the last line of standard
output is the result object.  --self-test runs every workload at a tiny
size in both trace modes and checks the output against BENCHMARK.json.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except FileNotFoundError:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def source_digest():
    """Digest of the library sources, naming the code under test when the
    checkout carries no git metadata."""
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk("lib") for f in fs)
    h = hashlib.sha256()
    for path in files + ["dune-project"]:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_env():
    return dict(
        os.environ,
        PERFBENCH_NPROC=str(len(os.sched_getaffinity(0))),
        PERFBENCH_COMMIT=commit(),
        PERFBENCH_SOURCE=source_digest(),
    )


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    contract = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    env = host_env()
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            tag = f"{w['name']} --trace {trace}"
            cmd = [EXE, "--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, env=env)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            record, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != contract[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            if record.get("seed") != 7 or "commit" not in record.get("host", {}):
                problems.append(f"{tag}: run record lacks the seed or the host block")
            if trace == 1:
                coverage = result["metrics"]["trace.coverage"]["value"]
                if not (math.isfinite(coverage) and coverage > 0):
                    problems.append(f"{tag}: trace.coverage {coverage}")
            print(f"ok  {tag}", flush=True)
    if subprocess.run([EXE, "--check-corruption"], env=env).returncode != 0:
        problems.append("output check missed a corrupted report or reply")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv):
    if not build():
        return 1
    if argv == ["--self-test"]:
        return self_test()
    os.execve(EXE, [EXE] + argv, host_env())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
