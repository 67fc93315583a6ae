#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The script builds the benchmark
executable with dune, runs it, and passes its standard output through;
the last line is the result object. It checks that the result names
exactly the metrics BENCHMARK.json declares for the requested mode, and
exits non-zero when the build fails, a correctness gate fails, or the
result is malformed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK_DIR = ".bench_work"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def source_digest():
    """SHA-256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", "dune-project")):
                    path = os.path.join(root, name)
                    h.update(path.encode() + b"\0")
                    with open(path, "rb") as f:
                        h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def source_revision():
    """The git commit, or a digest of the sources outside a git checkout.

    Only the checkout's own repository counts: git never walks up into a
    parent directory."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())),
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return source_digest()


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}, [w["name"] for w in bench["workloads"]]


def main():
    args = parse_args()
    cal_vars = sorted(v for v in os.environ if v.startswith("CAL_"))
    if cal_vars:
        fail("refusing to run with CAL_* overrides set: " + " ".join(cal_vars))
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("run from the root of a source tree: %s is missing" % needed)
    metrics, workloads = declared_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads)))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The build's progress goes to stderr: stdout's last line is the result.
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--commit", source_revision(), "--work-dir", WORK_DIR],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = run.stdout.strip().splitlines()
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        fail("run failed with status %d" % run.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result), 1)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != metrics:
        fail("result metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(metrics.items())), 1)
    if result["correct"] is not True:
        fail("a correctness gate failed", 1)


if __name__ == "__main__":
    main()
