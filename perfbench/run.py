"""Benchmark entry point: one workload run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload markov-1e6 --seed 1 --seconds 20 --trace 0

The workload runs in its own Python process (``workloads.py``) with ``src``
on ``PYTHONPATH`` and one BLAS thread: the load comes from one client and
the largest matrix product is 50 x 5000.  With
``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Lines before the last one give the
metrics by name and unit, the failure ratio, every failed check and the
environment; the last line is the JSON result.  Exits non-zero without a
result when the library sources are not there or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170


def llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stablekern", "__init__.py")):
        print("perfbench: src/stablekern not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    workdir = os.path.join(root, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spawn-time"]
    try:
        proc = subprocess.run(cmd + [repr(time.time())], env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload process exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    got = result["metrics"]
    if set(got) != set(wanted):
        print(f"perfbench: metric names differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}",
              file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    environment = dict(result["env"], python=platform.python_version(), nproc=nproc,
                       blas_threads=env["OPENBLAS_NUM_THREADS"], llc_bytes=llc_bytes())
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env: {json.dumps(environment, sort_keys=True)}")
    print(f"# samples: {json.dumps(result['samples'], sort_keys=True)}")
    print(f"# fail_ratio = {failed / attempted:.6g} failed/attempted ({failed} of {attempted})")
    for name in wanted:
        print(f"# {name} = {got[name]!r} {wanted[name]}")
    for note in result["notes"]:
        print(f"# note: {note}")
    for f in result["failures"]:
        print(f"# FAILED {f['op']}: {f['error']}: {f['message']}")
    metrics = {name: {"value": got[name], "unit": unit} for name, unit in wanted.items()}
    correct = failed == 0 and all(v is not None for v in got.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
