"""Benchmark command for `pointless`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Every pass of a workload runs in a fresh single-threaded interpreter
(worker.py), as a user of `pointless` would run it, so the process-wide
caches start empty each time.

--trace 0 runs SETUP_SAMPLES set-up-only interpreters, then whole passes
until the next pass would end after --seconds (always at least one), and
reports the end-to-end metrics.  --trace 1 runs one untraced pass and one
traced pass and reports the per-layer metrics.  Both check every output.
Times are corrected for the machine's speed of the moment (speed.py).
A human-readable table goes to standard error; the last line of standard
output is the JSON result.  The exit code is 0 when every check passed, 1
when a check failed and 2 when the benchmark could not run.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170         # a run must end within 180 s
OUT_DIR = ".bench_out"    # spans of traced runs


class BenchError(Exception):
    pass


def spawn(root, workload, seed, mode, deadline, spans=None):
    """Run one worker to completion; returns its JSON result plus
    `setup_s` (spawn to first timed call, speed-corrected) and
    `process_s` (raw seconds the worker lived)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        raise BenchError(f"{workload} {mode} worker ran out of time")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = ((result["t_first"] - t0 - result["setup_busy"])
                         * result["setup_scale"])
    result["process_s"] = time.perf_counter() - t0
    return result


def end_to_end(root, workload, seed, seconds, deadline):
    setups = [spawn(root, workload, seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(spawn(root, workload, seed, "pass", deadline))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["process_s"] > seconds:
            break
    op_seconds = [s for p in passes for _, s, _ in p["ops"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + passes),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "work_per_s": (sum(w for p in passes for _, _, w in p["ops"])
                       / sum(p["wall"] for p in passes)),
        "op_p90_s": percentile(op_seconds, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, {name: (values[name], unit)
                    for name, unit, _, _ in END_TO_END}


def per_layer(root, workload, seed, deadline):
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    spans = os.path.join(root, OUT_DIR, f"spans-{workload}-seed{seed}.json")
    base = spawn(root, workload, seed, "pass", deadline)
    traced = spawn(root, workload, seed, "trace", deadline, spans)
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = traced["wall"] / base["wall"] - 1
    return [base, traced], {name: (values[name], unit)
                            for name, unit, _ in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pointless", "__init__.py")):
        print(f"error: no pointless package under {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)   # the build: bytecode, once
    try:
        if args.trace:
            runs, metrics = per_layer(root, args.workload, args.seed,
                                      deadline)
        else:
            runs, metrics = end_to_end(root, args.workload, args.seed,
                                       args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for message in r["failures"]:
            print(f"check failed: {message}", file=sys.stderr)
    for r in runs:
        print(f"  pass: raw wall {r['raw_wall']:.3f} s, corrected "
              f"{r['wall']:.3f} s", file=sys.stderr)
    for label, seconds, _ in sorted(runs[0]["ops"], key=lambda op: -op[1]):
        print(f"  op {label:41s} {seconds:16.6g} s", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(runs)} "
          f"fail_frac={failed / attempted:.4f} ({failed}/{attempted})",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
