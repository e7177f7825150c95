"""One pass of a workload in a fresh interpreter.

Started by run.py, never by hand.  Modes:

* ``setup``: set up, then report the clock at the point where the first
  timed call would start;
* ``pass``: set up, run every operation timed, then check the outputs;
* ``trace``: probe the field kernel, wrap the `pointless` modules, then
  do what ``pass`` does; the spans go to ``--spans`` once, at the end.

Times are corrected for the machine's speed of the moment (speed.py); the
raw wall time of the pass is reported beside them.  The last line of
standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import sys
import time

from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3     # speed samples taken right after set-up


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"),
                        required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    probe = tracer = None
    if args.mode == "trace":
        from probe import kernel_rates
        from tracer import Tracer
        probe = kernel_rates(sampler)   # before the timer: no alarm in it
        tracer = Tracer()
        tracer.install()
    sampler.start()
    from workloads import WORKLOADS
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    ops = WORKLOADS[args.workload](args.seed, reference)
    t_first = time.perf_counter()
    setup = {"t_first": t_first, "setup_busy": sampler.busy(0, t_first)}
    for _ in range(SETUP_PROBES):
        sampler.sample()
    setup["setup_scale"] = sampler.scale(t_first)
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(setup))
        return 0

    intervals = []
    outputs = []
    for op in ops:
        if tracer is not None:
            tracer.begin_run(op.label)
        t0 = time.perf_counter()
        outputs.append(op.run())
        intervals.append((t0, time.perf_counter()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
    corrected = [sampler.correct(t0, t1) for t0, t1 in intervals]

    attempted = 0
    failures = []
    for op, output in zip(ops, outputs):
        checks, failed = op.check(output)
        attempted += checks
        failures += failed
    result = dict(
        setup,
        wall=sum(corrected),
        raw_wall=intervals[-1][1] - intervals[0][0],
        ops=[[op.label, seconds, op.work]
             for op, seconds in zip(ops, corrected)],
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        from metrics import layer_metrics
        data = tracer.data()
        result["layers"] = layer_metrics(
            data, probe, sampler.scale(intervals[0][0], intervals[-1][1]))
        if args.spans:
            tracer.dump(args.spans, data)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
