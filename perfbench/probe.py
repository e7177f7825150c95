"""Field-kernel probe: FieldElement operations per second, untraced and
speed-corrected (speed.py).

The only per-layer metric with no workload of its own.  Each rate is the
median of REPEATS timed loops over a fixed, seeded pool of operands.
"""

import random
import statistics
import time

from metrics import KERNEL_PROBES

REPEATS = 5
POOL = 64          # operand pairs per pool
TARGET_S = 0.08    # approximate length of one timed loop


def _fields():
    from pointless.field import FiniteField, embed
    F25 = FiniteField(5, 2, [2, -1, 1])
    return {
        "F29": FiniteField(29),
        "F25": F25,
        "F15625": embed(F25, 3)[0],   # F_{25^3}, where count(3) runs for F_25
        "F32": FiniteField(2, 5, [1, 0, 1, 0, 0, 1]),
    }


_OPS = {
    "mul": lambda pairs: [a * b for a, b in pairs],
    "add": lambda pairs: [a + b for a, b in pairs],
    "inv": lambda pairs: [a.inv() for a, _ in pairs],
    "is_square": lambda pairs: [a.is_square() for a, _ in pairs],
    "trace": lambda pairs: [a.trace_to_F2() for a, _ in pairs],
}


def _rate(op, pairs, sampler):
    """Operations per second of one loop sized to about TARGET_S, with
    the loop's time corrected by speed probes on either side."""
    t0 = time.perf_counter()
    op(pairs)
    once = max(time.perf_counter() - t0, 1e-6)
    loops = max(1, int(TARGET_S / once))
    sampler.sample()
    t0 = time.perf_counter()
    for _ in range(loops):
        op(pairs)
    t1 = time.perf_counter()
    sampler.sample()
    return loops * len(pairs) / sampler.correct(t0, t1)


def kernel_rates(sampler):
    """{metric name: corrected operations per second} for every kernel
    probe; `sampler` is a speed.SpeedSampler that is not running."""
    rng = random.Random(0)
    fields = _fields()
    out = {}
    for metric, field_name, op_name in KERNEL_PROBES:
        F = fields[field_name]
        # nonzero operands, so that inv is defined on every one
        pairs = [(F.from_index(rng.randrange(1, F.q)),
                  F.from_index(rng.randrange(1, F.q))) for _ in range(POOL)]
        op = _OPS[op_name]
        op(pairs)          # builds lazy tables (dlog) before timing
        out[metric] = statistics.median(_rate(op, pairs, sampler)
                                        for _ in range(REPEATS))
    return out
