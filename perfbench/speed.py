"""Correction of measured times for the interpreter speed of the moment.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz, Python 3.11.7)
the same pass ran up to twice as long in one minute as in the next: the
host's load shifts the speed of the whole virtual machine in phases of
about a minute, and a pass lasts 10-30 s.  The raw times of five runs
spread by 15-40 %, more than any regression bound worth having.

A fixed loop of interpreter work (`probe`) is timed every INTERVAL_S by a
SIGALRM handler, on the same thread as the operation it interrupts.  An
operation's corrected time leaves out the probes that ran inside it and
scales each stretch between two probes by REFERENCE_S / (their mean
time): the time the operation would have taken at the speed where one
probe takes REFERENCE_S.  The program never runs the probe's code, so a
change to the program moves corrected times as it moves raw ones.
"""

import signal
import statistics
import time

INTERVAL_S = 0.1
REFERENCE_S = 0.005   # probe time at the reference speed


def probe():
    """Fixed interpreter work: int arithmetic, indexing, a dict."""
    table = {}
    acc = 0
    for i in range(30000):
        acc = (acc + i * i) % 65521
        table[i & 127] = acc
    return acc


class SpeedSampler:
    """Times `probe` every INTERVAL_S while active."""

    def __init__(self):
        self.samples = []     # (start, seconds) of every probe
        self._previous = None

    def sample(self):
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start))

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def busy(self, start, end):
        """Seconds the probes took inside [start, end)."""
        return sum(d for t, d in self.samples if start <= t < end)

    def scale(self, start=float("-inf"), end=float("inf")):
        """REFERENCE_S / median probe time in [start, end) and of the
        nearest probe on either side."""
        return REFERENCE_S / statistics.median(
            d for _, d in self._around(start, end))

    def _around(self, start, end):
        inside = [s for s in self.samples if start <= s[0] < end]
        before = [s for s in self.samples if s[0] < start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        return before + inside + after

    def correct(self, start, end):
        """Corrected seconds of the interval [start, end): each stretch
        between two probes is scaled by REFERENCE_S / their mean time."""
        marks = self._around(start, end)
        if marks[0][0] > start:       # no probe before: hold the first speed
            marks.insert(0, (start - marks[0][1], marks[0][1]))
        if marks[-1][0] < end:        # no probe after: hold the last speed
            marks.append((end, marks[-1][1]))
        total = 0.0
        for (t0, d0), (t1, d1) in zip(marks, marks[1:]):
            lo, hi = max(start, t0 + d0), min(end, t1)   # probes excluded
            if hi > lo:
                total += (hi - lo) * 2 * REFERENCE_S / (d0 + d1)
        return total
