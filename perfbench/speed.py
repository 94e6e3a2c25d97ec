"""Machine-speed calibration.

On a shared host the speed of a core can change by a factor of two within
a second and drift for minutes, and CPU time moves with wall time, so raw
times from runs minutes apart are not comparable.  The slowdown belongs to
the core a thread runs on: a probe in another process does not see it,
while a probe in the same thread does.  So the benchmark measures speed in
the thread that runs the operation: a few calibration slices right before
and after each timed operation, and one every ``PERIOD_S`` during it (from
a SIGALRM handler, so long campaign commands are sampled throughout).
Worker processes the package forks during an operation sample their own
cores the same way and leave their slices in a spool directory.
Each operation's time is reported scaled to the speed at which one slice
takes ``REFERENCE_S`` of CPU time:

    scaled = raw * REFERENCE_S / median(slices around and during the operation)

A slice is fixed stdlib work of the kind the package does (``Fraction``
elimination, big integers, float loops, JSON) and never touches
perturbrank, so no change to the package can move it.  The slices taken
during an operation add about 1% to its raw time.  Raw times are kept in
the run record next to the scaled ones.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
from fractions import Fraction
from pathlib import Path
from time import thread_time_ns

#: Scaled times are seconds at the speed where one slice takes this much
#: CPU time (about a calm core of the 2-core Xeon VM the benchmark was
#: defined on).
REFERENCE_S = 0.0006
PERIOD_S = 0.1
EDGE_SLICES = 5


def _work() -> int:
    rng = random.Random(20211011)
    size = 5
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
            for _ in range(size)]
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, size):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    big = 1
    for k in range(1, 120):
        big = big * (k | 1) + k
    text = json.dumps({str(i): [str(x) for x in row] for i, row in enumerate(rows)})
    floats = [[rng.random() for _ in range(6)] for _ in range(6)]
    for _ in range(4):
        floats = [[sum(a * b for a, b in zip(r, c)) for c in zip(*floats)] for r in floats]
        top = max(abs(x) for r in floats for x in r)
        floats = [[x / top for x in r] for r in floats]
    return rank + len(text) + big % 7


def slice_seconds() -> float:
    """CPU seconds one calibration slice takes in this thread now."""
    started = thread_time_ns()
    _work()
    return (thread_time_ns() - started) / 1e9


def _start_timer(handler) -> object:
    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    return previous


class Sampler:
    """Calibration slices around and during timed operations.

    ``edge()`` takes slices between operations; inside ``with sampler:``
    a SIGALRM timer adds one slice every ``PERIOD_S``, in this process and
    in every child forked meanwhile.  ``scale()`` turns the slices since
    the previous ``reset`` into the factor that brings a raw time to the
    reference speed.  Main thread only (signals).
    """

    #: Fork hooks cannot be unregistered, so one hook serves every sampler
    #: and acts only while some sampler is active.
    _active: "Sampler | None" = None
    _hooked = False

    def __init__(self, spool: Path):
        self.samples: list[float] = []
        self.spool = spool
        spool.mkdir(exist_ok=True)
        if not Sampler._hooked:
            os.register_at_fork(after_in_child=Sampler._after_fork)
            Sampler._hooked = True

    @staticmethod
    def _after_fork() -> None:
        sampler = Sampler._active
        if sampler is None:
            return
        path = sampler.spool / f"slices-{os.getpid()}.txt"

        def on_alarm(signum, frame):
            taken = slice_seconds()
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{taken!r}\n")

        Sampler._active = None
        _start_timer(on_alarm)

    def edge(self) -> list[float]:
        taken = [slice_seconds() for _ in range(EDGE_SLICES)]
        self.samples.extend(taken)
        return taken

    def reset(self, keep: list[float]) -> None:
        self.samples = list(keep)

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(slice_seconds())

    def __enter__(self) -> "Sampler":
        Sampler._active = self
        self._previous = _start_timer(self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        Sampler._active = None
        for path in self.spool.glob("slices-*.txt"):
            self.samples.extend(float(line) for line in path.read_text().split())
            path.unlink()
