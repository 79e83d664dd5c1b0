"""Machine-speed reference for the end-to-end timings.

The CPU speed this benchmark gets on a shared 2-vCPU virtual machine drifts
by 10-30 % over tens of seconds, and at times halves, in plateaus that can
last a whole run, so raw times of identical runs differ by more than the
bounds a regression check needs.
A fixed reference operation, interleaved with the requests, tracks that
speed.  Every reported time is scaled to a nominal machine on which one
reference operation takes its nominal time:

    scaled = raw * nominal / (median reference time around the request)

In-process workloads use ``reference_op``, stdlib work of the same kind as
the program's; ``cold-cli`` uses a bare interpreter start, which also tracks
the cost of process creation.  Neither touches ``seifinv``, so a change to
the program moves the scaled numbers as it moves the raw ones.  Raw figures
are reported next to the scaled ones in the run's details.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import time
from fractions import Fraction

# Nominal times: about the references' times on a 2-vCPU x86-64 VM, Python 3.11.
OP_NOMINAL_NS = 1_300_000
SPAWN_NOMINAL_NS = 60_000_000


def reference_op() -> int:
    """Fixed work resembling the program's: argparse, Fractions, JSON."""
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    for i in range(6):
        p = sub.add_parser(f"c{i}")
        p.add_argument("x")
        p.add_argument("--n", type=int, default=0)
        p.add_argument("--json", action="store_true")
    args = parser.parse_args(["c3", "v", "--n", "4", "--json"])
    total = Fraction(args.n)
    for q in range(2, 80):
        total += Fraction(q % 5 + 1, q)
    return len(json.dumps({"total": str(total), "rows": [{"q": q, "p": str(total / q)} for q in range(1, 40)]}))


class SpeedTracker:
    """Reference samples keyed by the position (request index) where taken.

    ``reference`` runs one reference operation and returns its time in ns;
    ``window`` samples around a request give its scale factor."""

    def __init__(self, reference, nominal_ns: int, window: int):
        self.reference = reference
        self.nominal_ns = nominal_ns
        self.window = window
        self.positions: list[int] = []
        self.times: list[int] = []

    def sample(self, position: int, count: int = 1) -> None:
        for _ in range(count):
            self.times.append(self.reference())
            self.positions.append(position)

    def scale_at(self, position: int) -> float:
        """Nominal time over the median of the samples nearest ``position``."""
        mid = bisect.bisect_left(self.positions, position)
        lo = max(0, min(mid - self.window // 2, len(self.times) - self.window))
        return self.nominal_ns / statistics.median(self.times[lo : lo + self.window])

    def scale(self) -> float:
        return self.nominal_ns / statistics.median(self.times)


def timed_reference_op() -> int:
    start = time.perf_counter_ns()
    reference_op()
    return time.perf_counter_ns() - start
