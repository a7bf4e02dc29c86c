"""Reference-speed timing on a shared host.

On a host shared with other tenants the same op can take up to twice as long
from one minute to the next while the program does the same work.  So every
timed sample is bracketed by runs of a fixed calibration kernel and scaled by
REFERENCE_S over the mean kernel time around it.  The result is the time the
sample would take on a CPU that runs the kernel in REFERENCE_S: contention that
slows the kernel and the sample alike cancels, a change in the program does not.
The raw wall times are kept next to the scaled ones.

Run as a script, it prints the mean kernel time measured in its own process:
    python3 bench/calibration.py MIN_SECONDS
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# About the kernel's time on an idle core of the reference machine
# (Intel Xeon, 2 vCPUs, Python 3.11), so scaled times read as wall times there.
REFERENCE_S = 0.010
# Kernel runs after a sample last at least this share of it, and MIN_S: the
# state of a contended CPU changes within a second, so a long sample needs a
# longer look at it.
SHARE = 0.05
MIN_S = 0.03


def _kernel() -> None:
    """Fixed pure-Python work: `Fraction` arithmetic and dict updates, the
    operations the package's hot loops are made of."""
    acc, counts = Fraction(0), {}
    for i in range(1, 1500):
        f = Fraction(i % 97 + 1, i % 89 + 2)
        acc += f * f
        counts[f] = counts.get(f, 0) + 1


def kernel_s(min_s: float) -> float:
    """Mean wall seconds of one kernel run, over runs lasting at least min_s."""
    runs, total = 0, 0.0
    while runs == 0 or total < min_s:
        start = time.perf_counter()
        _kernel()
        total += time.perf_counter() - start
        runs += 1
    return total / runs


class Series:
    """Wall times of samples, each bracketed by calibration kernel runs.

    `kernel` measures the CPU the samples run on: `kernel_s` for samples in
    this process, a kernel run in a child process for samples that are
    children.
    """

    def __init__(self, kernel=kernel_s) -> None:
        self.kernel = kernel
        self.walls: list[float] = []
        self.calibrations = [kernel(MIN_S)]

    def add(self, wall: float) -> None:
        self.walls.append(wall)
        self.calibrations.append(self.kernel(max(MIN_S, SHARE * wall)))

    def scaled(self) -> list[float]:
        """Each wall time at reference speed, by the kernel runs just before and after it."""
        return [w * 2 * REFERENCE_S / (before + after)
                for w, before, after in zip(self.walls, self.calibrations, self.calibrations[1:])]

    def record(self) -> dict:
        return {"wall_s": self.walls, "calibration_s": self.calibrations}


if __name__ == "__main__":
    print(kernel_s(float(sys.argv[1])))
