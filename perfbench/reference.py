"""Host-speed reference kernel and the correction it drives.

The machines this benchmark runs on change speed by up to 2x within a minute
while the process keeps its CPU (process CPU time equals wall time), so raw
op times drift with the host, not with the code.  Every timed interval is
therefore bracketed by samples of a fixed reference kernel, and its raw time
is scaled by ``REF_NOMINAL_S`` over the geometric mean of the samples taken
just before and just after it.

The kernel imports nothing from hwmlab, so a change to the program cannot
move it.  Like the program's own work it mixes a small complex mat-vec with a
Python loop over scalars.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

# Median sample wall time on the calibration host (2-core VM, Python 3.11.7,
# numpy 2.4.6, OpenBLAS pinned to one thread).  Corrected times are seconds
# of that host at that speed.
REF_NOMINAL_S = 0.6e-3

SUBRUNS = 5
REPS = 75

# A reference sample is quiet when the process used no more CPU than wall
# time, up to clock rounding (measured at under 2e-5 s per sample).
QUIET_ABS_S = 1e-4
QUIET_REL = 0.01

_rng = np.random.Generator(np.random.Philox(key=20260217))
_A = (_rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))) / 24.0
_V0 = _rng.standard_normal(24) + 1j * _rng.standard_normal(24)


def kernel() -> float:
    """Fixed work: normalized complex mat-vec powers plus a scalar Python loop.

    On the calibration host, blends that added a pure-Python loop, an FFT or
    a larger mat-vec tracked the workloads' op times no better over 15 s
    windows than this kernel alone.
    """
    v = _V0.copy()
    acc = 0.0
    for _ in range(REPS):
        v = _A @ v
        v = v / np.linalg.norm(v)
        for j in range(8):
            acc += abs(v[j])
    return acc


@dataclass(frozen=True)
class RefSample:
    """One reference sample: the median of ``SUBRUNS`` kernel runs.

    ``cpu_s`` and ``span_s`` are the process CPU time and the wall time over
    all sub-runs, for the quiet-window guard.
    """

    wall_s: float
    cpu_s: float
    span_s: float
    subruns_s: tuple

    @property
    def quiet(self) -> bool:
        return is_quiet(self.cpu_s, self.span_s)

    def to_json(self) -> dict:
        return asdict(self)


def is_quiet(cpu_s: float, wall_s: float) -> bool:
    """False when another thread of this process ran during the window."""
    return cpu_s <= wall_s * (1.0 + QUIET_REL) + QUIET_ABS_S


def spin(seconds: float = 0.03) -> None:
    """Run the kernel for a while, so a sample taken after the process sat
    idle (waiting on a child) does not read the CPU's wake-up as slowness."""
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        kernel()


def sample() -> RefSample:
    walls = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for _ in range(SUBRUNS):
        a = time.perf_counter()
        kernel()
        walls.append(time.perf_counter() - a)
    span = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return RefSample(statistics.median(walls), cpu, span, tuple(walls))


def factor(before: RefSample, after: RefSample) -> float:
    """Scale for a raw time measured between two reference samples."""
    return REF_NOMINAL_S / math.sqrt(before.wall_s * after.wall_s)
