"""A fixed reference computation that gauges how fast the machine runs
jacobisplit-like code at the moment.

On a shared virtual machine the speed of the same code drifts by 20-40 %
over minutes, as other tenants come and go, so raw seconds from runs made
minutes apart differ by more than any regression worth catching. The
benchmark therefore runs this computation between stretches of measured
work and scales each stretch by ``REF_S`` over the mean of the two
reference times around it: a scaled timing reads as seconds on a machine
that runs the reference in ``REF_S``. The computation is frozen here, in
the benchmark's own files, and imports nothing from jacobisplit, so a
change to the program moves scaled timings exactly as it moves raw ones.
It mixes the kinds of work jacobisplit does: an RK4 loop over small
matrices in Python (as ``jacobi.integrate``) and small LAPACK calls (as the
spectra and singular values of the checks). Measured on a 2-vCPU KVM
guest over six minutes, 30-s medians of a ``builtin-sweep`` pass ranged
1.74-2.49 s, while the pass's ratio to the reference times around it
stayed within 7 % of its median.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal seconds of one reference run (it took 0.16-0.26 s on a 2-vCPU
# KVM guest with an Intel Xeon processor); scaled timings are in seconds of
# a machine that runs the reference in exactly this time.
REF_S = 0.2
STEPS = 6000
STEP = 1e-3


def _kernel() -> float:
    """RK4 for Y'' = -R(t) Y with a 3x3 R(t), plus a singular value and an
    eigenvalue of Y every tenth step."""
    base = np.diag([1.0, 2.0, 3.0])

    def field(t: float) -> np.ndarray:
        m = base.copy()
        m[0, 1] = m[1, 0] = 0.1 * np.sin(t)
        return m

    h = STEP
    y, yd = np.eye(3), np.zeros((3, 3))
    r0, acc = field(0.0), 0.0
    for j in range(STEPS):
        t = j * h
        rh, r1 = field(t + 0.5 * h), field(t + h)
        k1y, k1d = yd, -(r0 @ y)
        y2 = y + 0.5 * h * k1y
        k2y, k2d = yd + 0.5 * h * k1d, -(rh @ y2)
        y3 = y + 0.5 * h * k2y
        k3y, k3d = yd + 0.5 * h * k2d, -(rh @ y3)
        y4 = y + h * k3y
        k4y, k4d = yd + h * k3d, -(r1 @ y4)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        yd = yd + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        r0 = r1
        if j % 10 == 0:
            acc += float(np.linalg.svd(y, compute_uv=False)[0]) + float(np.linalg.eigvalsh(y + y.T)[0])
    return acc


def reference_seconds() -> float:
    """Wall seconds of one run of the reference computation."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedLog:
    """Reference times taken between stretches of measured work. Work done
    after ``refs[k]`` and before ``refs[k + 1]`` belongs to segment ``k``;
    a segment is closed once at least ``segment_s`` seconds of work have
    gone into it."""

    def __init__(self, segment_s: float):
        self.segment_s = segment_s
        self.refs = [reference_seconds()]
        self._open_s = 0.0

    @property
    def segment(self) -> int:
        """The segment that work done now belongs to."""
        return len(self.refs) - 1

    def add(self, seconds: float) -> None:
        """Count ``seconds`` of work into the open segment."""
        self._open_s += seconds
        if self._open_s >= self.segment_s:
            self.close()

    def close(self) -> None:
        """Close the open segment with a reference run, unless it is empty."""
        if self._open_s > 0.0:
            self.refs.append(reference_seconds())
            self._open_s = 0.0
