"""Host-drift correction by interleaved calibration kernels.

On a shared host the speed of the same work wanders by tens of percent
from one process to the next, and inside one process it flips between a
fast and a slow state within a fraction of a second, while the process
keeps its core (CPU time equals wall time).  So every timed call is run
under a DriftClock: a timer signal runs a short calibration kernel every
PERIOD seconds inside the call, each stretch of work between two kernel
samples is scaled by NOMINAL / (the local kernel time), and the time spent
in the kernel itself is taken out of both the raw and the corrected time.
Corrected figures therefore read as seconds on a host whose kernel takes
NOMINAL seconds per pass.

The kernel is matched to the work it calibrates:

``python``  plain bytecode (integer arithmetic and dict stores), for
            ``import betaplane`` and the rest of in-process set-up; it needs
            no numpy, so it can run before numpy is imported.
``loop``    a Python loop over 64-element numpy operations, the shape of a
            Sturm count, where eigen solves spend their time.
``vector``  whole-array complex arithmetic on 4806 modes, the shape of one
            damping RK4 step.
``mixed``   half a ``python`` pass and half a ``loop`` pass, for CLI
            processes, which spend their time importing and then solving.

NOMINAL is each pass's median time on the host the benchmark was tuned on
(a shared 2-core x86-64 virtual machine, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL = {"python": 0.0021, "loop": 0.0021, "vector": 0.0022, "mixed": 0.0021}
PERIOD = 0.04  # seconds between samples; the fast/slow flips last ~0.1-1 s
EDGE_PASSES = 5  # passes before and after each call, for the end points


def _python_kernel(steps=12000):
    def run():
        acc = 0
        table = {}
        for i in range(steps):
            acc += (i * 7) % 13
            table[i & 63] = acc
        return acc

    return run


def _loop_kernel(rows=200):
    import numpy as np

    rng = np.random.default_rng(12345)
    d = 2.0 + rng.random(rows)
    off2 = rng.random(rows - 1)
    xs = np.linspace(0.0, 4.0, 64)

    def run():
        q = d[0] - xs
        count = np.zeros(xs.size, dtype=np.int64)
        for i in range(1, d.size):
            q = np.where(np.abs(q) < 1e-290, -1e-290, q)
            q = d[i] - xs - off2[i - 1] / q
            count += q < 0
        return count

    return run


def _vector_kernel():
    import numpy as np

    ks = np.repeat(np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]), 801)
    etas = np.tile(0.05 * np.arange(-400, 401), 6)
    amps = np.exp(-(etas**2) / 2.0) * np.exp(-np.abs(ks)) + 0.0j

    def run():
        f = amps.copy()
        for step in range(6):
            t = 0.01 * step
            a1 = 1j * 0.01 * ks / (ks**2 + (etas - ks * t) ** 2)
            a2 = 1j * 0.01 * ks / (ks**2 + (etas - ks * (t + 0.005)) ** 2)
            a4 = 1j * 0.01 * ks / (ks**2 + (etas - ks * (t + 0.01)) ** 2)
            k2 = a2 * (1.0 + 0.5 * a1)
            k3 = a2 * (1.0 + 0.5 * k2)
            f *= 1.0 + (a1 + 2.0 * k2 + 2.0 * k3 + a4 * (1.0 + k3)) / 6.0
        return f

    return run


def _mixed_kernel():
    python, loop = _python_kernel(steps=6000), _loop_kernel(rows=100)

    def run():
        python()
        return loop()

    return run


_KERNELS = {"python": _python_kernel, "loop": _loop_kernel, "vector": _vector_kernel,
            "mixed": _mixed_kernel}


class DriftClock:
    """Times calls in drift-corrected seconds, sampling the named kernel inside each call.

    ``now()`` excludes every kernel pass, so spans timed with it (and the
    raw times this returns) carry none of the calibration cost.
    """

    def __init__(self):
        self.paused = 0.0  # seconds spent in kernel passes
        self._kernels = {}
        self._kernel = None
        self._marks = []  # (now() at the sample, pass seconds)
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _pass(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.paused += dt
        return dt

    def _tick(self, signum, frame):
        if not self._busy:
            self._busy = True
            self._marks.append((self.now(), self._pass()))
            self._busy = False

    def _edge(self) -> float:
        return statistics.median(self._pass() for _ in range(EDGE_PASSES))

    def measure(self, fn, kind: str):
        """Run fn(); return (result, raw seconds, corrected seconds, error text or None)."""
        if kind not in self._kernels:
            t0 = time.perf_counter()
            self._kernels[kind] = _KERNELS[kind]()
            self._kernels[kind]()  # first-call warm-up is not host speed
            self.paused += time.perf_counter() - t0
        self._kernel = self._kernels[kind]
        self._busy = True
        self._marks = [(self.now(), self._edge())]
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._busy = False
        t0 = self.now()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        error = None
        try:
            result = fn()
        except Exception as exc:  # a failed query is counted by the caller, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            t1 = self.now()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._busy = True
        inside = [m for m in self._marks[1:] if m[0] < t1]
        marks = [(t0, self._marks[0][1])] + inside + [(t1, self._edge())]
        self._busy = False
        ks = [k for _, k in marks]
        # a lone slow or fast pass is noise, not drift: median of three neighbours
        smooth = [statistics.median(ks[max(0, i - 1):i + 2]) for i in range(len(ks))]
        corrected = 0.0
        for (ta, _), (tb, _), ka, kb in zip(marks, marks[1:], smooth, smooth[1:]):
            corrected += (tb - ta) * 2.0 * NOMINAL[kind] / (ka + kb)
        return result, t1 - t0, corrected, error
