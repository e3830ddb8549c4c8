"""Reference probe: a fixed numpy/Python kernel that imports nothing from qdiscord.

Timings on a shared host swing with host speed, so the benchmark expresses
them in ref units: one ref is the wall time of one warm probe_once() call
made while the operation runs. The kernel is Python loop overhead around
small complex Kronecker products, an einsum and elementwise powers, the
kind of work the discord objective does, so both slow down together when
the host does. (Kernels weighted towards 16 x 16 BLAS calls or Python object
handling tracked light-n3 and deep-n4 worse and ledger-n4 no better.) Its
inputs are fixed and never depend on the seed.

The host's speed changes within a second, faster than one deep-n4 solve
lasts, so a probe only before and after each operation tracks it poorly
(per-operation spread about 18 % on a 1 s solve, against 4-6 % for the
ticks below). Ticker therefore interleaves the probe with everything the
benchmark runs: a timer signal fires every TICK_INTERVAL seconds and its
handler, which Python runs in the main thread between bytecodes, calls
probe_once() twice and times the second call. The first call refills the
caches the operation evicted; timing a cold call made the reference react to
cache pressure that the operation, whose small working set stays cached,
does not feel. Each operation's time, less the ticks' whole time, is
divided by the mean probe time of the ticks inside it, widened to the
nearest ticks until the window holds as many ticks as the operation's
duration would (at least MIN_TICKS). The operation's time adds up the
host's speed over its whole span, so the reference averages it too; the
fastest and slowest TRIM of the ticks are dropped first, so that a tick hit
by a preemption does not count. (Over five to fifteen seeds per workload
this spread 3-4 %, where the median of the ticks spread 3-6 % and 23 % on
cli-e2e.)

While other threads run, such as the sweep's worker pool, a tick does
nothing. A probe there would wait for the interpreter lock and share the
cores with the workers, so its time would measure the program's own
threading rather than the host, and it would shrink if the program dropped
its threads. An operation with no ticks inside is therefore measured by its
whole wall time and normalised by the uncontended ticks just before and after
it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import threading
import time

import numpy as np

ROUNDS = 6
TICK_INTERVAL = 0.02
# Operations borrow the nearest ticks until they have this many, or as many
# as their duration would hold if longer. Twenty lets the trim below drop
# two ticks at each end of a short operation's window.
MIN_TICKS = 20
# Share of the window's ticks dropped at each end before averaging.
TRIM = 0.1

_rng = np.random.default_rng(20130212)
_g = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_RHO = _g @ _g.conj().T
_RHO /= _RHO.trace().real
_ANGLES = _rng.uniform(0.0, math.pi, size=(ROUNDS, 6))


def _rotation(theta: float, phi: float) -> np.ndarray:
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ph = complex(math.cos(phi), math.sin(phi))
    return np.array([[ct, -st], [ph * st, ph * ct]], dtype=complex)


def probe_once() -> float:
    """One reference unit of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for a in _ANGLES:
        w = np.kron(np.kron(_rotation(a[0], a[1]), _rotation(a[2], a[3])), _rotation(a[4], a[5]))
        p = np.einsum("aj,ab,bj->j", w.conj(), _RHO, w).real
        p = p[p > 1e-12]
        acc += float(np.sum(p**0.75))
    return acc


class Ticker:
    """Runs probe_once() on a timer signal while active.

    Each tick records its start, its whole wall duration (what it takes from
    the operation) and the wall time of the timed, second probe call.
    Ticks are skipped while any other thread is alive.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._wall: list[float] = []
        self._probe: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if threading.active_count() > 1:
            return
        t0 = time.perf_counter()
        probe_once()
        t1 = time.perf_counter()
        probe_once()
        t2 = time.perf_counter()
        self._starts.append(t0)
        self._wall.append(t2 - t0)
        self._probe.append(t2 - t1)

    def __enter__(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL, TICK_INTERVAL)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def split(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds of [t0, t1] not spent in ticks, ref seconds for that interval).

        The reference is the trimmed mean probe time of the ticks inside
        [t0, t1], widened to the nearest ticks until there are as many as the
        interval would hold, and at least MIN_TICKS.
        """
        lo, hi = bisect.bisect_left(self._starts, t0), bisect.bisect_left(self._starts, t1)
        inside = sum(self._wall[lo:hi])
        need = max(MIN_TICKS, round((t1 - t0) / TICK_INTERVAL))
        while hi - lo < need and (lo > 0 or hi < len(self._starts)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self._starts))
        window = sorted(self._probe[lo:hi])
        cut = int(len(window) * TRIM)
        return (t1 - t0) - inside, statistics.fmean(window[cut : len(window) - cut])

    def durations(self) -> list[float]:
        """Probe seconds of every tick."""
        return list(self._probe)
