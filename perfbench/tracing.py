"""Span tracer that times qdiscord's layers from outside the package.

Nothing under src/ knows about it. install() swaps every module-level binding
of a traced function (for example `qdiscord.discord.minimize`,
`qdiscord.monogamy.q_gqd`, `qdiscord.cli.q_gqd`) for a wrapper that records
a span, and restore() puts every original back. Spans carry a parent id, and
a layer's self time is its duration minus the time of the traced calls made
inside it. Spans of one benchmark operation share that operation's root id;
the sweep's worker threads start with an empty stack, so their spans hang
off the root too.

Two hot boundaries, the objective passed to the simplex search and the
entropy kernel `_hq`, run tens of thousands of times per solve. They update
counters and self time but are not kept as span records.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
from time import perf_counter as _now
from types import ModuleType

import qdiscord
from qdiscord import analytic, cli, discord, entropy, linalg, measurement, monogamy, states

MODULES: tuple[ModuleType, ...] = (
    qdiscord,
    linalg,
    entropy,
    states,
    measurement,
    discord,
    analytic,
    monogamy,
    cli,
)

# Starts whose minimum lies within this of the solve's best share its basin.
BASIN_TOL = 1e-7


class _Frame:
    __slots__ = ("span_id", "name", "child", "starts")

    def __init__(self, span_id: int, name: str) -> None:
        self.span_id = span_id
        self.name = name
        self.child = 0.0
        self.starts: list[tuple[float, bool]] = []


class Tracer:
    """Records spans and per-layer totals while installed.

    totals maps a span name to [calls, inclusive seconds, self seconds];
    spans holds (span_id, parent_id, name, t0, t1) for every non-hot call;
    solves holds (starts, basin_hits, best_converged) per discord solve.
    missing lists traced names that the package no longer defines.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.solves: list[tuple[int, int, bool]] = []
        self.missing: list[str] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._plan: list[tuple[object, str, object, object]] = []
        self._build_plan()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[_Frame], _Frame, _Frame | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(next(self._ids), name)
        stack.append(frame)
        return stack, frame, parent

    def _close(self, stack, frame, parent, t0, t1, record) -> None:
        stack.pop()
        dur = t1 - t0
        if parent is not None:
            parent.child += dur
        parent_id = parent.span_id if parent is not None else self.root
        with self._lock:
            entry = self.totals.get(frame.name)
            if entry is None:
                entry = self.totals[frame.name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame.child
            if record:
                self.spans.append((frame.span_id, parent_id, frame.name, t0, t1))
            if frame.starts:
                best_fun, best_ok = min(frame.starts, key=lambda s: s[0])
                hits = sum(1 for f, _ in frame.starts if f <= best_fun + BASIN_TOL)
                self.solves.append((len(frame.starts), hits, best_ok))

    def _wrap(self, fn, name: str, record: bool = True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, frame, parent = tracer._open(name)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stack, frame, parent, t0, _now(), record)

        return wrapper

    def _wrap_minimize(self, fn):
        """The simplex search: wrap its objective and log each start's result."""
        tracer = self

        def minimize(fun, x0, *args, **kwargs):
            res = fn(tracer._wrap(fun, "discord.objective", record=False), x0, *args, **kwargs)
            for frame in reversed(tracer._stack()):
                if frame.name == "discord.solve":
                    frame.starts.append((float(res.fun), bool(res.success)))
                    break
            return res

        return self._wrap(functools.update_wrapper(minimize, fn), "discord.simplex")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; the root of spans in other threads."""
        stack, frame, parent = self._open(name)
        saved_root = self.root
        if parent is None:
            self.root = frame.span_id
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            self.root = saved_root
            self._close(stack, frame, parent, t0, t1, True)

    # -- installing wrappers ---------------------------------------------

    def _bind_everywhere(self, fn, wrapper) -> None:
        for module in MODULES:
            for attr, value in vars(module).items():
                if value is fn:
                    self._plan.append((module, attr, fn, wrapper))

    def _function(self, module: ModuleType, attr: str, name: str, record: bool = True) -> None:
        fn = vars(module).get(attr)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._bind_everywhere(fn, self._wrap(fn, name, record))

    def _build_plan(self) -> None:
        for attr in ("q_gqd", "q_qd_one_sided"):
            self._function(discord, attr, "discord.solve")
        fn = vars(discord).get("minimize")
        if fn is None:
            self.missing.append("qdiscord.discord.minimize")
        else:
            self._bind_everywhere(fn, self._wrap_minimize(fn))
        self._function(entropy, "_hq", "entropy.hq", record=False)
        self._function(entropy, "tsallis_entropy", "entropy.tsallis_entropy")
        init = linalg.DensityMatrix.__dict__["__init__"]
        self._plan.append((linalg.DensityMatrix, "__init__", init, self._wrap(init, "linalg.density_matrix")))
        self._function(linalg, "partial_trace", "linalg.partial_trace")
        self._function(linalg, "eigvalsh", "linalg.eigvalsh")
        self._function(measurement, "apply_full", "measurement.apply_full")
        for attr in analytic.__all__:
            if callable(vars(analytic).get(attr)) and not isinstance(vars(analytic)[attr], type):
                self._function(analytic, attr, "analytic")
        self._function(monogamy, "decompose_induced_gqd", "monogamy.decompose")
        self._function(monogamy, "monogamy_report", "monogamy.report")
        self._function(monogamy, "bounded_sum_check", "monogamy.bounded_sum")
        self._function(monogamy, "bros_counterexample_audit", "monogamy.audit")
        for attr in states.__all__:
            if callable(vars(states).get(attr)) and not isinstance(vars(states)[attr], type):
                self._function(states, attr, "states")

    def install(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original binding back and check that it is back."""
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)
        for owner, attr, original, _ in self._plan:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"binding {owner!r}.{attr} was not restored")

    def take(self) -> tuple[dict, list, list]:
        """Return (totals, spans, solves) recorded so far and start afresh."""
        with self._lock:
            out = (self.totals, self.spans, self.solves)
            self.totals, self.spans, self.solves = {}, [], []
        return out
