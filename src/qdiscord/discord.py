"""q-mutual information and measurement-minimized discord quantities.

Every quantity uses I_q = -S_q(rho) + sum_g S_q(rho_g) over parties g: the
single qubits, or the two sides of a cut=(left, right). _parties and
_mutual_information are the only code for each.

The global quantity minimizes the q-mutual-information drop over product
projective measurements of every qubit; the one-sided quantity measures
only one party. Minimization is multi-start Nelder-Mead over the Bloch
angles (theta, phi) of each measured qubit.

The starts run in lockstep: each is scipy's Nelder-Mead loop written as a
generator that yields the points it needs, and each round evaluates the
points of every running start in a single call of the batched objective,
angles (K, 2m) to values (K,). A row of the batch is the same float as
that row evaluated alone, so every start takes exactly scipy's steps and
the result does not depend on how many starts share a round. The report
keeps every start's minimum, evaluations and convergence, and how many
starts reached the best basin.

The objective gets the measured spectrum from W^dagger (rho W), one
batched matmul per call; with every qubit measured it calls the kernel
that apply_full and outcome_probabilities use. It is the only code that
evaluates I_q(Phi(rho)): induced_discord, the fixed-measurement drop, is
its row at the measurement's angles, so no measured state is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _check_q, _hq, tsallis_entropy
from .linalg import DensityMatrix, partial_trace
from .measurement import ProductMeasurement, _angles, _probabilities, product_basis

DESK_SCALE_LIMIT = 4
CLAMP_SLACK = 1e-8
# Starts whose minimum lies within this of the best one share its basin.
BASIN_TOL = 1e-7

__all__ = [
    "DESK_SCALE_LIMIT",
    "BASIN_TOL",
    "Bipartition",
    "OptimizerConfig",
    "DiscordReport",
    "mutual_information_q",
    "induced_discord",
    "q_gqd",
    "q_qd_one_sided",
]


@dataclass(frozen=True)
class Bipartition:
    """Two-block split of qubit indices, used for two-party quantities."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(sorted(int(i) for i in self.left)))
        object.__setattr__(self, "right", tuple(sorted(int(i) for i in self.right)))
        if not self.left or not self.right:
            raise ValueError("both sides of a bipartition must be nonempty")
        if set(self.left) & set(self.right):
            raise ValueError("bipartition sides must be disjoint")

    def check_covers(self, num_qubits: int) -> None:
        if sorted(self.left + self.right) != list(range(num_qubits)):
            raise ValueError("bipartition must cover every qubit exactly once")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-start simplex search.

    starts counts starting points (the first eight are deterministic grid
    patterns, the rest are seeded sphere-uniform draws), max_evals caps the
    objective evaluations per start, and seed fixes the random starts so
    identical configs give identical results.
    """

    starts: int = 16
    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class DiscordReport:
    """Outcome of a discord minimization.

    value is clamped to 0 when the raw minimum lands in [-1e-8, 0) and the
    regime guarantees nonnegativity (0 < q <= 1); raw_value keeps the
    unclamped number. optimal_measurement lists one Bloch measurement per
    entry of measured_qubits. start_minima holds each start's final
    minimum in start order, and basin_hits counts the starts within
    BASIN_TOL of raw_value (at least 1: the best start itself).
    start_evals and start_converged hold each start's objective
    evaluations and whether it stopped before max_evals, in start order;
    they sum to objective_evals, and the best start's flag is converged.
    """

    value: float
    q: float
    optimal_measurement: ProductMeasurement
    measured_qubits: tuple[int, ...]
    starts_used: int
    converged: bool
    objective_evals: int
    raw_value: float
    nonnegativity_guaranteed: bool
    start_minima: tuple[float, ...]
    basin_hits: int
    start_evals: tuple[int, ...]
    start_converged: tuple[bool, ...]


def _parties(n: int, cut) -> tuple[tuple[int, ...], ...]:
    """Single qubits when cut is None, else the sides of the covering cut."""
    if cut is None:
        return tuple((i,) for i in range(n))
    if not isinstance(cut, Bipartition):
        left, right = cut
        cut = Bipartition(left, right)
    cut.check_covers(n)
    return (cut.left, cut.right)


def _mutual_information(rho: DensityMatrix, groups, q: float) -> float:
    """-S_q(rho) + sum_g S_q(rho_g), summed in that order over the groups."""
    total = -tsallis_entropy(rho, q)
    for g in groups:
        total += tsallis_entropy(partial_trace(rho, g), q)
    return total


def mutual_information_q(rho: DensityMatrix, q: float) -> float:
    """I_q(rho) = sum_i S_q(rho^{A_i}) - S_q(rho) over single-qubit marginals."""
    q = _check_q(q)
    return _mutual_information(rho, _parties(rho.num_qubits, None), q)


def induced_discord(
    rho: DensityMatrix, phi: ProductMeasurement, q: float, *, cut=None
) -> float:
    """Mutual-information drop I_q(rho) - I_q(Phi(rho)) for one fixed measurement.

    The parties are the single qubits by default; cut=(left, right) uses
    the two-party mutual information across that bipartition instead. The
    measurement acts on every qubit of rho either way. The value is one row
    of the objective q_gqd minimizes, evaluated at phi's angles.
    """
    q = _check_q(q)
    n = rho.num_qubits
    angles = _angles(phi, n)
    objective = _make_objective(rho, q, tuple(range(n)), _parties(n, cut))
    return float(objective(np.array([angles]))[0])


# ---------------------------------------------------------------------------
# optimizer internals

_GRID_COMBOS = (
    (math.pi / 4, 0.0),
    (math.pi / 4, math.pi / 2),
    (3 * math.pi / 4, 0.0),
    (3 * math.pi / 4, math.pi / 2),
)


def _start_points(m: int, opt: OptimizerConfig) -> list[np.ndarray]:
    """Angle vectors of shape (2m,): grid patterns first, then random draws."""
    points = []
    for k in range(min(opt.starts, 8)):
        if k < 4:
            combos = [_GRID_COMBOS[k]] * m
        else:
            combos = [_GRID_COMBOS[(k + i) % 4] for i in range(m)]
        points.append(np.asarray(combos, dtype=float).ravel())
    rng = np.random.default_rng(opt.seed)
    while len(points) < opt.starts:
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=m))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        points.append(np.column_stack([theta, phi]).ravel())
    return points


def _make_objective(rho: DensityMatrix, q: float, measured: tuple[int, ...], groups):
    """Batched I_q(rho) - I_q(Phi(rho)): angles of shape (K, 2m) to K values.

    Phi(rho) is diagonal in the product measurement basis (block diagonal
    when some qubits stay unmeasured), so the measured-state entropies come
    from outcome probabilities and per-block spectra of W^dagger rho W (W
    the rotated product basis) rather than from an explicit channel
    application. With every qubit measured, the probabilities come from
    measurement._probabilities, the kernel the channel API uses. With some
    qubits unmeasured, block j is sum_ab W*[a, j] rho[(a, u), (b, v)] W[b, j]:
    one batched matmul of rho's measured column index b against W, then a
    2-operand contraction over a with W*. Group terms whose qubits are
    unmeasured cancel exactly and are skipped. Every row is computed on its
    own: a row's value does not depend on the other rows of the batch, and
    induced_discord is the single row at one measurement.
    """
    n = rho.num_qubits
    m = len(measured)
    unmeasured = tuple(i for i in range(n) if i not in measured)
    dim_m = 2**m
    dim_u = 2 ** len(unmeasured)

    # rho with rows (a, u, v) and columns b; with dim_u == 1 it is rho itself
    # with its qubits in measured order.
    axes = measured + unmeasured + tuple(n + i for i in unmeasured + measured)
    stacked = (
        rho.matrix.reshape((2,) * (2 * n))
        .transpose(axes)
        .reshape(dim_m * dim_u * dim_u, dim_m)
    )

    measured_groups = []
    parties = []
    for g in groups:
        if all(i in measured for i in g):
            parties.append(g)
            positions = tuple(measured.index(i) for i in g)
            # axis 0 of the outcome tensor is the batch
            sum_axes = tuple(1 + ax for ax in range(m) if ax not in positions)
            measured_groups.append(sum_axes)
        elif any(i in measured for i in g):
            raise ValueError("each party must be fully measured or fully unmeasured")
        # fully unmeasured groups drop out: their marginal is untouched
    const = _mutual_information(rho, parties, q)

    def objective(angles: np.ndarray) -> np.ndarray:
        w = product_basis(angles)
        k = w.shape[0]
        if dim_u == 1:
            probs = _probabilities(w, stacked)
            np.maximum(probs, 0.0, out=probs)
            spectrum = probs
        else:
            rho_w = (stacked @ w).reshape(k, dim_m, dim_u, dim_u, dim_m)
            blocks = np.einsum("kaj,kauvj->kjuv", w.conj(), rho_w)
            probs = np.einsum("kjuu->kj", blocks).real
            np.maximum(probs, 0.0, out=probs)
            spectrum = np.linalg.eigvalsh(blocks).reshape(k, -1)
        ptensor = probs.reshape((k,) + (2,) * m)
        marginals = [
            (ptensor.sum(axis=ax) if ax else probs).reshape(k, -1) for ax in measured_groups
        ]
        # _hq is a plain sum over entries, so one call over the concatenated
        # marginals gives the sum of their entropies.
        return const + _hq(spectrum, q) - _hq(np.concatenate(marginals, axis=1), q)

    return objective


def _simplex_around(x0: np.ndarray) -> np.ndarray:
    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    for k in range(d):
        simplex[k + 1, k] += 0.35
    return simplex


_XATOL = 1e-4  # scipy's default
_FATOL = 1e-8


def _nelder_mead(x0: np.ndarray, maxfev: int):
    """scipy's _minimize_neldermead from _simplex_around(x0), as a generator.

    The loop is scipy's line for line (no bounds, maxiter unbounded, the
    standard coefficients rho = 1, chi = 2, psi = sigma = 1/2 multiplied
    out in each trial point), except that it yields the points to
    evaluate as rows of an array and receives their values instead of
    calling the objective, and a shrink yields its vertices together. A
    step whose evaluation would exceed maxfev is dropped, as scipy's
    _MaxFuncCallError drops it; a shrink still moves the vertex it could
    not evaluate, which keeps its old value. Returns
    (x, min(fsim), evaluations, success), where success means the search
    stopped before maxfev.
    """
    n = x0.size
    sim = _simplex_around(x0)
    fsim = np.full((n + 1,), np.inf, dtype=float)
    nfev = min(n + 1, maxfev)
    fsim[:nfev] = yield sim[:nfev]
    for _ in range(2):  # scipy sorts the initial simplex twice
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    while nfev < maxfev:
        # scipy's test; fsim is sorted, so its largest |fsim[0] - fsim[j]|
        # is fsim[-1] - fsim[0], and that cheap half goes first.
        if (fsim[-1] - fsim[0] <= _FATOL and
                np.abs(sim[1:] - sim[0]).max() <= _XATOL):
            return sim[0], fsim.min(), nfev, True

        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        (fxr,) = yield xr[None]
        nfev += 1
        doshrink = 0

        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = 3 * xbar - 2 * sim[-1]
                (fxe,) = yield xe[None]
                nfev += 1

                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        elif nfev < maxfev:
            # Perform contraction
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                (fxc,) = yield xc[None]
                nfev += 1

                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = 1
            else:
                # Perform an inside contraction
                xcc = 0.5 * xbar + 0.5 * sim[-1]
                (fxcc,) = yield xcc[None]
                nfev += 1

                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = 1

            if doshrink:
                # Vertex j moves before it is evaluated and depends only on
                # itself and sim[0], so the evaluable ones go out together.
                evaluated = min(n, maxfev - nfev)
                moved = min(n, evaluated + 1)
                sim[1 : moved + 1] = sim[0] + 0.5 * (sim[1 : moved + 1] - sim[0])
                if evaluated:
                    fsim[1 : evaluated + 1] = yield sim[1 : evaluated + 1]
                    nfev += evaluated
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    return sim[0], fsim.min(), nfev, False


def _lockstep_nelder_mead(objective, x0: np.ndarray, maxfev: int):
    """_nelder_mead from every row of x0, with one objective call per round.

    Each round stacks the points every running search yields, evaluates
    them in a single batched call and sends each search its own values.
    Returns the best vertices (K, N), their values (K,), the evaluations
    (K,) and success (K,).
    """
    searches = [_nelder_mead(x, maxfev) for x in x0]
    results = [None] * len(searches)
    running = list(enumerate(searches))
    points = [search.send(None) for search in searches]
    while running:
        values = objective(np.concatenate(points)).tolist()
        asked, running, points = zip(running, points), [], []
        stop = 0
        for (k, search), p in asked:
            start, stop = stop, stop + len(p)
            try:
                points.append(search.send(values[start:stop]))
                running.append((k, search))
            except StopIteration as done:
                results[k] = done.value
    xs, fun, nfev, success = zip(*results)
    return np.array(xs), np.array(fun), np.array(nfev), np.array(success)


def _minimize_discord(
    rho: DensityMatrix,
    q: float,
    opt: OptimizerConfig,
    measured: tuple[int, ...],
    groups,
) -> DiscordReport:
    objective = _make_objective(rho, q, measured, groups)
    starts = np.array(_start_points(len(measured), opt))
    xs, fun, nfev, success = _lockstep_nelder_mead(objective, starts, opt.max_evals)
    minima = tuple(float(f) for f in fun)
    best = min(range(len(minima)), key=minima.__getitem__)  # the first lowest start
    raw = minima[best]
    nonneg_guaranteed = q <= 1.0
    value = raw
    if nonneg_guaranteed and -CLAMP_SLACK <= raw < 0.0:
        value = 0.0
    return DiscordReport(
        value=value,
        q=q,
        optimal_measurement=ProductMeasurement.from_angles(xs[best].reshape(-1, 2)),
        measured_qubits=measured,
        starts_used=len(starts),
        converged=bool(success[best]),
        objective_evals=int(nfev.sum()),
        raw_value=raw,
        nonnegativity_guaranteed=nonneg_guaranteed,
        start_minima=minima,
        basin_hits=sum(1 for f in minima if f <= raw + BASIN_TOL),
        start_evals=tuple(int(e) for e in nfev),
        start_converged=tuple(bool(c) for c in success),
    )


def _check_desk_scale(rho: DensityMatrix) -> None:
    if rho.num_qubits > DESK_SCALE_LIMIT:
        raise ValueError("state exceeds desk-scale limit of 4 qubits")


def q_gqd(rho: DensityMatrix, q: float, opt: OptimizerConfig | None = None, *, cut=None) -> DiscordReport:
    """Global q-discord: minimal induced discord over product measurements.

    By default the mutual information is the multi-party sum over
    single-qubit marginals. Passing cut=(left, right) switches to the
    two-party mutual information across that bipartition while still
    measuring every qubit with per-qubit projectors.
    """
    q = _check_q(q)
    _check_desk_scale(rho)
    opt = opt if opt is not None else OptimizerConfig()
    n = rho.num_qubits
    return _minimize_discord(rho, q, opt, tuple(range(n)), _parties(n, cut))


def q_qd_one_sided(
    rho: DensityMatrix, measured, q: float, opt: OptimizerConfig | None = None
) -> DiscordReport:
    """One-sided q-discord: only the `measured` qubits carry projectors.

    The complement is treated as the unmeasured party and the score is the
    two-party mutual-information drop across that split, minimized over
    per-qubit product measurements of the measured subset.
    """
    q = _check_q(q)
    _check_desk_scale(rho)
    opt = opt if opt is not None else OptimizerConfig()
    n = rho.num_qubits
    measured = tuple(sorted({int(i) for i in measured}))
    if not measured or len(measured) >= n:
        raise ValueError("measured subset must be nonempty and proper")
    if measured[0] < 0 or measured[-1] >= n:
        raise ValueError("measured qubit index out of range")
    complement = tuple(i for i in range(n) if i not in measured)
    return _minimize_discord(rho, q, opt, measured, (complement, measured))
