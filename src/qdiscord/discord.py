"""q-mutual information and measurement-minimized discord quantities.

The global quantity minimizes the q-mutual-information drop over product
projective measurements of every qubit; the one-sided quantity measures
only one party. Minimization is multi-start Nelder-Mead over the Bloch
angles (theta, phi) of each measured qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .entropy import Q_SWITCH_TOL, _check_q, _hq, tsallis_entropy
from .linalg import DensityMatrix, partial_trace
from .measurement import ProductMeasurement, apply_full, product_basis

DESK_SCALE_LIMIT = 4
CLAMP_SLACK = 1e-8

__all__ = [
    "DESK_SCALE_LIMIT",
    "Bipartition",
    "OptimizerConfig",
    "DiscordReport",
    "mutual_information_q",
    "induced_discord",
    "induced_discord_bipartite",
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
    objective evaluations per start, tol is the simplex value tolerance,
    and seed fixes the random starts so identical configs give identical
    results.
    """

    starts: int = 16
    max_evals: int = 2000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class DiscordReport:
    """Outcome of a discord minimization.

    value is clamped to 0 when the raw minimum lands in [-1e-8, 0) and the
    regime guarantees nonnegativity (0 < q <= 1); raw_value keeps the
    unclamped number. optimal_measurement lists one Bloch measurement per
    entry of measured_qubits.
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


def mutual_information_q(rho: DensityMatrix, q: float) -> float:
    """I_q(rho) = sum_i S_q(rho^{A_i}) - S_q(rho) over single-qubit marginals."""
    q = _check_q(q)
    total = -tsallis_entropy(rho, q)
    for i in range(rho.num_qubits):
        total += tsallis_entropy(partial_trace(rho, {i}), q)
    return total


def _mutual_information_cut(rho: DensityMatrix, cut: Bipartition, q: float) -> float:
    return (
        tsallis_entropy(partial_trace(rho, cut.left), q)
        + tsallis_entropy(partial_trace(rho, cut.right), q)
        - tsallis_entropy(rho, q)
    )


def induced_discord(rho: DensityMatrix, phi: ProductMeasurement, q: float) -> float:
    """Mutual-information drop I_q(rho) - I_q(Phi(rho)) for one fixed measurement."""
    q = _check_q(q)
    measured = apply_full(phi, rho)
    return mutual_information_q(rho, q) - mutual_information_q(measured, q)


def induced_discord_bipartite(
    rho: DensityMatrix, cut, phi: ProductMeasurement, q: float
) -> float:
    """Two-party mutual-information drop across `cut` for one fixed measurement.

    The measurement still acts on every qubit of rho; only the mutual
    information is the two-party version.
    """
    q = _check_q(q)
    cut = _as_bipartition(cut)
    cut.check_covers(rho.num_qubits)
    measured = apply_full(phi, rho)
    return _mutual_information_cut(rho, cut, q) - _mutual_information_cut(
        measured, cut, q
    )


def _as_bipartition(cut) -> Bipartition:
    if isinstance(cut, Bipartition):
        return cut
    left, right = cut
    return Bipartition(tuple(left), tuple(right))


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
    """Closure computing I_q(rho) - I_q(Phi(rho)) from measurement angles.

    Phi(rho) is diagonal in the product measurement basis (block diagonal
    when some qubits stay unmeasured), so the measured-state entropies come
    from outcome probabilities and per-block spectra of W^dagger rho W (W
    the rotated product basis) rather than from an explicit channel
    application. Group terms whose qubits are unmeasured cancel exactly and
    are skipped.
    """
    n = rho.num_qubits
    m = len(measured)
    unmeasured = tuple(i for i in range(n) if i not in measured)
    dim_m = 2**m
    dim_u = 2 ** len(unmeasured)

    perm = measured + unmeasured
    axes = perm + tuple(n + i for i in perm)
    tensor = (
        rho.matrix.reshape((2,) * (2 * n))
        .transpose(axes)
        .reshape(dim_m, dim_u, dim_m, dim_u)
    )
    flat = tensor.reshape(dim_m * dim_u, dim_m * dim_u) if dim_u == 1 else None

    const = -tsallis_entropy(rho, q)
    measured_groups = []
    for g in groups:
        g = tuple(g)
        if all(i in measured for i in g):
            const += tsallis_entropy(partial_trace(rho, g), q)
            positions = tuple(measured.index(i) for i in g)
            sum_axes = tuple(ax for ax in range(m) if ax not in positions)
            measured_groups.append(sum_axes)
        elif any(i in measured for i in g):
            raise ValueError("each party must be fully measured or fully unmeasured")
        # fully unmeasured groups drop out: their marginal is untouched

    def objective(angles: np.ndarray) -> float:
        w = product_basis(angles)
        if dim_u == 1:
            probs = np.einsum("aj,ab,bj->j", w.conj(), flat, w).real
            np.maximum(probs, 0.0, out=probs)
            spectrum = probs
        else:
            blocks = np.einsum("aj,aubv,bj->juv", w.conj(), tensor, w)
            probs = np.einsum("juu->j", blocks).real
            np.maximum(probs, 0.0, out=probs)
            spectrum = np.linalg.eigvalsh(blocks).ravel()
            np.maximum(spectrum, 0.0, out=spectrum)
        value = const + _hq(spectrum, q)
        ptensor = probs.reshape((2,) * m)
        for sum_axes in measured_groups:
            marginal = ptensor.sum(axis=sum_axes) if sum_axes else probs
            value -= _hq(marginal.ravel(), q)
        return value

    return objective


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Fold arbitrary angles to theta in [0, pi], phi in [0, 2 pi)."""
    st = math.sin(theta)
    axis = (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
    t = math.acos(max(-1.0, min(1.0, axis[2])))
    if abs(math.sin(t)) < 1e-12:
        return t, 0.0
    p = math.atan2(axis[1], axis[0]) % (2.0 * math.pi)
    return t, p


def _simplex_around(x0: np.ndarray) -> np.ndarray:
    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    for k in range(d):
        simplex[k + 1, k] += 0.35
    return simplex


def _minimize_discord(
    rho: DensityMatrix,
    q: float,
    opt: OptimizerConfig,
    measured: tuple[int, ...],
    groups,
) -> DiscordReport:
    objective = _make_objective(rho, q, measured, groups)
    starts = _start_points(len(measured), opt)
    best = None
    evals = 0
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": opt.max_evals,
                "fatol": opt.tol,
                "xatol": 1e-4,
                "initial_simplex": _simplex_around(x0),
            },
        )
        evals += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    raw = float(best.fun)
    nonneg_guaranteed = q <= 1.0 + Q_SWITCH_TOL
    value = raw
    if nonneg_guaranteed and -CLAMP_SLACK <= raw < 0.0:
        value = 0.0
    pairs = [
        _canonical_angles(best.x[2 * j], best.x[2 * j + 1])
        for j in range(len(measured))
    ]
    return DiscordReport(
        value=value,
        q=q,
        optimal_measurement=ProductMeasurement.from_angles(pairs),
        measured_qubits=measured,
        starts_used=len(starts),
        converged=bool(best.success),
        objective_evals=evals,
        raw_value=raw,
        nonnegativity_guaranteed=nonneg_guaranteed,
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
    if cut is None:
        groups = tuple((i,) for i in range(n))
    else:
        cut = _as_bipartition(cut)
        cut.check_covers(n)
        groups = (cut.left, cut.right)
    return _minimize_discord(rho, q, opt, tuple(range(n)), groups)


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
