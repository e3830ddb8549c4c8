"""q-mutual information and measurement-minimized discord quantities.

Every quantity uses I_q = -S_q(rho) + sum_g S_q(rho_g) over parties g: the
single qubits, or the two sides of a cut=(left, right), a plain pair that
_parties alone checks and orders, so either order gives the same floats.
_parties and _mutual_information are the only code for each.

The global quantity minimizes the q-mutual-information drop over product
projective measurements of every qubit (at q = 1, the global discord of
Rulli & Sarandy, PRA 84, 042109 (2011)); the one-sided quantity measures
only one party. Minimization is multi-start BFGS with a strong-Wolfe line
search (Nocedal & Wright, Numerical Optimization, ch. 3 and 6) over the
Bloch angles (theta, phi) of each measured qubit, on the objective's exact
gradient.

The starts run in lockstep: each round evaluates the points of every
running start in one value-and-gradient call of the batched objective,
angles (K, 2m) to values (K,) and gradients (K, 2m). Every solve and
every fixed-measurement value is a job (rho, q, measured, cut), and one
planner, _blocks, turns jobs into objectives: it checks every job first,
then puts the jobs of one shape (qubit count, measured qubits) in blocks
of at most _MAX_ROWS rows (at least one job), one _make_objective a
block, each row with its own state, q and parties, so a whole state and
its cuts share their calls. _minimize_many runs a block, opt.starts rows
a job, as one lockstep; _evaluate, the value-only pass for fixed
measurements, runs it, one row a job, in one gradient-free call, and
induced_discord and the telescoping ledger are such passes. The public
entries are job lists, a solo call a list of one. A row of the batch is
the same float as that row alone, so a start's result does not depend on
which starts share its rounds, and each report of a _many call equals
the solo call's. Each block's reports are handed over as it finishes, so
_values, the sweep's and monogamy's collector, keeps only their values.

Two drivers run a lockstep's rows, the start points x0 (K, 2m) and the
problem owner (K,) of each, and return (x, f, evaluations, success) per
row, through the same floats bit for bit. Below _ARRAY_ROWS rows
_lockstep runs each row as a _bfgs generator that yields the point it
needs and is sent its value and gradient; from _ARRAY_ROWS rows on,
_bfgs_rows runs the same BFGS as one set of array operations per round.
Its Python costs at least 0.1 ms a round however few rows run (0.21 ms
at 608), the generators' 3.5-10 us a start a round. Its time over the
generators' (n = 2/3/4, 400 evaluations a start; 2-core x86-64 VM, one
OpenBLAS thread, best of 5):

    rows per lockstep   4              16             32             64             256
    _bfgs_rows / _bfgs  1.76/1.74/1.83 1.33/0.99/1.02 0.88/0.65/0.78 0.56/0.45/0.67 0.26/0.35/0.51

The objective gets the measured spectrum from W^dagger (rho W), one
batched matmul per call that its gradient reuses; with every qubit
measured it takes the diagonal apply_full uses, else eigh's block spectra,
so value calls and gradient calls agree bit for bit. The measured
parties' marginals come from one stacked matmul with a 0/1 table built
once per pattern of parties, a row's own table when the problems' parties
differ, and with every qubit measured the gradient's traces are
one gather from C = W^dagger (rho W). It is the only code that evaluates
I_q(Phi(rho)), so no measured state is built. The constant I_q(rho) of
each problem takes every entropy from one entropy._terms call over the
state's and its parties' spectra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import _check_q, _terms
from .linalg import DESK_SCALE_LIMIT, DensityMatrix, _index, partial_trace
from .measurement import ProductMeasurement, _angles, _diagonal, product_basis

CLAMP_SLACK = 1e-8
# Starts whose minimum lies within this of the best one share its basin.
BASIN_TOL = 1e-7
# Most rows per objective call, unless one problem has more starts: enough
# for the default sweep's 608 starts in one lockstep, and a bound on the
# arrays of one lockstep (rho W is 4 kB a row at n = 4) however many
# problems one call is given.
_MAX_ROWS = 1024
# Fewest rows per lockstep that _bfgs_rows runs; _lockstep, faster below
# it, runs smaller ones (the module docstring has the crossover).
_ARRAY_ROWS = 32

__all__ = [
    "BASIN_TOL",
    "OptimizerConfig",
    "DiscordReport",
    "mutual_information_q",
    "induced_discord",
    "q_gqd",
    "q_gqd_many",
    "q_qd_one_sided",
    "q_qd_one_sided_many",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-start BFGS search.

    starts counts starting points (the first eight are deterministic grid
    patterns, the rest are seeded sphere-uniform draws), max_evals caps the
    value-and-gradient evaluations per start, and seed fixes the random
    starts so identical configs give identical results. All three must be
    integers; a float, even a whole or infinite one, raises ValueError.
    """

    starts: int = 16
    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("starts", "max_evals", "seed"):
            _index(getattr(self, name), name)
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
    start_evals and start_converged hold each start's value-and-gradient
    evaluations and whether it stopped by its own test (a small gradient,
    a step that no longer lowers the value, or a line search that finds no
    decrease) before max_evals, in start order; the evaluations sum to
    objective_evals, and the best start's flag is converged.
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


def _cut_key(cut):
    """cut as a tuple of tuples of int qubit indices, None left as is, its sides not yet checked."""
    try:
        return cut if cut is None else tuple(tuple(_index(i, "qubit index") for i in side) for side in cut)
    except TypeError:
        raise ValueError("a bipartition is a pair of sides (left, right)") from None


def _parties(n: int, cut) -> tuple[tuple[int, ...], ...]:
    """Single qubits when cut is None, else cut's sorted sides, qubit 0's first; they must split range(n)."""
    if cut is None:
        return tuple((i,) for i in range(n))
    sides = _cut_key(cut)
    if len(sides) != 2:
        raise ValueError("a bipartition is a pair of sides (left, right)")
    left, right = (tuple(sorted(side)) for side in sides)
    if not left or not right:
        raise ValueError("both sides of a bipartition must be nonempty")
    if set(left) & set(right):
        raise ValueError("bipartition sides must be disjoint")
    if sorted(left + right) != list(range(n)):
        raise ValueError("bipartition must cover every qubit exactly once")
    return (left, right) if left < right else (right, left)


@functools.cache
def _shape(n: int, measured, cut) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The checked (measured, parties) of a job on n qubits, each party wholly measured or not.

    measured None measures every qubit across _parties(n, cut); else it is
    a sorted tuple, a one-sided job with parties (rest, measured), and a
    cut beside it raises ValueError rather than being dropped. cut is a
    _cut_key; each distinct (n, measured, cut) is checked once and cached.
    """
    if measured is None:
        return tuple(range(n)), _parties(n, cut)
    if cut is not None:
        raise ValueError("a one-sided job takes no cut: its parties are (rest, measured)")
    if not measured or len(measured) >= n:
        raise ValueError("measured subset must be nonempty and proper")
    if measured[0] < 0 or measured[-1] >= n:
        raise ValueError("measured qubit index out of range")
    return measured, (tuple(i for i in range(n) if i not in measured), measured)


def _mutual_information(rho: DensityMatrix, groups, q: float, marginal_of=partial_trace) -> float:
    """-S_q(rho) + sum_g S_q(rho_g) for a checked q, summed in that order over the groups.

    marginal_of(rho, g) builds rho_g. The entropies come from one _terms
    call over the concatenated spectra, each summed on its own slice, so
    each is the float tsallis_entropy gives alone.
    """
    spectra = [rho.eigenvalues] + [marginal_of(rho, g).eigenvalues for g in groups]
    p, x, s = _terms(np.concatenate(spectra), q)
    px = p * x
    ends = np.cumsum([spectrum.size for spectrum in spectra]).tolist()
    entropies = [-px[start:end].sum() / s for start, end in zip([0] + ends, ends)]
    total = -entropies[0]
    for entropy in entropies[1:]:
        total += entropy
    return float(total)


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
    of the objective q_gqd minimizes, evaluated at phi's angles: the
    one-job case of the value-only pass _evaluate.
    """
    (value,) = _evaluate([(rho, q, None, cut)], [_angles(phi, rho.num_qubits)])
    return value


def _evaluate(jobs, angles, marginal_of=partial_trace) -> list[float]:
    """The values of jobs (rho, q, measured, cut) at fixed measurements, in job order.

    angles[j] is job j's measured qubits' (theta, phi) pairs, flat and in
    measured order. _blocks checks and groups the jobs as for the search,
    at one row a job, and each block makes one value-only call, so a job's
    value is the float it gets alone. marginal_of(rho, g) builds the
    parties' marginals.
    """
    _, blocks = _blocks(jobs, 1, marginal_of)
    values = [0.0] * len(jobs)
    for block, _, objective in blocks:
        rows = objective(np.array([angles[j] for j in block]), np.arange(len(block)))
        for j, value in zip(block, rows.tolist()):
            values[j] = value
    return values


# ---------------------------------------------------------------------------
# optimizer internals

_GRID_COMBOS = (
    (math.pi / 4, 0.0),
    (math.pi / 4, math.pi / 2),
    (3 * math.pi / 4, 0.0),
    (3 * math.pi / 4, math.pi / 2),
)
# Grid starts 4-7 of one measured qubit, where _GRID_COMBOS' mixed patterns
# would repeat starts 0-3: the cube's body diagonals (+-1, +-1, 1)/sqrt(3).
# None is another's axis or a start 0-3's up to sign, and n and -n are one
# measurement.
_ONE_QUBIT_COMBOS = tuple((math.acos(1 / math.sqrt(3)), (2 * k + 1) * math.pi / 4) for k in range(4))


def _start_points(m: int, opt: OptimizerConfig) -> list[np.ndarray]:
    """Angle vectors of shape (2m,): grid patterns first, then random draws."""
    points = []
    for k in range(min(opt.starts, 8)):
        if k < 4:
            combos = [_GRID_COMBOS[k]] * m
        elif m == 1:
            combos = [_ONE_QUBIT_COMBOS[k - 4]]
        else:
            combos = [_GRID_COMBOS[(k + i) % 4] for i in range(m)]
        points.append(np.asarray(combos, dtype=float).ravel())
    rng = np.random.default_rng(opt.seed)
    while len(points) < opt.starts:
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=m))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        points.append(np.column_stack([theta, phi]).ravel())
    return points


@functools.cache
def _gradient_tables(m: int):
    """Index tables of the objective's gradient, built once per m.

    outcomes is arange(2^m), flipped[i, j] is outcome j with measured qubit
    i's bit flipped (qubit 0 is the high bit) and signs[i, j] is +1 where
    that bit of j is 0, else -1. Objectives measuring m qubits share the
    read-only arrays, and value-only objectives never build them.
    """
    outcomes = np.arange(2**m)
    bits = (1 << np.arange(m - 1, -1, -1))[:, None]
    flipped = outcomes ^ bits
    signs = np.where(outcomes & bits, -1.0, 1.0)
    for table in (outcomes, flipped, signs):
        table.setflags(write=False)
    return outcomes, flipped, signs


def _marginal_tables(measured: tuple[int, ...], patterns) -> np.ndarray:
    """The 0/1 marginal table of each problem, whose measured parties are patterns[i].

    One pattern among all problems gives its one (2^m, w) _marginal_table,
    shared by every row. Several give a (problems, 2^m, W) stack, W the
    widest table's width and the narrower ones padded with zero columns
    after their own: a zero marginal entry is an exact 0 to _terms and adds
    +0.0 after the real entries, so each row keeps its own problem's floats.
    Stacking one pattern too gives the same bits, but the per-row gather
    it then needs raised the 4-qubit ledger benchmark's work_ref by 2.7-4 %
    (medians of 6 paired runs in two rounds, 2-core x86-64 VM), so one
    pattern keeps its 2-D table.
    """
    if all(pattern == patterns[0] for pattern in patterns):
        return _marginal_table(measured, patterns[0])
    each = [_marginal_table(measured, pattern) for pattern in patterns]
    tables = np.zeros((len(each), 2 ** len(measured), max(table.shape[1] for table in each)))
    for padded, table in zip(tables, each):
        padded[:, : table.shape[1]] = table
    return tables


@functools.cache
def _marginal_table(measured: tuple[int, ...], parties: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """0/1 table M taking outcome probabilities to the parties' marginals.

    Every party's qubits are measured. M has one row per outcome of the
    measured qubits (qubit measured[0] is the high bit) and one column per
    entry of the concatenated marginals, in party order, each indexed by
    its qubits' bits in measured order: M[j, c] is 1 where outcome j adds
    to marginal entry c. So probs @ M is the marginals and slopes @ M.T
    sums each outcome's marginal slopes. Built once per (measured,
    parties) and read-only.
    """
    m = len(measured)
    outcomes = np.arange(2**m)
    table = np.zeros((2**m, sum(2 ** len(g) for g in parties)))
    start = 0
    for g in parties:
        entry = np.zeros_like(outcomes)
        for pos, i in enumerate(measured):
            if i in g:
                entry = 2 * entry + ((outcomes >> (m - 1 - pos)) & 1)
        table[outcomes, start + entry] = 1.0
        start += 2 ** len(g)
    table.setflags(write=False)
    return table


def _make_objective(states, qs, measured: tuple[int, ...], groups, marginal_of=partial_trace):
    """Batched I_q(rho) - I_q(Phi(rho)) over problems of one shape.

    The problems are the triples of states (all of one qubit count), qs
    and groups, one party tuple per problem, with the same measured
    qubits. objective(angles, owner) maps angles of shape (K, 2m) to K
    values, row k evaluated on problem owner[k]: its state, its q and its
    parties. marginal_of(rho, g) builds each problem's marginals once,
    here.

    Phi(rho) is diagonal in the product measurement basis (block diagonal
    when some qubits stay unmeasured), so the measured-state entropies come
    from outcome probabilities and per-block spectra of W^dagger rho W (W
    the rotated product basis) rather than from an explicit channel
    application. With every qubit measured, the probabilities come from
    rho W by measurement._diagonal, the kernel the channel API uses. With
    some qubits unmeasured, block j is sum_ab W*[a, j] rho[(a, u), (b, v)]
    W[b, j], rho W then a 2-operand contraction over a with W*, and eigh
    gives its spectrum. Group terms whose qubits are unmeasured cancel
    exactly and are skipped. The measured groups' marginals are
    (probs[:, None, :] @ M)[:, 0], M the read-only 0/1 table of
    _marginal_table, built once per pattern of measured parties: a stack
    of one-row products, so each row's sums are its own, where a 2-D
    probs @ M goes through a BLAS kernel whose rows change with the batch
    size. When the problems' patterns differ (a whole state beside cuts),
    M is each row's own table, gathered from _marginal_tables' padded
    stack. The entropies of the spectrum and of every measured marginal
    come from one entropy._terms call over their concatenation, with q a
    column of one q per row. Every row is computed on its own: a row's
    value does not depend on the other rows of the batch or on their
    problems, and each row of _evaluate's value-only pass is one row here.

    objective(angles, owner, gradient=True) returns (values (K,), gradients
    (K, 2m)) instead, the gradient exact. Differentiating qubit k's factor
    gives dW = W (I x G x I), with G_theta = [[0, -1/2], [1/2, 0]] and
    G_phi = i [[sin^2(theta/2), sin(theta)/2], [sin(theta)/2, cos^2(theta/2)]].
    With C_ji the (j, i) block of (W x I)^dagger rho (W x I) and
    E_j = h'(B_j) - sum_g h'(marginal_g)[j] I (h' the slopes of _terms, and
    h'(B_j) = V h'(Lambda) V^dagger from the block's eigh), the derivatives
    are sum_j +-Re tr(E_j C_{j, j^k}) in theta_k, + where qubit k's bit of
    j is 0, and -sin(theta_k) sum_j Im tr(E_j C_{j, j^k}) in phi_k. The
    shift sum_g h'(marginal_g)[j] is (slopes[:, None, marginals] @ M.T)[:, 0],
    the same table. With every qubit measured the blocks are numbers and
    C = W^dagger (rho W) is one more batched matmul, so the traces are
    E_j times one gather of C at (j, j^k); otherwise they are one einsum
    over W*, E and rho W indexed at the flipped outcomes. The values do
    not change.
    """
    n = states[0].num_qubits
    m = len(measured)
    unmeasured = tuple(i for i in range(n) if i not in measured)
    dim_m = 2**m
    dim_u = 2 ** len(unmeasured)
    dim = dim_m * dim_u  # entries of the measured spectrum

    # Each rho with rows (a, u, v) and columns b; with dim_u == 1 it is rho
    # itself with its qubits in measured order.
    axes = measured + unmeasured + tuple(n + i for i in unmeasured + measured)
    stacked = np.array(
        [
            rho.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(dim * dim_u, dim_m)
            for rho in states
        ]
    )

    # The table sums the outcomes into each measured party's marginal. A
    # party is wholly measured or not (_shape), so its first qubit tells,
    # and the unmeasured ones cancel in the drop, their marginal untouched.
    patterns = [tuple(g for g in parties if g[0] in measured) for parties in groups]
    tables = _marginal_tables(measured, patterns)
    consts = np.array(
        [_mutual_information(rho, parties, q, marginal_of) for rho, q, parties in zip(states, qs, patterns)]
    )
    qs = np.array(qs, dtype=float)

    def objective(angles: np.ndarray, owner: np.ndarray, gradient: bool = False):
        w = product_basis(angles)
        k = w.shape[0]
        rho_w = stacked[owner] @ w
        if dim_u == 1:
            probs = _diagonal(w, rho_w).real
            np.maximum(probs, 0.0, out=probs)
            spectrum = probs
        else:
            rho_w = rho_w.reshape(k, dim_m, dim_u, dim_u, dim_m)
            blocks = np.einsum("kaj,kauvj->kjuv", w.conj(), rho_w)
            probs = np.einsum("kjuu->kj", blocks).real
            np.maximum(probs, 0.0, out=probs)
            eigenvalues, vectors = np.linalg.eigh(blocks)
            spectrum = eigenvalues.reshape(k, -1)
        table = tables if tables.ndim == 2 else tables[owner]
        # A stack of one-row products, so each row's sums are its own.
        marginals = (probs[:, None, :] @ table)[:, 0]
        # The entropy is a plain sum over entries, so the marginals' part of
        # the concatenation sums to the sum of their entropies.
        q = qs[owner][:, None]
        p, x, s = _terms(np.concatenate([spectrum, marginals], axis=1), q)
        px = p * x
        h_spectrum = -px[:, :dim].sum(axis=-1) / s[:, 0]
        h_marginals = -px[:, dim:].sum(axis=-1) / s[:, 0]
        values = consts[owner] + h_spectrum - h_marginals
        if not gradient:
            return values

        outcomes, flipped, signs = _gradient_tables(m)
        slopes = -q * x / s
        # sum_g h'(marginal_g)[j] for each outcome j
        shift = (slopes[:, None, dim:] @ table.swapaxes(-1, -2))[:, 0]
        if dim_u == 1:
            # traces[k, i, j] = E_j C_{j, j^i}, C = W^dagger rho W
            c = w.conj().swapaxes(-1, -2) @ rho_w
            traces = (slopes[:, :dim] - shift)[:, None, :] * c[:, outcomes, flipped]
        else:
            h = slopes[:, :dim].reshape(eigenvalues.shape)
            e = (vectors * h[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
            e -= shift[:, :, None, None] * np.eye(dim_u)
            # traces[k, i, j] = tr(E_j C_{j, j^i}) for measured qubit i
            traces = np.einsum("kaj,kjvu,kauvij->kij", w.conj(), e, rho_w[..., flipped])
        grad = np.empty((k, 2 * m))
        grad[:, 0::2] = (signs * traces.real).sum(axis=-1)
        grad[:, 1::2] = -np.sin(np.asarray(angles)[:, 0::2]) * traces.imag.sum(axis=-1)
        return values, grad

    return objective


# BFGS settings (Nocedal & Wright, Numerical Optimization, ch. 3 and 6)
_C1, _C2 = 1e-4, 0.9  # strong-Wolfe sufficient decrease and curvature
_GTOL = 1e-6  # stop when max |gradient| is at most this
_FTOL = 1e-13  # stop when a step lowers f by at most this times max(1, |f|)
_CURVATURE_TOL = 1e-10  # update only when s.y exceeds this times |s| |y|
_STEP_TOL = 1e-12  # the line search gives up when its bracket is this short


def _line_search(x, f0, g0, p, alpha, budget: int):
    """Strong-Wolfe step along p from x (N&W Alg. 3.5 and 3.6), as a generator.

    Yields each trial point and receives its (value, gradient). The
    bracketing phase extrapolates by 4x; once a bracket exists, the zoom
    phase tries the minimizer of the quadratic through f(lo), f'(lo) and
    f(hi), bisecting when that leaves the middle 80 % of the bracket. lo is
    always the lowest trial that meets sufficient decrease. Returns
    (alpha, f, g, evaluations) at a strong-Wolfe point, or at lo when the
    budget runs out or the bracket collapses; alpha is 0 when no trial
    lowered f.
    """
    d0 = g0 @ p
    p_norm = math.sqrt(p @ p)
    lo, f_lo, g_lo, d_lo = 0.0, f0, g0, d0
    hi = f_hi = None
    used = 0
    while used < budget:
        f, g = yield x + alpha * p
        used += 1
        d = g @ p
        if f > f0 + _C1 * alpha * d0 or f >= f_lo:
            hi, f_hi = alpha, f
        elif abs(d) <= -_C2 * d0:
            return alpha, f, g, used
        else:
            if d * (1.0 if hi is None else hi - lo) >= 0.0:
                hi, f_hi = lo, f_lo
            lo, f_lo, g_lo, d_lo = alpha, f, g, d
        if hi is None:
            alpha = 4.0 * lo
            continue
        width = hi - lo
        if abs(width) * p_norm <= _STEP_TOL:
            break
        curvature = (f_hi - f_lo - d_lo * width) / (width * width)
        t = -d_lo / (2.0 * curvature) / width if curvature > 0.0 else 0.5
        alpha = lo + (t if 0.1 <= t <= 0.9 else 0.5) * width
    return lo, f_lo, g_lo, used


def _bfgs(x0: np.ndarray, max_evals: int):
    """BFGS from x0 as a generator that yields points and receives (f, g).

    The first step is steepest descent of length min(1, 1 / |p|); the
    inverse Hessian estimate starts as (s.y / y.y) I at the first update
    (N&W eq. 6.20), and an update is skipped unless s.y > 1e-10 |s| |y|.
    The search stops when max |g| <= _GTOL, when an accepted step lowers f
    by at most _FTOL max(1, |f|) (at q < 1 the gradient of a rank-deficient
    state never vanishes at its p -> 0 kink), when the line search finds no
    decrease, or after max_evals evaluations. Returns (x, f, evaluations,
    success), where success means the search stopped before max_evals.
    """
    x = x0
    f, g = yield x
    nfev = 1
    h = None
    while nfev < max_evals and np.abs(g).max() > _GTOL:
        p = -g if h is None else -(h @ g)
        if g @ p >= 0.0:  # rounding cost h its positive definiteness
            h, p = None, -g
        alpha = min(1.0, 1.0 / math.sqrt(p @ p)) if h is None else 1.0
        alpha, f_new, g_new, used = yield from _line_search(
            x, f, g, p, alpha, max_evals - nfev
        )
        nfev += used
        if alpha == 0.0:
            break
        s, y = alpha * p, g_new - g
        progress = f - f_new
        x, f, g = x + s, f_new, g_new
        if progress <= _FTOL * max(1.0, abs(f)):
            break
        sy, yy = s @ y, y @ y
        if sy > _CURVATURE_TOL * math.sqrt((s @ s) * yy):
            if h is None:
                h = (sy / yy) * np.eye(x.size)
            # (I - s y^T / sy) h (I - y s^T / sy) + s s^T / sy, multiplied out
            hy = h @ y
            h = h + (s[:, None] * ((1.0 + (y @ hy) / sy) * s - hy) - hy[:, None] * s) / sy
    return x, f, nfev, nfev < max_evals


def _lockstep(objective, x0: np.ndarray, owner: np.ndarray, max_evals: int):
    """Run the searches _bfgs(x0[k], max_evals) as generators, one objective call per round.

    Row k searches problem owner[k] from x0[k]. Each round stacks the point
    every running search yields, evaluates values and gradients in a single
    batched call, each row tagged with its owner, and sends each search its
    own (f, g). Rows are computed independently, so a search takes the
    same steps whichever searches share its rounds. The result is each
    search's (x, f, evaluations, success) stacked over the rows: (K, N),
    (K,), (K,) and (K,), as _bfgs_rows returns them.
    """
    searches = [_bfgs(x, max_evals) for x in x0]
    running = list(enumerate(searches))
    points = [search.send(None) for search in searches]
    results = [None] * len(searches)
    while running:
        values, grads = objective(np.array(points), owner, gradient=True)
        kept, points = [], []
        for row, ((index, search), f, g) in enumerate(zip(running, values.tolist(), grads)):
            try:
                points.append(search.send((f, g)))
                kept.append(row)
            except StopIteration as done:
                results[index] = done.value
        if len(kept) < len(running):
            running = [running[row] for row in kept]
            owner = owner[kept]
    xs, fun, nfev, success = zip(*results)
    return np.array(xs), np.array(fun), np.array(nfev), np.array(success)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row k, as stacked one-row matmuls.

    These round as _bfgs's 1-D products do; einsum or (a * b).sum(-1) can
    differ in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _bfgs_rows(objective, x0: np.ndarray, owner: np.ndarray, max_evals: int):
    """_lockstep's searches _bfgs(x0[k], max_evals), run as array operations.

    Row k searches problem owner[k] from x0[k]. Every row keeps its BFGS
    and line-search state in (K, ...) arrays, and each round evaluates the
    trial points of the rows still searching in one objective call, so a
    round costs one set of array operations, not one generator step per
    start. Each scalar expression of _bfgs and _line_search is kept in
    their order, and each product is one row's own (_dots, stacked
    matmuls), so every row takes the same floats as its generator, and the
    result equals _lockstep's bit for bit.
    """
    x = np.array(x0, dtype=float)
    k, n = x.shape
    f, g = objective(x, owner, gradient=True)
    nfev = np.ones(k, dtype=np.intp)
    h = np.zeros((k, n, n))
    has_h = np.zeros(k, dtype=bool)
    # _line_search's state: the direction p with its slope d0 and length,
    # the step alpha to try next, the bracket's low end (lo, f_lo, g_lo,
    # d_lo) and, once bracketed, its high end (hi, f_hi). A row's f and g
    # stay its f0 and g0 until the search ends.
    p = np.zeros((k, n))
    g_lo = np.zeros((k, n))
    d0, p_norm, alpha, lo, f_lo, d_lo, hi, f_hi = np.zeros((8, k))
    bracketed = np.zeros(k, dtype=bool)
    searching = np.zeros(k, dtype=bool)

    def begin(rows):
        """_bfgs's loop test, then the head of its loop body, for rows whose x was just set."""
        rows = rows[(nfev[rows] < max_evals) & (np.abs(g[rows]).max(axis=1) > _GTOL)]
        g_r = g[rows]
        p_r = np.where(has_h[rows, None], -(h[rows] @ g_r[:, :, None])[:, :, 0], -g_r)
        lost = _dots(g_r, p_r) >= 0.0  # rounding cost h its positive definiteness
        has_h[rows[lost]] = False
        p_r[lost] = -g_r[lost]
        pp = _dots(p_r, p_r)
        alpha[rows] = np.where(has_h[rows], 1.0, np.minimum(1.0, 1.0 / np.sqrt(pp)))
        p[rows] = p_r
        d0[rows] = d_lo[rows] = _dots(g_r, p_r)
        p_norm[rows] = np.sqrt(pp)
        lo[rows] = 0.0
        f_lo[rows] = f[rows]
        g_lo[rows] = g_r
        bracketed[rows] = False
        searching[rows] = True

    begin(np.arange(k))
    while searching.any():
        rows = np.flatnonzero(searching)
        a, p_r = alpha[rows], p[rows]
        f_t, g_t = objective(x[rows] + a[:, None] * p_r, owner[rows], gradient=True)
        nfev[rows] += 1
        d = _dots(g_t, p_r)
        high = (f_t > f[rows] + _C1 * a * d0[rows]) | (f_t >= f_lo[rows])
        wolfe = ~high & (np.abs(d) <= -_C2 * d0[rows])
        lower = ~(high | wolfe)
        flip = lower & (d * np.where(bracketed[rows], hi[rows] - lo[rows], 1.0) >= 0.0)
        cut = rows[high]
        hi[cut], f_hi[cut] = a[high], f_t[high]
        cut = rows[flip]
        hi[cut], f_hi[cut] = lo[cut], f_lo[cut]
        bracketed[rows[high | flip]] = True
        moved = rows[lower]
        lo[moved], f_lo[moved], g_lo[moved], d_lo[moved] = a[lower], f_t[lower], g_t[lower], d[lower]

        # The next trial of the rows that met no strong-Wolfe point.
        trying = rows[~wolfe]
        alpha[trying] = 4.0 * lo[trying]
        width = hi[trying] - lo[trying]
        collapsed = bracketed[trying] & (np.abs(width) * p_norm[trying] <= _STEP_TOL)
        zoom = bracketed[trying] & ~collapsed
        width, zooming = width[zoom], trying[zoom]
        curvature = (f_hi[zooming] - f_lo[zooming] - d_lo[zooming] * width) / (width * width)
        t = np.full(zooming.size, 0.5)
        convex = curvature > 0.0
        t[convex] = -d_lo[zooming[convex]] / (2.0 * curvature[convex]) / width[convex]
        t = np.where((0.1 <= t) & (t <= 0.9), t, 0.5)
        alpha[zooming] = lo[zooming] + t * width
        stopped = trying[collapsed | (nfev[trying] >= max_evals)]

        # Rows whose line search ended: at the strong-Wolfe trial, or at lo.
        ended = np.concatenate([rows[wolfe], stopped])
        searching[ended] = False
        step = np.concatenate([a[wolfe], lo[stopped]])
        f_new = np.concatenate([f_t[wolfe], f_lo[stopped]])
        g_new = np.concatenate([g_t[wolfe], g_lo[stopped]])
        keep = step != 0.0
        ended, step, f_new, g_new = ended[keep], step[keep], f_new[keep], g_new[keep]
        s, y = step[:, None] * p[ended], g_new - g[ended]
        progress = f[ended] - f_new
        x[ended], f[ended], g[ended] = x[ended] + s, f_new, g_new
        keep = ~(progress <= _FTOL * np.maximum(1.0, np.abs(f_new)))
        ended, s, y = ended[keep], s[keep], y[keep]
        sy, yy = _dots(s, y), _dots(y, y)
        keep = sy > _CURVATURE_TOL * np.sqrt(_dots(s, s) * yy)
        update, s, y, sy = ended[keep], s[keep], y[keep], sy[keep]
        fresh = ~has_h[update]
        h[update[fresh]] = (sy[fresh] / yy[keep][fresh])[:, None, None] * np.eye(n)
        has_h[update] = True
        h_u = h[update]
        hy = (h_u @ y[:, :, None])[:, :, 0]
        # (I - s y^T / sy) h (I - y s^T / sy) + s s^T / sy, multiplied out
        outer = s[:, :, None] * ((1.0 + _dots(y, hy) / sy)[:, None] * s - hy)[:, None, :]
        h[update] = h_u + (outer - hy[:, :, None] * s[:, None, :]) / sy[:, None, None]
        begin(ended)
    return x, f, nfev, nfev < max_evals


def _blocks(jobs, rows_per_job: int, marginal_of=partial_trace):
    """The checked qs of jobs (rho, q, measured, cut) and a generator of their (block, measured, objective).

    _shape checks each job's (qubit count, measured, cut), then every q
    is checked, before this returns. The jobs of one shape (qubit count,
    measured qubits), in first-seen order, go in blocks of
    max(1, _MAX_ROWS // rows_per_job) jobs, in job order; a block's
    objective, one _make_objective over its jobs' states, qs and parties,
    is built when the generator reaches it.
    """
    parties, shapes = [], {}
    for j, (rho, _, measured, cut) in enumerate(jobs):
        measured, job_parties = _shape(rho.num_qubits, measured, _cut_key(cut))
        parties.append(job_parties)
        shapes.setdefault((rho.num_qubits, measured), []).append(j)
    qs = [_check_q(q) for _, q, _, _ in jobs]
    per_block = max(1, _MAX_ROWS // rows_per_job)

    def blocks():
        for (_, measured), members in shapes.items():
            for first in range(0, len(members), per_block):
                block = members[first : first + per_block]
                states, block_qs, groups = zip(*((jobs[j][0], qs[j], parties[j]) for j in block))
                yield block, measured, _make_objective(states, block_qs, measured, groups, marginal_of)

    return qs, blocks()


def _minimize_many(jobs, opt: OptimizerConfig | None):
    """Solve jobs (rho, q, measured, cut), yielding (j, report) pairs.

    _blocks checks the jobs at opt.starts rows a job, then every state
    size is checked, all before the first solve. A block is one lockstep
    whose rows are each job's starts in order, run by _bfgs_rows from
    _ARRAY_ROWS rows on, else by _lockstep. Each block's pairs are yielded
    as soon as it finishes, j the job's index, so a caller that keeps only
    some fields holds one block's reports at a time.
    """
    opt = opt if opt is not None else OptimizerConfig()
    qs, blocks = _blocks(jobs, opt.starts)
    if any(rho.num_qubits > DESK_SCALE_LIMIT for rho, *_ in jobs):
        raise ValueError(f"state exceeds desk-scale limit of {DESK_SCALE_LIMIT} qubits")
    for block, measured, objective in blocks:
        x0 = np.tile(_start_points(len(measured), opt), (len(block), 1))
        owner = np.repeat(np.arange(len(block)), opt.starts)
        drive = _bfgs_rows if len(x0) >= _ARRAY_ROWS else _lockstep
        xs, fun, nfev, success = drive(objective, x0, owner, opt.max_evals)
        for i, j in enumerate(block):
            rows = slice(i * opt.starts, (i + 1) * opt.starts)
            yield j, _report(qs[j], measured, xs[rows], fun[rows], nfev[rows], success[rows])


def _in_order(pairs) -> tuple[DiscordReport, ...]:
    """The reports of _minimize_many's (j, report) pairs, in job order."""
    return tuple(report for _, report in sorted(pairs, key=lambda pair: pair[0]))


def _values(jobs, opt: OptimizerConfig | None) -> list[float]:
    """Each job's report value, in job order, from one _minimize_many call; no report outlives its block."""
    values = [0.0] * len(jobs)
    for j, report in _minimize_many(jobs, opt):
        values[j] = report.value
    return values


def _report(q: float, measured: tuple[int, ...], xs, fun, nfev, success) -> DiscordReport:
    """One problem's report from its starts' (x, f, evaluations, success)."""
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
        starts_used=len(minima),
        converged=bool(success[best]),
        objective_evals=int(nfev.sum()),
        raw_value=raw,
        nonnegativity_guaranteed=nonneg_guaranteed,
        start_minima=minima,
        basin_hits=sum(1 for f in minima if f <= raw + BASIN_TOL),
        start_evals=tuple(int(e) for e in nfev),
        start_converged=tuple(bool(c) for c in success),
    )


def q_gqd(rho: DensityMatrix, q: float, opt: OptimizerConfig | None = None, *, cut=None) -> DiscordReport:
    """Global q-discord: minimal induced discord over product measurements.

    By default the mutual information is the multi-party sum over
    single-qubit marginals. Passing cut=(left, right) switches to the
    two-party mutual information across that bipartition while still
    measuring every qubit with per-qubit projectors.
    """
    (report,) = q_gqd_many([(rho, q)], opt, cut=cut)
    return report


def q_gqd_many(jobs, opt: OptimizerConfig | None = None, *, cut=None) -> tuple[DiscordReport, ...]:
    """q_gqd of every (rho, q) in jobs, in job order, solved together.

    Jobs of one qubit count share each round's objective call, up to
    _MAX_ROWS // opt.starts jobs a lockstep, so a q grid or an ensemble
    pays the call's fixed cost once per round, not once per job. Each
    report equals q_gqd(rho, q, opt, cut=cut) field for field, and every q
    is checked before the first solve.
    """
    return _in_order(_minimize_many([(rho, q, None, cut) for rho, q in jobs], opt))


def q_qd_one_sided(
    rho: DensityMatrix, measured, q: float, opt: OptimizerConfig | None = None
) -> DiscordReport:
    """One-sided q-discord: only the `measured` qubits carry projectors.

    The complement is treated as the unmeasured party and the score is the
    two-party mutual-information drop across that split, minimized over
    per-qubit product measurements of the measured subset.

    Three closed forms pin it, each checked by a test at 1e-5 with 8 starts
    of 800 evaluations. With one qubit of n = 3 or 4 measured, the GHZ
    dilution gives werner_ghz_gqd(n, mu, q): every axis yields the all-z
    spectrum and both marginals stay put. With one qubit of n = 4
    measured, the Pauli-diagonal state gives pauli_diagonal_gqd(4, c1, c2,
    c3, q), since the measured spectrum is (1 +/- |c o m|)/16. At n = 2
    the Pauli-diagonal closed form is the value with either qubit measured.
    """
    (report,) = q_qd_one_sided_many([(rho, q)], measured, opt)
    return report


def q_qd_one_sided_many(jobs, measured, opt: OptimizerConfig | None = None) -> tuple[DiscordReport, ...]:
    """q_qd_one_sided of every (rho, q) in jobs with the same measured qubits, in job order.

    Solved together as q_gqd_many solves its jobs; each report equals
    q_qd_one_sided(rho, measured, q, opt) field for field.
    """
    try:
        measured = tuple(sorted({_index(i, "qubit index") for i in measured}))
    except TypeError:
        raise ValueError("measured qubits must be a sequence of qubit indices") from None
    return _in_order(_minimize_many([(rho, q, measured, None) for rho, q in jobs], opt))
