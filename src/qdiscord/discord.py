"""q-mutual information and measurement-minimized discord quantities.

Every quantity uses I_q = -S_q(rho) + sum_g S_q(rho_g) over parties g: the
single qubits, or the two sides of a cut=(left, right), a plain pair that
_parties alone checks and orders, so either order gives the same floats.
_parties and _make_objective's entropy kernel, for both sides of a drop,
are the only code for each; mutual_information_q sums its own entropies.

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
a job, as one lockstep and returns the reports in job order; _evaluate,
the value-only pass for fixed measurements, runs it, one row a job, in
one gradient-free call, and induced_discord and the telescoping ledger
are such passes. The public entries are job lists, a solo call a list of
one. A row of the batch is the same float as that row alone, so a
start's result does not depend on which starts share its rounds, and
each report of a _many call equals the solo call's.

One driver, _bfgs_rows, runs a lockstep's rows, the start points x0
(K, 2m) and the problem owner (K,) of each, and returns (x, f,
evaluations, success) per row. It has two forms of the same BFGS, through
the same floats bit for bit: _bfgs generators, each yielding the point it
needs and sent its value and gradient, which _rounds runs one batched
call a round and stacks; and one set of array operations per round. A
round's cost in us, objective included, generators/arrays, every row
searching (random states at q = 0.5 with every qubit measured, 10
evaluations a start; 2-core x86-64 VM, one OpenBLAS thread, best of 25 in
each of three runs, the least of the three):

    rows    1       2       4       8       16      20      32      64
    n = 2   68/185  80/187  99/201  140/198 205/214 264/230 380/248 683/294
    n = 3   77/191  93/205  118/210 165/230 266/248 326/259 457/270 765/357
    n = 4   89/205  98/212  137/229 186/240 309/284 374/321 546/376 1050/519

One threshold, _ARRAY_ROWS = 20, picks the cheaper form by one test at
the top of every round, round 0 included: once fewer than _ARRAY_ROWS
rows are still searching, they run as generators to the end. So a
lockstep of fewer rows runs as generators from the start and builds no
array, and a larger one starts as arrays and resumes each row still
searching as a _bfgs generator in the middle of its line search. Most
rounds of a large lockstep wait on a few slow starts, so its tail runs at
the generators' cost. The crossover lies near 16 rows, where arrays win
by up to 8 % at n = 3 and 4; 20 keeps a 16-row lockstep on the
generators alone, and the rows of a tail keep leaving, so handing one
over a few rows early costs little. In-process, verify --suite monogamy
--trials 32 took 179, 186 and 183 ms, then 184, 176 and 182 ms, with the
hand-off below 16, 20 and 32 rows (best of 9, two runs).

The objective, _make_objective, is the only code that evaluates
I_q(Phi(rho)), so no measured state is built; its docstring describes
the kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import _check_q, _hq, _terms
from .linalg import DESK_SCALE_LIMIT, DensityMatrix, _index, _indices, _marginal, kron_all
from .measurement import (
    BlochMeasurement,
    ProductMeasurement,
    _angles,
    _lift,
    _outcome_blocks,
    _pauli_blocks,
    _sign_product,
)

CLAMP_SLACK = 1e-8
# Starts whose minimum lies within this of the best one share its basin.
BASIN_TOL = 1e-7
# Most rows per objective call, unless one problem has more starts: enough
# for the default sweep's 608 starts in one lockstep, and a bound on the
# arrays of one lockstep (a lift and its Pauli blocks are 2 kB a row each
# at n = 4, one-sided 8 x 8 blocks 4 kB) however many problems one call is
# given.
_MAX_ROWS = 1024
# Fewest searching rows a round of _bfgs_rows runs as arrays: below it, at
# the top of any round, the first included, the rows run as _bfgs
# generators to the end (the module docstring has the table).
_ARRAY_ROWS = 20

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
    entry of measured_qubits, each axis signed so that its largest-magnitude
    component is positive: n and -n are one measurement, so starts that
    reach one basin from either side report one axis. start_minima holds
    each start's final minimum in start order, and basin_hits counts the
    starts within BASIN_TOL of raw_value (at least 1: the best start
    itself).
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


def mutual_information_q(rho: DensityMatrix, q: float) -> float:
    """I_q(rho) = sum_i S_q(rho^{A_i}) - S_q(rho) over single-qubit marginals (plain arrays), at any qubit count."""
    q, n = _check_q(q), rho.num_qubits
    total = -_hq(rho.eigenvalues, q)
    for i in range(n):
        total += _hq(np.linalg.eigvalsh(_marginal(rho.matrix, n, (i,)))[::-1], q)
    return float(total)


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


def _evaluate(jobs, angles) -> list[float]:
    """The values of jobs (rho, q, measured, cut) at fixed measurements, in job order.

    angles[j] is job j's measured qubits' (theta, phi) pairs, flat and in
    measured order. _blocks checks and groups the jobs as for the search,
    at one row a job, and each block makes one value-only call, so a job's
    value is the float it gets alone.
    """
    _, blocks = _blocks(jobs, 1)
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
    rng = np.random.default_rng(opt.seed) if len(points) < opt.starts else None
    while len(points) < opt.starts:
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=m))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        points.append(np.column_stack([theta, phi]).ravel())
    return points


@functools.cache
def _marginal_table(measured: tuple[int, ...], parties: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """0/1 table M taking outcome probabilities to the parties' marginals.

    Every party's qubits are measured. M has one row per outcome of the
    measured qubits (qubit measured[0] is the high bit) and one column per
    entry of the concatenated marginals, in party order, each indexed by
    its qubits' bits in measured order: M[j, c] is 1 where outcome j adds
    to marginal entry c. So probs @ M is the marginals and slopes @ M.T
    sums each outcome's marginal slopes. A party's columns are a Kronecker
    product over the measured qubits, in order, of I_2 for its own qubits
    (their bits index the entry) and a column of ones for the others
    (summed over). Built once per (measured, parties) and read-only.
    """
    table = np.hstack([kron_all(*(np.eye(2) if i in g else np.ones((2, 1)) for i in measured)) for g in parties])
    table.setflags(write=False)
    return table


def _make_objective(states, qs, measured: tuple[int, ...], groups):
    """Batched I_q(rho) - I_q(Phi(rho)) over problems of one shape.

    The problems are the triples of states (all of one qubit count), qs
    and groups, one party tuple per problem, with the same measured
    qubits. objective(angles, owner) maps angles of shape (K, 2m) to K
    values, row k evaluated on problem owner[k]: its state, its q and its
    parties.

    Phi(rho) is block diagonal over the outcomes j: its spectrum is the
    union of the spectra of the blocks B_j = sum_mu X[mu, j] v_mu R_mu
    (measurement module docstring), v the lift of the row's angles and R_mu
    the Pauli blocks of its state, so no measured state is built. Each
    distinct state of the problems is transformed once
    (measurement._pauli_blocks): the whole state and its cuts are one
    object. A row's blocks are its product with the sign table X
    (measurement._outcome_blocks), one matmul per group of at most four
    measured qubits, so one in every search. With every qubit measured
    R_mu is the real t_mu = tr(rho sigma_mu) and the blocks are the outcome
    probabilities (t o v) X, in real arithmetic and with no eigh;
    otherwise R_mu is the Hermitian part of its 2^(n-m)-square block,
    carried as real and imaginary parts, and eigh gives each B_j's
    spectrum. Group terms whose qubits are unmeasured cancel exactly and
    are skipped. The measured groups' marginals are (probs[:, None, :] @
    M)[:, 0], M the read-only 0/1 table of _marginal_table, built once per
    pattern of measured parties: a stack of one-row products, so each
    row's sums are its own, where a 2-D probs @ M goes through a BLAS
    kernel whose rows change with the batch size. When the problems'
    patterns differ (a whole state beside cuts), each pattern's rows take
    its own table and the narrower marginals are padded with zeros after
    their own entries.

    One inner function, entropies, turns rows [spectrum (2^n) | measured
    marginals, zero-padded to the block's width] into S_q of the spectrum
    and S_q of the marginals by one entropy._terms call, q a column of one q
    per row, the marginals' terms summed in order, so a padded zero adds an
    exact +0.0 at the end where numpy's pairwise sum would regroup a longer
    row. Both sides of the drop are its rows: a problem's constant I_q(rho)
    over its measured parties (the others cancel) is the row of rho's
    eigenvalues and the eigvalsh spectra of those parties' marginals, one
    call a block. A state's marginal on a party is computed once a block, as
    linalg._marginal's plain array, never checked as a DensityMatrix (see
    linalg.partial_trace). Every row, a constant's too, is computed on its
    own: a row's value does not depend on the other rows of the batch or on
    their problems, and each row of _evaluate's value-only pass is one row
    here.

    objective(angles, owner, gradient=True) returns (values (K,), gradients
    (K, 2m)) instead, the gradient exact, by one path for both kinds of
    job. With E_j = h'(B_j) - sum_g h'(marginal_g)[j] I (h' the slopes of
    _terms; h'(B_j) = V h'(Lambda) V^dagger from the block's eigh, or a
    number when the blocks are), the value's derivative in the lift is
    df/dv_mu = sum_j X[mu, j] Re tr(E_j R_mu): the product X E per row,
    then each R_mu's real inner product with it (R_mu is Hermitian). The
    lift's pullback (measurement._lift) carries that to the angles. The
    shift sum_g h'(marginal_g)[j] is the slopes' product with M.T, the
    same table. The values do not change.
    """
    n = states[0].num_qubits
    m = len(measured)
    dim_u = 2 ** (n - m)
    dim = 2**m * dim_u  # entries of the measured spectrum

    # Each distinct state once: the whole state and its cuts are one object.
    distinct = {id(rho): rho for rho in states}
    slot = {key: i for i, key in enumerate(distinct)}
    blocks = _pauli_blocks(np.array([rho.matrix for rho in distinct.values()]), n, measured)
    if dim_u == 1:
        blocks = blocks.real
    else:
        blocks = (blocks + blocks.conj().swapaxes(-1, -2)) / 2
        blocks = np.ascontiguousarray(blocks).view(float)
    pauli = blocks.reshape(len(distinct), 4**m, -1)[[slot[id(rho)] for rho in states]]

    # The table sums the outcomes into each measured party's marginal. A
    # party is wholly measured or not (_shape), so its first qubit tells,
    # and the unmeasured ones cancel in the drop, their marginal untouched.
    patterns = [tuple(g for g in parties if g[0] in measured) for parties in groups]
    kinds = list(dict.fromkeys(patterns))
    tables = [_marginal_table(measured, pattern) for pattern in kinds]
    width = max(table.shape[1] for table in tables)
    if len(tables) > 1:
        kind = np.array([kinds.index(pattern) for pattern in patterns])
    qs = np.array(qs, dtype=float)

    def entropies(rows: np.ndarray, q: np.ndarray):
        """S_q of each row's spectrum, S_q of its marginals summed in order, and the rows' x and s.

        A row is [spectrum (dim) | marginals, zero-padded to width], q a
        column of one q per row.
        """
        p, x, s = _terms(rows, q)
        px = p * x
        return -px[:, :dim].sum(axis=-1) / s[:, 0], -np.cumsum(px[:, dim:], axis=-1)[:, -1] / s[:, 0], x, s

    # Each problem's constant I_q(rho) is a row of the same kernel.
    spectra, seen = np.zeros((len(states), dim + width)), {}
    for row, rho, pattern in zip(spectra, states, patterns):
        for g in pattern:
            if (id(rho), g) not in seen:
                seen[id(rho), g] = np.linalg.eigvalsh(_marginal(rho.matrix, n, g))[::-1]
        parts = np.concatenate([rho.eigenvalues] + [seen[id(rho), g] for g in pattern])
        row[: parts.size] = parts
    h_state, h_parties, _, _ = entropies(spectra, qs[:, None])
    consts = h_parties - h_state

    def objective(angles: np.ndarray, owner: np.ndarray, gradient: bool = False):
        lifted = _lift(angles, gradient)
        v, pullback = lifted if gradient else (lifted, None)
        pauli_rows = pauli[owner]
        b = _outcome_blocks(pauli_rows, v)
        k = len(b)
        if dim_u == 1:
            probs = spectrum = np.maximum(b[:, :, 0], 0.0)
        else:
            b = b.view(complex).reshape(k, 2**m, dim_u, dim_u)
            probs = np.maximum(np.einsum("kjuu->kj", b).real, 0.0)
            eigenvalues, vectors = np.linalg.eigh(b)
            spectrum = eigenvalues.reshape(k, -1)
        # A stack of one-row products, so each row's sums are its own. With
        # several patterns each one's rows take its own table, and a
        # narrower pattern's marginals are padded with zeros after its own.
        if len(tables) == 1:
            marginals = (probs[:, None, :] @ tables[0])[:, 0]
        else:
            patterned = [(np.flatnonzero(kind[owner] == u), table) for u, table in enumerate(tables)]
            marginals = np.zeros((k, width))
            for rows, table in patterned:
                marginals[rows, : table.shape[1]] = (probs[rows, None, :] @ table)[:, 0]
        q = qs[owner][:, None]
        h_spectrum, h_marginals, x, s = entropies(np.concatenate([spectrum, marginals], axis=1), q)
        values = consts[owner] + h_spectrum - h_marginals
        if not gradient:
            return values

        slopes = -q * x / s
        # sum_g h'(marginal_g)[j] for each outcome j
        if len(tables) == 1:
            shift = (slopes[:, None, dim:] @ tables[0].T)[:, 0]
        else:
            shift = np.empty((k, 2**m))
            for rows, table in patterned:
                shift[rows] = (slopes[rows, None, dim : dim + table.shape[1]] @ table.T)[:, 0]
        if dim_u == 1:
            e = (slopes[:, :dim] - shift)[:, :, None]
        else:
            h = slopes[:, :dim].reshape(eigenvalues.shape)
            e = (vectors * h[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
            e = e.reshape(k, 2**m, -1)
            e[:, :, :: dim_u + 1] -= shift[:, :, None]  # each block's diagonal
            e = e.view(float)
        # df/dv_mu = sum_j X[mu, j] Re tr(E_j R_mu), R_mu Hermitian
        return values, pullback((_sign_product(e, m, transpose=False) * pauli_rows).sum(axis=-1))

    return objective


# BFGS settings (Nocedal & Wright, Numerical Optimization, ch. 3 and 6)
_C1, _C2 = 1e-4, 0.9  # strong-Wolfe sufficient decrease and curvature
_GTOL = 1e-6  # stop when max |gradient| is at most this
_FTOL = 1e-13  # stop when a step lowers f by at most this times max(1, |f|)
_CURVATURE_TOL = 1e-10  # update only when s.y exceeds this times |s| |y|
_STEP_TOL = 1e-12  # the line search gives up when its bracket is this short


def _line_search(x, f0, g0, p, d0, alpha, budget: int, bracket=None):
    """Strong-Wolfe step along p from x (N&W Alg. 3.5 and 3.6), as a generator.

    Yields each trial point and receives its (value, gradient); d0 = g0.p
    is the caller's. The bracketing phase extrapolates by 4x; once a
    bracket exists, the zoom phase tries the minimizer of the quadratic
    through f(lo), f'(lo) and f(hi), bisecting when that leaves the middle
    80 % of the bracket. lo is always the lowest trial that meets sufficient decrease. Returns
    (alpha, f, g, evaluations) at a strong-Wolfe point, or at lo when the
    budget runs out or the bracket collapses; alpha is 0 when no trial
    lowered f. bracket resumes a search in progress at its next trial
    alpha: its (lo, f_lo, g_lo, d_lo, hi, f_hi), with hi and f_hi None
    while nothing brackets the step; the default starts at lo = 0.
    """
    p_norm = math.sqrt(p.dot(p))
    lo, f_lo, g_lo, d_lo, hi, f_hi = (0.0, f0, g0, d0, None, None) if bracket is None else bracket
    used = 0
    while used < budget:
        f, g = yield x + alpha * p
        used += 1
        d = g.dot(p)
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


def _bfgs(x0: np.ndarray, max_evals: int, resume=None):
    """BFGS from x0 as a generator that yields points and receives (f, g).

    The first step is steepest descent of length min(1, 1 / |p|); the
    inverse Hessian estimate starts as (s.y / y.y) I at the first update
    (N&W eq. 6.20), and an update is skipped unless s.y > 1e-10 |s| |y|.
    The search stops when max |g| <= _GTOL, when an accepted step lowers f
    by at most _FTOL max(1, |f|) (at q < 1 the gradient of a rank-deficient
    state never vanishes at its p -> 0 kink), when the line search finds no
    decrease, or after max_evals evaluations. Returns (x, f, evaluations,
    success), where success means the search stopped before max_evals.

    resume = (f, g, nfev, h, p, d0, alpha, bracket) goes on from x0 in the
    middle of a line search, as _bfgs_rows hands a row over: x0's value,
    gradient and evaluations so far, h None before the first update, and
    the line search's direction, slope, next trial and bracket. The row
    passed the loop test when that line search began, and nothing in the
    test has changed since, so the search yields that trial first.
    """
    x = x0
    if resume is None:
        f, g = yield x
        nfev, h, bracket = 1, None, None
    else:
        f, g, nfev, h, p, d0, alpha, bracket = resume
    while nfev < max_evals and np.abs(g).max() > _GTOL:
        if bracket is None:
            p = -g if h is None else -h.dot(g)
            d0 = g.dot(p)
            if d0 >= 0.0:  # rounding cost h its positive definiteness
                h, p = None, -g
                d0 = g.dot(p)
            alpha = min(1.0, 1.0 / math.sqrt(p.dot(p))) if h is None else 1.0
        alpha, f_new, g_new, used = yield from _line_search(
            x, f, g, p, d0, alpha, max_evals - nfev, bracket
        )
        bracket = None
        nfev += used
        if alpha == 0.0:
            break
        s, y = alpha * p, g_new - g
        progress = f - f_new
        x, f, g = x + s, f_new, g_new
        if progress <= _FTOL * max(1.0, abs(f)):
            break
        sy, yy = s.dot(y), y.dot(y)
        if sy > _CURVATURE_TOL * math.sqrt(s.dot(s) * yy):
            if h is None:
                h = (sy / yy) * np.eye(x.size)
            # (I - s y^T / sy) h (I - y s^T / sy) + s s^T / sy, multiplied out
            hy = h.dot(y)
            h = h + (s[:, None] * ((1.0 + y.dot(hy) / sy) * s - hy) - hy[:, None] * s) / sy
    return x, f, nfev, nfev < max_evals


def _rounds(objective, searches, owner: np.ndarray):
    """The results of _bfgs generators searches, each search k on problem owner[k].

    Each round stacks the point every running search yields, evaluates
    values and gradients in a single batched call, each row tagged with
    its owner, and sends each search its own (f, g). Rows are computed
    independently, so a search takes the same steps whichever searches
    share its rounds. The result is each search's (x, f, evaluations,
    success) stacked in search order: (K, N), (K,), (K,) and (K,), as
    _bfgs_rows returns them.
    """
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
    return tuple(np.array(column) for column in zip(*results))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] for each row k, as stacked one-row matmuls.

    These round as _bfgs's 1-D products do; einsum or (a * b).sum(-1) can
    differ in the last bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _bfgs_rows(objective, x0: np.ndarray, owner: np.ndarray, max_evals: int):
    """The searches _bfgs(x0[k], max_evals), row k on problem owner[k], stacked as _rounds returns them.

    The top of every round, the first included, makes one test: once
    fewer than _ARRAY_ROWS rows are still searching, they go on as _bfgs
    generators that _rounds runs to the end, since a round of arrays
    costs more than a round of generators below about 16 rows (module
    docstring) and most rounds of a large lockstep wait on a few slow
    starts. A smaller lockstep is so _rounds over fresh generators, and
    builds no array. Otherwise every row keeps its BFGS and line-search
    state in (K, ...) arrays, and each round evaluates the trial points
    of the rows still searching in one objective call, so a round costs
    one set of array operations, not one generator step per start. At
    the hand-off each row still searching resumes from its arrays in the
    middle of its line search, and the rows' (x, f, evaluations) are
    written back in one assignment. Each scalar expression of _bfgs and
    _line_search is kept in their order, and each product is one row's
    own (_dots, stacked matmuls), so every row takes the same floats as
    its generator.
    """
    if len(x0) < _ARRAY_ROWS:
        return _rounds(objective, [_bfgs(x, max_evals) for x in x0], owner)
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
        if rows.size < _ARRAY_ROWS:
            # Each row left goes on as a _bfgs generator resumed from views
            # of its slices: a generator writes into none of its inputs,
            # and the arrays change only once every generator has ended.
            searches = []
            for r in rows.tolist():
                bracket = (lo[r], f_lo[r], g_lo[r], d_lo[r]) + ((hi[r], f_hi[r]) if bracketed[r] else (None, None))
                state = (f[r], g[r], nfev[r], h[r] if has_h[r] else None, p[r], d0[r], alpha[r], bracket)
                searches.append(_bfgs(x[r], max_evals, state))
            x[rows], f[rows], nfev[rows], _ = _rounds(objective, searches, owner[rows])
            break
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


def _blocks(jobs, rows_per_job: int):
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
                yield block, measured, _make_objective(states, block_qs, measured, groups)

    return qs, blocks()


def _minimize_many(jobs, opt: OptimizerConfig | None) -> tuple[DiscordReport, ...]:
    """The reports of jobs (rho, q, measured, cut), in job order.

    _blocks checks the jobs at opt.starts rows a job, then every state
    size is checked, all before the first solve. A block is one lockstep
    whose rows are each job's starts in order, run by _bfgs_rows, and it
    writes each job's report into that job's slot.
    """
    opt = opt if opt is not None else OptimizerConfig()
    qs, blocks = _blocks(jobs, opt.starts)
    if any(rho.num_qubits > DESK_SCALE_LIMIT for rho, *_ in jobs):
        raise ValueError(f"state exceeds desk-scale limit of {DESK_SCALE_LIMIT} qubits")
    reports = [None] * len(jobs)
    for block, measured, objective in blocks:
        x0 = np.tile(_start_points(len(measured), opt), (len(block), 1))
        owner = np.repeat(np.arange(len(block)), opt.starts)
        xs, fun, nfev, success = _bfgs_rows(objective, x0, owner, opt.max_evals)
        for i, j in enumerate(block):
            rows = slice(i * opt.starts, (i + 1) * opt.starts)
            reports[j] = _report(qs[j], measured, xs[rows], fun[rows], nfev[rows], success[rows])
    return tuple(reports)


def _values(jobs, opt: OptimizerConfig | None) -> list[float]:
    """Each job's report value, in job order, from one _minimize_many call."""
    return [report.value for report in _minimize_many(jobs, opt)]


def _report(q: float, measured: tuple[int, ...], xs, fun, nfev, success) -> DiscordReport:
    """One problem's report from its starts' (x, f, evaluations, success)."""
    minima = tuple(float(f) for f in fun)
    best = min(range(len(minima)), key=minima.__getitem__)  # the first lowest start
    raw = minima[best]
    nonneg_guaranteed = q <= 1.0
    value = raw
    if nonneg_guaranteed and -CLAMP_SLACK <= raw < 0.0:
        value = 0.0
    axes = ProductMeasurement.from_angles(xs[best].reshape(-1, 2))
    return DiscordReport(
        value=value,
        q=q,
        optimal_measurement=ProductMeasurement(
            m if m.axis[np.abs(m.axis).argmax()] > 0.0 else BlochMeasurement(-m.axis) for m in axes
        ),
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
    return _minimize_many([(rho, q, None, cut) for rho, q in jobs], opt)


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
    measured = tuple(sorted(set(_indices(measured, "measured qubits must be a sequence of qubit indices"))))
    return _minimize_many([(rho, q, measured, None) for rho, q in jobs], opt)
