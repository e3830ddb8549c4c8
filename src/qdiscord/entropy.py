"""Tsallis q-entropy of probability vectors and density matrices.

Conventions: natural logarithm throughout, 0 * ln_q(0) taken as 0, and any
q within 1e-9 of 1 routed to the Shannon / von Neumann formulas.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .linalg import DensityMatrix, Spectrum, state_spectrum

Q_SWITCH_TOL = 1e-9
ZERO_PROB_CUTOFF = 1e-12

__all__ = [
    "Q_SWITCH_TOL",
    "ZERO_PROB_CUTOFF",
    "q_log",
    "tsallis_entropy_probs",
    "tsallis_entropy",
    "von_neumann_entropy",
    "majorizes",
    "schur_concavity_witness",
]


def _check_q(q: float) -> float:
    q = float(q)
    if not np.isfinite(q) or q <= 0.0:
        raise ValueError("q must be a positive real number")
    return q


def q_log(x: float, q: float) -> float:
    """q-deformed logarithm ln_q(x) = (x**(1-q) - 1) / (1 - q).

    Reduces to ln(x) when |q - 1| < 1e-9. Defined for x >= 0 when q < 1;
    for q >= 1 the value diverges as x -> 0, so x = 0 raises.
    """
    q = _check_q(q)
    x = float(x)
    if x < 0.0:
        raise ValueError("q-log requires a nonnegative argument")
    if abs(q - 1.0) < Q_SWITCH_TOL:
        if x == 0.0:
            raise ValueError("q-log diverges at zero for q >= 1")
        return float(np.log(x))
    if x == 0.0 and q > 1.0:
        raise ValueError("q-log diverges at zero for q >= 1")
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def _hq(p: np.ndarray, q: float) -> float:
    """Tsallis entropy of an already-validated probability array.

    Entries at or below ZERO_PROB_CUTOFF are dropped as exact zeros:
    eigensolver noise of size eps would otherwise contribute eps**q, which
    for small q dwarfs the 1e-5 agreement scale this package works to.
    """
    p = p[p > ZERO_PROB_CUTOFF]
    if abs(q - 1.0) < Q_SWITCH_TOL:
        return float(-xlogy(p, p).sum())
    return float((1.0 - (p**q).sum()) / (q - 1.0))


def tsallis_entropy_probs(p, q: float) -> float:
    """Tsallis q-entropy H_q(p) = (1 - sum_j p_j**q) / (q - 1).

    Accepts a Spectrum or any probability vector (validated on entry).
    Zero entries contribute nothing for every q > 0.
    """
    q = _check_q(q)
    if not isinstance(p, Spectrum):
        p = Spectrum(p)
    return _hq(p.probs, q)


def tsallis_entropy(rho: DensityMatrix, q: float) -> float:
    """Tsallis q-entropy S_q(rho) = (1 - tr rho**q) / (q - 1).

    Evaluated on the eigenvalue spectrum; eigenvalues in [-1e-9, 0) are
    clamped to 0 first and anything more negative raises.
    """
    q = _check_q(q)
    return _hq(state_spectrum(rho).probs, q)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy, the q -> 1 limit of tsallis_entropy."""
    return tsallis_entropy(rho, 1.0)


def _descending(p) -> np.ndarray:
    if isinstance(p, Spectrum):
        return p.probs
    return np.sort(np.asarray(p, dtype=float))[::-1]


def majorizes(x, y) -> bool:
    """True when x is majorized by y (y's partial sums dominate x's).

    Both arguments are probability vectors; the shorter one is padded with
    zeros. Partial-sum domination is checked to 1e-12 and the totals must
    agree within 1e-9.
    """
    xs = _descending(x)
    ys = _descending(y)
    d = max(xs.size, ys.size)
    xs = np.pad(xs, (0, d - xs.size))
    ys = np.pad(ys, (0, d - ys.size))
    cx = np.cumsum(xs)
    cy = np.cumsum(ys)
    if abs(cx[-1] - cy[-1]) > 1e-9:
        return False
    return bool(np.all(cx <= cy + 1e-12))


def schur_concavity_witness(q: float, trials: int, seed: int = 0) -> bool:
    """Spot-check that H_q never decreases under doubly stochastic mixing.

    Each trial draws a random spectrum y and a random convex mix of
    permutation matrices D; x = D y is then majorized by y, so Schur
    concavity demands H_q(x) >= H_q(y). Returns True when every trial
    satisfies that within 1e-10.
    """
    q = _check_q(q)
    rng = np.random.default_rng(seed)
    eye_cache: dict[int, np.ndarray] = {}
    for _ in range(int(trials)):
        d = int(rng.integers(2, 9))
        eye = eye_cache.setdefault(d, np.eye(d))
        y = rng.dirichlet(np.ones(d))
        mix = np.zeros((d, d))
        for w in rng.dirichlet(np.ones(4)):
            mix += w * eye[rng.permutation(d)]
        x = mix @ y
        if tsallis_entropy_probs(x, q) < tsallis_entropy_probs(y, q) - 1e-10:
            return False
    return True
