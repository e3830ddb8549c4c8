"""Tsallis q-entropy of probability vectors and density matrices.

Conventions: natural logarithm throughout and 0 * ln_q(0) taken as 0. Every
q-deformed quantity is evaluated through expm1((q - 1) ln x) / (q - 1), which
stays accurate as q -> 1 and is continuous there; only q == 1.0 itself takes
the Shannon / von Neumann formula.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DensityMatrix, Spectrum, _index

ZERO_PROB_CUTOFF = 1e-12

__all__ = [
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

    Evaluated as expm1((1 - q) ln x) / (1 - q), and as ln(x) at q == 1.
    Defined for x >= 0 when q < 1, where ln_q(0) = -1 / (1 - q); for
    q >= 1 the value diverges as x -> 0, so x = 0 raises, and so do NaN
    and a value too large for a float (tiny x at large q).
    """
    q = _check_q(q)
    x = float(x)
    if math.isnan(x):
        raise ValueError("q-log requires a number, got NaN")
    if x < 0.0:
        raise ValueError("q-log requires a nonnegative argument")
    if x == 0.0 and q >= 1.0:
        raise ValueError("q-log diverges at zero for q >= 1")
    ln_x = math.log(x) if x > 0.0 else -math.inf
    if q == 1.0:
        return ln_x
    try:
        return math.expm1((1.0 - q) * ln_x) / (1.0 - q)
    except OverflowError:
        raise ValueError(f"q-log overflows a float at x={x!r}, q={q!r}") from None


def _terms(p: np.ndarray, q):
    """(p', x, s) with -p' x / s the entropy terms and -q x / s their slopes.

    p' is p with entries at or below ZERO_PROB_CUTOFF set to 1, where x = 0;
    x = expm1((q - 1) ln p') and s = q - 1, or x = ln p' and s = 1 where
    q == 1. q is a float or an array that broadcasts against p, such as a
    column of one q per row, and s has q's shape; a row's x and s are the
    floats that row would get with its q alone. The slopes are the
    entrywise derivatives of the terms less the constant -1 they share,
    which multiplies the change of a total probability, and that is zero
    along any trace-preserving path; entries at or below the cutoff have
    slope 0.
    """
    p = np.where(p > ZERO_PROB_CUTOFF, p, 1.0)
    ln_p = np.log(p)
    shannon = q == 1.0
    s = q - 1.0 + shannon  # 1 where q == 1, else exactly q - 1
    x = np.expm1(s * ln_p)
    np.copyto(x, ln_p, where=shannon)
    return p, x, s


def _hq(p: np.ndarray, q: float):
    """Tsallis entropy along the last axis of already-validated probabilities.

    A 1-D array gives a scalar, a (K, d) array K entropies. Each entry adds
    -p**q ln_q(p) = -p expm1((q - 1) ln p) / (q - 1), or -p ln p at q == 1,
    so the sum equals (1 - sum p**q) / (q - 1) without that form's
    cancellation near q = 1. Being a plain sum over entries, the entropies
    of several distributions add up to _hq of their concatenation. Entries
    at or below ZERO_PROB_CUTOFF count as exact zeros (see _terms):
    eigensolver noise of size eps would otherwise contribute eps**q, which
    for small q dwarfs the 1e-5 agreement scale this package works to.
    """
    p, x, s = _terms(p, q)
    return -(p * x).sum(axis=-1) / s


def tsallis_entropy_probs(p, q: float) -> float:
    """Tsallis q-entropy H_q(p) = (1 - sum_j p_j**q) / (q - 1).

    Accepts a Spectrum or any probability vector (validated on entry).
    Zero entries contribute nothing for every q > 0.
    """
    q = _check_q(q)
    if not isinstance(p, Spectrum):
        p = Spectrum(p)
    return float(_hq(p.probs, q))


def tsallis_entropy(rho: DensityMatrix, q: float) -> float:
    """Tsallis q-entropy S_q(rho) = (1 - tr rho**q) / (q - 1).

    Evaluated on the eigenvalues the DensityMatrix constructor stored and
    checked; those at or below ZERO_PROB_CUTOFF, including eigensolver noise
    below 0, count as exact zeros.
    """
    q = _check_q(q)
    return float(_hq(rho.eigenvalues, q))


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
    satisfies that within 1e-10; trials must be at least 1.
    """
    q = _check_q(q)
    trials = _index(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        eye = np.eye(d)
        y = rng.dirichlet(np.ones(d))
        mix = np.zeros((d, d))
        for w in rng.dirichlet(np.ones(4)):
            mix += w * eye[rng.permutation(d)]
        x = mix @ y
        if tsallis_entropy_probs(x, q) < tsallis_entropy_probs(y, q) - 1e-10:
            return False
    return True
