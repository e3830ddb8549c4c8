"""Local projective measurements and the channels they induce.

A single-qubit measurement is a unit Bloch axis n; its projectors are
(I +/- n.sigma)/2. A product measurement applies one such pair to each of
m qubits, and its outcome j (qubit 0 the high bit, bit 0 for the +
outcome, s_k(j) the sign +/-1 of qubit k) has the projector

    P_j = (x)_k (I + s_k n_k.sigma)/2 = 2^-m sum_mu v_mu prod_{k: mu_k != 0} s_k sigma_mu,

where sigma_mu = sigma_mu_0 (x) sigma_mu_1 (x) ... runs over the 4^m Pauli
strings and v = (1, n_0) (x) (1, n_1) (x) ... is the lift of the axes, a
real 4^m-vector multilinear in them (Dakic, Vedral & Brukner, PRL 105,
190502 (2010)). So with the Pauli blocks R_mu = tr_M[(sigma_mu (x) I_U)
rho] of linalg._pauli_blocks, the block of outcome j is

    B_j = tr_M[(P_j (x) I_U) rho] = sum_mu X[mu, j] v_mu R_mu,

X[mu, j] = 2^-m prod_{k: mu_k != 0} s_k(j) the sign table. With every
qubit measured, R_mu is the real number t_mu = tr(rho sigma_mu) and B_j
is the outcome probability p_j: p = (t o v) X. X is the Kronecker power
of one qubit's table, so _sign_product applies it in groups of at most
_SIGN_QUBITS qubits, each group's read-only table from _signs: the
search's m <= 4 takes one product, and a value pass at larger n never
holds the 8^m entries of the whole table. _lift builds v, with its
derivatives in the angles when asked, and _outcome_blocks contracts it
with X and the blocks; outcome_probabilities, apply_full and the discord
objective all take their probabilities from them, one implementation in
real arithmetic.

A ProductMeasurement enters through _angles, which checks its arity
against the state and turns each axis into (theta, phi); apply_full,
outcome_probabilities, discord.induced_discord and the monogamy ledger
all call it. apply_full is the only code that builds a measured
DensityMatrix. Each P_j is rank 1, so the non-selective channel
sum_j P_j rho P_j is sum_j p_j P_j = sum_mu v_mu (X p)_mu sigma_mu: one
product with X, and linalg._pauli_matrix turns the Pauli vector into a
matrix. The lift is the one representation of a product measurement.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .linalg import (
    DensityMatrix,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _index,
    _pauli_blocks,
    _pauli_matrix,
)

__all__ = [
    "BlochMeasurement",
    "ProductMeasurement",
    "projectors",
    "apply_full",
    "outcome_probabilities",
]


class BlochMeasurement:
    """Projective single-qubit measurement along a unit Bloch axis."""

    __slots__ = ("axis",)

    UNIT_TOL = 1e-10

    def __init__(self, axis) -> None:
        a = np.array(axis, dtype=float)
        if a.shape != (3,):
            raise ValueError("measurement axis must be a real 3-vector")
        # Written so that NaN, which fails every comparison, fails the test too.
        if not abs(np.linalg.norm(a) - 1.0) <= self.UNIT_TOL:
            raise ValueError("measurement axis must have unit length")
        a.setflags(write=False)
        self.axis = a

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "BlochMeasurement":
        """Axis (sin t cos p, sin t sin p, cos t) for polar t, azimuth p."""
        st = math.sin(theta)
        return cls((st * math.cos(phi), st * math.sin(phi), math.cos(theta)))

    def __repr__(self) -> str:
        return f"BlochMeasurement(axis=({self.axis[0]:+.6f}, {self.axis[1]:+.6f}, {self.axis[2]:+.6f}))"


class ProductMeasurement:
    """One Bloch measurement per qubit, applied jointly as a product."""

    __slots__ = ("per_qubit",)

    def __init__(self, per_qubit: Iterable[BlochMeasurement]) -> None:
        ms = tuple(per_qubit)
        if not ms:
            raise ValueError("product measurement needs at least one factor")
        for m in ms:
            if not isinstance(m, BlochMeasurement):
                raise TypeError("per-qubit entries must be BlochMeasurement")
        self.per_qubit = ms

    @classmethod
    def from_angles(cls, pairs: Iterable[tuple[float, float]]) -> "ProductMeasurement":
        return cls(BlochMeasurement.from_angles(t, p) for t, p in pairs)

    @classmethod
    def uniform_axis(cls, n: int, axis) -> "ProductMeasurement":
        """The same axis on every one of n qubits."""
        m = BlochMeasurement(axis)
        return cls((m,) * _index(n, "qubit count"))

    def __len__(self) -> int:
        return len(self.per_qubit)

    def __iter__(self):
        return iter(self.per_qubit)

    def __repr__(self) -> str:
        return f"ProductMeasurement({list(self.per_qubit)!r})"


def projectors(m: BlochMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projector pair (I + a.sigma)/2, (I - a.sigma)/2."""
    a1, a2, a3 = m.axis
    dotted = a1 * SIGMA_X + a2 * SIGMA_Y + a3 * SIGMA_Z
    return (IDENTITY_2 + dotted) / 2.0, (IDENTITY_2 - dotted) / 2.0


def _angles(phi: ProductMeasurement, n: int) -> list[float]:
    """phi's axes as (theta_0, phi_0, theta_1, phi_1, ...) for an n-qubit state."""
    if len(phi) != n:
        raise ValueError(f"measurement arity {len(phi)} does not match qubit count {n}")
    angles = []
    for m in phi.per_qubit:
        a1, a2, a3 = m.axis
        angles += (math.atan2(math.hypot(a1, a2), a3), math.atan2(a2, a1))
    return angles


_SIGN_QUBITS = 4  # most qubits of one sign table (8^4 entries): one product for every search, m <= 4


@functools.cache
def _signs(m: int) -> np.ndarray:
    """The read-only sign table X of m <= _SIGN_QUBITS measured qubits, shape (4^m, 2^m).

    X[mu, j] = 2^-m prod_{k: mu_k != 0} s_k(j): the Kronecker product of m
    copies of the one-qubit table [[1, 1], [1, -1], [1, -1], [1, -1]] / 2,
    so every entry is an exact +/-2^-m. Built once per m.
    """
    x = np.ones((1, 1))
    for _ in range(m):
        x = np.kron(x, [[0.5, 0.5], [0.5, -0.5], [0.5, -0.5], [0.5, -0.5]])
    x.setflags(write=False)
    return x


def _sign_product(y: np.ndarray, m: int, transpose: bool) -> np.ndarray:
    """X^T y (4^m -> 2^m rows, transpose) or X y (2^m -> 4^m) for each y[k] of y (K, D, F).

    Up to _SIGN_QUBITS qubits, which covers every search, this is one
    matmul per row with X itself. Above, X is the Kronecker product of the
    tables of its qubit groups, ceil(m / _SIGN_QUBITS) of near-equal size,
    applied the last first: each is one matmul per row with the group's
    table on its own index, in place, so no table exceeds _SIGN_QUBITS
    qubits and memory stays linear in 4^m. The loop's reshapes would cost
    the one-group case 2.3 us a value-and-gradient call, about 3 % of a
    4-row call at n = 3, hence the direct product there. Each row's sums
    are its own.
    """
    if m <= _SIGN_QUBITS:
        x = _signs(m)
        return (x.T if transpose else x) @ y
    k, f = len(y), y.shape[2]
    steps, done = -(-m // _SIGN_QUBITS), f
    for i in reversed(range(steps)):
        x = _signs(m // steps + (i < m % steps))
        table = x.T if transpose else x
        y = table @ y.reshape(-1, table.shape[1], done)
        done *= len(table)
    return y.reshape(k, -1, f)


def _lift(angles, gradient: bool = False):
    """The lifts v = (1, n_0) (x) (1, n_1) (x) ... of angles (K, 2m), shape (K, 4^m).

    Row k's axes are n_i = (sin t cos p, sin t sin p, cos t) for its
    (t, p) = angles[k, 2i : 2i + 2]. The lift grows one qubit at a time,
    an outer product of the lift so far (its prefix, (K, 4^i)) with the
    next factor (1, n_i) of the factors (K, m, 4), rows first. With
    gradient it returns (v, pullback) instead, where pullback(g) takes g =
    df/dv (K, 4^m) to df/dangles (K, 2m) by the chain rule back through
    the outer products: at qubit i, df/d(1, n_i) is g contracted with the
    prefix, and g contracted with (1, n_i) is the prefix's own df, each a
    matmul per row that reads its operands in place. df/d(1, n_i) then
    meets (0, dn_i/dt) and (0, dn_i/dp). Every step treats each row on its
    own, so a row's floats do not depend on the others.
    """
    a = np.asarray(angles, dtype=float)
    k, m = len(a), a.shape[1] // 2
    c, s = np.cos(a), np.sin(a)
    ct, cp, st, sp = c[:, 0::2], c[:, 1::2], s[:, 0::2], s[:, 1::2]
    factors = np.empty((k, m, 4))
    factors[..., 0] = 1.0
    factors[..., 1] = st * cp
    factors[..., 2] = st * sp
    factors[..., 3] = ct
    prefixes = [factors[:, 0]]
    for i in range(1, m):
        prefixes.append((prefixes[-1][:, :, None] * factors[:, i, None]).reshape(k, -1))
    v = prefixes[-1]
    if not gradient:
        return v

    def pullback(g: np.ndarray) -> np.ndarray:
        df = np.empty((k, m, 4))  # df/d(1, n_i)
        for i in range(m - 1, 0, -1):
            g = g.reshape(k, -1, 4)
            df[:, i] = (prefixes[i - 1][:, None, :] @ g)[:, 0]
            g = (g @ factors[:, i, :, None])[:, :, 0]
        df[:, 0] = g
        grad = np.empty((k, 2 * m))
        grad[:, 0::2] = ct * (cp * df[..., 1] + sp * df[..., 2]) - st * df[..., 3]
        grad[:, 1::2] = st * (cp * df[..., 2] - sp * df[..., 1])
        return grad

    return v, pullback


def _outcome_blocks(pauli: np.ndarray, v: np.ndarray) -> np.ndarray:
    """B_j = sum_mu X[mu, j] v_mu R_mu for each row: shape (K, 2^m, F).

    pauli holds each row's Pauli blocks flattened to F reals, (K, 4^m, F),
    and v its lift (K, 4^m); _sign_product applies X^T, each row on its own.
    """
    m = v.shape[1].bit_length() // 2  # 4^m has 2m + 1 bits
    return _sign_product(v[:, :, None] * pauli, m, transpose=True)


def _probabilities(rho: DensityMatrix, v: np.ndarray) -> np.ndarray:
    """The outcome probabilities (t o v) X of rho measured with the lift v, shape (1, 4^n)."""
    n = rho.num_qubits
    t = _pauli_blocks(rho.matrix[None], n, range(n)).real.reshape(1, 4**n, 1)
    return _outcome_blocks(t, v)[0, :, 0]


def apply_full(phi: ProductMeasurement, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective product measurement sum_j P_j rho P_j = sum_mu v_mu (X p)_mu sigma_mu."""
    n = rho.num_qubits
    v = _lift([_angles(phi, n)])
    xp = _sign_product(_probabilities(rho, v)[None, :, None], n, transpose=False)
    return DensityMatrix(_pauli_matrix(v[0] * xp[0, :, 0], n))


def outcome_probabilities(phi: ProductMeasurement, rho: DensityMatrix) -> np.ndarray:
    """Probabilities of the 2^n outcomes, indexed with qubit 0 as the high bit."""
    return _probabilities(rho, _lift([_angles(phi, rho.num_qubits)]))
