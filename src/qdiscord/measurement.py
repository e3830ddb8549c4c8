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
rho] of _pauli_blocks, the block of outcome j is

    B_j = tr_M[(P_j (x) I_U) rho] = sum_mu X[mu, j] v_mu R_mu,

X[mu, j] = 2^-m prod_{k: mu_k != 0} s_k(j) the sign table. With every
qubit measured, R_mu is the real number t_mu = tr(rho sigma_mu) and B_j
is the outcome probability p_j: p = (t o v) X. Every entry of X is an
exact +/-2^-m. The Pauli transform (_pauli_blocks), its inverse
(_pauli_matrix) and X are Kronecker powers of one-qubit tables, and one
kernel, _kron_steps, applies all three in groups of near-equal size,
each group's power read-only from one cache, _kron_power: at most three
qubits a group for the transform, since at n = 3 one 64 x 64 step took
35 % less time than a 16 x 16 and a 4 x 4 one; one for the inverse,
which so reads only the 4 x 4 table; and at most _SIGN_QUBITS = 4 for X,
so every search (m <= 4) takes one product with X itself, sparing the
kernel's reshapes (2.3 us, about 3 % of a 4-row value-and-gradient call
at n = 3), and a value pass at larger n never holds the 8^m entries of
the whole table. _lift builds v, with its derivatives in the angles when
asked, and _outcome_blocks contracts it with X and the blocks;
outcome_probabilities, apply_full and the discord objective all take
their probabilities from them, one implementation in real arithmetic.

A ProductMeasurement enters through _angles, which checks its arity
against the state and turns each axis into (theta, phi); apply_full,
outcome_probabilities, discord.induced_discord and the monogamy ledger
all call it. apply_full is the only code that builds a measured
DensityMatrix. Each P_j is rank 1, so the non-selective channel
sum_j P_j rho P_j is sum_j p_j P_j = sum_mu v_mu (X p)_mu sigma_mu: one
product with X, and _pauli_matrix, the inverse Pauli transform, turns
the Pauli vector into a matrix. The lift is the one representation of a
product measurement.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .linalg import DensityMatrix, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _index, kron_all

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


# Row mu holds sigma_mu[c, r] at column 2r + c, so a row dotted with a
# qubit's (row bit r, column bit c) entries is tr(sigma_mu x) on that qubit.
_PAULI_PAIR = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_PAULI_PAIR.setflags(write=False)
# The one-qubit tables of the Pauli transform and of the sign table X.
_ONE_QUBIT = {"pauli": _PAULI_PAIR, "signs": np.array([[0.5, 0.5], [0.5, -0.5], [0.5, -0.5], [0.5, -0.5]])}
_SIGN_QUBITS = 4  # most qubits of one sign table (8^4 entries): one product for every search, m <= 4


@functools.cache
def _kron_power(name: str, k: int) -> np.ndarray:
    """The k-th Kronecker power of _ONE_QUBIT[name], read-only, built once.

    Of "signs" it is the sign table X of k measured qubits, shape (4^k, 2^k).
    """
    x = kron_all(np.ones((1, 1)), *[_ONE_QUBIT[name]] * k)
    x.setflags(write=False)
    return x


def _kron_steps(t: np.ndarray, name: str, m: int, most: int, transpose: bool = False) -> np.ndarray:
    """Each row of t times the m-th Kronecker power of _ONE_QUBIT[name], or its transpose.

    Row t[k]'s leading index holds one digit per qubit, the first the most
    significant. The qubits go in ceil(m / most) groups of near-equal size,
    the first group first, each one matmul per row with its _kron_power (a
    transposed power stays a view: a C-contiguous copy takes another BLAS
    path and moves the last bits), and the new index goes to the back.
    Flattened, a result row is the row's other entries, then the new index.
    """
    s = len(t)
    steps = -(-m // most)
    for k in range(steps):
        x = _kron_power(name, m // steps + (k < m % steps))
        x = x.T if transpose else x
        t = (x @ t.reshape(s, x.shape[1], -1)).swapaxes(1, 2)  # the next digits lead, the new index goes last
    return t


def _pauli_blocks(matrices: np.ndarray, n: int, measured) -> np.ndarray:
    """The Pauli blocks R_mu = tr_M[(sigma_mu (x) I_U) rho] of each n-qubit matrix of a stack.

    matrices has shape (S, 2^n, 2^n) and measured lists the sorted qubits
    M; U is the rest, in order. The result has shape (S, 4^m, 2^(n-m),
    2^(n-m)), m = len(measured), with mu's digits in base 4 in measured
    order (measured[0] the most significant, 0 for the identity and 1, 2,
    3 for x, y, z), so with every qubit measured R_mu is the 1 x 1 number
    tr(rho sigma_mu). The (row, column) pairs of the measured qubits lead
    each matrix, and _kron_steps contracts them with powers of _PAULI_PAIR,
    at most three qubits a step, so a matrix's blocks are the same floats
    whatever else the stack holds.
    """
    s = len(matrices)
    m = len(measured)
    unmeasured = [i for i in range(n) if i not in measured]
    dim_u = 2 ** len(unmeasured)
    pairs = [axis for i in measured for axis in (1 + i, 1 + n + i)]
    t = np.asarray(matrices).reshape((s,) + (2,) * (2 * n))
    t = t.transpose([0] + pairs + [1 + i for i in unmeasured] + [1 + n + i for i in unmeasured])
    t = _kron_steps(t, "pauli", m, 3)
    return t.reshape(s, dim_u, dim_u, 4**m).transpose(0, 3, 1, 2)


def _pauli_matrix(c: np.ndarray, n: int) -> np.ndarray:
    """The 2^n-square matrix sum_mu c_mu sigma_mu of a 4^n-vector c, mu's digits as in _pauli_blocks.

    The inverse of _pauli_blocks with every qubit measured: _pauli_blocks
    of the result over 2^n gives back c. _kron_steps applies _PAULI_PAIR's
    transpose one qubit a step, each step turning the leading base-4 digit
    into 2r + c at the back, holding sigma_mu[c, r]; the (c..., r...) bits
    are then transposed into (row, column). Only the 4 x 4 power is read,
    so no 4^n-square table is cached.
    """
    t = _kron_steps(np.asarray(c)[None], "pauli", n, 1, transpose=True)
    d = 2**n
    return t.reshape((2,) * (2 * n)).transpose([*range(1, 2 * n, 2), *range(0, 2 * n, 2)]).reshape(d, d)


def _sign_product(y: np.ndarray, m: int, transpose: bool) -> np.ndarray:
    """X^T y (4^m -> 2^m rows, transpose) or X y (2^m -> 4^m) for each y[k] of y (K, D, F).

    Up to _SIGN_QUBITS qubits, which covers every search, this is one
    matmul per row with X itself: _kron_steps's reshapes would cost the
    one-group case 2.3 us a value-and-gradient call, about 3 % of a 4-row
    call at n = 3. Above, _kron_steps applies X at most _SIGN_QUBITS
    qubits a group, so memory stays linear in 4^m, and the rows come back
    (K, 2^m or 4^m, F), C-contiguous. Each row's sums are its own.
    """
    if m <= _SIGN_QUBITS:
        x = _kron_power("signs", m)
        return (x.T if transpose else x) @ y
    k, f = len(y), y.shape[2]
    y = _kron_steps(y, "signs", m, _SIGN_QUBITS, transpose)
    return np.ascontiguousarray(y.reshape(k, f, -1).swapaxes(1, 2))


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
