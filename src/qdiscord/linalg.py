"""Dense tensor-product linear algebra for small multi-qubit systems.

Everything here works on explicit 2**n x 2**n complex arrays with qubit 0
as the most significant tensor factor, so index bit i of a basis label is
the computational-basis value of qubit i.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9
DESK_SCALE_LIMIT = 4  # most qubits of a random state, CLI target or discord search

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "DESK_SCALE_LIMIT",
    "IDENTITY_2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "DensityMatrix",
    "Spectrum",
    "kron_all",
    "partial_trace",
    "permute_qubits",
    "state_spectrum",
]


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """Left-to-right Kronecker product of one or more matrices."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator on n qubits.

    Construction rejects non-finite entries, then validates all three
    properties (Hermiticity to 1e-10, trace to 1e-10, smallest eigenvalue
    above -1e-9). It stores the matrix as a read-only complex array and the
    eigenvalues its PSD check computed as `eigenvalues`, a read-only array
    in non-increasing order, the output of numpy.linalg.eigvalsh(matrix)
    reversed.
    """

    __slots__ = ("matrix", "num_qubits", "eigenvalues")

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.abs(m - m.conj().T).max(initial=0.0) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        dim = m.shape[0]
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise ValueError("density matrix dimension must be a power of two")
        if abs(m.trace() - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace must be 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < EIGENVALUE_FLOOR:
            raise ValueError("density matrix is not positive semidefinite")
        m.setflags(write=False)
        w.setflags(write=False)
        self.matrix = m
        self.num_qubits = n
        self.eigenvalues = w[::-1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"


class Spectrum:
    """Probability vector stored in non-increasing order.

    Entries may arrive up to 1e-12 outside [0, 1] (eigensolver noise) and
    are clamped back in; anything further out, or NaN, is rejected. The
    total must equal 1 within 1e-9.
    """

    __slots__ = ("probs",)

    ENTRY_SLACK = 1e-12
    SUM_TOL = 1e-9

    def __init__(self, values) -> None:
        p = np.array(values, dtype=float).ravel()
        if p.size == 0:
            raise ValueError("spectrum must not be empty")
        # Written so that NaN, which fails every comparison, fails the test too.
        if not (p.min() >= -self.ENTRY_SLACK and p.max() <= 1.0 + self.ENTRY_SLACK):
            raise ValueError("spectrum entries must lie in [0, 1]")
        if abs(p.sum() - 1.0) > self.SUM_TOL:
            raise ValueError("spectrum must sum to 1")
        np.clip(p, 0.0, 1.0, out=p)
        p[::-1].sort()
        p.setflags(write=False)
        self.probs = p

    def __len__(self) -> int:
        return self.probs.size

    def __iter__(self):
        return iter(self.probs)

    def __repr__(self) -> str:
        return f"Spectrum({np.array2string(self.probs, precision=6)})"


def _index(value, what: str) -> int:
    """value as an int; a float or other non-integer raises instead of truncating."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _indices(values, message: str) -> tuple[int, ...]:
    """values as a tuple of int qubit indices; a non-iterable raises ValueError(message)."""
    try:
        return tuple(_index(i, "qubit index") for i in values)
    except TypeError:
        raise ValueError(message) from None


def _marginal(matrix: np.ndarray, n: int, kept) -> np.ndarray:
    """The reduced matrix on the qubits kept of an n-qubit matrix, as a plain array.

    kept holds valid qubit indices, and the retained qubits stay in their
    original relative order. The other qubits are traced out in descending
    order, so a marginal of a prefix marginal is bit for bit the same
    marginal of the whole matrix.
    """
    t = matrix.reshape((2,) * (2 * n))
    m = n
    for i in reversed([i for i in range(n) if i not in kept]):
        t = np.trace(t, axis1=i, axis2=m + i)
        m -= 1
    d = 2 ** len(kept)
    return t.reshape(d, d)


# Row mu holds sigma_mu[c, r] at column 2r + c, so a row dotted with a
# qubit's (row bit r, column bit c) entries is tr(sigma_mu x) on that qubit.
_PAULI_PAIR = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
_PAULI_PAIR.setflags(write=False)


@functools.cache
def _pauli_step(k: int) -> np.ndarray:
    """The k-th Kronecker power of _PAULI_PAIR, read-only: k qubits' pairs in one matmul."""
    step = np.ones((1, 1))
    for _ in range(k):
        step = np.kron(step, _PAULI_PAIR)
    step.setflags(write=False)
    return step


def _pauli_blocks(matrices: np.ndarray, n: int, measured) -> np.ndarray:
    """The Pauli blocks R_mu = tr_M[(sigma_mu (x) I_U) rho] of each n-qubit matrix of a stack.

    matrices has shape (S, 2^n, 2^n) and measured lists the sorted qubits
    M; U is the rest, in order. The result has shape (S, 4^m, 2^(n-m),
    2^(n-m)), m = len(measured), with mu's digits in base 4 in measured
    order (measured[0] the most significant, 0 for the identity and 1, 2,
    3 for x, y, z), so with every qubit measured R_mu is the 1 x 1 number
    tr(rho sigma_mu). Each step is one matmul per matrix of the stack that
    contracts the (row, column) pairs of the next measured qubits with a
    Kronecker power of _PAULI_PAIR and rotates the new index to the back,
    so a matrix's blocks are the same floats whatever else the stack
    holds. The qubits go in ceil(m / 3) steps of near-equal size: at
    n = 3 one 64 x 64 step took 35 % less time than a 16 x 16 and a 4 x 4
    one, and at n = 4 two 16 x 16 steps beat 64 x 64 and 4 x 4 by 13 %.
    """
    s = len(matrices)
    m = len(measured)
    unmeasured = [i for i in range(n) if i not in measured]
    dim_u = 2 ** len(unmeasured)
    pairs = [axis for i in measured for axis in (1 + i, 1 + n + i)]
    t = np.asarray(matrices).reshape((s,) + (2,) * (2 * n))
    t = t.transpose([0] + pairs + [1 + i for i in unmeasured] + [1 + n + i for i in unmeasured])
    steps = -(-m // 3)
    for k in range(steps):
        step = _pauli_step(m // steps + (k < m % steps))
        t = (step @ t.reshape(s, len(step), -1)).swapaxes(1, 2)  # the next pairs lead, mu goes last
    return t.reshape(s, dim_u, dim_u, 4**m).transpose(0, 3, 1, 2)


def _pauli_matrix(c: np.ndarray, n: int) -> np.ndarray:
    """The 2^n-square matrix sum_mu c_mu sigma_mu of a 4^n-vector c, mu's digits as in _pauli_blocks.

    The inverse of _pauli_blocks with every qubit measured: _pauli_blocks
    of the result over 2^n gives back c. Each of n steps is one matmul
    with _PAULI_PAIR that moves the leading base-4 digit to the back as
    2r + c, holding sigma_mu[c, r]; the (c..., r...) bits are then
    transposed into (row, column). No Kronecker power of _PAULI_PAIR is
    built, so no 4^n-square table is cached.
    """
    t = np.asarray(c)
    for _ in range(n):
        t = t.reshape(4, -1).T @ _PAULI_PAIR
    d = 2**n
    return t.reshape((2,) * (2 * n)).transpose([*range(1, 2 * n, 2), *range(0, 2 * n, 2)]).reshape(d, d)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every qubit not listed in keep.

    The retained qubits stay in their original relative order, so
    keep={0, 2} on a 3-qubit state yields the (q0, q2) marginal. The
    result is the Hermitian part (t + t^dagger) / 2 of _marginal's array
    t, validated as a new DensityMatrix: t itself adds up the Hermiticity
    error of every entry of rho that a traced-out qubit sums, so a state
    DensityMatrix admits could fail at its own marginals. On an exactly
    Hermitian rho, t is exactly Hermitian and its Hermitian part is t,
    bit for bit. Keeping every qubit returns rho itself.
    """
    n = rho.num_qubits
    kept = sorted(set(_indices(keep, "keep must be a collection of qubit indices")))
    if not kept:
        raise ValueError("cannot trace out all qubits")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError("keep indices out of range")
    if len(kept) == n:
        return rho
    t = _marginal(rho.matrix, n, kept)
    return DensityMatrix((t + t.conj().T) / 2)


def permute_qubits(rho: DensityMatrix, order: Iterable[int]) -> DensityMatrix:
    """Reorder tensor factors so that new qubit k is old qubit order[k]."""
    n = rho.num_qubits
    order = _indices(order, "order must be a permutation of all qubit indices")
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all qubit indices")
    t = rho.matrix.reshape((2,) * (2 * n))
    axes = order + tuple(n + i for i in order)
    d = 2**n
    return DensityMatrix(t.transpose(axes).reshape(d, d))


def state_spectrum(rho: DensityMatrix) -> Spectrum:
    """Eigenvalue spectrum of a state, with eigensolver noise clipped to [0, 1].

    Uses the eigenvalues the DensityMatrix constructor already computed and
    checked against EIGENVALUE_FLOOR. The clipped values are divided by
    their sum: clipping many entries just below 0 up to 0 can add more than
    Spectrum.SUM_TOL to the total.
    """
    p = np.clip(rho.eigenvalues, 0.0, 1.0)
    return Spectrum(p / p.sum())
