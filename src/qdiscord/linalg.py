"""Dense tensor-product linear algebra for small multi-qubit systems.

Everything here works on explicit 2**n x 2**n complex arrays with qubit 0
as the most significant tensor factor, so index bit i of a basis label is
the computational-basis value of qubit i.
"""

from __future__ import annotations

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
