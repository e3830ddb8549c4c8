"""Local projective measurements and the channels they induce.

A single-qubit measurement is a unit Bloch axis a; its projectors are
(I +/- a.sigma)/2. A product measurement applies one such pair per qubit.
Its 2^n outcome projectors are the columns of one unitary, the rotated
product basis W (the Kronecker product of the per-qubit eigenbases), so
the outcome probabilities are diag(W^dagger rho W) and the non-selective
channel sum_j P_j rho P_j is W diag(p) W^dagger. A ProductMeasurement
enters through _angles, which checks its arity against the state and
turns each axis into (theta, phi); apply_full, outcome_probabilities,
discord.induced_discord and the monogamy ledger all call it. Every
caller, the discord objective included, gets W through product_basis,
and the outcome probabilities of a full measurement from _diagonal.
apply_full is the only code that builds a measured DensityMatrix.

The outcome probabilities are diag(W^dagger (rho W)): the caller computes
rho W, one batched BLAS matmul, and _diagonal takes the column-wise
product with the conjugate of W summed down each column. That is O(d^2)
per basis after the matmul, where a 3-operand einsum over W^dagger, rho
and W costs O(d^3) complex products per basis in a C loop. The caller
keeps rho W: the discord objective reuses it for its gradient.

product_basis builds W one qubit at a time: the d x d basis so far and the
next qubit's 2 x 2 eigenbasis u are combined by a broadcast outer product,
(w[:, None, :, None] * u[None, :, None, :]).reshape(2d, 2d). That is the
Kronecker product w (x) u entry for entry, with the same single complex
multiplication per entry, without the per-call overhead of numpy's kron.
"""

from __future__ import annotations

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
)

__all__ = [
    "BlochMeasurement",
    "ProductMeasurement",
    "projectors",
    "product_basis",
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


def _basis_columns(theta, phi) -> np.ndarray:
    """2x2 unitaries whose columns are the +/- axis eigenvectors for (theta, phi).

    theta and phi have one shape; the result has that shape followed by
    (2, 2). With ct, st = cos, sin(theta/2) and cp, sp = cos, sin(phi) the
    unitary is [[ct, -st], [(cp + i sp) st, (cp + i sp) ct]].
    """
    half = np.divide(theta, 2.0)
    ct, st = np.cos(half), np.sin(half)
    cp, sp = np.cos(phi), np.sin(phi)
    u = np.zeros(ct.shape + (2, 2, 2))  # real and imaginary parts
    u[..., 0, 0, 0] = ct
    u[..., 0, 1, 0] = -st
    u[..., 1, 0, 0] = cp * st
    u[..., 1, 0, 1] = sp * st
    u[..., 1, 1, 0] = cp * ct
    u[..., 1, 1, 1] = sp * ct
    return u.view(complex)[..., 0]


def product_basis(angles) -> np.ndarray:
    """Rotated product bases W for angles (..., theta_0, phi_0, theta_1, phi_1, ...).

    Takes angles of shape (..., 2m) and returns W of shape (..., 2^m, 2^m),
    one basis per leading index. Column j of W is the common eigenvector of
    outcome j, with qubit 0 as the high bit of j and bit value 0 for the +
    outcome, so the outcome projectors are the rank-1
    P_j = W[:, j] W[:, j]^dagger.
    """
    a = np.asarray(angles, dtype=float)
    u = _basis_columns(a[..., 0::2], a[..., 1::2])
    w = u[..., 0, :, :]
    for j in range(1, u.shape[-3]):
        d = w.shape[-1]
        w = (w[..., :, None, :, None] * u[..., j, None, :, None, :]).reshape(
            a.shape[:-1] + (2 * d, 2 * d)
        )
    return w


def _angles(phi: ProductMeasurement, n: int) -> list[float]:
    """phi's axes as (theta_0, phi_0, theta_1, phi_1, ...) for an n-qubit state."""
    if len(phi) != n:
        raise ValueError(f"measurement arity {len(phi)} does not match qubit count {n}")
    angles = []
    for m in phi.per_qubit:
        a1, a2, a3 = m.axis
        angles += (math.atan2(math.hypot(a1, a2), a3), math.atan2(a2, a1))
    return angles


def _diagonal(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diag(W^dagger X) for bases w and products x = rho W, both of shape (..., d, d).

    The result has shape (..., d) and is complex; its real part is the
    outcome probabilities. Every basis of a batch gets the same floats as
    it would alone.
    """
    return (w.conj() * x).sum(axis=-2)


def apply_full(phi: ProductMeasurement, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective product measurement sum_j P_j rho P_j = W diag(p) W^dagger."""
    w = product_basis(_angles(phi, rho.num_qubits))
    return DensityMatrix((w * _diagonal(w, rho.matrix @ w).real) @ w.conj().T)


def outcome_probabilities(phi: ProductMeasurement, rho: DensityMatrix) -> np.ndarray:
    """Probabilities of the 2^n outcomes, indexed with qubit 0 as the high bit."""
    w = product_basis(_angles(phi, rho.num_qubits))
    return _diagonal(w, rho.matrix @ w).real
