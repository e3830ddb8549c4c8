"""Local projective measurements and the channels they induce.

A single-qubit measurement is a unit Bloch axis a; its projectors are
(I +/- a.sigma)/2. A product measurement applies one such pair per qubit.
Its 2^n outcome projectors are the columns of one unitary, the rotated
product basis W (the Kronecker product of the per-qubit eigenbases), so
the outcome probabilities are diag(W^dagger rho W) and the non-selective
channel sum_j P_j rho P_j is W diag(p) W^dagger. Every caller, the discord
objective included, gets the measured state through product_basis.

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
        if abs(np.linalg.norm(a) - 1.0) > self.UNIT_TOL:
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
        return cls((m,) * int(n))

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


def _basis_columns(theta: float, phi: float) -> np.ndarray:
    """2x2 unitary whose columns are the +/- axis eigenvectors for (theta, phi)."""
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ph = complex(math.cos(phi), math.sin(phi))
    return np.array([[ct, -st], [ph * st, ph * ct]], dtype=complex)


def product_basis(angles) -> np.ndarray:
    """Rotated product basis W for angles (theta_0, phi_0, theta_1, phi_1, ...).

    Column j of W is the common eigenvector of outcome j, with qubit 0 as
    the high bit of j and bit value 0 for the + outcome, so the outcome
    projectors are the rank-1 P_j = W[:, j] W[:, j]^dagger.
    """
    w = _basis_columns(angles[0], angles[1])
    for j in range(2, len(angles), 2):
        u = _basis_columns(angles[j], angles[j + 1])
        d = w.shape[0]
        w = (w[:, None, :, None] * u[None, :, None, :]).reshape(2 * d, 2 * d)
    return w


def _measured_basis(phi: ProductMeasurement, rho: DensityMatrix) -> np.ndarray:
    if len(phi) != rho.num_qubits:
        raise ValueError(
            f"measurement arity {len(phi)} does not match qubit count {rho.num_qubits}"
        )
    angles = []
    for m in phi.per_qubit:
        a1, a2, a3 = m.axis
        angles += (math.atan2(math.hypot(a1, a2), a3), math.atan2(a2, a1))
    return product_basis(angles)


def _probabilities(w: np.ndarray, rho: DensityMatrix) -> np.ndarray:
    return np.einsum("aj,ab,bj->j", w.conj(), rho.matrix, w).real


def apply_full(phi: ProductMeasurement, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective product measurement sum_j P_j rho P_j = W diag(p) W^dagger."""
    w = _measured_basis(phi, rho)
    return DensityMatrix((w * _probabilities(w, rho)) @ w.conj().T)


def outcome_probabilities(phi: ProductMeasurement, rho: DensityMatrix) -> np.ndarray:
    """Probabilities of the 2^n outcomes, indexed with qubit 0 as the high bit."""
    return _probabilities(_measured_basis(phi, rho), rho)
