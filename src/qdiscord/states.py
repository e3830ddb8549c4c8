"""Constructors for the density matrices this package studies.

Covers the GHZ-diluted family, the Pauli-diagonal family (including the
two-qubit alpha states), random Hilbert-Schmidt states, and a JSON state
file format shared with the command-line interface.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .linalg import (
    DESK_SCALE_LIMIT,
    DensityMatrix,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _index,
    kron_all,
)

__all__ = [
    "StateFormatError",
    "werner_ghz",
    "pauli_diagonal_state",
    "alpha_state",
    "bros_counterexample",
    "random_density_matrix",
    "random_pauli_diagonal_coefficients",
    "haar_random_unitary",
    "state_to_json_dict",
    "state_from_json_dict",
    "save_state",
    "load_state",
]


class StateFormatError(ValueError):
    """Raised when a state file or JSON payload is structurally malformed."""


def _check_n(n: int) -> int:
    n = _index(n, "qubit count")
    if n < 2:
        raise ValueError("family requires at least two qubits")
    return n


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mixing weight mu must lie in [0, 1]")
    return mu


def werner_ghz(n: int, mu: float) -> DensityMatrix:
    """GHZ state diluted by white noise: (1-mu) I/2^n + mu |GHZ_n><GHZ_n|."""
    n = _check_n(n)
    mu = _check_mu(mu)
    d = 2**n
    m = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(m, (1.0 - mu) / d)
    half = mu / 2.0
    m[0, 0] += half
    m[-1, -1] += half
    m[0, -1] += half
    m[-1, 0] += half
    return DensityMatrix(m)


def pauli_diagonal_state(n: int, c1: float, c2: float, c3: float) -> DensityMatrix:
    """n-qubit state (I + c1 X^n + c2 Y^n + c3 Z^n) / 2^n.

    X^n is shorthand for the n-fold tensor power of sigma_x, and so on.
    The coefficient vector must satisfy sqrt(c1^2+c2^2+c3^2) <= 1 and the
    resulting matrix must be positive semidefinite (the norm bound alone
    is not enough at even n).
    """
    n = _check_n(n)
    c1, c2, c3 = float(c1), float(c2), float(c3)
    if math.sqrt(c1 * c1 + c2 * c2 + c3 * c3) > 1.0 + 1e-12:
        raise ValueError("parameters outside state space")
    d = 2**n
    m = np.eye(d, dtype=complex)
    m += c1 * kron_all(*([SIGMA_X] * n))
    m += c2 * kron_all(*([SIGMA_Y] * n))
    m += c3 * kron_all(*([SIGMA_Z] * n))
    m /= d
    try:
        return DensityMatrix(m)
    except ValueError as exc:
        raise ValueError("parameters outside state space") from exc


def alpha_state(alpha: float) -> DensityMatrix:
    """Two-qubit Pauli-diagonal state with c = (alpha, -alpha, 2 alpha - 1)."""
    alpha = float(alpha)
    return pauli_diagonal_state(2, alpha, -alpha, 2.0 * alpha - 1.0)


def bros_counterexample() -> DensityMatrix:
    """Three-qubit mixture (|000><000| + |1+1><1+1|) / 2 with |+> = (|0>+|1>)/sqrt(2).

    Its qubit-0 vs rest split carries no discord while the (0,1) marginal
    does, which makes it the stock probe for monogamy edge cases.
    """
    v1 = np.zeros(8, dtype=complex)
    v1[0] = 1.0
    v2 = np.zeros(8, dtype=complex)
    v2[5] = 1.0 / math.sqrt(2.0)
    v2[7] = 1.0 / math.sqrt(2.0)
    m = 0.5 * (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))
    return DensityMatrix(m)


def random_density_matrix(n: int, seed=None) -> DensityMatrix:
    """Hilbert-Schmidt random n-qubit state via a normalized Ginibre product.

    seed may be an int, None, or an existing numpy Generator.
    """
    n = _index(n, "qubit count")
    if not 1 <= n <= DESK_SCALE_LIMIT:
        raise ValueError(f"qubit count must be between 1 and {DESK_SCALE_LIMIT}")
    rng = np.random.default_rng(seed)
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityMatrix(m)


def random_pauli_diagonal_coefficients(n: int, seed=None) -> tuple[float, float, float]:
    """Draw (c1, c2, c3) uniformly from the cube, rejected until admissible."""
    n = _check_n(n)
    rng = np.random.default_rng(seed)
    while True:
        c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
        if math.sqrt(c1 * c1 + c2 * c2 + c3 * c3) > 1.0:
            continue
        try:
            pauli_diagonal_state(n, c1, c2, c3)
        except ValueError:
            continue
        return float(c1), float(c2), float(c3)


def haar_random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def state_to_json_dict(rho: DensityMatrix) -> dict:
    """Serialize a state as {"num_qubits": n, "matrix": [[[re, im], ...], ...]}."""
    matrix = [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in rho.matrix
    ]
    return {"num_qubits": rho.num_qubits, "matrix": matrix}


def _entry(pair) -> complex:
    """A [re, im] list of two JSON numbers as a complex; TypeError otherwise."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise TypeError("not a pair")
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
        raise TypeError("not a number")
    return complex(*pair)  # OverflowError for an int beyond float range


def state_from_json_dict(payload) -> DensityMatrix:
    """Rebuild a state from the JSON layout produced by state_to_json_dict.

    Structural problems raise StateFormatError; a structurally sound matrix
    that fails the density-matrix invariants raises plain ValueError.
    """
    if not isinstance(payload, dict):
        raise StateFormatError("state payload must be a JSON object")
    try:
        n = payload["num_qubits"]
        rows = payload["matrix"]
    except KeyError as exc:
        raise StateFormatError(f"state payload missing field {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StateFormatError("num_qubits must be a positive integer")
    try:
        m = np.asarray([[_entry(pair) for pair in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFormatError("matrix entries must be [re, im] pairs") from exc
    # n is compared with the matrix's own size before 2**n is formed: no
    # larger n can match, and 2**n of a huge n is slow to build and too
    # long to print.
    d = 2**n if n <= len(m).bit_length() + 1 else f"2**{n}"
    if m.shape != (d, d):
        raise StateFormatError(
            f"matrix must be {d}x{d} for num_qubits={n}, got {m.shape}"
        )
    return DensityMatrix(m)


def save_state(path, rho: DensityMatrix) -> None:
    """Write a state to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json_dict(rho), fh)
        fh.write("\n")


def load_state(path) -> DensityMatrix:
    """Read a state from a JSON file written by save_state (or by hand)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad syntax or encoding, an integer past Python's digit limit,
            # or nesting deeper than the decoder's recursion
            raise StateFormatError(f"not valid JSON: {exc}") from exc
    return state_from_json_dict(payload)
