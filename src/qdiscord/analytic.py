"""Closed-form global q-discord for the two exactly solvable families.

For both families every single-qubit marginal is I/2 and stays I/2 under
any product measurement, so the global quantity collapses to the entropy
gap min_Phi S_q(Phi(rho)) - S_q(rho); the minimum is known exactly. These
routes never touch the numerical optimizer, which makes them independent
oracles for it. pure_two_qubit_gqd adds a third, weaker one: an exact
value that two-qubit pure states reach at every q, a bound on the minimum.
one_sided_q2_qd is exact on every state: at q = 2 the one-sided discord of
one measured qubit is a 3 x 3 eigenvalue problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _check_q
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, TRACE_TOL, DensityMatrix, _index, _marginal
from .measurement import BlochMeasurement, ProductMeasurement
from .states import _check_mu, _check_n, pauli_diagonal_state

__all__ = [
    "ClosedFormResult",
    "werner_ghz_gqd",
    "pauli_diagonal_gqd",
    "pure_two_qubit_gqd",
    "one_sided_q2_qd",
    "optimal_measured_entropy",
    "werner_ghz_measured_spectrum",
    "werner_ghz_optimal_measured_spectrum",
    "pauli_diagonal_measured_spectrum",
]


@dataclass(frozen=True)
class ClosedFormResult:
    """A closed-form value and the formula branch taken.

    Branch labels ending in "q1-limit" mark q == 1.0 exactly, where every
    x^q ln_q x is x ln x; the other labels cover every other q.
    """

    value: float
    branch: str


def _xq_lnq(x: float, q: float) -> float:
    """x**q * ln_q(x) = x expm1((q - 1) ln x) / (q - 1), and x ln x at q == 1.

    Accurate and continuous as q -> 1. x = 0 gives 0 for every q > 0, and
    so does x < 0, the eigenvalue noise the state gates admit. Kept apart
    from entropy._hq on purpose: the closed forms are its oracle.
    """
    if x <= 0.0:
        return 0.0
    ln_x = math.log(x)
    if q == 1.0:
        return x * ln_x
    return x * math.expm1((q - 1.0) * ln_x) / (q - 1.0)


def werner_ghz_gqd(n: int, mu: float, q: float) -> ClosedFormResult:
    """Global q-discord of the GHZ-dilution state, no optimizer involved.

    Three-term expression in A = (1-mu)/2^n + mu, B = (1-mu)/2^n and
    C = (1-mu)/2^n + mu/2: value = A^q ln_q A + B^q ln_q B - 2 C^q ln_q C,
    each term evaluated by _xq_lnq.
    """
    q = _check_q(q)
    n = _check_n(n)
    mu = _check_mu(mu)
    d = 2**n
    a = (1.0 - mu) / d + mu
    b = (1.0 - mu) / d
    c = (1.0 - mu) / d + mu / 2.0
    value = _xq_lnq(a, q) + _xq_lnq(b, q) - 2.0 * _xq_lnq(c, q)
    return ClosedFormResult(value, "q1-limit" if q == 1.0 else "generic")


def _pauli_lambdas(n: int, c1: float, c2: float, c3: float) -> list[float]:
    """The four eigenvalue numerators 2^n * lambda for even n."""
    s = (-1) ** (n // 2)
    return [
        1.0 + c3 + (c1 + s * c2),
        1.0 + c3 - (c1 + s * c2),
        1.0 - c3 + (c1 - s * c2),
        1.0 - c3 - (c1 - s * c2),
    ]


def pauli_diagonal_gqd(
    n: int, c1: float, c2: float, c3: float, q: float
) -> ClosedFormResult:
    """Global q-discord of the Pauli-diagonal family, no optimizer involved.

    The optimal measured spectrum is {(1 +/- c)/2^n}, c = max |c_i|, each
    with multiplicity 2^(n-1); subtracting the state entropy gives, for odd
    n with d = |c|_2,

        -(2^(n-1)/(q-1)) [((1+c)/2^n)^q + ((1-c)/2^n)^q
                          - ((1+d)/2^n)^q - ((1-d)/2^n)^q]

    and for even n the analogous expression with the four exact eigenvalues
    lambda_j/2^n of the state, each carrying multiplicity 2^(n-2). For n = 2
    it is also the one-sided q-discord with either qubit measured, since
    measuring one qubit along a unit axis m leaves the spectrum
    (1 +/- |(c1 m1, c2 m2, c3 m3)|)/4, each value twice, and both
    marginals at I/2. Both sums of x^q ln_q x terms go through _xq_lnq,
    and the measured term is optimal_measured_entropy's.
    """
    q = _check_q(q)
    n, c1, c2, c3 = _pauli_params(n, c1, c2, c3)
    dim = 2**n
    suffix = "-q1-limit" if q == 1.0 else ""
    measured = _measured_entropy(n, c1, c2, c3, q)
    if n % 2 == 1:
        d = math.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
        state = _xq_lnq((1.0 + d) / dim, q) + _xq_lnq((1.0 - d) / dim, q)
        return ClosedFormResult(2 ** (n - 1) * state + measured, "odd-n" + suffix)
    state = sum(_xq_lnq(lam / dim, q) for lam in _pauli_lambdas(n, c1, c2, c3))
    return ClosedFormResult(2 ** (n - 2) * state + measured, "even-n" + suffix)


def _bloch_axis(u: np.ndarray) -> tuple[float, float, float]:
    """The Bloch axis a of a unit 2-vector u, |u><u| = (I + a.sigma)/2."""
    cross = np.conj(u[0]) * u[1]
    return 2.0 * cross.real, 2.0 * cross.imag, abs(u[0]) ** 2 - abs(u[1]) ** 2


def pure_two_qubit_gqd(psi, q: float) -> tuple[float, ProductMeasurement]:
    """S_q(lambda) of a two-qubit pure state and the Schmidt-basis measurement that gives it.

    psi holds the 4 amplitudes (qubit 0 the high bit), unit norm to 1e-10.
    Its 2 x 2 amplitude matrix has the SVD U diag(s) V^dagger, so psi =
    sum_k s_k |u_k> (x) |w_k>, w_k the k-th row of V^dagger: the Schmidt
    form, with Schmidt probabilities lambda = s^2. No optimizer is used.

    Proved, at every q > 0: rho = |psi><psi| is pure and both marginals
    have spectrum lambda, so I_q(rho) = 2 S_q(lambda). Measuring qubit 0
    along u_0's Bloch axis and qubit 1 along w_0's gives the outcome
    probabilities (lambda_0, 0, 0, lambda_1), whose marginals are lambda
    again, so I_q(Phi(rho)) = S_q(lambda) and the returned measurement's
    drop is S_q(lambda). Every measurement's drop bounds the minimum from
    above, so a global q-discord above this value is a proven miss.

    Only measured: that it is the minimum. On 40 random states a 256-start
    search agreed with it to 5e-11 at q = 0.25, 0.5, 0.75 and 1; at q = 1
    this is the known result that a pure state's discord is its
    entanglement entropy. Above q = 1 the minimum lies below it (by up to
    0.28 at q = 3), and at q = 0.05 and 0.1 even 256 starts stayed above
    it, so there nothing is known either way.
    """
    q = _check_q(q)
    psi = np.array(psi, dtype=complex)
    if psi.shape != (4,) or not np.isfinite(psi).all():
        raise ValueError("a two-qubit pure state is 4 finite amplitudes")
    if not abs(np.vdot(psi, psi).real - 1.0) <= TRACE_TOL:
        raise ValueError("a pure state must have unit norm")
    u, s, vh = np.linalg.svd(psi.reshape(2, 2))
    lam = s * s
    value = -(_xq_lnq(float(lam[0]), q) + _xq_lnq(float(lam[1]), q))
    measurement = ProductMeasurement(BlochMeasurement(_bloch_axis(v)) for v in (u[:, 0], vh[0]))
    return value, measurement


def one_sided_q2_qd(rho: DensityMatrix, qubit: int) -> tuple[float, BlochMeasurement]:
    """The one-sided q = 2 discord of rho with only qubit measured, and an axis that attains it.

    No optimizer is used. Write rho = (1/2) sum_mu sigma_mu (x) R_mu over
    the measured qubit's Pauli matrices, R_mu = tr_k[(sigma_mu (x) I) rho]
    its Pauli blocks, each the partial trace (linalg._marginal) of rho with
    sigma_mu applied to qubit k's row index, so R_0 = rho_rest, and let
    G_ij = tr(R_i R_j) and r_i = tr R_i for i = 1..3 (r is the measured
    qubit's Bloch vector). Measuring along the unit axis n leaves the
    blocks B_+/- = (R_0 +/- n.R)/2 beside the projectors, with
    probabilities p_+/- = (1 +/- n.r)/2. With S_2(x) = 1 - tr x^2 and the
    parties (rest, qubit), rho_rest is untouched, and

        tr Phi(rho)^2 = tr B_+^2 + tr B_-^2 = (tr R_0^2 + n^T G n)/2,
        S_2(p) = 1 - p_+^2 - p_-^2 = (1 - (n.r)^2)/2,

    so the drop I_2(rho) - I_2(Phi(rho)) is

        I_2(rho) + 1/2 - tr(R_0^2)/2 - S_2(rho_rest) + n^T (r r^T - G) n / 2,

    least at the eigenvector of r r^T - G's smallest eigenvalue lambda_min,
    where it is I_2(rho) + 1/2 - tr(R_0^2)/2 - S_2(rho_rest) + lambda_min/2.
    The purities are sums of squared moduli and lambda_min comes from
    numpy's eigh, none of them from the entropy, Pauli-transform
    (linalg._pauli_blocks) or objective code.
    """
    n = rho.num_qubits
    k = _index(qubit, "qubit index")
    if n < 2 or not 0 <= k < n:
        raise ValueError("the measured qubit must be one of at least two qubits")
    rest = [i for i in range(n) if i != k]
    rows = rho.matrix.reshape(2**k, 2, -1)  # qubit k's row bit in the middle
    paulis = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
    blocks = np.array([_marginal((sigma @ rows).reshape(2**n, 2**n), n, rest) for sigma in paulis])
    gram = np.einsum("iab,jba->ij", blocks[1:], blocks[1:]).real
    r = np.einsum("iaa->i", blocks[1:]).real
    purity_rest = float(np.vdot(blocks[0], blocks[0]).real)
    purity = float(np.vdot(rho.matrix, rho.matrix).real)
    # I_2(rho) with S_2(rho_k) = (1 - |r|^2)/2 for the measured qubit's marginal
    mutual = (1.0 - purity_rest) + (1.0 - r @ r) / 2.0 - (1.0 - purity)
    eigenvalues, vectors = np.linalg.eigh(np.outer(r, r) - gram)
    value = mutual + 0.5 - purity_rest / 2.0 - (1.0 - purity_rest) + eigenvalues[0] / 2.0
    return float(value), BlochMeasurement(vectors[:, 0] / np.linalg.norm(vectors[:, 0]))


def _pauli_params(n, c1, c2, c3) -> tuple[int, float, float, float]:
    """n and the c_i as numbers, once pauli_diagonal_state's full admissibility gate passes."""
    pauli_diagonal_state(n, c1, c2, c3)
    return _check_n(n), float(c1), float(c2), float(c3)


def _measured_entropy(n: int, c1: float, c2: float, c3: float, q: float) -> float:
    """S_q of the spectrum (1 +/- c)/2^n, each 2^(n-1) times, c = max |c_i|; no gates."""
    c = max(abs(c1), abs(c2), abs(c3))
    dim = 2**n
    return -(2 ** (n - 1)) * (_xq_lnq((1.0 + c) / dim, q) + _xq_lnq((1.0 - c) / dim, q))


def optimal_measured_entropy(n: int, c1: float, c2: float, c3: float, q: float) -> float:
    """Minimal measured-state entropy min_Phi S_q(Phi(rho)) for the Pauli family.

    Attained with every qubit measured along the axis of the largest |c_i|;
    the measured spectrum is (1 +/- c)/2^n with multiplicity 2^(n-1) each.
    """
    q = _check_q(q)
    return _measured_entropy(*_pauli_params(n, c1, c2, c3), q)


def werner_ghz_measured_spectrum(mu: float, phi: ProductMeasurement) -> np.ndarray:
    """Predicted spectrum of the measured GHZ-dilution state, one value per outcome.

    For axes (a_i, b_i, g_i) and outcome bits m, the eigenvalue is
    (1-mu)/2^n + (mu/2) [prod (1+s_i g_i)/2 + prod (1-s_i g_i)/2
                         + 2 Re prod s_i (a_i - i b_i)/2],  s_i = (-1)^m_i,

    which follows from <0| (I + s a.sigma)/2 |1> = s (a - i b)/2. The values
    are exactly the outcome probabilities since the measured state is
    diagonal in the measurement basis.
    """
    mu = _check_mu(mu)
    n = _check_n(len(phi))
    axes = [m.axis for m in phi]
    out = np.empty(2**n)
    for idx in range(2**n):
        plus = 1.0
        minus = 1.0
        cross = 1.0 + 0.0j
        for i, (a, b, g) in enumerate(axes):
            s = -1.0 if (idx >> (n - 1 - i)) & 1 else 1.0
            plus *= (1.0 + s * g) / 2.0
            minus *= (1.0 - s * g) / 2.0
            cross *= s * (a - 1j * b) / 2.0
        out[idx] = (1.0 - mu) / 2**n + (mu / 2.0) * (plus + minus + 2.0 * cross.real)
    return out


def werner_ghz_optimal_measured_spectrum(n: int, mu: float) -> np.ndarray:
    """Spectrum of the all-z measured GHZ-dilution state: the majorization ceiling.

    Two entries (1-mu)/2^n + mu/2 and 2^n - 2 entries (1-mu)/2^n; every
    other product measurement yields a spectrum majorized by this one.
    """
    n = _check_n(n)
    mu = _check_mu(mu)
    d = 2**n
    out = np.full(d, (1.0 - mu) / d)
    out[:2] += mu / 2.0
    return out


def pauli_diagonal_measured_spectrum(
    n: int, c1: float, c2: float, c3: float, phi: ProductMeasurement
) -> np.ndarray:
    """Predicted measured-state spectrum (1 +/- t)/2^n for the Pauli family.

    t = c1 prod a_i + c2 prod b_i + c3 prod g_i over the measurement axes;
    each sign carries multiplicity 2^(n-1). |t| never exceeds max |c_i|.
    """
    n, c1, c2, c3 = _pauli_params(n, c1, c2, c3)
    if len(phi) != n:
        raise ValueError(
            f"measurement arity {len(phi)} does not match qubit count {n}"
        )
    pa = pb = pg = 1.0
    for m in phi:
        a, b, g = m.axis
        pa *= a
        pb *= b
        pg *= g
    t = c1 * pa + c2 * pb + c3 * pg
    d = 2**n
    half = 2 ** (n - 1)
    return np.concatenate(
        [np.full(half, (1.0 + t) / d), np.full(half, (1.0 - t) / d)]
    )
