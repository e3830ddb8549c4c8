"""End-to-end acceptance run: ten pinned checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also asserts, so a plain pytest run still gates on them.
"""

import json
import math

import numpy as np

from qdiscord.analytic import (
    pauli_diagonal_gqd,
    werner_ghz_gqd,
    werner_ghz_measured_spectrum,
    werner_ghz_optimal_measured_spectrum,
)
from qdiscord.cli import main
from qdiscord.discord import OptimizerConfig, q_gqd, q_gqd_many, q_qd_one_sided_many
from qdiscord.entropy import majorizes, tsallis_entropy_probs
from qdiscord.linalg import DensityMatrix, permute_qubits
from qdiscord.measurement import BlochMeasurement, ProductMeasurement
from qdiscord.monogamy import bros_counterexample_audit, decompose_induced_gqd
from qdiscord.states import (
    alpha_state,
    haar_random_unitary,
    pauli_diagonal_state,
    random_density_matrix,
    random_pauli_diagonal_coefficients,
    werner_ghz,
)

Q_GRID = (0.3, 0.5, 0.8, 0.99)

# Ensemble-size criteria use a lighter search: every objective evaluation is
# itself a valid induced discord, so a sampled minimum only ever sits above
# the true minimum and the nonnegativity floor stays meaningful.
LIGHT = OptimizerConfig(starts=4, max_evals=400)


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"{'[PASS]' if ok else '[FAIL]'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_axes(rng, n):
    v = rng.normal(size=(n, 3))
    return ProductMeasurement(
        BlochMeasurement(row / np.linalg.norm(row)) for row in v
    )


def test_criterion_01_ghz_family_closed_form_matches_optimizer():
    worst = 0.0
    for n in (2, 3):
        for mu in (0.2, 0.5, 0.8):
            rho = werner_ghz(n, mu)
            for q in Q_GRID:
                closed = werner_ghz_gqd(n, mu, q).value
                numeric = q_gqd(rho, q).value
                worst = max(worst, abs(closed - numeric))
    _criterion(
        1,
        worst <= 1e-5,
        f"GHZ-dilution closed form vs optimizer worst gap {worst:.3e} (limit 1e-05)",
    )


def test_criterion_02_pauli_family_closed_form_matches_optimizer():
    worst = 0.0
    cases = []
    for alpha in (0.3, 0.58):
        cases.append((2, (alpha, -alpha, 2.0 * alpha - 1.0)))
    for n in (2, 3):
        for i in range(10):
            cases.append((n, random_pauli_diagonal_coefficients(n, seed=100 * n + i)))
    for n, (c1, c2, c3) in cases:
        rho = pauli_diagonal_state(n, c1, c2, c3)
        for q in Q_GRID:
            closed = pauli_diagonal_gqd(n, c1, c2, c3, q).value
            numeric = q_gqd(rho, q).value
            worst = max(worst, abs(closed - numeric))
    _criterion(
        2,
        worst <= 1e-5,
        f"Pauli-diagonal closed form vs optimizer worst gap {worst:.3e} "
        f"over {len(cases)} coefficient sets including both alpha states (limit 1e-05)",
    )


def test_criterion_03_discord_nonnegative_for_q_at_most_one():
    rng = np.random.default_rng(0)
    q_grid = (0.25, 0.5, 0.75, 1.0)
    min_gqd = math.inf
    min_one_sided = math.inf
    for count, n in ((200, 2), (100, 3)):
        rhos = [random_density_matrix(n, rng) for _ in range(count)]
        jobs = [(rho, q) for rho in rhos for q in q_grid]
        for report in q_gqd_many(jobs, LIGHT):
            min_gqd = min(min_gqd, report.raw_value)
        for report in q_qd_one_sided_many(jobs, (n - 1,), LIGHT):
            min_one_sided = min(min_one_sided, report.raw_value)
    ok = min_gqd >= -1e-8 and min_one_sided >= -1e-8
    _criterion(
        3,
        ok,
        f"raw minima over 300 states x 4 q values: q_gqd {min_gqd:.3e}, "
        f"one-sided {min_one_sided:.3e} (floor -1e-08)",
    )


def test_criterion_04_telescoping_identity_residual():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        rho = random_density_matrix(3, rng)
        phi = _random_axes(rng, 3)
        for q in (0.5, 1.0):
            ledger = decompose_induced_gqd(rho, phi, q)
            worst = max(worst, abs(ledger.residual))
    _criterion(
        4,
        worst <= 1e-9,
        f"decomposition residual worst {worst:.3e} over 100 pairs (limit 1e-09)",
    )


def test_criterion_05_counterexample_audit_across_q():
    results = []
    for q in (0.5, 0.9, 1.0 - 1e-6):
        audit = bros_counterexample_audit(q)
        results.append(audit.passed)
    ok = all(results)
    _criterion(
        5,
        ok,
        "counterexample audit (vanishing cut and (0,2) discord, nonzero (0,1), "
        f"whole matches pairwise) at q in {{0.5, 0.9, 1-1e-6}}: {results}",
    )


def test_criterion_06_all_z_spectrum_is_majorization_ceiling():
    rng = np.random.default_rng(2)
    optimal = werner_ghz_optimal_measured_spectrum(3, 0.5)
    h_opt = {q: tsallis_entropy_probs(optimal, q) for q in (0.5, 2.0)}
    maj_ok = True
    order_ok = True
    for _ in range(50):
        phi = _random_axes(rng, 3)
        spectrum = werner_ghz_measured_spectrum(0.5, phi)
        maj_ok = maj_ok and majorizes(spectrum, optimal)
        for q in (0.5, 2.0):
            if tsallis_entropy_probs(spectrum, q) < h_opt[q] - 1e-9:
                order_ok = False
    _criterion(
        6,
        maj_ok and order_ok,
        f"50 axis tuples: majorized by all-z vector {maj_ok}, "
        f"entropy ordering at q in {{0.5, 2}} {order_ok}",
    )


def test_criterion_07_correlation_product_bound():
    rng = np.random.default_rng(3)
    worst_excess = -math.inf
    for i in range(50):
        c1, c2, c3 = random_pauli_diagonal_coefficients(3, seed=300 + i)
        prods = np.ones(3)
        for _ in range(3):
            v = rng.normal(size=3)
            prods *= v / np.linalg.norm(v)
        total = c1 * prods[0] + c2 * prods[1] + c3 * prods[2]
        worst_excess = max(worst_excess, abs(total) - max(abs(c1), abs(c2), abs(c3)))
    _criterion(
        7,
        worst_excess <= 1e-12,
        f"50 axis tuples: |c.prod| minus max|c_i| peaks at {worst_excess:.3e} "
        "(limit 1e-12)",
    )


def test_criterion_08_default_sweep_difference_changes_sign(capsys):
    # Every cell is also checked against the alpha-state closed form,
    # pauli_diagonal_gqd(2, a, -a, 2a - 1, q), at the oracle bound.
    code = main(["sweep"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "q,alpha:0.58,alpha:0.3,difference"
    alphas = [float(name.split(":")[1]) for name in rows[0].split(",")[1:-1]]
    cells = [[float(field) for field in row.split(",")] for row in rows[1:]]
    assert len(cells) == 19
    differences = [row[-1] for row in cells]
    gap = max(
        abs(value - pauli_diagonal_gqd(2, a, -a, 2.0 * a - 1.0, row[0]).value)
        for row in cells
        for a, value in zip(alphas, row[1:-1])
    )
    has_positive = any(d > 0.0 for d in differences)
    has_negative = any(d < 0.0 for d in differences)
    _criterion(
        8,
        has_positive and has_negative and gap <= 1e-5,
        f"default sweep difference column spans both signs "
        f"(min {min(differences):.3e}, max {max(differences):.3e}); "
        f"worst cell against the closed form {gap:.3e} (limit 1e-05)",
    )


def test_criterion_09_q_to_one_recovers_limit():
    worst = 0.0
    for i in range(20):
        rho = random_density_matrix(2, seed=400 + i)
        near = q_gqd(rho, 1.0 - 1e-4).value
        exact = q_gqd(rho, 1.0).value
        worst = max(worst, abs(near - exact))
    _criterion(
        9,
        worst <= 1e-3,
        f"|q_gqd(1-1e-4) - q_gqd(1)| worst {worst:.3e} over 20 states (limit 1e-03)",
    )


def test_criterion_10_permutation_and_local_unitary_invariance():
    worst = 0.0
    for i in range(20):
        rho = random_density_matrix(2, seed=500 + i)
        base = q_gqd(rho, 0.5).value
        swapped = q_gqd(permute_qubits(rho, (1, 0)), 0.5).value
        u = np.kron(
            haar_random_unitary(2, seed=600 + i), haar_random_unitary(2, seed=700 + i)
        )
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        local = q_gqd(rotated, 0.5).value
        worst = max(worst, abs(base - swapped), abs(base - local))
    _criterion(
        10,
        worst <= 2e-5,
        f"permutation and local-unitary drift worst {worst:.3e} over 20 states "
        "(limit 2e-05)",
    )
