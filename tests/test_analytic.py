import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord.analytic import (
    ClosedFormResult,
    _pauli_lambdas,
    one_sided_q2_qd,
    optimal_measured_entropy,
    pauli_diagonal_gqd,
    pauli_diagonal_measured_spectrum,
    pure_two_qubit_gqd,
    werner_ghz_gqd,
    werner_ghz_measured_spectrum,
    werner_ghz_optimal_measured_spectrum,
)
from qdiscord.discord import OptimizerConfig, _evaluate, induced_discord, q_gqd, q_qd_one_sided, q_qd_one_sided_many
from qdiscord.entropy import majorizes, tsallis_entropy, tsallis_entropy_probs
from qdiscord.linalg import DensityMatrix, Spectrum, state_spectrum
from qdiscord.measurement import (
    BlochMeasurement,
    ProductMeasurement,
    _angles,
    apply_full,
    outcome_probabilities,
)
from qdiscord.states import (
    pauli_diagonal_state,
    random_density_matrix,
    random_pauli_diagonal_coefficients,
    werner_ghz,
)


def random_product_measurement(rng, n):
    v = rng.normal(size=(n, 3))
    return ProductMeasurement(
        BlochMeasurement(row / np.linalg.norm(row)) for row in v
    )


class TestWernerGhzClosedForm:
    def test_frozen_value(self):
        # n=2, mu=0.5, q=0.5: with a=0.625, b=0.125, c=0.375 and
        # t(x) = (x - sqrt(x)) / 0.5 the value is t(a) + t(b) - 2 t(c).
        result = werner_ghz_gqd(2, 0.5, 0.5)
        assert_allclose(result.value, 0.16124413151244065, atol=1e-12)
        assert result.branch == "generic"

    def test_q_one_limit_hand_value(self):
        a, b, c = 0.625, 0.125, 0.375
        expected = a * np.log(a) + b * np.log(b) - 2.0 * c * np.log(c)
        result = werner_ghz_gqd(2, 0.5, 1.0)
        assert_allclose(result.value, expected, atol=1e-12)
        assert result.branch == "q1-limit"

    def test_generic_formula_recomputed(self):
        for n, mu, q in ((2, 0.2, 0.3), (3, 0.8, 0.8), (4, 0.5, 2.0)):
            d = 2**n
            a = (1.0 - mu) / d + mu
            b = (1.0 - mu) / d
            c = (1.0 - mu) / d + mu / 2.0
            t = lambda x: (x - x**q) / (1.0 - q)
            expected = t(a) + t(b) - 2.0 * t(c)
            assert_allclose(werner_ghz_gqd(n, mu, q).value, expected, atol=1e-12)

    def test_endpoints_vanish(self):
        for q in (0.5, 1.0, 2.0):
            assert_allclose(werner_ghz_gqd(3, 0.0, q).value, 0.0, atol=1e-12)

    def test_continuity_at_q_one(self):
        near = werner_ghz_gqd(3, 0.6, 1.0 - 1e-7).value
        exact = werner_ghz_gqd(3, 0.6, 1.0).value
        assert abs(near - exact) <= 1e-5

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="at least two"):
            werner_ghz_gqd(1, 0.5, 0.5)
        with pytest.raises(ValueError, match="mixing weight"):
            werner_ghz_gqd(2, 1.5, 0.5)
        with pytest.raises(ValueError, match="positive real"):
            werner_ghz_gqd(2, 0.5, 0.0)

    def test_matches_optimizer(self):
        value = werner_ghz_gqd(2, 0.5, 0.5).value
        report = q_gqd(werner_ghz(2, 0.5), 0.5)
        assert abs(value - report.value) <= 1e-5

    def test_one_sided_matches_optimizer(self):
        # Measuring any one qubit gives the all-z ceiling spectrum on every
        # axis and leaves both marginals unchanged, so the one-sided value
        # is the global closed form.
        opt = OptimizerConfig(starts=8, max_evals=800)
        worst = 0.0
        for n in (3, 4):
            for mu in (0.2, 0.6, 0.95):
                rho = werner_ghz(n, mu)
                for q in (0.5, 1.0, 2.0):
                    value = werner_ghz_gqd(n, mu, q).value
                    for k in range(n):
                        report = q_qd_one_sided(rho, (k,), q, opt)
                        worst = max(worst, abs(value - report.value))
        assert worst <= 1e-5


class TestPauliLambdas:
    def test_two_qubit_spectrum(self):
        c1, c2, c3 = 0.3, -0.2, 0.4
        lams = sorted(_pauli_lambdas(2, c1, c2, c3), reverse=True)
        expected = np.repeat(np.array(lams) / 4.0, 1)
        s = state_spectrum(pauli_diagonal_state(2, c1, c2, c3))
        assert_allclose(s.probs, expected, atol=1e-14)

    def test_four_qubit_spectrum(self):
        c1, c2, c3 = 0.25, 0.15, -0.3
        lams = sorted(_pauli_lambdas(4, c1, c2, c3), reverse=True)
        expected = np.repeat(np.array(lams) / 16.0, 4)
        s = state_spectrum(pauli_diagonal_state(4, c1, c2, c3))
        assert_allclose(s.probs, expected, atol=1e-14)


class TestPauliClosedForm:
    def test_entropy_gap_identity(self):
        # The closed form must equal the measured-entropy minimum minus the
        # state entropy, both computed by their own formulas.
        for n in (2, 3, 4):
            for i in range(3):
                c1, c2, c3 = random_pauli_diagonal_coefficients(n, seed=10 * n + i)
                rho = pauli_diagonal_state(n, c1, c2, c3)
                for q in (0.4, 0.9, 1.0, 1.7):
                    gap = optimal_measured_entropy(n, c1, c2, c3, q) - tsallis_entropy(
                        rho, q
                    )
                    value = pauli_diagonal_gqd(n, c1, c2, c3, q).value
                    assert_allclose(value, gap, atol=1e-10)

    def test_branch_labels(self):
        assert pauli_diagonal_gqd(3, 0.2, 0.1, 0.3, 0.5).branch == "odd-n"
        assert pauli_diagonal_gqd(3, 0.2, 0.1, 0.3, 1.0).branch == "odd-n-q1-limit"
        assert pauli_diagonal_gqd(2, 0.2, 0.1, 0.3, 0.5).branch == "even-n"
        assert pauli_diagonal_gqd(2, 0.2, 0.1, 0.3, 1.0).branch == "even-n-q1-limit"

    def test_continuity_at_q_one(self):
        for n in (2, 3):
            near = pauli_diagonal_gqd(n, 0.3, -0.2, 0.4, 1.0 - 1e-7).value
            exact = pauli_diagonal_gqd(n, 0.3, -0.2, 0.4, 1.0).value
            assert abs(near - exact) <= 1e-5

    def test_state_gate_edge(self):
        # The state gate admits |c|_2 up to 1 + 1e-12, where the odd-n
        # eigenvalue (1 - |c|_2)/2^n is a tiny negative that counts as 0.
        edge = (1.0 + 4e-13) / np.sqrt(3.0)
        inside = 1.0 / np.sqrt(3.0)
        for q in (0.5, 1.0, 2.0):
            value = pauli_diagonal_gqd(3, edge, edge, edge, q).value
            expected = pauli_diagonal_gqd(3, inside, inside, inside, q).value
            assert abs(value - expected) < 1e-6

    def test_single_axis_state_has_no_discord(self):
        # With only c3 nonzero the state is classical in the z basis.
        for q in (0.5, 1.0, 2.0):
            assert_allclose(pauli_diagonal_gqd(3, 0.0, 0.0, 0.6, q).value, 0.0, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="outside state space"):
            pauli_diagonal_gqd(2, 0.9, 0.9, 0.9, 0.5)
        with pytest.raises(ValueError, match="positive real"):
            pauli_diagonal_gqd(2, 0.2, 0.1, 0.3, -1.0)

    def test_matches_optimizer(self):
        c1, c2, c3 = random_pauli_diagonal_coefficients(3, seed=5)
        value = pauli_diagonal_gqd(3, c1, c2, c3, 0.8).value
        report = q_gqd(pauli_diagonal_state(3, c1, c2, c3), 0.8)
        assert abs(value - report.value) <= 1e-5

    def test_one_sided_matches_optimizer(self):
        # For two qubits the closed form is also the one-sided discord,
        # whichever qubit is measured: the oracle of the block branch.
        opt = OptimizerConfig(starts=8, max_evals=800)
        worst = 0.0
        for i in range(12):
            c1, c2, c3 = random_pauli_diagonal_coefficients(2, seed=300 + i)
            rho = pauli_diagonal_state(2, c1, c2, c3)
            for q in (0.5, 1.0, 2.0):
                value = pauli_diagonal_gqd(2, c1, c2, c3, q).value
                for side in ((0,), (1,)):
                    report = q_qd_one_sided(rho, side, q, opt)
                    worst = max(worst, abs(value - report.value))
        assert worst <= 1e-5

    def test_one_sided_n4_matches_optimizer(self):
        # The three sigma_i^(x3) left by measuring one of four qubits
        # pairwise anticommute, so the measured spectrum is (1 +/- |c o m|)/16
        # and the one-sided value is the global closed form.
        opt = OptimizerConfig(starts=8, max_evals=800)
        worst = 0.0
        for i in range(6):
            c1, c2, c3 = random_pauli_diagonal_coefficients(4, seed=400 + i)
            rho = pauli_diagonal_state(4, c1, c2, c3)
            for q in (0.5, 1.0, 2.0):
                value = pauli_diagonal_gqd(4, c1, c2, c3, q).value
                for k in range(4):
                    report = q_qd_one_sided(rho, (k,), q, opt)
                    worst = max(worst, abs(value - report.value))
        assert worst <= 1e-5


class TestPureTwoQubit:
    # Measuring a two-qubit pure state in its Schmidt basis drops I_q by
    # exactly S_q(lambda), lambda the Schmidt probabilities, at every q.
    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 1.0, 2.0])
    def test_schmidt_measurement_gives_the_value(self, q):
        rng = np.random.default_rng(12)
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            value, phi = pure_two_qubit_gqd(psi, q)
            lam = np.linalg.svd(psi.reshape(2, 2), compute_uv=False) ** 2
            assert_allclose(value, tsallis_entropy_probs(lam, q), rtol=0, atol=1e-12)
            rho = DensityMatrix(np.outer(psi, psi.conj()))
            assert_allclose(induced_discord(rho, phi, q), value, rtol=0, atol=1e-12)

    def test_product_and_bell_states(self):
        product = np.kron([0.6, 0.8j], [np.sqrt(0.5), -np.sqrt(0.5)])
        value, phi = pure_two_qubit_gqd(product, 0.5)
        assert_allclose(value, 0.0, rtol=0, atol=1e-15)
        assert_allclose([m.axis for m in phi], [[0.0, 0.96, -0.28], [-1.0, 0.0, 0.0]], atol=1e-15)
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        for q in (0.5, 1.0, 2.0):
            value, phi = pure_two_qubit_gqd(bell, q)
            assert_allclose(value, tsallis_entropy_probs([0.5, 0.5], q), rtol=0, atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="4 finite amplitudes"):
            pure_two_qubit_gqd([1.0, 0.0], 0.5)
        with pytest.raises(ValueError, match="4 finite amplitudes"):
            pure_two_qubit_gqd([np.nan, 0.0, 0.0, 1.0], 0.5)
        with pytest.raises(ValueError, match="unit norm"):
            pure_two_qubit_gqd([1.0, 0.0, 0.0, 1.0], 0.5)
        with pytest.raises(ValueError):
            pure_two_qubit_gqd([1.0, 0.0, 0.0, 0.0], 0.0)


class TestOneSidedQ2:
    def test_matches_default_search(self):
        # The first oracle of the one-sided search on arbitrary states:
        # random states at n = 2, 3 and 4, every qubit measured in turn, the
        # default search, within the oracle bound. The search only ever sits
        # above the minimum.
        for n in (2, 3, 4):
            rhos = [random_density_matrix(n, seed=600 + 10 * n + i) for i in range(3)]
            for k in range(n):
                for rho, report in zip(rhos, q_qd_one_sided_many([(rho, 2.0) for rho in rhos], (k,))):
                    value, _ = one_sided_q2_qd(rho, k)
                    assert abs(report.value - value) <= 1e-5
                    assert report.raw_value >= value - 1e-12

    def test_axis_attains_the_value(self):
        # The returned axis, evaluated by the objective at that fixed
        # measurement, gives the closed-form value.
        for n in (2, 3, 4):
            rho = random_density_matrix(n, seed=650 + n)
            for k in range(n):
                value, axis = one_sided_q2_qd(rho, k)
                (at,) = _evaluate([(rho, 2.0, (k,), None)], [_angles(ProductMeasurement([axis]), 1)])
                assert_allclose(at, value, rtol=0, atol=1e-12)

    def test_pauli_family_at_two_qubits(self):
        # At n = 2 the Pauli-diagonal closed form is the one-sided value
        # with either qubit measured.
        for i in range(6):
            c1, c2, c3 = random_pauli_diagonal_coefficients(2, seed=700 + i)
            rho = pauli_diagonal_state(2, c1, c2, c3)
            closed = pauli_diagonal_gqd(2, c1, c2, c3, 2.0).value
            for k in (0, 1):
                assert_allclose(one_sided_q2_qd(rho, k)[0], closed, rtol=0, atol=1e-12)

    def test_domain_errors(self):
        rho = random_density_matrix(3, seed=660)
        for qubit in (-1, 3):
            with pytest.raises(ValueError, match="one of at least two qubits"):
                one_sided_q2_qd(rho, qubit)
        with pytest.raises(ValueError, match="qubit index must be an integer"):
            one_sided_q2_qd(rho, 1.0)
        with pytest.raises(ValueError, match="one of at least two qubits"):
            one_sided_q2_qd(DensityMatrix(np.eye(2) / 2), 0)


class TestOptimalMeasuredEntropy:
    def test_matches_channel_along_dominant_axis(self):
        axes = {0: (1.0, 0.0, 0.0), 1: (0.0, 1.0, 0.0), 2: (0.0, 0.0, 1.0)}
        cases = ((3, (0.5, 0.2, 0.1), 0), (2, (0.1, -0.6, 0.2), 1), (3, (0.1, 0.2, -0.7), 2))
        for n, (c1, c2, c3), dominant in cases:
            rho = pauli_diagonal_state(n, c1, c2, c3)
            pm = ProductMeasurement.uniform_axis(n, axes[dominant])
            for q in (0.5, 1.0, 2.0):
                measured = apply_full(pm, rho)
                assert_allclose(
                    optimal_measured_entropy(n, c1, c2, c3, q),
                    tsallis_entropy(measured, q),
                    atol=1e-12,
                )

    def test_never_exceeded_by_random_measurements(self):
        rng = np.random.default_rng(6)
        c1, c2, c3 = random_pauli_diagonal_coefficients(3, seed=8)
        rho = pauli_diagonal_state(3, c1, c2, c3)
        for q in (0.5, 2.0):
            floor = optimal_measured_entropy(3, c1, c2, c3, q)
            for _ in range(10):
                pm = random_product_measurement(rng, 3)
                assert tsallis_entropy(apply_full(pm, rho), q) >= floor - 1e-9


class TestMeasuredSpectra:
    def test_ghz_family_per_outcome(self):
        rng = np.random.default_rng(7)
        for n, mu in ((2, 0.5), (3, 0.7)):
            rho = werner_ghz(n, mu)
            for _ in range(5):
                pm = random_product_measurement(rng, n)
                predicted = werner_ghz_measured_spectrum(mu, pm)
                assert_allclose(predicted, outcome_probabilities(pm, rho), atol=1e-12)

    def test_ghz_family_sorted_spectrum(self):
        rng = np.random.default_rng(8)
        rho = werner_ghz(3, 0.4)
        for _ in range(5):
            pm = random_product_measurement(rng, 3)
            predicted = np.sort(werner_ghz_measured_spectrum(0.4, pm))[::-1]
            actual = state_spectrum(apply_full(pm, rho)).probs
            assert_allclose(predicted, actual, atol=1e-12)

    def test_pure_ghz_in_x_basis(self):
        # mu = 1 with every qubit along x: the cross term carries all the
        # weight and half the outcomes must vanish exactly.
        pm = ProductMeasurement.uniform_axis(2, (1.0, 0.0, 0.0))
        predicted = werner_ghz_measured_spectrum(1.0, pm)
        assert_allclose(predicted, [0.5, 0.0, 0.0, 0.5], atol=1e-14)

    def test_all_z_matches_optimal_vector(self):
        for n, mu in ((2, 0.3), (3, 0.8)):
            pm = ProductMeasurement.uniform_axis(n, (0.0, 0.0, 1.0))
            all_z = np.sort(werner_ghz_measured_spectrum(mu, pm))[::-1]
            optimal = np.sort(werner_ghz_optimal_measured_spectrum(n, mu))[::-1]
            assert_allclose(all_z, optimal, atol=1e-14)

    def test_all_z_majorizes_everything(self):
        rng = np.random.default_rng(9)
        optimal = werner_ghz_optimal_measured_spectrum(3, 0.5)
        for _ in range(10):
            pm = random_product_measurement(rng, 3)
            other = werner_ghz_measured_spectrum(0.5, pm)
            assert majorizes(other, optimal)
            for q in (0.5, 2.0):
                h_other = tsallis_entropy_probs(Spectrum(other), q)
                h_opt = tsallis_entropy_probs(Spectrum(optimal), q)
                assert h_other >= h_opt - 1e-9

    def test_pauli_family_spectrum(self):
        rng = np.random.default_rng(10)
        for n in (2, 3):
            c1, c2, c3 = random_pauli_diagonal_coefficients(n, seed=20 + n)
            rho = pauli_diagonal_state(n, c1, c2, c3)
            for _ in range(5):
                pm = random_product_measurement(rng, n)
                predicted = np.sort(pauli_diagonal_measured_spectrum(n, c1, c2, c3, pm))[::-1]
                actual = state_spectrum(apply_full(pm, rho)).probs
                assert_allclose(predicted, actual, atol=1e-12)

    def test_pauli_product_bound(self):
        rng = np.random.default_rng(11)
        c1, c2, c3 = 0.4, -0.3, 0.5
        cmax = max(abs(c1), abs(c2), abs(c3))
        for _ in range(20):
            pm = random_product_measurement(rng, 3)
            spectrum = pauli_diagonal_measured_spectrum(3, c1, c2, c3, pm)
            t = 8.0 * spectrum[0] - 1.0
            assert abs(t) <= cmax + 1e-12

    def test_spectrum_domain_errors(self):
        pm = ProductMeasurement.uniform_axis(2, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="mixing weight"):
            werner_ghz_measured_spectrum(1.5, pm)
        with pytest.raises(ValueError, match="arity"):
            pauli_diagonal_measured_spectrum(3, 0.1, 0.1, 0.1, pm)
        with pytest.raises(ValueError, match="at least two"):
            werner_ghz_optimal_measured_spectrum(1, 0.5)


class TestContinuityAcrossQOne:
    # Each closed form at q = 1 against the mean of its values at 1 -/+ h:
    # the q == 1 formula against the expm1 form on both sides.
    CASES = {
        "werner_ghz_n3": lambda q: werner_ghz_gqd(3, 0.6, q).value,
        "werner_ghz_n4": lambda q: werner_ghz_gqd(4, 0.95, q).value,
        "pauli_n3": lambda q: pauli_diagonal_gqd(3, 0.3, -0.2, 0.4, q).value,
        "pauli_n4": lambda q: pauli_diagonal_gqd(4, 0.25, 0.15, -0.3, q).value,
        "optimal_measured_n3": lambda q: optimal_measured_entropy(3, 0.3, -0.2, 0.4, q),
        "optimal_measured_n4": lambda q: optimal_measured_entropy(4, 0.25, 0.15, -0.3, q),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_jump(self, name):
        f = self.CASES[name]
        for h in (1e-6, 1e-9, 1e-11):
            jump = f(1.0) - 0.5 * (f(1.0 - h) + f(1.0 + h))
            assert abs(jump) < 1e-10, (h, jump)


class TestResultType:
    def test_is_frozen(self):
        result = werner_ghz_gqd(2, 0.5, 0.5)
        assert isinstance(result, ClosedFormResult)
        with pytest.raises(AttributeError):
            result.value = 0.0
