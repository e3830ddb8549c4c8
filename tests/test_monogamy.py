import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord import discord, monogamy
from qdiscord.discord import (
    OptimizerConfig,
    induced_discord,
    q_gqd,
)
from qdiscord.linalg import DensityMatrix, partial_trace, permute_qubits
from qdiscord.measurement import BlochMeasurement, ProductMeasurement
from qdiscord.monogamy import (
    CounterexampleAudit,
    DecompositionLedger,
    MonogamyReport,
    bros_counterexample_audit,
    decompose_induced_gqd,
    monogamy_report,
)
from qdiscord.states import bros_counterexample, random_density_matrix, werner_ghz

LIGHT = OptimizerConfig(starts=4, max_evals=400)


def random_product_measurement(rng, n):
    v = rng.normal(size=(n, 3))
    return ProductMeasurement(
        BlochMeasurement(row / np.linalg.norm(row)) for row in v
    )


def almost_hermitian():
    """random_density_matrix(4, 5) with each entry (r, 8 + r) off Hermitian by 0.45e-10, and its Hermitian part.

    The error is under the 1e-10 tolerance, but a marginal that traces out
    qubits sums it over the entries it adds up.
    """
    m = random_density_matrix(4, 5).matrix.copy()
    for r in range(8):
        m[r, 8 + r] += 0.45e-10j
    return DensityMatrix(m), DensityMatrix((m + m.conj().T) / 2)


class TestDecomposition:
    def test_residual_is_numerical_noise(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for i in range(5):
                rho = random_density_matrix(n, seed=100 * n + i)
                phi = random_product_measurement(rng, n)
                for q in (0.5, 1.0):
                    ledger = decompose_induced_gqd(rho, phi, q)
                    assert len(ledger.terms) == n - 1
                    assert abs(ledger.residual) <= 1e-9

    def test_two_qubit_single_term(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(2, seed=7)
        phi = random_product_measurement(rng, 2)
        ledger = decompose_induced_gqd(rho, phi, 0.7)
        assert_allclose(ledger.total, induced_discord(rho, phi, 0.7), atol=1e-12)
        assert_allclose(ledger.terms[0], ledger.total, atol=1e-12)

    def test_maximally_mixed_has_zero_terms(self):
        rho = DensityMatrix(np.eye(8) / 8.0)
        phi = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        ledger = decompose_induced_gqd(rho, phi, 0.5)
        assert_allclose(ledger.total, 0.0, atol=1e-12)
        assert_allclose(ledger.terms, (0.0, 0.0), atol=1e-12)

    def test_state_with_admitted_hermiticity_error(self):
        # The prefix states are admitted, and the ledger lands within 1e-8
        # of the one on the state's Hermitian part.
        rho, fixed = almost_hermitian()
        phi = random_product_measurement(np.random.default_rng(5), 4)
        for q in (0.5, 1.0, 2.0):
            ledger = decompose_induced_gqd(rho, phi, q)
            assert abs(ledger.residual) <= 1e-9
            assert_allclose(ledger.terms, decompose_induced_gqd(fixed, phi, q).terms, rtol=0, atol=1e-8)

    def test_builds_no_full_size_matrix(self, monkeypatch):
        # Every value is a row of the discord objective, which works from
        # outcome probabilities, so no measured 16 x 16 state is built. The
        # only states built are the prefix states of the first two and the
        # first three qubits; the problem constants take their marginals as
        # plain arrays. The values must equal the term-by-term route bit
        # for bit.
        rng = np.random.default_rng(2)
        rho = random_density_matrix(4, seed=21)
        phi = random_product_measurement(rng, 4)
        built = []
        init = DensityMatrix.__init__

        def counting(self, matrix):
            init(self, matrix)
            built.append(self.dim)

        for q in (0.5, 1.0, 2.0):
            total = induced_discord(rho, phi, q)
            terms = tuple(
                induced_discord(
                    partial_trace(rho, range(k + 1)),
                    ProductMeasurement(phi.per_qubit[: k + 1]),
                    q,
                    cut=(tuple(range(k)), (k,)),
                )
                for k in range(1, 4)
            )
            with monkeypatch.context() as patch:
                patch.setattr(DensityMatrix, "__init__", counting)
                ledger = decompose_induced_gqd(rho, phi, q)
            assert sorted(built) == [4, 8]
            built.clear()
            assert ledger.total == total
            assert ledger.terms == terms
            assert ledger.residual == total - sum(terms)

    @pytest.mark.parametrize("n, problems", [(3, [2, 1]), (4, [2, 1, 1])])
    def test_one_value_pass(self, monkeypatch, n, problems):
        # A ledger is one value-only pass: one objective and one call per
        # qubit count, so the whole state and the last cut share the
        # n-qubit objective.
        rho = random_density_matrix(n, seed=40 + n)
        phi = random_product_measurement(np.random.default_rng(n), n)
        built, calls = [], []
        make = discord._make_objective

        def counting(states, *args, **kwargs):
            built.append(len(states))
            objective = make(states, *args, **kwargs)

            def counted(angles, owner, gradient=False):
                calls.append(len(angles))
                return objective(angles, owner, gradient)

            return counted

        monkeypatch.setattr(discord, "_make_objective", counting)
        decompose_induced_gqd(rho, phi, 0.5)
        assert built == problems
        assert calls == problems

    def test_arity_mismatch(self):
        rho = random_density_matrix(3, seed=9)
        phi = ProductMeasurement.uniform_axis(2, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="arity 2 does not match qubit count 3"):
            decompose_induced_gqd(rho, phi, 0.5)

    def test_ledger_type(self):
        rho = random_density_matrix(2, seed=11)
        phi = ProductMeasurement.uniform_axis(2, (1.0, 0.0, 0.0))
        ledger = decompose_induced_gqd(rho, phi, 0.5)
        assert isinstance(ledger, DecompositionLedger)
        with pytest.raises(AttributeError):
            ledger.total = 0.0


class TestBoundedSum:
    def test_product_state(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.6, 0.4]).astype(complex)
        c = np.diag([0.9, 0.1]).astype(complex)
        rho = DensityMatrix(np.kron(np.kron(a, b), c))
        assert monogamy_report(rho, 0.5, LIGHT).bounded_sum_holds

    def test_random_states(self):
        # Both sides are independent optimizations, so this check needs
        # enough starts; a False flag would point at the optimizer.
        opt = OptimizerConfig(starts=8, max_evals=1000)
        for i in range(3):
            rho = random_density_matrix(3, seed=30 + i)
            assert monogamy_report(rho, 0.5, opt).bounded_sum_holds


class TestMonogamyReport:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(8) / 8.0)
        report = monogamy_report(rho, 0.5, LIGHT)
        assert_allclose(report.whole, 0.0, atol=1e-9)
        assert_allclose(report.pairwise, (0.0, 0.0), atol=1e-9)
        assert_allclose(report.nested, (0.0, 0.0), atol=1e-9)
        assert report.inequality_holds
        assert report.condition_holds
        assert report.bounded_sum_holds

    def test_state_with_admitted_hermiticity_error(self):
        # Every pair and prefix state is admitted; the report lands within
        # 1e-8 of the one on the state's Hermitian part.
        rho, fixed = almost_hermitian()
        report, expected = monogamy_report(rho, 0.5, LIGHT), monogamy_report(fixed, 0.5, LIGHT)
        assert_allclose(report.whole, expected.whole, rtol=0, atol=1e-8)
        assert_allclose(report.pairwise, expected.pairwise, rtol=0, atol=1e-8)
        assert_allclose(report.nested, expected.nested, rtol=0, atol=1e-8)

    def test_ghz_family(self):
        report = monogamy_report(werner_ghz(3, 0.5), 0.9, LIGHT)
        assert isinstance(report, MonogamyReport)
        assert report.inequality_holds
        assert report.condition_holds
        assert report.whole > 0.1

    def test_solves_the_first_pair_once(self, monkeypatch):
        # The nested cut (0)|(1) is the (0, 1) pairwise problem itself, so a
        # 3-qubit report makes 4 solves: the whole, two pairs, one nested cut.
        solves = []
        solve = monogamy._values

        def counting(jobs, opt=None):
            solves.extend(rho.num_qubits for rho, _, _, _ in jobs)
            return solve(jobs, opt)

        monkeypatch.setattr(monogamy, "_values", counting)
        report = monogamy_report(random_density_matrix(3, seed=40), 0.5, LIGHT)
        assert solves == [3, 2, 2, 3]
        assert report.nested[0] == report.pairwise[0]
        assert report.condition_margins[0] == 0.0

    def test_condition_without_inequality_raises(self, monkeypatch):
        # Whole 0.1, every other value 0.2: nested domination holds, yet
        # 0.1 < 0.2 + 0.2 fails both the inequality and the bounded sum,
        # which only a faulty solve can produce.
        def fake_values(jobs, opt=None):
            return [0.1 if rho.num_qubits == 3 and cut is None else 0.2 for rho, _, _, cut in jobs]

        monkeypatch.setattr(monogamy, "_values", fake_values)
        with pytest.raises(RuntimeError, match="monogamy inequality failed"):
            monogamy_report(random_density_matrix(3, seed=40), 0.5, LIGHT)

    def test_condition_and_bounded_sum_allow_the_inequality_to_fail(self, monkeypatch):
        # Each comparison allows INEQUALITY_TOL, so at n = 3 the condition
        # and the bounded sum bound whole - sum(pairwise) below by only
        # -2 tol. These values pass both and miss the inequality by 1.3e-6:
        # consistent, so the report is built, not raised.
        values = [0.3 - 1.3e-6, 0.1, 0.2, 0.2 - 0.8e-6]
        monkeypatch.setattr(monogamy, "_values", lambda jobs, opt=None: values)
        report = monogamy_report(random_density_matrix(3, seed=40), 0.5, LIGHT)
        assert report.condition_holds and report.bounded_sum_holds
        assert not report.inequality_holds
        assert (report.whole, report.pairwise, report.nested) == (values[0], (0.1, 0.2), (0.1, values[3]))

    def test_margins_are_consistent(self):
        report = monogamy_report(random_density_matrix(3, seed=40), 0.5, LIGHT)
        assert_allclose(
            report.inequality_margin,
            report.whole - sum(report.pairwise),
            atol=1e-12,
        )
        assert_allclose(
            report.condition_margins,
            tuple(n - p for n, p in zip(report.nested, report.pairwise)),
            atol=1e-12,
        )
        assert len(report.pairwise) == 2
        assert len(report.nested) == 2

    def test_bounded_sum_matches_the_check(self):
        # Same solves, same test: the report's flag is the bounded-sum rule
        # whole - sum(nested) >= -INEQUALITY_TOL applied to its own values.
        for rho in (random_density_matrix(3, seed=40), DensityMatrix(np.eye(8) / 8.0)):
            report = monogamy_report(rho, 0.5, LIGHT)
            assert report.bounded_sum_holds
            assert report.bounded_sum_holds == (
                report.whole - sum(report.nested) >= -monogamy.INEQUALITY_TOL
            )

    def test_values_are_the_solo_solves(self):
        # The whole state and its pairs share one batched call; each value
        # is still the solo q_gqd of its problem, bit for bit.
        rho = random_density_matrix(4, seed=42)
        report = monogamy_report(rho, 0.5, LIGHT)
        assert report.whole == q_gqd(rho, 0.5, LIGHT).value
        assert report.pairwise == tuple(q_gqd(partial_trace(rho, (0, k)), 0.5, LIGHT).value for k in (1, 2, 3))
        assert report.nested[1:] == tuple(
            q_gqd(partial_trace(rho, range(k + 1)), 0.5, LIGHT, cut=(tuple(range(k)), (k,))).value for k in (2, 3)
        )

    def test_one_minimize_call(self, monkeypatch):
        # The whole state, its three pairs and its two other nested cuts go
        # to one _minimize_many call, in that order.
        calls = []
        minimize = discord._minimize_many

        def counting(problems, opt):
            calls.append([rho.num_qubits for rho, *_ in problems])
            return minimize(problems, opt)

        monkeypatch.setattr(discord, "_minimize_many", counting)
        monogamy_report(random_density_matrix(4, seed=42), 0.5, LIGHT)
        assert calls == [[4, 2, 2, 2, 3, 4]]


class TestAuditAndReports:
    def test_values_are_the_solo_solves(self):
        # The audit at q = 0.9 and three reports at q = 0.5 share one call;
        # every value is still the solo q_gqd of its job, bit for bit, and
        # each report and the audit equal their own calls field for field.
        rhos = [random_density_matrix(3, seed=50 + i) for i in range(3)]
        audit, reports = monogamy._audit_and_reports(0.9, rhos, 0.5, LIGHT)
        counterexample = bros_counterexample()
        assert audit.whole == q_gqd(counterexample, 0.9, LIGHT).value
        assert audit.first_vs_rest == q_gqd(counterexample, 0.9, LIGHT, cut=((0,), (1, 2))).value
        assert audit.pair_01 == q_gqd(partial_trace(counterexample, (0, 1)), 0.9, LIGHT).value
        assert audit.pair_02 == q_gqd(partial_trace(counterexample, (0, 2)), 0.9, LIGHT).value
        assert audit == bros_counterexample_audit(0.9, LIGHT)
        assert len(reports) == len(rhos)
        for rho, report in zip(rhos, reports):
            assert report.whole == q_gqd(rho, 0.5, LIGHT).value
            assert report.pairwise == tuple(q_gqd(partial_trace(rho, (0, k)), 0.5, LIGHT).value for k in (1, 2))
            assert report.nested[1] == q_gqd(rho, 0.5, LIGHT, cut=((0, 1), (2,))).value
            assert report == monogamy_report(rho, 0.5, LIGHT)


class TestCounterexample:
    def test_values_are_the_solo_solves(self):
        rho = bros_counterexample()
        audit = bros_counterexample_audit(0.9, LIGHT)
        assert audit.whole == q_gqd(rho, 0.9, LIGHT).value
        assert audit.first_vs_rest == q_gqd(rho, 0.9, LIGHT, cut=((0,), (1, 2))).value
        assert audit.pair_01 == q_gqd(partial_trace(rho, (0, 1)), 0.9, LIGHT).value
        assert audit.pair_02 == q_gqd(partial_trace(rho, (0, 2)), 0.9, LIGHT).value

    def test_audit_passes(self):
        audit = bros_counterexample_audit(0.9, LIGHT)
        assert isinstance(audit, CounterexampleAudit)
        assert audit.passed
        assert audit.first_vs_rest_vanishes
        assert audit.pair_01_nonzero
        assert audit.pair_02_vanishes
        assert audit.whole_matches_pair_01

    def test_condition_fails_but_inequality_holds(self):
        audit = bros_counterexample_audit(0.9, LIGHT)
        assert not audit.condition_holds
        assert audit.inequality_holds

    def test_frozen_pairwise_value(self):
        audit = bros_counterexample_audit(0.9, LIGHT)
        assert_allclose(audit.pair_01, 0.20712998, atol=1e-4)
        assert_allclose(audit.whole, audit.pair_01, atol=1e-5)

    def test_middle_qubit_first_breaks_both(self):
        # Putting the correlated middle qubit in the distinguished slot
        # makes the pairwise sum overshoot the whole-state value, so the
        # inequality and its sufficient condition fail together.
        rho = permute_qubits(bros_counterexample(), (1, 0, 2))
        report = monogamy_report(rho, 0.9, LIGHT)
        assert not report.condition_holds
        assert not report.inequality_holds

    def test_original_ordering_report(self):
        report = monogamy_report(bros_counterexample(), 0.9, LIGHT)
        assert report.inequality_holds
        assert report.condition_holds
