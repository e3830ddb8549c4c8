import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord import entropy
from qdiscord.entropy import (
    majorizes,
    q_log,
    schur_concavity_witness,
    tsallis_entropy,
    tsallis_entropy_probs,
    von_neumann_entropy,
)
from qdiscord.linalg import DensityMatrix, Spectrum
from qdiscord.states import random_density_matrix

# Steps h across q = 1: the q == 1 formula on one side of each comparison,
# the expm1 form on the other.
Q_ONE_STEPS = (1e-6, 1e-9, 1e-11)


def jump_at_q_one(f, h):
    """f(1) minus the mean of f(1 - h) and f(1 + h): O(h^2) for smooth f."""
    return f(1.0) - 0.5 * (f(1.0 - h) + f(1.0 + h))


class TestQLog:
    def test_reduces_to_natural_log_at_q_one(self):
        for x in (0.25, 1.0, 3.0):
            assert_allclose(q_log(x, 1.0), np.log(x))
            assert_allclose(q_log(x, 1.0 - 1e-12), np.log(x), atol=1e-9)

    def test_half_q_value(self):
        # ln_{0.5}(4) = (4^{0.5} - 1) / 0.5 = 2
        assert_allclose(q_log(4.0, 0.5), 2.0)

    def test_zero_argument(self):
        # ln_q(0) = -1 / (1 - q) for every q < 1, however close to 1.
        for q in (0.5, 1.0 - 2e-9, 1.0 - 1e-10):
            assert_allclose(q_log(0.0, q), -1.0 / (1.0 - q), rtol=1e-15)
        for q in (1.0, 1.0 + 1e-10, 2.0):
            with pytest.raises(ValueError, match="diverges"):
                q_log(0.0, q)
        with pytest.raises(ValueError, match="nonnegative"):
            q_log(-1.0, 0.5)

    def test_continuous_across_q_one(self):
        for x in (1e-3, 0.25, 3.0):
            for h in Q_ONE_STEPS:
                assert abs(jump_at_q_one(lambda q: q_log(x, q), h)) < 1e-10

    def test_nan_raises(self):
        # NaN fails every comparison, so x > 0 alone would treat it as x = 0.
        for q in (0.5, 1.0, 2.0):
            with pytest.raises(ValueError, match="NaN"):
                q_log(float("nan"), q)

    def test_infinite_argument_gives_limits(self):
        assert q_log(float("inf"), 0.5) == float("inf")
        assert q_log(float("inf"), 1.0) == float("inf")
        assert q_log(float("inf"), 2.0) == 1.0

    def test_overflow_raises_value_error(self):
        # (1 - q) ln x beyond about 709 has no float value.
        for q in (3.4, 10.0):
            with pytest.raises(ValueError, match="overflow"):
                q_log(1e-300, q)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError, match="positive real"):
            q_log(2.0, 0.0)
        with pytest.raises(ValueError, match="positive real"):
            q_log(2.0, -1.0)


class TestTsallisEntropyProbs:
    def test_uniform_four_outcomes_q_two(self):
        # (1 - 4 * (1/4)^2) / (2 - 1) = 0.75
        assert_allclose(tsallis_entropy_probs(Spectrum([0.25] * 4), 2.0), 0.75)

    def test_fair_coin_q_half(self):
        # (1 - 2 * (1/2)^{1/2}) / (1/2 - 1) = 2 (sqrt(2) - 1)
        expected = 2.0 * (np.sqrt(2.0) - 1.0)
        assert_allclose(tsallis_entropy_probs(Spectrum([0.5, 0.5]), 0.5), expected)

    def test_pure_distribution_is_zero(self):
        for q in (0.3, 1.0, 2.5):
            assert_allclose(tsallis_entropy_probs(Spectrum([1.0, 0.0, 0.0]), q), 0.0)

    def test_q_one_matches_shannon(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rng.dirichlet(np.ones(6))
            shannon = -np.sum(p * np.log(p))
            assert_allclose(tsallis_entropy_probs(Spectrum(p), 1.0), shannon, atol=1e-12)
            assert_allclose(
                tsallis_entropy_probs(Spectrum(p), 1.0 + 1e-10), shannon, atol=1e-8
            )

    def test_second_order_accurate_near_q_one(self):
        # H_q = -sum p ln p - (q - 1)/2 sum p ln^2 p + O((q - 1)^2).
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = rng.dirichlet(np.ones(8))
            ln_p = np.log(p)
            for q in (1.0 - 1e-9, 1.0 + 1e-9):
                expected = -np.sum(p * ln_p) - (q - 1.0) / 2.0 * np.sum(p * ln_p**2)
                assert abs(tsallis_entropy_probs(p, q) - expected) < 1e-13

    def test_continuous_across_q_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = Spectrum(np.concatenate([rng.dirichlet(np.ones(6)), [0.0, 0.0]]))
            for h in Q_ONE_STEPS:
                jump = jump_at_q_one(lambda q: tsallis_entropy_probs(p, q), h)
                assert abs(jump) < 1e-10

    def test_zero_probabilities_do_not_contribute(self):
        # For q < 1 a tiny eigenvalue epsilon would add epsilon^q, which can be
        # large relative to epsilon; entries at exact zero must add nothing.
        with_zeros = Spectrum([0.7, 0.3, 0.0, 0.0])
        without = Spectrum([0.7, 0.3])
        for q in (0.3, 0.5, 0.9):
            assert_allclose(
                tsallis_entropy_probs(with_zeros, q),
                tsallis_entropy_probs(without, q),
                atol=1e-14,
            )

    def test_rejects_nan(self):
        # A NaN entry used to pass validation and be dropped as a zero.
        with pytest.raises(ValueError, match="entries"):
            tsallis_entropy_probs([np.nan, 1.0], 0.5)


class TestTsallisEntropyStates:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert_allclose(tsallis_entropy(rho, 2.0), 0.75)

    def test_pseudo_additivity_on_products(self):
        rng = np.random.default_rng(5)
        for q in (0.5, 2.0):
            for _ in range(5):
                pa = rng.dirichlet(np.ones(2))
                pb = rng.dirichlet(np.ones(2))
                a = DensityMatrix(np.diag(pa).astype(complex))
                b = DensityMatrix(np.diag(pb).astype(complex))
                ab = DensityMatrix(np.kron(a.matrix, b.matrix))
                sa = tsallis_entropy(a, q)
                sb = tsallis_entropy(b, q)
                expected = sa + sb + (1.0 - q) * sa * sb
                assert_allclose(tsallis_entropy(ab, q), expected, atol=1e-12)

    def test_rejects_bad_q(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="positive real"):
            tsallis_entropy(rho, 0.0)

    def test_eigenvalues_just_outside_unit_interval(self):
        # DensityMatrix admits eigenvalues down to -1e-9, so the largest one
        # may exceed 1 by as much; the entropy of such a pure state is ~0.
        rho = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))
        for q in (0.5, 1.0, 2.0):
            value = tsallis_entropy(rho, q)
            assert np.isfinite(value)
            assert abs(value) <= 1e-9

    def test_continuous_across_q_one(self):
        for seed in range(5, 10):
            rho = random_density_matrix(3, seed=seed)
            for h in Q_ONE_STEPS:
                assert abs(jump_at_q_one(lambda q: tsallis_entropy(rho, q), h)) < 1e-10


class TestVonNeumann:
    def test_bell_mixture(self):
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
        assert_allclose(von_neumann_entropy(rho), np.log(2.0), atol=1e-12)

    def test_agrees_with_q_one_tsallis(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / m.trace())
        assert_allclose(von_neumann_entropy(rho), tsallis_entropy(rho, 1.0), atol=1e-12)


class TestMajorization:
    def test_known_relations(self):
        uniform = np.array([0.25, 0.25, 0.25, 0.25])
        spiked = np.array([0.7, 0.1, 0.1, 0.1])
        pure = np.array([1.0, 0.0, 0.0, 0.0])
        assert majorizes(uniform, spiked)
        assert majorizes(spiked, pure)
        assert majorizes(uniform, pure)
        assert not majorizes(spiked, uniform)
        # A Spectrum is read in its stored, already sorted order.
        assert majorizes(Spectrum(uniform), Spectrum(spiked))
        assert not majorizes(Spectrum(spiked), Spectrum(uniform))

    def test_unsorted_input_allowed(self):
        assert majorizes(np.array([0.25, 0.5, 0.25]), np.array([0.1, 0.8, 0.1]))

    def test_incomparable_pair(self):
        x = np.array([0.5, 0.25, 0.25, 0.0])
        y = np.array([0.4, 0.4, 0.1, 0.1])
        assert not majorizes(x, y)
        assert not majorizes(y, x)

    def test_unequal_totals(self):
        # y's partial sums dominate x's, but the totals differ by 0.1.
        assert not majorizes(np.array([0.3, 0.3, 0.3]), np.array([0.8, 0.2, 0.0]))

    def test_entropy_respects_majorization(self):
        rng = np.random.default_rng(8)
        for q in (0.5, 1.0, 2.0):
            for _ in range(10):
                p = rng.dirichlet(np.ones(5))
                mixed = 0.5 * p + 0.5 * np.full(5, 0.2)
                assert majorizes(mixed, p)
                hp = tsallis_entropy_probs(Spectrum(p), q)
                hm = tsallis_entropy_probs(Spectrum(mixed), q)
                assert hm >= hp - 1e-10

    def test_witness_passes(self):
        assert schur_concavity_witness(0.5, trials=50, seed=0)
        assert schur_concavity_witness(2.0, trials=50, seed=1)

    def test_witness_can_fail(self, monkeypatch):
        # With the entropy negated, mixing lowers it and the witness says so.
        negated = entropy.tsallis_entropy_probs
        monkeypatch.setattr(entropy, "tsallis_entropy_probs", lambda p, q: -negated(p, q))
        assert not schur_concavity_witness(0.5, trials=5, seed=0)

    def test_witness_needs_a_trial(self):
        for trials in (0, -3):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                schur_concavity_witness(0.5, trials)
