import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord.discord import (
    Bipartition,
    OptimizerConfig,
    _make_objective,
    _mutual_information_cut,
    induced_discord,
    induced_discord_bipartite,
    mutual_information_q,
    q_gqd,
    q_qd_one_sided,
)
from qdiscord.entropy import tsallis_entropy
from qdiscord.linalg import DensityMatrix, permute_qubits
from qdiscord.measurement import BlochMeasurement, ProductMeasurement, projectors
from qdiscord.states import random_density_matrix, werner_ghz

LIGHT = OptimizerConfig(starts=4, max_evals=400)

BELL = DensityMatrix(
    np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ],
        dtype=complex,
    )
)


def random_angles(rng, m):
    theta = rng.uniform(0.0, np.pi, size=m)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return np.column_stack([theta, phi]).ravel()


class TestBipartition:
    def test_sorts_and_stores(self):
        cut = Bipartition((2, 0), (1,))
        assert cut.left == (0, 2)
        assert cut.right == (1,)
        cut.check_covers(3)

    def test_rejects_empty_or_overlapping(self):
        with pytest.raises(ValueError, match="nonempty"):
            Bipartition((), (0,))
        with pytest.raises(ValueError, match="disjoint"):
            Bipartition((0, 1), (1, 2))

    def test_check_covers(self):
        with pytest.raises(ValueError, match="cover every qubit"):
            Bipartition((0,), (1,)).check_covers(3)


class TestOptimizerConfig:
    def test_defaults(self):
        opt = OptimizerConfig()
        assert opt.starts == 16
        assert opt.max_evals == 2000
        assert opt.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="starts"):
            OptimizerConfig(starts=0)
        with pytest.raises(ValueError, match="max_evals"):
            OptimizerConfig(max_evals=0)
        with pytest.raises(ValueError, match="tol"):
            OptimizerConfig(tol=0.0)


class TestMutualInformation:
    def test_product_state_pseudo_additivity(self):
        # Only q = 1 gives zero on products; elsewhere the entropy is
        # pseudo-additive and I_q(A x B) = -(1 - q) S_q(A) S_q(B) exactly.
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([0.6, 0.4]).astype(complex)
        rho = DensityMatrix(np.kron(a, b))
        assert_allclose(mutual_information_q(rho, 1.0), 0.0, atol=1e-12)
        for q in (0.5, 2.0):
            sa = tsallis_entropy(DensityMatrix(a), q)
            sb = tsallis_entropy(DensityMatrix(b), q)
            expected = -(1.0 - q) * sa * sb
            assert_allclose(mutual_information_q(rho, q), expected, atol=1e-12)

    def test_bell_at_q_one(self):
        assert_allclose(mutual_information_q(BELL, 1.0), 2.0 * np.log(2.0), atol=1e-10)

    def test_bell_at_q_two(self):
        # marginals give (1 - 2/4) = 1/2 each, the pure state gives 0
        assert_allclose(mutual_information_q(BELL, 2.0), 1.0, atol=1e-12)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError, match="positive real"):
            mutual_information_q(BELL, -0.5)


class TestFastObjective:
    def test_matches_direct_channel_route(self):
        # The optimizer objective works from outcome probabilities and block
        # spectra; it must agree with applying the channel and recomputing
        # mutual information from scratch.
        rng = np.random.default_rng(0)
        for n in (2, 3):
            rho = random_density_matrix(n, seed=100 + n)
            groups = tuple((i,) for i in range(n))
            for q in (0.5, 1.0, 2.0):
                objective = _make_objective(rho, q, tuple(range(n)), groups)
                for _ in range(5):
                    angles = random_angles(rng, n)
                    pm = ProductMeasurement.from_angles(angles.reshape(-1, 2))
                    direct = induced_discord(rho, pm, q)
                    assert_allclose(objective(angles), direct, atol=1e-11)

    def test_partial_measurement_route(self):
        # Measuring only qubit 2: the objective must equal the bipartite
        # information drop with the channel sum_+- (I_4 x P) rho (I_4 x P)
        # acting on qubit 2 alone.
        rng = np.random.default_rng(1)
        rho = random_density_matrix(3, seed=7)
        q = 0.7
        objective = _make_objective(rho, q, (2,), ((0, 1), (2,)))
        cut = Bipartition((0, 1), (2,))
        for _ in range(5):
            angles = random_angles(rng, 1)
            m = BlochMeasurement.from_angles(angles[0], angles[1])
            measured_state = DensityMatrix(
                sum(
                    np.kron(np.eye(4), p) @ rho.matrix @ np.kron(np.eye(4), p)
                    for p in projectors(m)
                )
            )
            drop = _mutual_information_cut(rho, cut, q) - _mutual_information_cut(
                measured_state, cut, q
            )
            assert_allclose(objective(angles), drop, atol=1e-11)


class TestGlobalDiscord:
    def test_bell_at_q_one(self):
        report = q_gqd(BELL, 1.0)
        assert_allclose(report.value, np.log(2.0), atol=1e-7)

    def test_maximally_mixed_is_zero(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        report = q_gqd(rho, 0.5, LIGHT)
        assert abs(report.value) <= 1e-10

    def test_classical_state_is_zero(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]))
        for q in (0.5, 1.0):
            report = q_gqd(rho, q, LIGHT)
            assert abs(report.value) <= 1e-7

    def test_report_fields(self):
        report = q_gqd(BELL, 0.5, LIGHT)
        assert report.q == 0.5
        assert report.measured_qubits == (0, 1)
        assert report.starts_used == 4
        assert len(report.optimal_measurement) == 2
        assert report.objective_evals > 0
        assert isinstance(report.converged, bool)

    def test_value_matches_reported_measurement(self):
        rho = random_density_matrix(2, seed=3)
        report = q_gqd(rho, 0.5, LIGHT)
        replay = induced_discord(rho, report.optimal_measurement, 0.5)
        assert_allclose(report.raw_value, replay, atol=1e-9)

    def test_nonnegativity_flag_tracks_regime(self):
        assert q_gqd(BELL, 0.5, LIGHT).nonnegativity_guaranteed
        assert q_gqd(BELL, 1.0, LIGHT).nonnegativity_guaranteed
        assert not q_gqd(BELL, 2.0, LIGHT).nonnegativity_guaranteed

    def test_fixed_measurement_upper_bounds_minimum(self):
        rng = np.random.default_rng(4)
        for i in range(3):
            rho = random_density_matrix(2, seed=40 + i)
            best = q_gqd(rho, 0.5, LIGHT).value
            angles = random_angles(rng, 2)
            pm = ProductMeasurement.from_angles(angles.reshape(-1, 2))
            assert induced_discord(rho, pm, 0.5) >= best - 1e-6

    def test_permutation_invariance(self):
        for i in range(2):
            rho = random_density_matrix(2, seed=50 + i)
            flipped = permute_qubits(rho, (1, 0))
            a = q_gqd(rho, 0.5).value
            b = q_gqd(flipped, 0.5).value
            assert abs(a - b) <= 2e-5

    def test_cut_variant_validates_cover(self):
        rho = random_density_matrix(3, seed=60)
        with pytest.raises(ValueError, match="cover every qubit"):
            q_gqd(rho, 0.5, LIGHT, cut=((0,), (1,)))

    def test_desk_scale_limit(self):
        rho = DensityMatrix(np.eye(32) / 32.0)
        with pytest.raises(ValueError, match="desk-scale limit"):
            q_gqd(rho, 0.5)
        with pytest.raises(ValueError, match="desk-scale limit"):
            q_qd_one_sided(rho, (0,), 0.5)


class TestOneSided:
    def test_bell_measured_on_either_side(self):
        for side in ((0,), (1,)):
            report = q_qd_one_sided(BELL, side, 1.0)
            assert_allclose(report.value, np.log(2.0), atol=1e-7)
            assert report.measured_qubits == side

    def test_classical_state_is_zero(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]))
        report = q_qd_one_sided(rho, (1,), 0.5, LIGHT)
        assert abs(report.value) <= 1e-7

    def test_upper_bounds_global_cut(self):
        # Measuring both sides can only widen the information drop, so the
        # one-sided minimum never exceeds the all-measured cut minimum.
        rho = random_density_matrix(2, seed=70)
        one_sided = q_qd_one_sided(rho, (1,), 0.5).value
        both = q_gqd(rho, 0.5, cut=((0,), (1,))).value
        assert one_sided <= both + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty and proper"):
            q_qd_one_sided(BELL, (), 0.5)
        with pytest.raises(ValueError, match="nonempty and proper"):
            q_qd_one_sided(BELL, (0, 1), 0.5)
        with pytest.raises(ValueError, match="out of range"):
            q_qd_one_sided(BELL, (-1,), 0.5)


class TestInducedDiscordBipartite:
    def test_requires_cover(self):
        rho = random_density_matrix(3, seed=80)
        pm = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="cover every qubit"):
            induced_discord_bipartite(rho, ((0,), (1,)), pm, 0.5)

    def test_two_qubit_cut_matches_multiparty(self):
        rho = random_density_matrix(2, seed=81)
        pm = ProductMeasurement.uniform_axis(2, (1.0, 0.0, 0.0))
        a = induced_discord(rho, pm, 0.5)
        b = induced_discord_bipartite(rho, ((0,), (1,)), pm, 0.5)
        assert_allclose(a, b, atol=1e-12)
