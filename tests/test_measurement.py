import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord.linalg import DensityMatrix
from qdiscord.measurement import (
    BlochMeasurement,
    ProductMeasurement,
    _basis_columns,
    apply_full,
    outcome_probabilities,
    product_basis,
    projectors,
)
from qdiscord.states import random_density_matrix

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


class TestBlochMeasurement:
    def test_accepts_unit_axis(self):
        m = BlochMeasurement((0.0, 0.0, 1.0))
        assert_allclose(m.axis, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            m.axis[0] = 1.0

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="3-vector"):
            BlochMeasurement((1.0, 0.0))
        with pytest.raises(ValueError, match="unit length"):
            BlochMeasurement((1.0, 1.0, 0.0))

    def test_from_angles(self):
        m = BlochMeasurement.from_angles(np.pi / 2.0, 0.0)
        assert_allclose(m.axis, [1.0, 0.0, 0.0], atol=1e-15)
        m = BlochMeasurement.from_angles(np.pi / 2.0, np.pi / 2.0)
        assert_allclose(m.axis, [0.0, 1.0, 0.0], atol=1e-15)
        m = BlochMeasurement.from_angles(0.0, 0.3)
        assert_allclose(m.axis, [0.0, 0.0, 1.0], atol=1e-15)


class TestProductMeasurement:
    def test_container_protocol(self):
        pm = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        assert len(pm) == 3
        assert all(isinstance(m, BlochMeasurement) for m in pm)

    def test_from_angles(self):
        pm = ProductMeasurement.from_angles([(np.pi / 2.0, 0.0), (0.0, 0.0)])
        assert_allclose(pm.per_qubit[0].axis, [1.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(pm.per_qubit[1].axis, [0.0, 0.0, 1.0], atol=1e-15)

    def test_rejects_empty_and_wrong_type(self):
        with pytest.raises(ValueError, match="at least one"):
            ProductMeasurement(())
        with pytest.raises(TypeError, match="BlochMeasurement"):
            ProductMeasurement(((0.0, 0.0, 1.0),))


class TestProjectors:
    def test_completeness_idempotence_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=3)
            m = BlochMeasurement(v / np.linalg.norm(v))
            p_plus, p_minus = projectors(m)
            assert_allclose(p_plus + p_minus, np.eye(2), atol=1e-14)
            assert_allclose(p_plus @ p_plus, p_plus, atol=1e-14)
            assert_allclose(p_minus @ p_minus, p_minus, atol=1e-14)
            assert_allclose(p_plus @ p_minus, np.zeros((2, 2)), atol=1e-14)

    def test_z_axis_projectors(self):
        p_plus, p_minus = projectors(BlochMeasurement((0.0, 0.0, 1.0)))
        assert_allclose(p_plus, np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(p_minus, np.diag([0.0, 1.0]), atol=1e-15)

    def test_basis_columns_are_projector_eigenvectors(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = rng.uniform(0.0, np.pi)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            u = _basis_columns(theta, phi)
            assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)
            m = BlochMeasurement.from_angles(theta, phi)
            p_plus, p_minus = projectors(m)
            assert_allclose(np.outer(u[:, 0], u[:, 0].conj()), p_plus, atol=1e-13)
            assert_allclose(np.outer(u[:, 1], u[:, 1].conj()), p_minus, atol=1e-13)


class TestProductBasis:
    def test_equals_kronecker_chain(self):
        # Reference: the np.kron chain of per-qubit eigenbases. The broadcast
        # outer product does the same multiplications, so equality is exact.
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4):
            for trial in range(6):
                angles = rng.uniform(-10.0, 10.0, size=2 * n)
                if trial == 0:
                    angles[0::2] = 0.0
                elif trial == 1:
                    angles[0::2] = np.pi
                elif trial == 2:
                    angles[0::2] = rng.choice([0.0, np.pi, -3.0 * np.pi, 7.5], size=n)
                expected = _basis_columns(angles[0], angles[1])
                for j in range(2, 2 * n, 2):
                    expected = np.kron(expected, _basis_columns(angles[j], angles[j + 1]))
                assert np.array_equal(product_basis(angles), expected)


class TestChannels:
    def test_z_measurement_dephases_bell(self):
        pm = ProductMeasurement.uniform_axis(2, (0.0, 0.0, 1.0))
        out = apply_full(pm, BELL)
        assert_allclose(out.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_channel_is_idempotent(self):
        rng = np.random.default_rng(4)
        for i in range(5):
            rho = random_density_matrix(2, seed=i)
            v = rng.normal(size=(2, 3))
            pm = ProductMeasurement(
                BlochMeasurement(row / np.linalg.norm(row)) for row in v
            )
            once = apply_full(pm, rho)
            twice = apply_full(pm, once)
            assert_allclose(twice.matrix, once.matrix, atol=1e-13)
            assert_allclose(once.matrix.trace(), 1.0, atol=1e-13)

    def test_matches_projector_sum(self):
        # Reference: the literal non-selective channel sum_j P_j rho P_j over
        # all 2^n Kronecker products of the per-qubit projector pairs. The
        # first measurement of each size uses poles and equator points.
        special = np.array(
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        )
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            for i in range(3):
                rho = random_density_matrix(n, seed=40 + 10 * n + i)
                v = special[:n] if i == 0 else rng.normal(size=(n, 3))
                pm = ProductMeasurement(
                    BlochMeasurement(row / np.linalg.norm(row)) for row in v
                )
                outcome_projectors = [np.eye(1)]
                for m in pm:
                    outcome_projectors = [
                        np.kron(p, f) for p in outcome_projectors for f in projectors(m)
                    ]
                expected = sum(p @ rho.matrix @ p for p in outcome_projectors)
                probs = [np.trace(p @ rho.matrix).real for p in outcome_projectors]
                assert_allclose(apply_full(pm, rho).matrix, expected, atol=1e-13)
                assert_allclose(outcome_probabilities(pm, rho), probs, atol=1e-13)

    def test_arity_mismatch(self):
        pm = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="arity 3 does not match qubit count 2"):
            apply_full(pm, BELL)
        with pytest.raises(ValueError, match="arity"):
            outcome_probabilities(pm, BELL)


class TestOutcomeProbabilities:
    def test_bell_in_x_basis(self):
        pm = ProductMeasurement.uniform_axis(2, (1.0, 0.0, 0.0))
        probs = outcome_probabilities(pm, BELL)
        assert_allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-14)

    def test_bell_in_z_basis(self):
        pm = ProductMeasurement.uniform_axis(2, (0.0, 0.0, 1.0))
        probs = outcome_probabilities(pm, BELL)
        assert_allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-14)

    def test_normalization_on_random_states(self):
        rng = np.random.default_rng(6)
        for i in range(5):
            rho = random_density_matrix(3, seed=20 + i)
            v = rng.normal(size=(3, 3))
            pm = ProductMeasurement(
                BlochMeasurement(row / np.linalg.norm(row)) for row in v
            )
            probs = outcome_probabilities(pm, rho)
            assert np.all(probs >= -1e-12)
            assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_matches_measured_state_diagonal(self):
        rho = random_density_matrix(2, seed=30)
        pm = ProductMeasurement.uniform_axis(2, (0.0, 0.0, 1.0))
        probs = outcome_probabilities(pm, rho)
        measured = apply_full(pm, rho)
        assert_allclose(probs, np.diag(measured.matrix).real, atol=1e-13)
