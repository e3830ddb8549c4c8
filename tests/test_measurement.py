import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord import measurement
from qdiscord.linalg import DensityMatrix
from qdiscord.measurement import (
    BlochMeasurement,
    ProductMeasurement,
    _lift,
    _sign_product,
    _signs,
    apply_full,
    outcome_probabilities,
    projectors,
)
from qdiscord.states import random_density_matrix
from rotated_basis import rotated_basis
from rows_last_lift import rows_last_lift

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


def ginibre_state(n, rng):
    """A random n-qubit state g g^dagger / tr(g g^dagger), at any n."""
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)


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

    def test_rejects_nan_axis(self):
        with pytest.raises(ValueError, match="unit length"):
            BlochMeasurement((np.nan, 0.0, 0.0))
        with pytest.raises(ValueError, match="unit length"):
            BlochMeasurement.from_angles(np.nan, 0.0)

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


class TestLift:
    def test_lift_is_the_kronecker_product_of_the_factors(self):
        rng = np.random.default_rng(14)
        for m in (1, 2, 3, 4):
            angles = rng.uniform(-8.0, 8.0, size=(3, 2 * m))
            for row, v in zip(angles, _lift(angles)):
                expected = np.ones(1)
                for theta, phi in row.reshape(-1, 2):
                    axis = BlochMeasurement.from_angles(theta, phi).axis
                    expected = np.kron(expected, np.concatenate([[1.0], axis]))
                assert_allclose(v, expected, rtol=0, atol=1e-15)

    def test_sign_table(self):
        # X[mu, j] = 2^-m prod over the non-identity digits of mu of qubit
        # k's sign in outcome j (qubit 0 the high bit, bit 0 for +).
        for m in (1, 2, 3):
            x = _signs(m)
            assert x.shape == (4**m, 2**m) and not x.flags.writeable
            for mu_index in range(4**m):
                mu = [(mu_index >> (2 * (m - 1 - k))) & 3 for k in range(m)]
                for j in range(2**m):
                    sign = np.prod([-1.0 if (j >> (m - 1 - k)) & 1 and mu[k] else 1.0 for k in range(m)])
                    assert x[mu_index, j] == sign / 2**m

    def test_sign_product_applies_the_table_in_groups(self):
        # Up to four qubits the product is the table's own, bit for bit; above,
        # it is the Kronecker product of the groups' tables.
        rng = np.random.default_rng(16)
        for m in (1, 2, 3, 4, 5, 6):
            x = np.ones((1, 1))
            for _ in range(m):
                x = np.kron(x, _signs(1))
            y, e = rng.normal(size=(3, 4**m, 2)), rng.normal(size=(3, 2**m, 2))
            forward, backward = _sign_product(y, m, transpose=True), _sign_product(e, m, transpose=False)
            assert forward.flags.c_contiguous and backward.flags.c_contiguous
            if m <= 4:
                assert np.array_equal(forward, _signs(m).T @ y) and np.array_equal(backward, _signs(m) @ e)
            assert_allclose(forward, x.T @ y, rtol=0, atol=1e-14)
            assert_allclose(backward, x @ e, rtol=0, atol=1e-14)
            for k in range(3):
                assert np.array_equal(forward[k], _sign_product(y[k : k + 1], m, transpose=True)[0])

    def test_no_table_above_four_qubits(self, monkeypatch):
        # A dense table of n = 8 qubits would hold 8^8 entries, 134 MB.
        built = []

        def spy(m):
            built.append(m)
            return _signs(m)

        monkeypatch.setattr(measurement, "_signs", spy)
        n = 8
        rng = np.random.default_rng(17)
        rho = ginibre_state(n, rng)
        angles = rng.uniform(-8.0, 8.0, size=2 * n)
        w = rotated_basis(angles)
        probs = np.einsum("aj,ab,bj->j", w.conj(), rho.matrix, w).real
        pm = ProductMeasurement.from_angles(angles.reshape(-1, 2))
        assert_allclose(outcome_probabilities(pm, rho), probs, rtol=0, atol=1e-13)
        assert built and max(built) <= 4

    def test_pullback_matches_central_differences(self):
        rng = np.random.default_rng(15)
        step = 1e-6
        for m in (1, 2, 3, 4):
            angles = rng.uniform(-8.0, 8.0, size=(5, 2 * m))
            angles[0, 0::2] = 0.0
            v, pullback = _lift(angles, gradient=True)
            assert np.array_equal(v, _lift(angles))
            g = rng.normal(size=v.shape)
            central = np.empty(angles.shape)
            for i in range(2 * m):
                shift = np.zeros(2 * m)
                shift[i] = step
                central[:, i] = ((_lift(angles + shift) - _lift(angles - shift)) * g).sum(axis=1) / (2 * step)
            assert_allclose(pullback(g), central, rtol=0, atol=1e-7)

    def test_equals_the_rows_last_lift(self):
        # Rows first or rows last, the lift and its pullback take the same
        # products in the same order, so they agree bit for bit, signed
        # zeros included (the zero angles of row 0 give exact zeros).
        rng = np.random.default_rng(18)
        for m in (1, 2, 3, 4, 5):
            for k in (1, 4, 9):
                angles = rng.uniform(-8.0, 8.0, size=(k, 2 * m))
                angles[0, ::2] = 0.0
                v, pullback = _lift(angles, gradient=True)
                ref_v, ref_pullback = rows_last_lift(angles, gradient=True)
                g = rng.normal(size=v.shape)
                assert v.tobytes() == np.ascontiguousarray(ref_v).tobytes()
                assert _lift(angles).tobytes() == v.tobytes()
                assert pullback(g).tobytes() == ref_pullback(g).tobytes()

    def test_rows_are_independent(self):
        rng = np.random.default_rng(16)
        for m in (1, 2, 3, 4):
            angles = rng.uniform(-8.0, 8.0, size=(9, 2 * m))
            v, pullback = _lift(angles, gradient=True)
            g = rng.normal(size=v.shape)
            grads = pullback(g)
            for k in range(len(angles)):
                v_k, pullback_k = _lift(angles[k : k + 1], gradient=True)
                assert np.array_equal(v_k[0], v[k])
                assert np.array_equal(pullback_k(g[k : k + 1])[0], grads[k])


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
        # first measurement of each size uses poles and equator points. Five
        # qubits, above the desk-scale limit of a random state, apply the sign
        # table in two groups.
        special = np.array(
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]
        )
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 4, 5):
            for i in range(3):
                rho = random_density_matrix(n, seed=40 + 10 * n + i) if n <= 4 else ginibre_state(n, rng)
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

    def test_matches_three_operand_einsum(self):
        # Reference: diag(W^dagger rho W) by the 3-operand einsum over the
        # rotated product basis. The lift sums the Pauli expansion instead,
        # so agreement is to rounding.
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            rho = random_density_matrix(n, seed=60 + n)
            angles = rng.uniform(-8.0, 8.0, size=(7, 2 * n))
            angles[0, 0::2] = 0.0
            for row, w in zip(angles, rotated_basis(angles)):
                pm = ProductMeasurement.from_angles(row.reshape(-1, 2))
                probs = np.einsum("aj,ab,bj->j", w.conj(), rho.matrix, w).real
                assert_allclose(outcome_probabilities(pm, rho), probs, rtol=0, atol=1e-13)

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
