import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kron_reference
from qdiscord import measurement
from qdiscord.linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, _marginal, kron_all
from qdiscord.measurement import (
    BlochMeasurement,
    ProductMeasurement,
    _kron_power,
    _lift,
    _pauli_blocks,
    _pauli_matrix,
    _sign_product,
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
            x = _kron_power("signs", m)
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
                x = np.kron(x, _kron_power("signs", 1))
            y, e = rng.normal(size=(3, 4**m, 2)), rng.normal(size=(3, 2**m, 2))
            forward, backward = _sign_product(y, m, transpose=True), _sign_product(e, m, transpose=False)
            assert forward.flags.c_contiguous and backward.flags.c_contiguous
            if m <= 4:
                table = _kron_power("signs", m)
                assert np.array_equal(forward, table.T @ y) and np.array_equal(backward, table @ e)
            assert_allclose(forward, x.T @ y, rtol=0, atol=1e-14)
            assert_allclose(backward, x @ e, rtol=0, atol=1e-14)
            for k in range(3):
                assert np.array_equal(forward[k], _sign_product(y[k : k + 1], m, transpose=True)[0])

    def test_sign_product_equals_the_two_loop_reference(self):
        # Up to four qubits both are one matmul with X or its transposed
        # view, bit for bit; at m = 5 and 6 the reference applies the groups
        # in the other order, so the sums may round differently.
        rng = np.random.default_rng(19)
        for m in range(1, 7):
            for k in (1, 4, 9):
                for transpose in (True, False):
                    for f in (1, 8):
                        y = rng.normal(size=(k, 4**m if transpose else 2**m, f))
                        got = _sign_product(y, m, transpose)
                        reference = kron_reference._sign_product(y, m, transpose)
                        assert got.shape == reference.shape
                        if m <= 4:
                            assert got.tobytes() == reference.tobytes()
                        else:
                            assert_allclose(got, reference, rtol=0, atol=1e-14)

    def test_no_table_above_four_qubits(self, monkeypatch):
        # A dense table of n = 8 qubits would hold 8^8 entries, 134 MB.
        built = []

        def spy(name, k):
            built.append(k)
            return _kron_power(name, k)

        monkeypatch.setattr(measurement, "_kron_power", spy)
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


class TestPauliBlocks:
    def test_matches_the_definition(self):
        # R_mu = tr_M[(sigma_mu (x) I_U) rho], built term by term with kron
        # and traced with _marginal, for every measured subset at n = 1-4.
        paulis = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
        for n in (1, 2, 3, 4):
            rho = random_density_matrix(n, seed=250 + n).matrix
            for m in range(1, n + 1):
                for measured in itertools.combinations(range(n), m):
                    blocks = _pauli_blocks(rho[None], n, measured)[0]
                    unmeasured = tuple(i for i in range(n) if i not in measured)
                    assert blocks.shape == (4**m, 2 ** (n - m), 2 ** (n - m))
                    for j, mu in enumerate(itertools.product(range(4), repeat=m)):
                        ops = [paulis[mu[measured.index(i)]] if i in measured else IDENTITY_2 for i in range(n)]
                        product = kron_all(*ops) @ rho
                        if unmeasured:
                            expected = _marginal(product, n, unmeasured)
                        else:
                            expected = product.trace().reshape(1, 1)
                        assert_allclose(blocks[j], expected, rtol=0, atol=1e-15)

    def test_each_matrix_is_its_own(self):
        # A matrix's blocks are the same bits whatever else the stack holds.
        for n, measured in ((2, (0, 1)), (3, (0, 1, 2)), (4, (0, 1, 2, 3)), (3, (1,)), (4, (0, 2))):
            stack = np.array([random_density_matrix(n, seed=260 + k).matrix for k in range(5)])
            together = _pauli_blocks(stack, n, measured)
            for k in range(5):
                assert np.array_equal(together[k], _pauli_blocks(stack[k : k + 1], n, measured)[0])

    def test_equals_the_two_loop_reference(self):
        # The blocks are the reference's bits, signed zeros included, for
        # stacks of 1, 3 and 9 at n = 1-6 with every qubit, the last qubit
        # or every other qubit measured.
        rng = np.random.default_rng(280)
        for n in range(1, 7):
            for s in (1, 3, 9):
                stack = rng.normal(size=(s, 2**n, 2**n)) + 1j * rng.normal(size=(s, 2**n, 2**n))
                for measured in (tuple(range(n)), (n - 1,), tuple(range(0, n, 2))):
                    blocks = _pauli_blocks(stack, n, measured)
                    reference = kron_reference._pauli_blocks(stack, n, measured)
                    assert blocks.shape == reference.shape
                    assert blocks.tobytes() == reference.tobytes()

    def test_pauli_matrix_inverts_the_blocks(self):
        # _pauli_matrix(t, n) is sum_mu t_mu sigma_mu, term by term with kron
        # at n = 1-3, and _pauli_blocks of it over 2^n gives back t at n = 1-5.
        paulis = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
        rng = np.random.default_rng(270)
        for n in (1, 2, 3, 4, 5):
            t = rng.uniform(-1.0, 1.0, size=4**n)
            matrix = _pauli_matrix(t, n)
            assert matrix.shape == (2**n, 2**n)
            if n <= 3:
                expected = sum(
                    c * kron_all(*(paulis[k] for k in mu))
                    for c, mu in zip(t, itertools.product(range(4), repeat=n))
                )
                assert_allclose(matrix, expected, rtol=0, atol=1e-14)
            back = _pauli_blocks((matrix / 2**n)[None], n, range(n)).reshape(-1)
            assert_allclose(back, t, rtol=0, atol=1e-14)


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
