import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Spectrum,
    _marginal,
    _pauli_blocks,
    _pauli_matrix,
    kron_all,
    partial_trace,
    permute_qubits,
    state_spectrum,
)
from qdiscord.analytic import werner_ghz_gqd, werner_ghz_optimal_measured_spectrum
from qdiscord.discord import induced_discord, q_qd_one_sided
from qdiscord.entropy import schur_concavity_witness
from qdiscord.measurement import ProductMeasurement, apply_full
from qdiscord.states import pauli_diagonal_state, random_density_matrix, werner_ghz

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def random_state_matrix(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace()


class TestPauliConstants:
    def test_algebra(self):
        assert_allclose(SIGMA_X @ SIGMA_X, IDENTITY_2)
        assert_allclose(SIGMA_Y @ SIGMA_Y, IDENTITY_2)
        assert_allclose(SIGMA_Z @ SIGMA_Z, IDENTITY_2)
        assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)

    def test_read_only(self):
        with pytest.raises(ValueError):
            SIGMA_X[0, 0] = 5.0


class TestKron:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2))
        assert_allclose(kron_all(a, b), np.kron(a, b))
        assert_allclose(kron_all(a, b, c), np.kron(np.kron(a, b), c))

    def test_left_factor_is_most_significant(self):
        up = np.diag([1.0, 0.0])
        down = np.diag([0.0, 1.0])
        m = kron_all(up, down)
        assert m[1, 1] == 1.0  # basis label 01: qubit 0 up, qubit 1 down


class TestDensityMatrix:
    def test_valid_state(self):
        rho = DensityMatrix(BELL)
        assert rho.num_qubits == 2
        assert rho.dim == 4
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(np.eye(3) / 3.0)
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(np.array([[1.0]]))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # NaN fails every comparison, so without this check a NaN matrix
        # passed the Hermiticity, trace and PSD checks.
        offdiag = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
        diag = np.array([[bad, 0.0], [0.0, 0.5]], dtype=complex)
        for m in (offdiag, diag):
            with pytest.raises(ValueError, match="finite"):
                DensityMatrix(m)

    def test_stored_eigenvalues(self):
        # The eigenvalues kept from the PSD check must be exactly what
        # numpy's eigvalsh returns on the stored matrix, in non-increasing
        # order, on every constructor route.
        rng = np.random.default_rng(21)
        rho = DensityMatrix(random_state_matrix(rng, 8))
        pm = ProductMeasurement.from_angles(rng.uniform(0.0, 6.0, size=(3, 2)))
        states = [
            rho,
            DensityMatrix(BELL),
            partial_trace(rho, (0, 2)),
            partial_trace(rho, (1,)),
            permute_qubits(rho, (2, 0, 1)),
            apply_full(pm, rho),
        ]
        for state in states:
            w = state.eigenvalues
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 1.0
            assert np.all(np.diff(w) <= 0.0)
            assert np.all(np.isfinite(w))
            assert np.array_equal(w, np.linalg.eigvalsh(state.matrix)[::-1])


class TestSpectrum:
    def test_sorts_descending_and_clamps(self):
        s = Spectrum([0.25, 0.75, -1e-13, 1e-13])
        assert s.probs[0] == 0.75
        assert s.probs[-1] == 0.0
        assert np.all(np.diff(s.probs) <= 0)
        assert len(s) == 4

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="entries"):
            Spectrum([1.2, -0.2])
        with pytest.raises(ValueError, match="sum"):
            Spectrum([0.5, 0.4])
        with pytest.raises(ValueError, match="empty"):
            Spectrum([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="entries"):
            Spectrum([np.nan, 0.5, 0.5])


class TestPartialTrace:
    def test_bell_marginals(self):
        rho = DensityMatrix(BELL)
        for k in (0, 1):
            assert_allclose(partial_trace(rho, (k,)).matrix, IDENTITY_2 / 2, atol=1e-14)

    def test_hermitian_state_keeps_the_kernel_s_bits(self):
        # partial_trace validates the Hermitian part of _marginal's array,
        # which is that array, byte for byte, on an exactly Hermitian state.
        for n in (2, 3, 4):
            rho = random_density_matrix(n, seed=240 + n)
            for keep in [(0,), (n - 1,), (0, n - 1), tuple(range(n - 1))]:
                assert partial_trace(rho, keep).matrix.tobytes() == _marginal(rho.matrix, n, keep).tobytes()

    def test_product_state_factors(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
        rho = DensityMatrix(kron_all(a, b))
        assert_allclose(partial_trace(rho, (0,)).matrix, a, atol=1e-14)
        assert_allclose(partial_trace(rho, (1,)).matrix, b, atol=1e-14)

    def test_ghz_outer_pair(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
        rho = DensityMatrix(np.outer(ghz, ghz.conj()))
        reduced = partial_trace(rho, (0, 2))
        assert_allclose(reduced.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_keep_all_returns_same_state(self):
        rho = DensityMatrix(BELL)
        assert partial_trace(rho, (0, 1)) is rho

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = DensityMatrix(random_state_matrix(rng, 8))
            for keep in ((0,), (1, 2), (0, 2)):
                assert_allclose(partial_trace(rho, keep).matrix.trace(), 1.0)

    def test_errors(self):
        rho = DensityMatrix(BELL)
        with pytest.raises(ValueError, match="trace out all"):
            partial_trace(rho, ())
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, (0, 2))
        with pytest.raises(ValueError, match="keep must be a collection of qubit indices"):
            partial_trace(rho, 0)


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


class TestPermuteQubits:
    def test_new_qubit_k_is_old_order_k(self):
        a = np.diag([0.9, 0.1]).astype(complex)
        b = np.diag([0.6, 0.4]).astype(complex)
        c = np.diag([0.2, 0.8]).astype(complex)
        rho = DensityMatrix(kron_all(a, b, c))
        out = permute_qubits(rho, (2, 0, 1))
        assert_allclose(out.matrix, kron_all(c, a, b), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        rho = DensityMatrix(random_state_matrix(rng, 8))
        fwd = permute_qubits(rho, (1, 2, 0))
        back = permute_qubits(fwd, (2, 0, 1))
        assert_allclose(back.matrix, rho.matrix, atol=1e-14)

    def test_rejects_non_permutation(self):
        rho = DensityMatrix(BELL)
        with pytest.raises(ValueError, match="permutation"):
            permute_qubits(rho, (0, 0))
        with pytest.raises(ValueError, match="permutation"):
            permute_qubits(rho, 1)


class TestStateSpectrum:
    def test_bell_spectrum(self):
        s = state_spectrum(DensityMatrix(BELL))
        assert_allclose(s.probs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_diagonal_state(self):
        s = state_spectrum(DensityMatrix(np.diag([0.125, 0.625, 0.125, 0.125])))
        assert_allclose(s.probs, [0.625, 0.125, 0.125, 0.125], atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = state_spectrum(DensityMatrix(random_state_matrix(rng, 16)))
            assert_allclose(s.probs.sum(), 1.0, atol=1e-12)

    def test_many_eigenvalues_just_below_zero(self):
        # An admitted state with 14 eigenvalues at -9e-10: clipping them up
        # to 0 alone would leave a sum 1.26e-8 above 1, past Spectrum.SUM_TOL.
        rho = DensityMatrix(np.diag([0.5 + 6.3e-9] * 2 + [-9e-10] * 14))
        s = state_spectrum(rho)
        assert len(s) == 16
        assert abs(s.probs.sum() - 1.0) <= 1e-15
        assert np.all(s.probs >= 0.0)


RHO3 = random_density_matrix(3, seed=3)
PHI3 = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: induced_discord(RHO3, PHI3, 0.5, cut=((0, 1), (2.7,))), "qubit index must be an integer"),
        (lambda: induced_discord(RHO3, PHI3, 0.5, cut=((0,), (1,), (2,))), "bipartition is a pair"),
        (lambda: partial_trace(RHO3, [0.9]), "qubit index must be an integer"),
        (lambda: permute_qubits(RHO3, [0.0, 1.0, 2.0]), "qubit index must be an integer"),
        (lambda: q_qd_one_sided(RHO3, [1.5], 0.5), "qubit index must be an integer"),
        (lambda: werner_ghz(3.7, 0.5), "qubit count must be an integer"),
        (lambda: werner_ghz_gqd(3.7, 0.5, 0.5), "qubit count must be an integer"),
        (lambda: werner_ghz_optimal_measured_spectrum(2.5, 0.5), "qubit count must be an integer"),
        (lambda: pauli_diagonal_state(2.9, 0.1, 0.1, 0.1), "qubit count must be an integer"),
        (lambda: random_density_matrix(2.5), "qubit count must be an integer"),
        (lambda: ProductMeasurement.uniform_axis(2.5, (0.0, 0.0, 1.0)), "qubit count must be an integer"),
        (lambda: schur_concavity_witness(0.5, 2.5), "trials must be an integer"),
    ],
    ids=[
        "cut-index", "three-sided-cut", "partial-trace", "permute", "one-sided",
        "werner", "werner-closed-form", "werner-spectrum", "pauli", "random",
        "uniform-axis", "schur-trials",
    ],
)
def test_non_integer_indices_and_counts_are_rejected(call, message):
    # A float index or count used to be truncated by int(); now it is an error.
    with pytest.raises(ValueError, match=message):
        call()
