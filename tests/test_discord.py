import dataclasses
import functools
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kron_reference
from qdiscord import discord
from qdiscord.discord import (
    OptimizerConfig,
    _evaluate,
    _make_objective,
    induced_discord,
    mutual_information_q,
    q_gqd,
    q_gqd_many,
    q_qd_one_sided,
    q_qd_one_sided_many,
)
from qdiscord.entropy import _hq, _terms, tsallis_entropy
from qdiscord.linalg import HERMITICITY_TOL, DensityMatrix, _marginal, partial_trace, permute_qubits
from qdiscord.measurement import (
    BlochMeasurement,
    ProductMeasurement,
    _angles,
    apply_full,
    projectors,
)
from qdiscord.monogamy import decompose_induced_gqd
from qdiscord.states import random_density_matrix, werner_ghz
from rotated_basis import rotated_basis

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


def single(rho, q, measured, groups):
    """The objective of one problem, whose rows default to that problem."""
    objective = _make_objective([rho], [q], measured, [groups])

    def call(angles, owner=None, gradient=False):
        if owner is None:
            owner = np.zeros(len(angles), dtype=np.intp)
        return objective(angles, owner, gradient)

    return call


def ginibre_state(n, seed):
    """A random full-rank n-qubit state G G^dagger / tr, for sizes beyond random_density_matrix's."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_angles(rng, m):
    theta = rng.uniform(0.0, np.pi, size=m)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return np.column_stack([theta, phi]).ravel()


class TestCut:
    # A cut is a plain (left, right) pair, checked where it is used.
    def test_sides_are_sorted(self):
        rho = random_density_matrix(3, seed=61)
        phi = ProductMeasurement.from_angles([(0.3, 1.1), (2.0, 0.4), (1.2, 5.0)])
        for q in (0.5, 1.0, 2.0):
            unsorted = induced_discord(rho, phi, q, cut=((2, 0), (1,)))
            assert unsorted == induced_discord(rho, phi, q, cut=((0, 2), (1,)))

    def test_side_order_does_not_matter(self):
        # The side holding qubit 0 comes first whichever way the cut is
        # written, so the two orders are one problem with the same floats.
        rho = random_density_matrix(3, seed=7)
        assert discord._parties(3, ((1,), (2, 0))) == ((0, 2), (1,))
        reversed_cut = q_gqd(rho, 0.5, LIGHT, cut=((1,), (0, 2)))
        assert report_fields(reversed_cut) == report_fields(q_gqd(rho, 0.5, LIGHT, cut=((0, 2), (1,))))
        phi = ProductMeasurement.from_angles([(0.3, 1.1), (2.0, 0.4), (1.2, 5.0)])
        assert induced_discord(rho, phi, 0.5, cut=((1,), (0, 2))) == induced_discord(rho, phi, 0.5, cut=((0, 2), (1,)))

    def test_rejects_empty_or_overlapping(self):
        rho = random_density_matrix(3, seed=61)
        phi = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="both sides of a bipartition must be nonempty"):
            induced_discord(rho, phi, 0.5, cut=((), (0, 1, 2)))
        with pytest.raises(ValueError, match="bipartition sides must be disjoint"):
            q_gqd(rho, 0.5, LIGHT, cut=((0, 1), (1, 2)))

    def test_rejects_sides_that_are_not_sequences(self, monkeypatch):
        # A cut, a side or a measured subset that is not a sequence raises
        # ValueError like every other malformed one, before any objective call.
        calls = count_rows(monkeypatch)
        rho = random_density_matrix(3, seed=61)
        phi = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        for cut in (((0,), 1), 5):
            with pytest.raises(ValueError, match="a bipartition is a pair of sides"):
                q_gqd(rho, 0.5, LIGHT, cut=cut)
            with pytest.raises(ValueError, match="a bipartition is a pair of sides"):
                induced_discord(rho, phi, 0.5, cut=cut)
        with pytest.raises(ValueError, match="measured qubits must be a sequence"):
            q_qd_one_sided(rho, 2, 0.5, LIGHT)
        assert calls == []

    def test_rejects_non_integer_indices(self):
        # A float index equals and hashes like its int, so a cut checked
        # once must still refuse it in float form, before or after the int
        # form has been seen.
        rho = random_density_matrix(3, seed=61)
        phi = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        induced_discord(rho, phi, 0.5, cut=((0,), (1, 2)))
        for cut in (((0,), (1.0, 2)), ((0.0,), (1, 2))):
            with pytest.raises(ValueError, match="qubit index must be an integer"):
                induced_discord(rho, phi, 0.5, cut=cut)
            with pytest.raises(ValueError, match="qubit index must be an integer"):
                q_gqd(rho, 0.5, LIGHT, cut=cut)

    def test_must_cover_every_qubit(self):
        rho = random_density_matrix(3, seed=61)
        phi = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="bipartition must cover every qubit exactly once"):
            induced_discord(rho, phi, 0.5, cut=((0,), (1,)))


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
        with pytest.raises(ValueError, match="seed must be non-negative"):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_evals", 10.5),
            ("max_evals", float("nan")),
            ("starts", 2.5),
            ("starts", np.float64(3.0)),
            ("starts", float("inf")),
            ("seed", 1.5),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        # Construction only: a solve with starts=inf would never end.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})


class TestStartPoints:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_first_eight_starts_are_distinct_measurements(self, m):
        # Two starts are one measurement when every qubit's axis agrees up
        # to sign, since n and -n give the same projectors. With one
        # measured qubit the mixed patterns of starts 4-7 would repeat
        # starts 0-3 and run the same searches twice.
        axes = [
            [BlochMeasurement.from_angles(theta, phi).axis for theta, phi in start.reshape(-1, 2)]
            for start in discord._start_points(m, OptimizerConfig(starts=8))
        ]
        for a in range(8):
            for b in range(a):
                same = all(
                    np.allclose(u, v, atol=1e-9) or np.allclose(u, -v, atol=1e-9)
                    for u, v in zip(axes[a], axes[b])
                )
                assert not same, (a, b)

    def test_no_generator_without_random_starts(self, monkeypatch):
        # Up to eight starts are all grid patterns, so a solve draws nothing
        # and builds no seeded generator.
        rho = random_density_matrix(3, seed=3)

        def refuse(seed=None):
            raise AssertionError("a generator was built for grid starts only")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        report = q_gqd(rho, 0.5, OptimizerConfig(starts=8, max_evals=50))
        assert report.starts_used == 8
        assert q_qd_one_sided(rho, (2,), 0.5, OptimizerConfig(starts=8, max_evals=50)).starts_used == 8


def reference_mutual_information(rho, groups, q):
    """-S_q(rho) + sum_g S_q(rho_g), one tsallis_entropy call per state."""
    total = -tsallis_entropy(rho, q)
    for g in groups:
        total += tsallis_entropy(partial_trace(rho, g), q)
    return total


class TestMutualInformation:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.99, 1.0, 1.01, 2.0])
    def test_one_kernel_call_equals_entropy_sum(self, q):
        # mutual_information_q is the reference's entropy sum, bit for bit,
        # past the solver's qubit limit too: a 5-qubit product of exactly
        # Hermitian factors, whose marginals partial_trace takes as they are.
        # q = 1 takes the Shannon branch.
        rhos = [random_density_matrix(n, seed=400 + 10 * n + seed) for n in (2, 3, 4) for seed in range(8)]
        a, b = (random_density_matrix(n, seed=450 + n).matrix for n in (4, 1))
        rhos.append(DensityMatrix(np.kron((a + a.conj().T) / 2, (b + b.conj().T) / 2)))
        for rho in rhos:
            expected = reference_mutual_information(rho, discord._parties(rho.num_qubits, None), q)
            assert mutual_information_q(rho, q).hex() == expected.hex()

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.99, 1.0, 1.01, 2.0])
    def test_constants_do_not_depend_on_their_block(self, q):
        # One objective over every split of a state (the whole state and
        # each cut) at q and 0.7, each marginal computed once: at fixed
        # angles each row is the float of its problem's one-problem
        # objective, whose constant row is alone and narrower. At n = 5 the
        # widest rows (1|4) have 18 marginal entries, past the 8 that
        # numpy's pairwise sum takes in one pass.
        for n in (2, 3, 4, 5):
            splits = [None] + [
                (left, tuple(i for i in range(n) if i not in left))
                for size in range(1, n)
                for left in itertools.combinations(range(n), size)
                if 0 in left
            ]
            measured = tuple(range(n))
            groups = [discord._parties(n, cut) for cut in splits] * 2
            qs = [q] * len(splits) + [0.7] * len(splits)
            for seed in range(2):
                rho = ginibre_state(n, seed=400 + 10 * n + seed)
                rng = np.random.default_rng(seed)
                angles = np.array([random_angles(rng, n) for _ in groups])
                owner = np.arange(len(groups))
                values = _make_objective([rho] * len(groups), qs, measured, groups)(angles, owner)
                for k, (parties, q_k) in enumerate(zip(groups, qs)):
                    alone = single(rho, q_k, measured, parties)(angles[k : k + 1])
                    assert values[k].hex() == alone[0].hex()

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

    def test_eigenvalues_just_outside_unit_interval(self):
        # An admitted state whose eigenvalues stray 5e-10 past [0, 1].
        rho = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))
        for q in (0.5, 1.0, 2.0):
            for value in (mutual_information_q(rho, q), q_gqd(rho, q, LIGHT).value):
                assert np.isfinite(value)
                assert abs(value) <= 1e-9

    def test_builds_no_density_matrix(self, monkeypatch):
        # Every problem constant takes its marginals as plain arrays, so
        # neither mutual_information_q nor a solve of 4-qubit jobs, whole,
        # cut and one-sided, builds a DensityMatrix.
        rhos = [random_density_matrix(4, seed=60 + i) for i in range(2)]
        built = []
        init = DensityMatrix.__init__

        def counting(self, matrix):
            init(self, matrix)
            built.append(self.dim)

        monkeypatch.setattr(DensityMatrix, "__init__", counting)
        mutual_information_q(rhos[0], 0.5)
        assert built == []
        jobs = [(rhos[0], 0.5, None, None), (rhos[1], 2.0, None, ((0, 1), (2, 3))), (rhos[1], 1.0, (3,), None)]
        discord._minimize_many(jobs, LIGHT)
        assert built == []

    def test_state_with_admitted_hermiticity_error(self):
        # Each entry (r, 8 + r) is off Hermitian by 0.45e-10, under the
        # 1e-10 tolerance, and the qubit-0 marginal sums all eight of them.
        # The whole-state paths take the admitted state's marginals as they
        # are, and land within 1e-8 of the values on its Hermitian part.
        m = random_density_matrix(4, 5).matrix.copy()
        for r in range(8):
            m[r, 8 + r] += 0.45e-10j
        marginal = _marginal(m, 4, (0,))
        assert np.abs(marginal - marginal.conj().T).max() > HERMITICITY_TOL
        rho, fixed = DensityMatrix(m), DensityMatrix((m + m.conj().T) / 2)
        phi = ProductMeasurement.from_angles(random_angles(np.random.default_rng(5), 4).reshape(-1, 2))
        for q in (0.5, 1.0, 2.0):
            assert_allclose(mutual_information_q(rho, q), mutual_information_q(fixed, q), rtol=0, atol=1e-8)
            assert_allclose(induced_discord(rho, phi, q), induced_discord(fixed, phi, q), rtol=0, atol=1e-8)
        assert np.isfinite(q_gqd(rho, 0.5, LIGHT).value)


class TestFastObjective:
    def test_matches_direct_channel_route(self):
        # The optimizer objective works from outcome probabilities; it must
        # agree with applying the channel and recomputing mutual information
        # from scratch, and induced_discord must give the same row.
        rng = np.random.default_rng(0)
        for n, cut in ((2, None), (3, None), (4, None), (4, ((0, 2), (1, 3)))):
            rho = random_density_matrix(n, seed=100 + n)
            groups = discord._parties(n, cut)
            for q in (0.5, 1.0, 2.0):
                objective = single(rho, q, tuple(range(n)), groups)
                angles = np.array([random_angles(rng, n) for _ in range(5)])
                direct, induced = [], []
                for a in angles:
                    phi = ProductMeasurement.from_angles(a.reshape(-1, 2))
                    direct.append(
                        reference_mutual_information(rho, groups, q)
                        - reference_mutual_information(apply_full(phi, rho), groups, q)
                    )
                    induced.append(induced_discord(rho, phi, q, cut=cut))
                assert_allclose(objective(angles), direct, atol=1e-11)
                assert_allclose(induced, direct, atol=1e-11)

    def test_partial_measurement_route(self):
        # Measuring only qubit 2: the objective must equal the bipartite
        # information drop with the channel sum_+- (I_4 x P) rho (I_4 x P)
        # acting on qubit 2 alone.
        rng = np.random.default_rng(1)
        rho = random_density_matrix(3, seed=7)
        q = 0.7
        cut = ((0, 1), (2,))
        objective = single(rho, q, (2,), cut)
        angles = np.array([random_angles(rng, 1) for _ in range(5)])
        drops = []
        for a in angles:
            m = BlochMeasurement.from_angles(a[0], a[1])
            measured_state = DensityMatrix(
                sum(
                    np.kron(np.eye(4), p) @ rho.matrix @ np.kron(np.eye(4), p)
                    for p in projectors(m)
                )
            )
            drops.append(
                reference_mutual_information(rho, cut, q) - reference_mutual_information(measured_state, cut, q)
            )
        assert_allclose(objective(angles), drops, atol=1e-11)

    @pytest.mark.parametrize(
        "n, measured, groups",
        [
            (2, (0, 1), ((0,), (1,))),
            (3, (0, 1, 2), ((0,), (1,), (2,))),
            (3, (0, 1, 2), ((0, 1), (2,))),
            (3, (2,), ((0, 1), (2,))),
            (4, (0, 1, 2, 3), ((0,), (1,), (2,), (3,))),
            (4, (1, 3), ((0, 2), (1, 3))),
        ],
    )
    def test_rows_are_independent(self, n, measured, groups):
        # A row of a batch is the same float as that row evaluated alone.
        rng = np.random.default_rng(n + len(measured))
        rho = random_density_matrix(n, seed=90 + n)
        angles = rng.uniform(-8.0, 8.0, size=(9, 2 * len(measured)))
        angles[0, 0::2] = 0.0
        for q in (0.5, 1.0, 2.0):
            objective = single(rho, q, measured, groups)
            batch = objective(angles)
            alone = [objective(angles[k : k + 1])[0] for k in range(len(angles))]
            assert batch.shape == (len(angles),)
            assert np.array_equal(batch, alone)
            values, grads = objective(angles, gradient=True)
            alone = [objective(angles[k : k + 1], gradient=True) for k in range(len(angles))]
            assert grads.shape == angles.shape
            assert np.array_equal(values, [f[0] for f, _ in alone])
            assert np.array_equal(grads, [g[0] for _, g in alone])
        # Rows of several problems, each with its own state and q (q = 1
        # takes the Shannon branch beside q != 1 rows), interleaved.
        rhos = [rho, random_density_matrix(n, seed=95 + n), random_density_matrix(n, seed=98 + n)]
        qs = [0.5, 1.0, 2.0]
        owner = np.arange(len(angles)) % 3
        objective = _make_objective(rhos, qs, measured, [groups] * 3)
        values, grads = objective(angles, owner, gradient=True)
        assert np.array_equal(values, objective(angles, owner))
        for k in range(len(angles)):
            f, g = single(rhos[owner[k]], qs[owner[k]], measured, groups)(angles[k : k + 1], gradient=True)
            assert values[k] == f[0]
            assert np.array_equal(grads[k], g[0])

    @pytest.mark.parametrize(
        "n, cuts, width",
        [
            (3, [None, ((0,), (1, 2)), ((0, 1), (2,)), ((1,), (0, 2))], 6),
            # Singles and 2|2 have 8 marginal entries, 1|3 and 3|1 have 10.
            (
                4,
                [None, ((0, 1), (2, 3)), ((0,), (1, 2, 3)), ((0, 1, 2), (3,)), ((0, 2), (1, 3)), ((1,), (0, 2, 3))],
                10,
            ),
            # Singles have 10 marginal entries and (0123)|(4) has 18, past
            # the 8 entries numpy's pairwise sum takes in one pass.
            (5, [None, ((0, 1, 2, 3), (4,))], 18),
        ],
    )
    def test_rows_of_mixed_cuts_are_their_own_problems(self, n, cuts, width):
        # Whole states and cuts in one batch, each problem with its own
        # parties (q = 1 takes the Shannon branch beside q != 1 rows): every
        # row gives the value and gradient floats of a one-problem objective
        # built with that row's cut, though the problems' marginals differ
        # in length, the widest having width entries. At n = 5 the whole
        # state and the cut are one state, as in a telescoping ledger.
        rng = np.random.default_rng(40 + n)
        measured = tuple(range(n))
        if n == 5:
            rhos = [ginibre_state(5, seed=150)] * len(cuts)
        else:
            rhos = [random_density_matrix(n, seed=60 + 10 * n + k) for k in range(len(cuts))]
        qs = [0.25, 0.5, 1.0, 2.0, 1.5, 0.7][: len(cuts)]
        groups = [discord._parties(n, cut) for cut in cuts]
        assert max(discord._marginal_table(measured, parties).shape[1] for parties in groups) == width
        angles = np.array([random_angles(rng, n) for _ in range(max(3 * len(cuts), 12))])
        owner = np.arange(len(angles)) % len(cuts)
        objective = _make_objective(rhos, qs, measured, groups)
        values, grads = objective(angles, owner, gradient=True)
        assert np.array_equal(values, objective(angles, owner))
        for k, j in enumerate(owner):
            f, g = single(rhos[j], qs[j], measured, groups[j])(angles[k : k + 1], gradient=True)
            assert values[k] == f[0]
            assert np.array_equal(grads[k], g[0])

    @pytest.mark.parametrize(
        "n, measured, groups, state",
        [
            (2, (0, 1), ((0,), (1,)), "random"),
            (3, (0, 1, 2), ((0,), (1,), (2,)), "random"),
            (3, (0, 1, 2), ((0, 1), (2,)), "random"),
            (3, (2,), ((0, 1), (2,)), "random"),
            (4, (0, 1, 2, 3), ((0,), (1,), (2,), (3,)), "random"),
            (4, (1, 3), ((0, 2), (1, 3)), "random"),
            # one-sided GHZ dilution: degenerate block spectra
            (3, (0,), ((1, 2), (0,)), "werner-ghz"),
        ],
    )
    def test_gradient_matches_central_differences(self, n, measured, groups, state):
        rng = np.random.default_rng(n + len(measured))
        rho = werner_ghz(n, 0.6) if state == "werner-ghz" else random_density_matrix(n, seed=90 + n)
        angles = rng.uniform(-8.0, 8.0, size=(9, 2 * len(measured)))
        angles[0, 0::2] = 0.0
        step = 1e-6
        for q in (0.5, 1.0, 2.0):
            objective = single(rho, q, measured, groups)
            values, grads = objective(angles, gradient=True)
            assert np.array_equal(values, objective(angles))
            central = np.empty_like(grads)
            for i in range(angles.shape[1]):
                shift = np.zeros(angles.shape[1])
                shift[i] = step
                central[:, i] = (objective(angles + shift) - objective(angles - shift)) / (2 * step)
            assert_allclose(grads, central, rtol=0, atol=1e-7)


def einsum_objective(rho, q, measured, groups):
    """The objective on the 3-operand einsum kernel, the reference for the matmul one.

    Every branch goes through the blocks sum_ab W*[a, j] rho[(a, u), (b, v)]
    W[b, j]; with every qubit measured they are 1 x 1 and hold the outcome
    probabilities.
    """
    n = rho.num_qubits
    unmeasured = tuple(i for i in range(n) if i not in measured)
    perm = measured + unmeasured
    dim_m, dim_u = 2 ** len(measured), 2 ** len(unmeasured)
    tensor = (
        rho.matrix.reshape((2,) * (2 * n))
        .transpose(perm + tuple(n + i for i in perm))
        .reshape(dim_m, dim_u, dim_m, dim_u)
    )

    def objective(angles):
        w = rotated_basis(angles)
        k = len(w)
        blocks = np.einsum("kaj,aubv,kbj->kjuv", w.conj(), tensor, w)
        probs = np.maximum(np.einsum("kjuu->kj", blocks).real, 0.0)
        spectrum = np.maximum(np.linalg.eigvalsh(blocks).reshape(k, -1), 0.0)
        value = _hq(spectrum, q) - tsallis_entropy(rho, q)
        ptensor = probs.reshape((k,) + (2,) * len(measured))
        for g in groups:
            if g[0] in measured:
                keep = [measured.index(i) for i in g]
                drop = tuple(1 + a for a in range(len(measured)) if a not in keep)
                value += tsallis_entropy(partial_trace(rho, g), q)
                value -= _hq(ptensor.sum(axis=drop).reshape(k, -1), q)
        return value

    return objective


class TestMatmulKernel:
    @pytest.mark.parametrize(
        "n, measured, groups",
        [
            (2, (0, 1), ((0,), (1,))),
            (3, (0, 1, 2), ((0,), (1,), (2,))),
            (4, (0, 1, 2, 3), ((0,), (1,), (2,), (3,))),
            (3, (0, 1, 2), ((0, 1), (2,))),
            (4, (0, 1, 2, 3), ((0, 2), (1, 3))),
            (2, (1,), ((0,), (1,))),
            (3, (0,), ((1, 2), (0,))),
            (3, (2,), ((0, 1), (2,))),
            (4, (1, 3), ((0, 2), (1, 3))),
            (4, (3,), ((0, 1, 2), (3,))),
        ],
    )
    def test_matches_einsum_reference(self, n, measured, groups):
        # The matmul kernel only reorders the sums of the einsum one.
        rng = np.random.default_rng(10 * n + len(measured))
        rho = random_density_matrix(n, seed=110 + n)
        angles = rng.uniform(-8.0, 8.0, size=(9, 2 * len(measured)))
        angles[0, 0::2] = 0.0
        for q in (0.5, 1.0, 2.0):
            fast = single(rho, q, measured, groups)(angles)
            reference = einsum_objective(rho, q, measured, groups)(angles)
            assert_allclose(fast, reference, rtol=0, atol=1e-13)


# (name, qubits, measured qubits, groups): N = 2 * len(measured) is 2, 6, 8
KERNELS = {
    "one-sided-n2": (2, (1,), ((0,), (1,))),
    "global-n3": (3, (0, 1, 2), ((0,), (1,), (2,))),
    "global-n4": (4, (0, 1, 2, 3), ((0,), (1,), (2,), (3,))),
}


def axis_sum_objective(rho, q, measured, groups):
    """The value-and-gradient objective as it stood before the marginal table.

    Each measured party's marginal is a sum over the other measured
    qubits' outcome axes, the gradient's shift adds those marginals'
    slopes back party by party, and the traces come from one einsum over
    rho W indexed at the flipped outcomes; the reference for the table
    and the all-measured gather.
    """
    n = rho.num_qubits
    m = len(measured)
    unmeasured = tuple(i for i in range(n) if i not in measured)
    dim_m, dim_u = 2**m, 2 ** len(unmeasured)
    dim = dim_m * dim_u
    axes = measured + unmeasured + tuple(n + i for i in unmeasured + measured)
    rho_t = rho.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(dim * dim_u, dim_m)
    parties = [g for g in groups if all(i in measured for i in g)]
    summed = [tuple(1 + ax for ax, i in enumerate(measured) if i not in g) for g in parties]
    const = reference_mutual_information(rho, parties, q)
    outcomes = np.arange(dim_m)
    bits = (1 << np.arange(m - 1, -1, -1))[:, None]
    flipped = outcomes ^ bits
    signs = np.where(outcomes & bits, -1.0, 1.0)

    def objective(angles):
        w = rotated_basis(angles)
        k = len(w)
        rho_w = rho_t @ w
        if dim_u == 1:
            probs = np.maximum((w.conj() * rho_w).sum(axis=-2).real, 0.0)
            spectrum = probs
        else:
            rho_w = rho_w.reshape(k, dim_m, dim_u, dim_u, dim_m)
            blocks = np.einsum("kaj,kauvj->kjuv", w.conj(), rho_w)
            probs = np.maximum(np.einsum("kjuu->kj", blocks).real, 0.0)
            eigenvalues, vectors = np.linalg.eigh(blocks)
            spectrum = eigenvalues.reshape(k, -1)
        ptensor = probs.reshape((k,) + (2,) * m)
        marginals = [ptensor.sum(axis=ax, keepdims=True) for ax in summed]
        p, x, s = _terms(np.concatenate([spectrum] + [g.reshape(k, -1) for g in marginals], axis=1), q)
        values = const - (p * x)[:, :dim].sum(axis=-1) / s + (p * x)[:, dim:].sum(axis=-1) / s
        slopes = -q * x / s
        shift = np.zeros_like(ptensor)
        start = dim
        for g in marginals:
            shift += slopes[:, start : start + g[0].size].reshape(g.shape)
            start += g[0].size
        shift = shift.reshape(k, dim_m)
        if dim_u == 1:
            rho_w = rho_w.reshape(k, dim_m, 1, 1, dim_m)
            e = (slopes[:, :dim] - shift)[:, :, None, None]
        else:
            h = slopes[:, :dim].reshape(eigenvalues.shape)
            e = (vectors * h[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
            e -= shift[:, :, None, None] * np.eye(dim_u)
        traces = np.einsum("kaj,kjvu,kauvij->kij", w.conj(), e, rho_w[..., flipped])
        grad = np.empty((k, 2 * m))
        grad[:, 0::2] = (signs * traces.real).sum(axis=-1)
        grad[:, 1::2] = -np.sin(angles[:, 0::2]) * traces.imag.sum(axis=-1)
        return values, grad

    return objective


def set_partitions(qubits):
    """Every partition of the tuple qubits into parties, each sorted, the parties ordered by first qubit."""
    if not qubits:
        yield ()
        return
    first, rest = qubits[0], qubits[1:]
    for r in range(len(rest) + 1):
        for mates in itertools.combinations(rest, r):
            for others in set_partitions(tuple(i for i in rest if i not in mates)):
                yield ((first,) + mates,) + others


# Every shape of KERNELS, a one-sided one measuring the last of three qubits,
# and a four-qubit cut whose measured party is not a prefix.
TABLE_SHAPES = sorted(KERNELS.values()) + [(3, (2,), ((0, 1), (2,))), (4, (1, 3), ((0, 2), (1, 3)))]


class TestMarginalTable:
    @pytest.mark.parametrize("n, measured, groups", TABLE_SHAPES)
    def test_marginals_match_axis_sums(self, n, measured, groups):
        m = len(measured)
        rng = np.random.default_rng(n + m)
        probs = rng.dirichlet(np.ones(2**m), size=9)
        ptensor = probs.reshape((9,) + (2,) * m)
        parties = tuple(g for g in groups if g[0] in measured)
        summed = [
            ptensor.sum(axis=tuple(1 + ax for ax, i in enumerate(measured) if i not in g)).reshape(9, -1)
            for g in parties
        ]
        table = discord._marginal_table(measured, parties)
        assert set(np.unique(table)) == {0.0, 1.0}
        assert_allclose(probs @ table, np.concatenate(summed, axis=1), rtol=0, atol=1e-15)

    def test_kronecker_products_match_the_bit_loop(self):
        # Every nonempty measured subset of six qubits with every partition
        # of it into parties: 876 shapes, among them every (measured,
        # pattern) a job on at most 6 qubits makes. Each table is the
        # reference loop's, byte for byte.
        shapes = [
            (measured, pattern)
            for m in range(1, 7)
            for measured in itertools.combinations(range(6), m)
            for pattern in set_partitions(measured)
        ]
        assert len(shapes) == 876
        for measured, pattern in shapes:
            table = discord._marginal_table.__wrapped__(measured, pattern)
            reference = kron_reference._marginal_table(measured, pattern)
            assert table.dtype == reference.dtype and table.shape == reference.shape
            assert table.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n, measured, groups", TABLE_SHAPES)
    def test_read_only_and_built_once_per_shape(self, n, measured, groups, monkeypatch):
        # A fresh cache: two objectives of the shape, on different states,
        # value and gradient calls alike, build the table once.
        monkeypatch.setattr(discord, "_marginal_table", functools.cache(discord._marginal_table.__wrapped__))
        angles = np.random.default_rng(n).uniform(-8.0, 8.0, size=(3, 2 * len(measured)))
        for seed in (180, 181):
            objective = single(random_density_matrix(n, seed=seed), 0.5, measured, groups)
            objective(angles)
            objective(angles, gradient=True)
        assert discord._marginal_table.cache_info().misses == 1
        table = discord._marginal_table(measured, tuple(g for g in groups if g[0] in measured))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5

    @pytest.mark.parametrize("n, measured, groups", TABLE_SHAPES)
    def test_matches_axis_sum_reference(self, n, measured, groups):
        rng = np.random.default_rng(20 * n + len(measured))
        rho = random_density_matrix(n, seed=190 + n)
        angles = rng.uniform(-8.0, 8.0, size=(9, 2 * len(measured)))
        angles[0, 0::2] = 0.0
        for q in (0.5, 1.0, 2.0):
            values, grads = single(rho, q, measured, groups)(angles, gradient=True)
            ref_values, ref_grads = axis_sum_objective(rho, q, measured, groups)(angles)
            assert_allclose(values, ref_values, rtol=0, atol=1e-13)
            assert_allclose(grads, ref_grads, rtol=0, atol=1e-13)


def by_generators(objective, starts, max_evals, owner):
    """The BFGS searches from starts as fresh _bfgs generators, run and stacked by _rounds."""
    return discord._rounds(objective, [discord._bfgs(x, max_evals) for x in np.array(starts)], owner)


def lockstep_bfgs(objective, starts, max_evals, owner=None):
    """The BFGS searches from starts run as generators, checked against _bfgs_rows.

    _bfgs_rows runs as arrays to the end (_ARRAY_ROWS = 1), then once with
    each threshold from 2 to K, so that it hands its rows to _bfgs
    generators at every row count a round can have, and at K + 1, where
    it runs them as generators from the start. Every run must return the
    same x, f, evaluations and success for every start, bit for bit, as
    the generators alone. owner defaults to problem 0 for every row.
    """
    if owner is None:
        owner = np.zeros(len(starts), dtype=np.intp)
    result = by_generators(objective, starts, max_evals, owner)
    with pytest.MonkeyPatch.context() as patch:
        for threshold in range(1, len(starts) + 2):
            patch.setattr(discord, "_ARRAY_ROWS", threshold)
            rows = discord._bfgs_rows(objective, np.array(starts), owner, max_evals)
            for generated, arrayed in zip(result, rows):
                assert np.array_equal(generated, arrayed)
    return result


def rank_two(n, seed):
    """A random n-qubit state of rank 2."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2))
    m = v @ v.conj().T
    return DensityMatrix(m / m.trace().real)


def scripted(replies):
    """A one-row objective that answers its calls with replies in order and keeps the points asked for."""
    replies = iter(replies)
    points = []

    def objective(angles, owner, gradient=False):
        points.append(np.array(angles[0]))
        f, g = next(replies)
        return np.array([f]), np.array([g], dtype=float)

    return objective, points


class TestLockstepBFGS:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("extra", ["1", "N", "N+1", "N+2", "400"])
    def test_matches_lone_start(self, kernel, extra):
        # Each of 16 starts ends exactly where it ends when run alone.
        n, measured, groups = KERNELS[kernel]
        dim = 2 * len(measured)
        max_evals = {"1": 1, "N": dim, "N+1": dim + 1, "N+2": dim + 2, "400": 400}[extra]
        rho = random_density_matrix(n, seed=200 + n)
        objective = single(rho, 0.5, measured, groups)
        starts = np.array(discord._start_points(len(measured), OptimizerConfig(starts=16)))
        x, fun, nfev, success = lockstep_bfgs(objective, starts, max_evals)
        for k in range(len(starts)):
            alone = lockstep_bfgs(objective, starts[k : k + 1], max_evals)
            assert np.array_equal(x[k], alone[0][0])
            assert fun[k] == alone[1][0]
            assert nfev[k] == alone[2][0] <= max_evals
            assert success[k] == alone[3][0] == (nfev[k] < max_evals)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_stationary_start_stops_at_once(self, kernel):
        # On the maximally mixed state every gradient vanishes, so each start
        # stops, converged, after its first evaluation.
        n, measured, groups = KERNELS[kernel]
        rho = DensityMatrix(np.eye(2**n) / 2**n)
        objective = single(rho, 1.0, measured, groups)
        starts = np.array(discord._start_points(len(measured), OptimizerConfig(starts=4)))
        x, fun, nfev, success = lockstep_bfgs(objective, starts, 400)
        assert np.array_equal(x, starts)
        assert nfev.tolist() == [1] * 4
        assert success.all()

    def test_budget_runs_out_mid_line_search(self):
        # Whenever the budget runs out, the start returns a point it
        # evaluated, with that point's value, no higher than where it began.
        n, measured, groups = KERNELS["global-n3"]
        rho = random_density_matrix(n, seed=200 + n)
        objective = single(rho, 0.5, measured, groups)
        x0 = np.array(discord._start_points(len(measured), OptimizerConfig(starts=1)))
        f0 = objective(x0)[0]
        for budget in range(2, 16):
            x, fun, nfev, success = lockstep_bfgs(objective, x0, budget)
            assert nfev[0] == budget and not success[0]
            assert fun[0] == objective(x)[0] <= f0

    def test_problems_with_their_own_q(self):
        # Rows of three problems interleaved in one call, each with its own
        # state and q: a rank-2 state at q = 0.25, whose minima sit on the
        # p^q cusp, and random states at q = 2 and q = 1.
        for n, measured, groups in KERNELS.values():
            states = [rank_two(n, seed=210 + n)]
            states += [random_density_matrix(n, seed=seed + n) for seed in (220, 230)]
            objective = _make_objective(states, [0.25, 2.0, 1.0], measured, [groups] * 3)
            starts = np.array(discord._start_points(len(measured), OptimizerConfig(starts=12)))
            owner = np.arange(len(starts)) % 3
            x, fun, nfev, success = lockstep_bfgs(objective, starts, 400, owner)
            assert success.any()

    def test_hand_off_resumes_every_line_search_state(self, monkeypatch):
        # lockstep_bfgs's hand-offs resume a row that zooms in a bracket, a
        # row that extrapolates from a lowered lo, a row with no h yet, and
        # a row whose budget runs out after the hand-off. 12 rows search
        # beside 4 rows of the maximally mixed state, which stop after
        # round 0, so at thresholds 13 to 16 the 12 are handed off before
        # their first step, with no h yet.
        resumed, run = [], discord._bfgs

        def recording(x0, max_evals, resume=None):
            x, f, nfev, success = yield from run(x0, max_evals, resume)
            if resume is not None:
                resumed.append((resume, nfev == max_evals))
            return x, f, nfev, success

        monkeypatch.setattr(discord, "_bfgs", recording)
        n, measured, groups = KERNELS["global-n3"]
        rho = random_density_matrix(n, seed=200 + n)
        mixed = DensityMatrix(np.eye(2**n) / 2**n)
        objective = _make_objective([rho, mixed], [0.5, 0.5], measured, [groups] * 2)
        starts = np.array(discord._start_points(len(measured), OptimizerConfig(starts=16)))
        for budget in (12, 400):
            lockstep_bfgs(objective, starts, budget, np.repeat([0, 1], [12, 4]))
        brackets = [bracket for (*_, bracket), _ in resumed]
        assert any(hi is not None for *_, hi, _ in brackets)
        assert any(hi is None and lo > 0.0 for lo, *_, hi, _ in brackets)
        assert any(h is None for (_, _, _, h, *_), _ in resumed)
        assert any(spent for _, spent in resumed)

    def test_lost_positive_definiteness_restarts_from_steepest_descent(self, monkeypatch):
        # A frozen script: each trial point is sent a value and gradient that
        # meet strong-Wolfe at once, the new gradient lying mostly across the
        # step, at magnitudes from 1e-6 to 1e4. After the second update the
        # rounded h gives g.p >= 0, so the search drops h and steps along -g
        # with length min(1, 1 / |g|), as on its first step. The fourth
        # reply only spends the budget. The generator and _bfgs_rows ask for
        # the same points, _bfgs_rows as arrays (threshold 1) and as its
        # generators (threshold 2).
        script = [
            (0.0, [-8.002047953567316e-06, 8.487234883999388e-06]),
            (-6.803296371368349e-11, [-2.539258899126327e-06, 4.1465258424843474e-08]),
            (-7.250827084654688e-11, [851.4432039655692, 17704.870485308915]),
            (0.0, [0.0, 0.0]),
        ]
        objective, points = scripted(script)
        result = by_generators(objective, np.zeros((1, 2)), 4, np.zeros(1, dtype=np.intp))
        for threshold in (1, 2):
            monkeypatch.setattr(discord, "_ARRAY_ROWS", threshold)
            objective, rows_points = scripted(script)
            rows = discord._bfgs_rows(objective, np.zeros((1, 2)), np.zeros(1, dtype=np.intp), 4)
            assert np.array_equal(points, rows_points)
            for generated, arrayed in zip(result, rows):
                assert np.array_equal(generated, arrayed)

        def steepest(x, g):
            return x - min(1.0, 1.0 / np.sqrt(g @ g)) * g

        grads = [np.array(g) for _, g in script]
        assert np.array_equal(points[1], steepest(points[0], grads[0]))
        assert not np.allclose(points[2], steepest(points[1], grads[1]))  # h in use
        assert np.array_equal(points[3], steepest(points[2], grads[2]))


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

    def test_per_start_telemetry(self):
        for n, opt in ((2, LIGHT), (3, OptimizerConfig(starts=10, max_evals=400))):
            rho = random_density_matrix(n, seed=20 + n)
            report = q_gqd(rho, 0.5, opt)
            assert len(report.start_minima) == report.starts_used == opt.starts
            assert min(report.start_minima) == report.raw_value
            hits = sum(f <= report.raw_value + discord.BASIN_TOL for f in report.start_minima)
            assert report.basin_hits == hits >= 1
            assert len(report.start_evals) == len(report.start_converged) == opt.starts
            assert sum(report.start_evals) == report.objective_evals
            for evals, converged in zip(report.start_evals, report.start_converged):
                assert converged == (evals < opt.max_evals)
            best = report.start_minima.index(report.raw_value)
            assert report.start_converged[best] == report.converged
        # A budget too small for any start to converge
        report = q_gqd(random_density_matrix(3, seed=23), 0.5, OptimizerConfig(starts=3, max_evals=3))
        assert report.start_evals == (3, 3, 3)
        assert report.start_converged == (False, False, False)
        assert not report.converged

    def test_default_search_reaches_global_minimum(self):
        # A state whose q = 1 minimum few starts reach: a wrong basin used to
        # hold the default answer 7.2e-4 above a 128-start search.
        rho = random_density_matrix(4, seed=107)
        default = q_gqd(rho, 1.0).raw_value
        reference = q_gqd(rho, 1.0, OptimizerConfig(starts=128)).raw_value
        assert abs(default - reference) <= 1e-7

    def test_value_matches_reported_measurement(self):
        rho = random_density_matrix(2, seed=3)
        report = q_gqd(rho, 0.5, LIGHT)
        replay = induced_discord(rho, report.optimal_measurement, 0.5)
        assert_allclose(report.raw_value, replay, atol=1e-9)

    def test_nonnegativity_flag_tracks_regime(self):
        assert q_gqd(BELL, 0.5, LIGHT).nonnegativity_guaranteed
        assert q_gqd(BELL, 1.0, LIGHT).nonnegativity_guaranteed
        assert not q_gqd(BELL, 1.0 + 1e-10, LIGHT).nonnegativity_guaranteed
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
        assert discord.DESK_SCALE_LIMIT == 4
        rho = DensityMatrix(np.eye(32) / 32.0)
        with pytest.raises(ValueError, match="desk-scale limit"):
            q_gqd(rho, 0.5)
        with pytest.raises(ValueError, match="desk-scale limit"):
            q_qd_one_sided(rho, (0,), 0.5)


def report_fields(report):
    """Every field of a DiscordReport, the measurement as its axes."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    out["optimal_measurement"] = [m.axis.tolist() for m in report.optimal_measurement]
    return out


def count_rows(monkeypatch):
    """A list that gets the row count of every objective call from now on."""
    calls = []
    make = discord._make_objective

    def counting(*args, **kwargs):
        objective = make(*args, **kwargs)

        def counted(angles, owner, gradient=False):
            calls.append(len(angles))
            return objective(angles, owner, gradient)

        return counted

    monkeypatch.setattr(discord, "_make_objective", counting)
    return calls


def count_objectives(monkeypatch):
    """A list that gets the problem count of every objective built from now on."""
    built = []
    make = discord._make_objective

    def counting(states, *args, **kwargs):
        built.append(len(states))
        return make(states, *args, **kwargs)

    monkeypatch.setattr(discord, "_make_objective", counting)
    return built


class TestManyProblems:
    # The _many entries run many problems of one shape in one lockstep;
    # each report must be the solo call's, field for field.
    def test_global_reports_equal_solo_calls(self):
        jobs = [
            (random_density_matrix(n, seed=120 + n + 10 * k), q)
            for k, q in enumerate((0.25, 1.0, 2.0, 0.7))
            for n in (2, 3, 4)
        ]
        reports = q_gqd_many(jobs, LIGHT)
        assert len(reports) == len(jobs)
        for (rho, q), report in zip(jobs, reports):
            assert report_fields(report) == report_fields(q_gqd(rho, q, LIGHT))

    def test_cut_reports_equal_solo_calls(self):
        cut = ((1,), (0, 2))
        jobs = [(random_density_matrix(3, seed=130 + k), q) for k, q in enumerate((0.5, 1.0, 1.5))]
        for (rho, q), report in zip(jobs, q_gqd_many(jobs, LIGHT, cut=cut)):
            assert report_fields(report) == report_fields(q_gqd(rho, q, LIGHT, cut=cut))

    def test_jobs_carry_their_own_cut(self, monkeypatch):
        # One _minimize_many call takes jobs of several cuts; a cut given as
        # lists, a side unsorted, or with its sides reversed has the same
        # parties as its tuple form. A cut is a row's own data, so every
        # 3-qubit job, whole state or cut, shares one objective: two shapes
        # (qubit count, measured qubits), two objectives, and every report
        # is the solo call's.
        rho3, rho2 = random_density_matrix(3, seed=135), random_density_matrix(2, seed=136)
        jobs = [
            (rho3, 0.5, None, None),
            (rho3, 1.0, None, ((1,), (0, 2))),
            (rho2, 0.7, None, None),
            (rho3, 2.0, None, [[1], [2, 0]]),
            (rho3, 1.5, None, ((0, 2), (1,))),
        ]
        built = count_objectives(monkeypatch)
        reports = discord._minimize_many(jobs, LIGHT)
        assert sorted(built) == [1, 4]
        for (rho, q, _, cut), report in zip(jobs, reports):
            assert report_fields(report) == report_fields(q_gqd(rho, q, LIGHT, cut=cut))

    def test_mixed_job_list_builds_one_objective_per_shape(self, monkeypatch):
        # Global, cut, reversed-cut and one-sided jobs on 2, 3 and 4 qubits
        # in one job list: one objective per distinct shape (qubit count,
        # measured qubits), each problem with its own parties in job order,
        # however the jobs of a shape are interleaved, and every report is
        # the solo call's. Again with one job a block, so the blocks, run
        # shape by shape, finish out of job order: each report is still
        # the solo call's.
        rho2, rho3, rho4 = (random_density_matrix(n, seed=200 + n) for n in (2, 3, 4))
        jobs = [
            (rho2, 0.5, None, None),
            (rho3, 1.0, None, ((0,), (1, 2))),
            (rho4, 0.7, None, None),
            (rho2, 1.5, (1,), None),
            (rho3, 2.0, None, ((1, 2), (0,))),
            (rho4, 1.0, None, ((0, 1), (2, 3))),
            (rho3, 0.5, (0, 2), None),
            (rho4, 0.4, None, ((3, 2), (1, 0))),
            (rho3, 0.3, None, None),
            (rho4, 0.8, (3,), None),
            (rho2, 0.9, None, ((1,), (0,))),
            (rho4, 1.2, (3,), None),
        ]
        built = []
        make = discord._make_objective

        def counting(states, qs, measured, groups):
            built.append((states[0].num_qubits, measured, tuple(groups)))
            return make(states, qs, measured, groups)

        monkeypatch.setattr(discord, "_make_objective", counting)
        reports = discord._minimize_many(jobs, LIGHT)
        singles2, singles3, singles4 = (tuple((i,) for i in range(n)) for n in (2, 3, 4))
        assert sorted(built) == [
            (2, (0, 1), (singles2, singles2)),
            (2, (1,), (((0,), (1,)),)),
            (3, (0, 1, 2), (((0,), (1, 2)), ((0,), (1, 2)), singles3)),
            (3, (0, 2), (((1,), (0, 2)),)),
            (4, (0, 1, 2, 3), (singles4, ((0, 1), (2, 3)), ((0, 1), (2, 3)))),
            (4, (3,), (((0, 1, 2), (3,)),) * 2),
        ]
        monkeypatch.setattr(discord, "_MAX_ROWS", LIGHT.starts)
        one_job_blocks = discord._minimize_many(jobs, LIGHT)
        assert len(built) == 6 + len(jobs)
        for (rho, q, measured, cut), report, bounded in zip(jobs, reports, one_job_blocks):
            if measured is None:
                solo = q_gqd(rho, q, LIGHT, cut=cut)
            else:
                solo = q_qd_one_sided(rho, measured, q, LIGHT)
            assert report_fields(report) == report_fields(solo) == report_fields(bounded)

    def test_one_sided_reports_equal_solo_calls(self):
        jobs = [
            (random_density_matrix(n, seed=140 + n + 10 * k), q)
            for k, q in enumerate((0.25, 1.0, 2.0))
            for n in (2, 3, 4)
        ]
        for (rho, q), report in zip(jobs, q_qd_one_sided_many(jobs, (0,), LIGHT)):
            assert report_fields(report) == report_fields(q_qd_one_sided(rho, (0,), q, LIGHT))

    def test_no_jobs(self):
        assert q_gqd_many([]) == ()
        assert q_qd_one_sided_many([], (0,)) == ()

    def test_bad_q_in_last_job_raises_before_any_objective_call(self, monkeypatch):
        calls = count_rows(monkeypatch)
        jobs = [(random_density_matrix(2, seed=150), 0.5), (random_density_matrix(3, seed=151), 0.0)]
        with pytest.raises(ValueError, match="q must be a positive real number"):
            q_gqd_many(jobs, LIGHT)
        with pytest.raises(ValueError, match="q must be a positive real number"):
            q_qd_one_sided_many(jobs, (0,), LIGHT)
        # A bad shape in the last job of a mixed list raises its message too.
        first = [(random_density_matrix(2, seed=150), 0.5, None, None), (jobs[1][0], 0.5, (1,), None)]
        for measured, cut, message in (
            ((), None, "nonempty and proper"),
            ((0, 1, 2), None, "nonempty and proper"),
            ((3,), None, "out of range"),
            ((-1,), None, "out of range"),
            (None, ((0,), (1,)), "cover every qubit"),
        ):
            with pytest.raises(ValueError, match=message):
                discord._minimize_many(first + [(jobs[1][0], 0.5, measured, cut)], LIGHT)
        assert calls == []

    def test_one_sided_job_with_a_cut_raises_before_any_objective_call(self, monkeypatch):
        # A job's parties come from its measured qubits or from its cut,
        # never both: a one-sided job that also names a cut is refused, not
        # solved with the cut dropped.
        calls = count_rows(monkeypatch)
        rho3 = random_density_matrix(3, seed=152)
        for cut in (((0,), (1, 2)), ((0, 1), (2,))):
            jobs = [(rho3, 0.5, None, None), (rho3, 0.5, (2,), cut)]
            with pytest.raises(ValueError, match="one-sided job takes no cut"):
                discord._minimize_many(jobs, LIGHT)
        assert calls == []

    def test_one_call_per_round(self, monkeypatch):
        # A q grid of one shape shares every round: the calls number the
        # rounds, which is the most evaluations any start made.
        calls = count_rows(monkeypatch)
        rho = random_density_matrix(3, seed=160)
        reports = q_gqd_many([(rho, q) for q in (0.3, 0.6, 1.0, 1.4)], LIGHT)
        assert len(calls) == max(max(r.start_evals) for r in reports)
        assert calls[0] == 4 * LIGHT.starts
        assert sum(calls) == sum(r.objective_evals for r in reports)

    def test_large_locksteps_run_as_arrays(self, monkeypatch):
        # A lockstep of at least _ARRAY_ROWS rows makes an array round, a
        # smaller one runs as generators from the start and makes none,
        # both on the same rows. With the threshold at 16 rows, the n = 2
        # block (3 jobs, 12 rows) sits one job below it and the n = 3 block
        # (4 jobs, 16 rows) at it; every report is still the solo call's.
        jobs = [(random_density_matrix(2, seed=180 + k), q) for k, q in enumerate((0.25, 1.0, 2.0))]
        jobs += [(rank_two(3, seed=190), 0.25)]
        jobs += [(random_density_matrix(3, seed=190 + k), q) for k, q in enumerate((0.5, 1.0, 2.0))]
        # _rounds is handed each objective uncounted, so only array rounds
        # count.
        arrays = []
        make, rounds = discord._make_objective, discord._rounds

        def making(*args):
            objective = make(*args)
            calls = []
            arrays.append(calls)

            def counted(angles, owner, gradient=False):
                calls.append(len(angles))
                return objective(angles, owner, gradient)

            counted.uncounted = objective
            return counted

        monkeypatch.setattr(discord, "_make_objective", making)
        monkeypatch.setattr(discord, "_rounds", lambda objective, *args: rounds(objective.uncounted, *args))
        monkeypatch.setattr(discord, "_ARRAY_ROWS", 16)
        reports = q_gqd_many(jobs, LIGHT)
        one_sided = q_qd_one_sided_many(jobs, (1,), LIGHT)
        assert [calls[:1] for calls in arrays] == [[], [16]] * 2
        for (rho, q), report, one_sided_report in zip(jobs, reports, one_sided):
            assert report_fields(report) == report_fields(q_gqd(rho, q, LIGHT))
            assert report_fields(one_sided_report) == report_fields(q_qd_one_sided(rho, (1,), q, LIGHT))
        assert len(arrays) == 4 + 2 * len(jobs)
        assert not any(arrays[4:])

    def test_jobs_run_in_blocks_of_bounded_rows(self, monkeypatch):
        # A lockstep takes at most _MAX_ROWS // starts jobs, and at least
        # one, so one call builds an objective per block of jobs, no call
        # has more than max(_MAX_ROWS, starts) rows, and every report stays
        # the same.
        jobs = [(random_density_matrix(3, seed=170 + k), q) for k, q in enumerate((0.5, 1.0, 2.0))]
        free = [report_fields(r) for r in q_gqd_many(jobs, LIGHT)]
        one_sided_free = [report_fields(r) for r in q_qd_one_sided_many(jobs, (1,), LIGHT)]
        for max_rows, blocks, most_rows in ((9, [2, 1], 8), (3, [1, 1, 1], 4)):
            with monkeypatch.context() as patch:
                patch.setattr(discord, "_MAX_ROWS", max_rows)
                calls = count_rows(patch)
                built = count_objectives(patch)
                bounded = q_gqd_many(jobs, LIGHT)
                assert built == blocks
                assert max(calls) == most_rows
                one_sided = q_qd_one_sided_many(jobs, (1,), LIGHT)
            assert [report_fields(r) for r in bounded] == free
            assert [report_fields(r) for r in one_sided] == one_sided_free


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


class TestReportedAxes:
    def test_dominant_component_is_positive(self):
        # n and -n are one measurement, so starts of one basin can tie with
        # opposite axes. Each reported axis carries one sign, its
        # largest-magnitude component positive, and the reported measurement
        # still replays the raw minimum.
        for n in (2, 3, 4):
            states = [random_density_matrix(n, seed=s) for s in range(4)]
            jobs = [(rho, 0.5) for rho in states]
            for measured in (None, (n - 1,)):
                if measured is None:
                    reports = q_gqd_many(jobs, LIGHT)
                else:
                    reports = q_qd_one_sided_many(jobs, measured, LIGHT)
                for rho, report in zip(states, reports):
                    for m in report.optimal_measurement:
                        assert m.axis[np.abs(m.axis).argmax()] > 0.0
                    phi = report.optimal_measurement
                    if measured is None:
                        replay = induced_discord(rho, phi, 0.5)
                    else:
                        (replay,) = _evaluate([(rho, 0.5, measured, None)], [_angles(phi, len(measured))])
                    assert_allclose(replay, report.raw_value, rtol=0, atol=1e-9)


class TestInducedDiscordBipartite:
    def test_requires_cover(self):
        rho = random_density_matrix(3, seed=80)
        pm = ProductMeasurement.uniform_axis(3, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="cover every qubit"):
            induced_discord(rho, pm, 0.5, cut=((0,), (1,)))

    def test_two_qubit_cut_matches_multiparty(self):
        # The cut (0)|(1) has the single qubits as its parties, so it is the
        # same computation as the multi-party default.
        rho = random_density_matrix(2, seed=81)
        pm = ProductMeasurement.uniform_axis(2, (1.0, 0.0, 0.0))
        a = induced_discord(rho, pm, 0.5)
        b = induced_discord(rho, pm, 0.5, cut=((0,), (1,)))
        assert a == b


class TestValuePass:
    def test_rows_equal_solo_induced_discord(self, monkeypatch):
        # _evaluate evaluates fixed measurements, value only, with one
        # objective and one call per qubit count, in first-seen order;
        # induced_discord is its one-row case.
        rng = np.random.default_rng(17)
        shapes = [
            (4, None),
            (2, None),
            (3, ((1,), (0, 2))),
            (4, ((0, 1, 2), (3,))),
            (3, None),
            (2, ((1,), (0,))),
            (4, ((0, 3), (1, 2))),
            (3, ((0, 1), (2,))),
        ]
        rows = []
        for k, (n, cut) in enumerate(shapes):
            rho = random_density_matrix(n, seed=300 + k)
            phi = ProductMeasurement.from_angles(random_angles(rng, n).reshape(-1, 2))
            rows.append((rho, (0.25, 1.0, 2.0, 0.7)[k % 4], cut, phi))
        solo = [induced_discord(rho, phi, q, cut=cut) for rho, q, cut, phi in rows]
        built = count_objectives(monkeypatch)
        calls = count_rows(monkeypatch)
        values = _evaluate(
            [(rho, q, None, cut) for rho, q, cut, _ in rows], [_angles(phi, rho.num_qubits) for rho, _, _, phi in rows]
        )
        assert [v.hex() for v in values] == [v.hex() for v in solo]
        assert built == [3, 2, 3]
        assert calls == [3, 2, 3]

    def test_rows_measure_a_subset(self, monkeypatch):
        # A value job measures its measured qubits as a solver job does:
        # one _evaluate call mixes whole states, cuts and subset-measured
        # jobs on 3 and 4 qubits, builds one objective per (qubit count,
        # measured qubits), in first-seen order, and each value is the row
        # of that problem's own objective at the same angles.
        rng = np.random.default_rng(23)
        jobs = [
            (random_density_matrix(3, seed=310), 0.5, None, None),
            (random_density_matrix(4, seed=311), 1.0, None, ((0, 3), (1, 2))),
            (random_density_matrix(3, seed=312), 2.0, (2,), None),
            (random_density_matrix(4, seed=313), 0.7, (1, 3), None),
            (random_density_matrix(3, seed=314), 0.25, (2,), None),
            (random_density_matrix(3, seed=315), 1.5, None, ((1,), (0, 2))),
        ]
        shapes = [discord._shape(rho.num_qubits, measured, cut) for rho, _, measured, cut in jobs]
        angles = [random_angles(rng, len(measured)) for measured, _ in shapes]
        alone = [
            single(rho, q, measured, parties)(angles[j][None])[0]
            for j, ((rho, q, _, _), (measured, parties)) in enumerate(zip(jobs, shapes))
        ]
        built = []
        make = discord._make_objective

        def counting(states, qs, measured, *args):
            built.append((states[0].num_qubits, measured, len(states)))
            return make(states, qs, measured, *args)

        monkeypatch.setattr(discord, "_make_objective", counting)
        values = _evaluate(jobs, angles)
        assert [v.hex() for v in values] == [float(v).hex() for v in alone]
        assert built == [(3, (0, 1, 2), 2), (4, (0, 1, 2, 3), 1), (3, (2,), 2), (4, (1, 3), 1)]

    def test_rows_run_in_blocks_of_bounded_rows(self, monkeypatch):
        # The value pass is bounded like the search, at one row a job: with
        # _MAX_ROWS = 2, five jobs of one shape make calls of 2, 2 and 1
        # rows, and every value stays the same.
        rng = np.random.default_rng(29)
        qs = (0.5, 1.0, 2.0, 0.7, 1.5)
        jobs = [(random_density_matrix(3, seed=320 + k), q, None, None) for k, q in enumerate(qs)]
        angles = [random_angles(rng, 3) for _ in jobs]
        free = _evaluate(jobs, angles)
        monkeypatch.setattr(discord, "_MAX_ROWS", 2)
        calls = count_rows(monkeypatch)
        bounded = _evaluate(jobs, angles)
        assert calls == [2, 2, 1]
        assert [v.hex() for v in bounded] == [v.hex() for v in free]

    def test_checks_every_job_before_any_objective(self, monkeypatch):
        # The value pass checks its jobs as the search does: a bad q or
        # shape in the last job raises before the first objective is built.
        built = count_objectives(monkeypatch)
        rho = random_density_matrix(3, seed=330)
        angles = [random_angles(np.random.default_rng(31), 3)] * 2
        for job, message in (
            ((rho, 0.0, None, None), "q must be a positive real number"),
            ((rho, 0.5, None, ((0,), (1,))), "cover every qubit"),
            ((rho, 0.5, (0,), ((0,), (1, 2))), "one-sided job takes no cut"),
        ):
            with pytest.raises(ValueError, match=message):
                _evaluate([(rho, 0.5, None, None), job], angles)
        assert built == []

    def test_desk_scale_limit_is_the_search_s(self):
        # Fixed measurements have no qubit limit: on a 5-qubit state the
        # induced discord and the telescoping ledger still return, while
        # the search refuses the state.
        rng = np.random.default_rng(37)
        g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        m = g @ g.conj().T
        rho = DensityMatrix(m / m.trace().real)
        phi = ProductMeasurement.from_angles(random_angles(rng, 5).reshape(-1, 2))
        value = induced_discord(rho, phi, 0.5)
        ledger = decompose_induced_gqd(rho, phi, 0.5)
        assert ledger.total == value
        assert abs(ledger.residual) <= 1e-9
        with pytest.raises(ValueError, match="desk-scale limit"):
            q_gqd(rho, 0.5)
        # The ledger's whole state shares its objective with the cut
        # (0123)|(4), whose marginals are longer, and its total is still
        # the solo float on every state and q.
        for seed in range(8):
            rho = ginibre_state(5, seed=170 + seed)
            phi = ProductMeasurement.from_angles(random_angles(rng, 5).reshape(-1, 2))
            for q in (0.5, 1.0, 2.0):
                assert decompose_induced_gqd(rho, phi, q).total == induced_discord(rho, phi, q)
