import math

import numpy as np
import pytest
import scipy.sparse as sparse

from conftest import dense_tm, seasonal_tms, write_mask
from oracles import (column_by_column, dense_dominant_pair, dense_power_product,
                     random_substochastic)

from driftchain.csr import Csr
from driftchain.grid import build_grid
from driftchain.spectral import (
    _BASIS_BLOCKS,
    _GUARD_VECTORS,
    _Restricted,
    _block_krylov,
    _restricted_modulus,
    _start_block,
    analyze_basin,
    basin_of_attraction,
    dominant_eigs,
    zonal_profile,
)
from driftchain.ulam import AnnualOperator, annual_operator, compose_annual


class TestDominantEigs:
    def test_identity_matrix(self):
        res = dominant_eigs(np.eye(4), k=2)
        assert res.converged.all()
        assert np.allclose(res.moduli, 1.0)
        assert np.array_equal(res.left_vectors[0], np.full(4, 0.25))
        assert np.array_equal(res.right_vectors[0], np.ones(4))

    def test_two_state_closed_form(self):
        # Stationary distribution of [[0.8, 0.2], [0.4, 0.6]] is (2/3, 1/3)
        # and the second eigenvalue is 1 - 0.2 - 0.4 = 0.4.
        a = np.array([[0.8, 0.2], [0.4, 0.6]])
        res = dominant_eigs(a, k=2)
        assert res.converged.all()
        assert res.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert res.eigenvalues[1].real == pytest.approx(0.4, abs=1e-12)
        assert np.allclose(res.left_vectors[0], [2 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(res.right_vectors[0], [1.0, 1.0], atol=1e-12)

    def test_matches_dense_oracle_substochastic(self):
        rng = np.random.default_rng(12)
        for n in (3, 8, 20, 50):
            a = random_substochastic(rng, n, min_row=0.6)
            res = dominant_eigs(a, k=2, tol=1e-12)
            moduli, p, r = dense_dominant_pair(a)
            assert res.converged[:1].all()
            assert abs(res.moduli[0] - moduli[0]) < 1e-10
            assert abs(res.moduli[1] - moduli[1]) < 1e-10
            got_p = res.left_vectors[0] / res.left_vectors[0].sum()
            got_r = res.right_vectors[0] / np.abs(res.right_vectors[0]).max()
            assert np.abs(got_p - p).max() < 1e-10
            assert np.abs(got_r - np.real(r)).max() < 1e-10

    def test_right_vector_of_stochastic_chain_is_flat(self):
        rng = np.random.default_rng(4)
        a = rng.random((10, 10))
        a /= a.sum(axis=1)[:, None]
        res = dominant_eigs(a, k=1)
        assert np.allclose(res.right_vectors[0], 1.0, atol=1e-10)

    def test_complex_pair_flagged(self):
        # A cycle with damping has a complex-conjugate subdominant pair.
        c = 0.98 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        res = dominant_eigs(c, k=3, tol=1e-12)
        assert res.is_complex_pair.any()
        # Moduli of the rotation triple are all 0.98.
        assert np.allclose(res.moduli, 0.98, atol=1e-10)

    def test_left_residual_definition(self):
        rng = np.random.default_rng(8)
        a = random_substochastic(rng, 12)
        res = dominant_eigs(a, k=2, tol=1e-11)
        p = res.left_vectors[0]
        lam = res.eigenvalues[0]
        defect = np.abs(p @ a - lam * p).sum()
        assert defect <= 1e-11 * abs(res.eigenvalues[0]) * 10

    def test_max_residual_covers_both_sides(self):
        rng = np.random.default_rng(8)
        worse_side = set()
        for _ in range(10):
            res = dominant_eigs(random_substochastic(rng, 12), k=2, tol=1e-11)
            left, right = res.left_residuals.max(), res.right_residuals.max()
            worse_side.add("left" if left > right else "right")
            assert res.max_residual == max(left, right)
        assert worse_side == {"left", "right"}

    def test_seed_determinism(self):
        rng = np.random.default_rng(21)
        a = random_substochastic(rng, 15)
        r1 = dominant_eigs(a, k=2, seed=0)
        r2 = dominant_eigs(a, k=2, seed=0)
        assert np.array_equal(r1.left_vectors, r2.left_vectors)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)

    def test_transition_matrix_input(self):
        tm = dense_tm(np.array([[0.9, 0.05], [0.05, 0.9]]))
        res = dominant_eigs(tm, k=1)
        assert res.moduli[0] == pytest.approx(0.95, abs=1e-10)


def lazy_walk(n: int, cycle: bool) -> np.ndarray:
    """Lazy nearest-neighbour walk on n states in a line (reflecting ends) or a cycle.

    Both are symmetric: eigenvalues 0.5 + 0.5 cos(pi j / n) on the line,
    all simple, and 0.5 + 0.5 cos(2 pi j / n) on the cycle, where every
    one but 1 and (n even) 0 is double.
    """
    a = 0.5 * np.eye(n)
    i = np.arange(n if cycle else n - 1)
    a[i, (i + 1) % n] += 0.25
    a[(i + 1) % n, i] += 0.25
    if not cycle:
        a[0, 0] += 0.25
        a[-1, -1] += 0.25
    return a


def assert_matches_dense(a, res, k, tol=1e-10):
    """k converged pairs, moduli within tol of the dense solver's, and every
    returned vector an eigenvector of ``a`` to the solver's residual."""
    moduli, _, _ = dense_dominant_pair(a)
    assert res.converged.all() and len(res.eigenvalues) == k
    assert np.abs(res.moduli - moduli[:k]).max() <= tol
    for lam, left, right in zip(res.eigenvalues, res.left_vectors, res.right_vectors):
        for v, defect in ((left, left @ a - lam * left), (right, a @ right - lam * right)):
            assert np.abs(defect).sum() <= 10 * tol * res.moduli[0] * np.linalg.norm(v)


class TestBlockKrylov:
    """Cases a Krylov solve from a single start vector gets wrong."""

    def test_two_closed_classes_both_converge(self):
        # lambda_1 = lambda_2 = 1, one eigenvector per class; transient
        # states leak into both classes
        rng = np.random.default_rng(30)
        a = np.zeros((70, 70))
        a[:30, :30] = random_substochastic(rng, 30, min_row=1.0, density=0.2)
        a[30:55, 30:55] = random_substochastic(rng, 25, min_row=1.0, density=0.2)
        t = rng.random((15, 70))
        a[55:] = t / t.sum(axis=1)[:, None]
        res = dominant_eigs(a, k=2)
        assert_matches_dense(a, res, 2)
        assert np.abs(res.moduli - 1.0).max() <= 1e-10
        assert np.linalg.matrix_rank(res.left_vectors) == 2
        assert np.linalg.matrix_rank(res.right_vectors) == 2

    def test_double_subdominant_eigenvalue(self):
        a = lazy_walk(100, cycle=True)
        res = dominant_eigs(a, k=3)
        assert_matches_dense(a, res, 3)
        assert res.moduli[1] == pytest.approx(res.moduli[2], abs=1e-10)
        assert np.linalg.matrix_rank(res.left_vectors[1:]) == 2
        assert np.linalg.matrix_rank(res.right_vectors[1:]) == 2

    def test_start_block_in_invariant_subspace_stops(self):
        # span(q) is invariant under a and a.T and holds the dominant pair,
        # so every new direction lies in the span (a breakdown).  A
        # tolerance below roundoff keeps the solve from stopping on
        # convergence, so only the breakdown can stop it at once.
        rng = np.random.default_rng(31)
        n, k = 30, 1
        q = _start_block(n, k + _GUARD_VECTORS, seed=0)
        rest = np.eye(n) - q @ q.T
        a = q @ np.diag([0.9, 0.7, 0.5]) @ q.T + rest @ (0.1 * rng.random((n, n)) / n) @ rest
        res = dominant_eigs(a, k=k, tol=1e-17, max_iter=50)
        assert res.iterations == 0
        assert res.products == 2 * (k + _GUARD_VECTORS)
        assert abs(res.moduli[0] - dense_dominant_pair(a)[0][0]) <= 1e-10
        assert_matches_dense(a, dominant_eigs(a, k=k), k)

    @pytest.mark.parametrize("kind", ["clustered", "complex"])
    def test_restarts_until_converged(self, kind):
        # The basis fills and restarts many times before the second pair
        # converges: on a walk whose simple eigenvalues cluster near 1, and
        # on a sparse random chain whose second eigenvalue is complex, so a
        # restart must keep both parts of its vector.
        if kind == "clustered":
            a = lazy_walk(120, cycle=False)
        else:
            a = random_substochastic(np.random.default_rng(3), 200, min_row=0.6, density=0.02)
        k = 2
        ritz = _block_krylov(Csr.of(a), k, 1e-10, 100_000, 0)
        assert ritz.products > _BASIS_BLOCKS * (k + _GUARD_VECTORS)
        assert (ritz.residuals <= 1e-10).all()
        assert_matches_dense(a, dominant_eigs(a, k=k), k)

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (4, 2), (5, 3), (6, 2)])
    def test_basis_spanning_the_space_returns_at_once(self, n, k):
        # n <= k + guard vectors: the start block is the whole space.  At
        # n = 6, k = 2 one step fills it.
        a = random_substochastic(np.random.default_rng(32 + n), n)
        res = dominant_eigs(a, k=k, tol=1e-17, max_iter=50)
        assert res.iterations == (0 if n <= k + _GUARD_VECTORS else 1)
        assert res.products == 2 * n
        assert_matches_dense(a, dominant_eigs(a, k=k, max_iter=50), k)


class TestBasin:
    def test_threshold_selection(self):
        r = np.array([1.0, 0.51, 0.5, 0.1, 0.9])
        assert basin_of_attraction(r).tolist() == [0, 1, 4]
        assert basin_of_attraction(r, threshold=0.05).tolist() == [0, 1, 2, 3, 4]

    def test_closed_set_has_infinite_retention(self):
        # State 0 keeps all its mass; state 1 feeds it (right vector 0.4 there).
        res = analyze_basin(dense_tm([[1.0, 0.0], [0.2, 0.5]], transition_time=360.0))
        assert res.members.tolist() == [0]
        assert res.lambda_b == 1.0
        assert res.retention_time == math.inf

    def test_uniform_leak_rate(self):
        # Restricted to itself, a single state with self-loop 0.5 has
        # lambda_B = 0.5, so a 10-day step retains for 20 days.
        res = analyze_basin(dense_tm([[0.5, 0.5], [0.0, 0.0]], transition_time=10.0))
        assert res.members.tolist() == [0]
        assert res.retention_time == pytest.approx(20.0)

    def test_no_recurrence_returns_single_step(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        lam, _ = _restricted_modulus(a, np.array([0]), tol=1e-10, max_iter=100, seed=0)
        assert lam == 0.0
        assert 7.0 / (1.0 - lam) == 7.0

    def test_empty_basin_has_no_retention(self, caplog):
        # Right vectors peak at exactly 1, so a threshold of 1 selects no state.
        with caplog.at_level("WARNING", logger="driftchain.spectral"):
            res = analyze_basin(dense_tm([[0.5, 0.5], [0.0, 0.0]]), threshold=1.0)
        assert res.members.size == 0 and res.products == 0
        assert math.isnan(res.lambda_b) and math.isnan(res.retention_time)
        assert "no states exceed the basin threshold" in caplog.text

    def test_only_the_step_cap_leaves_the_basin_unconverged(self, caplog):
        a = random_substochastic(np.random.default_rng(14), 12)
        eigs = dominant_eigs(a, k=1, tol=1e-12)
        with caplog.at_level("WARNING", logger="driftchain.spectral"):
            capped = analyze_basin(a, threshold=0.0, tol=1e-15, max_iter=1, eigs=eigs)
        assert len(capped.members) == 12 and not capped.converged
        assert "restricted eigenvalue unconverged after 1 iterations" in caplog.text
        assert analyze_basin(a, threshold=0.0, tol=1e-12, eigs=eigs).converged
        # A basis that spans the basin is invariant: its Ritz value is exact up
        # to the projected eigensolve's roundoff, which no tolerance can undercut.
        caplog.clear()
        with caplog.at_level("WARNING", logger="driftchain.spectral"):
            spanned = analyze_basin(a, threshold=0.0, tol=1e-300, eigs=eigs)
        assert spanned.converged and spanned.products == 12 and caplog.text == ""

    def test_analyze_basin_combines_steps(self):
        # Two nearly closed communities; the right vector separates them.
        a = np.array(
            [
                [0.93, 0.05, 0.01, 0.0],
                [0.05, 0.93, 0.0, 0.01],
                [0.02, 0.0, 0.5, 0.3],
                [0.0, 0.02, 0.3, 0.5],
            ]
        )
        tm = dense_tm(a, transition_time=360.0)
        res = analyze_basin(tm, threshold=0.5)
        assert res.members.tolist() == [0, 1]
        sub = a[np.ix_(res.members, res.members)]
        lam = np.max(np.abs(np.linalg.eigvals(sub)))
        assert res.lambda_b == pytest.approx(lam, abs=1e-10)
        assert res.retention_time == pytest.approx(360.0 / (1 - lam), rel=1e-10)

    def test_retention_time_matches_survival_sum(self):
        # T_B = T / (1 - lambda_B) equals the tail-sum of survival mass for
        # a one-state basin: sum_k k (1-q) q^(k-1) * T = T / (1 - q).
        q = 0.5103
        res = analyze_basin(dense_tm([[q, 1 - q], [0.0, 0.0]], transition_time=360.0))
        assert res.members.tolist() == [0]
        t_b = res.retention_time
        steps = np.arange(1, 4000)
        expect_steps = np.sum(steps * (1 - q) * q ** (steps - 1))
        assert t_b == pytest.approx(360.0 * expect_steps, rel=1e-6)


def operator_and_product(tms, exponent):
    """The annual operator and, as its oracle, the dense 4e-factor product."""
    op = annual_operator(tms["W"], tms["S"], tms["SF"], exponent=exponent)
    w, s, sf = (tms[k].matrix.toarray() for k in ("W", "S", "SF"))
    dense = dense_power_product([w] * exponent + [sf] * exponent + [s] * exponent
                                + [sf] * exponent)
    return op, dense


class TestAnnualOperator:
    @pytest.mark.parametrize("n, seed, exponent", [(3, 1, 18), (8, 2, 18), (20, 3, 1),
                                                   (35, 4, 18), (50, 5, 1), (50, 6, 18)])
    def test_eigs_match_composed_matrix(self, n, seed, exponent):
        tms = seasonal_tms(np.random.default_rng(seed), n)
        op = annual_operator(tms["W"], tms["S"], tms["SF"], exponent=exponent)
        composed = compose_annual(tms["W"], tms["S"], tms["SF"], exponent=exponent)
        got = dominant_eigs(op, k=2)
        want = dominant_eigs(composed, k=2)
        assert got.converged.all() and want.converged.all()
        assert np.abs(got.moduli - want.moduli).max() <= 1e-10
        assert np.abs(got.left_vectors[0] - want.left_vectors[0]).max() <= 1e-10
        assert np.abs(got.right_vectors[0] - want.right_vectors[0]).max() <= 1e-10

    @pytest.mark.parametrize("n, seed", [(4, 7), (20, 8), (50, 9)])
    def test_restricted_modulus_matches_sliced_product(self, n, seed):
        rng = np.random.default_rng(seed)
        op, dense = operator_and_product(seasonal_tms(rng, n), 18)
        for size in (1, n // 2, n):
            members = np.sort(rng.choice(n, size=size, replace=False))
            want = np.abs(np.linalg.eigvals(dense[np.ix_(members, members)])).max()
            got, _ = _restricted_modulus(op, members, tol=1e-12, max_iter=100_000, seed=0)
            assert abs(got - want) <= 1e-10

    @pytest.mark.parametrize("n, seed", [(6, 12), (30, 13)])
    def test_restricted_modulus_equals_two_sided_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        op, _ = operator_and_product(seasonal_tms(rng, n), 18)
        csr = sparse.csr_matrix(random_substochastic(rng, n, density=0.3))
        for size in (1, n // 2, n):
            members = np.sort(rng.choice(n, size=size, replace=False))
            subs = ((op, _Restricted(op, members)),
                    (csr, csr[np.ix_(members, members)].tocsr()))
            for p, sub in subs:
                want = dominant_eigs(sub, k=1, tol=1e-12, seed=0).moduli[0]
                got, _ = _restricted_modulus(p, members, tol=1e-12, max_iter=100_000, seed=0)
                assert got == want

    def test_unconverged_restricted_modulus_warns(self, caplog):
        a = random_substochastic(np.random.default_rng(14), 12)
        with caplog.at_level("WARNING", logger="driftchain.spectral"):
            _restricted_modulus(a, np.arange(8), tol=1e-15, max_iter=1, seed=0)
        assert "restricted eigenvalue unconverged after 1 iterations" in caplog.text

    def test_basin_matches_dense_product(self):
        op, dense = operator_and_product(seasonal_tms(np.random.default_rng(10), 30), 18)
        got, want = analyze_basin(op), analyze_basin(dense_tm(dense, transition_time=360.0))
        assert np.array_equal(got.members, want.members)
        assert abs(got.lambda_b - want.lambda_b) <= 1e-10
        assert got.transition_time == want.transition_time == 360.0

    def test_empty_restriction_has_zero_modulus(self):
        # no state moves into state 0, so the annual map never returns to it
        tms = {k: dense_tm(tm.matrix.toarray() * (np.arange(6) != 0), label=k)
               for k, tm in seasonal_tms(np.random.default_rng(11), 6).items()}
        op, dense = operator_and_product(tms, 18)
        assert not dense[:, 0].any()
        assert _restricted_modulus(op, np.array([0]), tol=1e-10, max_iter=100, seed=0)[0] == 0.0


class TestBlockProducts:
    """The solve applies the operator to each pending block in one product."""

    @pytest.mark.parametrize("case", ["seasonal-20", "seasonal-60", "restarting-walk"])
    def test_equal_to_vector_by_vector_products(self, case):
        if case == "restarting-walk":  # the basis fills and restarts many times
            op = AnnualOperator((Csr.of(lazy_walk(120, cycle=False)),), 1, 1.0)
        else:
            n = int(case.split("-")[1])
            op, _ = operator_and_product(seasonal_tms(np.random.default_rng(n), n), 18)
        oracle = column_by_column(op)
        got, want = dominant_eigs(op, k=2), dominant_eigs(oracle, k=2)
        for name in ("eigenvalues", "left_vectors", "right_vectors", "left_residuals",
                     "right_residuals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.iterations, got.products, got.block_products) == \
            (want.iterations, want.products, want.block_products)
        basin, want_basin = analyze_basin(op, eigs=got), analyze_basin(oracle, eigs=want)
        assert basin.members.size and np.array_equal(basin.members, want_basin.members)
        assert np.float64(basin.lambda_b).tobytes() == np.float64(want_basin.lambda_b).tobytes()
        assert (basin.products, basin.block_products) == \
            (want_basin.products, want_basin.block_products)

    def test_block_products_count_the_solve_steps(self):
        a = Csr.of(lazy_walk(120, cycle=False))
        loose, tight = (_block_krylov(a, 2, tol, 100_000, 0) for tol in (1e-4, 1e-10))
        for ritz in (loose, tight):
            assert ritz.block_products == ritz.steps + 1
            assert ritz.block_products <= ritz.products
        assert loose.block_products < tight.block_products
        res = dominant_eigs(a, k=2)
        basin = analyze_basin(a, eigs=res)
        assert 2 < res.block_products <= res.products
        assert 0 < basin.block_products <= basin.products


class TestZonalProfile:
    def test_constant_vector(self):
        g = build_grid((0.0, 3.0, 0.0, 4.0), cell_size=1.0)
        prof = zonal_profile(np.full(g.n_states, 2.5), g)
        assert np.allclose(prof.mean, 2.5)
        assert np.allclose(prof.derivative, 0.0)
        assert prof.latitudes.tolist() == [0.5, 1.5, 2.5, 3.5]

    def test_linear_gradient_recovered(self):
        g = build_grid((0.0, 2.0, -10.0, -6.0), cell_size=1.0)
        lat_of = np.array([g.box_center(s)[1] for s in range(g.n_states)])
        prof = zonal_profile(3.0 * lat_of + 1.0, g)
        assert np.allclose(prof.derivative, 3.0, atol=1e-12)

    def test_masked_row_yields_nan(self, tmp_path):
        mask = write_mask(tmp_path / "mask.csv", {(0, 0): True, (0, 1): False, (0, 2): True})
        g = build_grid((0.0, 1.0, 0.0, 3.0), cell_size=1.0, wet_mask=mask)
        prof = zonal_profile(np.ones(g.n_states), g)
        assert math.isnan(prof.mean[1])
        assert prof.mean[0] == 1.0

    def test_length_mismatch(self):
        g = build_grid((0.0, 2.0, 0.0, 2.0), cell_size=1.0)
        with pytest.raises(ValueError):
            zonal_profile(np.ones(3), g)
