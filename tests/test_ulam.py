import itertools

import numpy as np
import pytest
from scipy import sparse

from conftest import dense_tm, seasonal_tms
from oracles import dense_power_product, random_substochastic

from driftchain.errors import ConfigError
from driftchain.grid import OUT_OF_DOMAIN
from driftchain.ingest import SEASONS, Season, TransitionPairs
from driftchain.synth import sample_pairs
from driftchain.ulam import (
    TransitionMatrix,
    annual_operator,
    compose_annual,
    estimate,
    load_matrix,
    markov_test,
    propagate,
    push_forward,
    save_matrix,
)


def pairs_from(edges):
    """Build a W-season pair table from (from, to) tuples."""
    frm, to = zip(*edges)
    n = len(edges)
    return TransitionPairs(from_state=frm, to_state=to, start_date=np.zeros(n),
                           season=np.full(n, SEASONS.index(Season.W)))


class TestEstimate:
    def test_hand_counted_fractions(self):
        edges = [(0, 1)] * 3 + [(0, 0), (0, OUT_OF_DOMAIN), (1, 0), (1, 0)]
        tm = estimate(pairs_from(edges), n_states=3, transition_time=5.0, label="W")
        a = tm.matrix.toarray()
        # The exit pair stays in the denominator of row 0.
        assert a[0].tolist() == [0.2, 0.6, 0.0]
        assert a[1].tolist() == [1.0, 0.0, 0.0]
        assert tm.row_counts.tolist() == [5, 2, 0]
        assert tm.deficits()[0] == pytest.approx(0.2)
        assert tm.empty_rows().tolist() == [2]
        assert tm.empty_row_fraction() == pytest.approx(1 / 3)

    def test_duplicate_pairs_accumulate(self):
        tm = estimate(pairs_from([(0, 1)] * 4), 2, 5.0, "S")
        assert tm.matrix[0, 1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate(pairs_from([(0, 5)]), 2, 5.0, "W")
        with pytest.raises(ValueError):
            estimate(pairs_from([(-1, 0)]), 2, 5.0, "W")
        with pytest.raises(ValueError):
            estimate([], 0, 5.0, "W")
        with pytest.raises(ValueError):
            dense_tm(np.eye(2), label="weird")

    def test_large_sample_recovers_kernel(self):
        kernel = np.array([[0.5, 0.3, 0.1], [0.2, 0.2, 0.5], [0.0, 0.4, 0.6]])
        pairs = sample_pairs({Season.W: kernel}, n_pairs=200_000, seed=7)
        tm = estimate(pairs, 3, 5.0, "W")
        assert np.abs(tm.matrix.toarray() - kernel).max() < 0.01


class TestComposeAnnual:
    def test_identity_and_metadata(self):
        eye = dense_tm(np.eye(3), transition_time=5.0, label="W")
        out = compose_annual(eye, eye, eye, exponent=18)
        assert np.array_equal(out.matrix.toarray(), np.eye(3))
        assert out.transition_time == 360.0
        assert out.label == "annual"
        assert out.row_counts is None

    def test_matches_dense_factor_order(self):
        rng = np.random.default_rng(3)
        mats = {}
        for name in ("W", "S", "SF"):
            a = rng.random((4, 4))
            mats[name] = a / a.sum(axis=1)[:, None] * rng.uniform(0.85, 1.0, 4)[:, None]
        out = compose_annual(
            dense_tm(mats["W"], label="W"),
            dense_tm(mats["S"], label="S"),
            dense_tm(mats["SF"], label="SF"),
            exponent=2,
        )
        factors = [mats["W"]] * 2 + [mats["SF"]] * 2 + [mats["S"]] * 2 + [mats["SF"]] * 2
        want = dense_power_product(factors)
        assert np.allclose(out.matrix.toarray(), want, atol=1e-14)

    def test_order_matters(self):
        # Same factors in the wrong order give a visibly different product,
        # so an accidental reordering cannot slip through the test above.
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = np.array([[0.9, 0.1], [0.3, 0.7]])
        sf = np.array([[0.5, 0.5], [0.2, 0.8]])
        right = dense_power_product([w, sf, s, sf])
        wrong = dense_power_product([w, s, sf, sf])
        assert not np.allclose(right, wrong)
        out = compose_annual(
            dense_tm(w, label="W"), dense_tm(s, label="S"), dense_tm(sf, label="SF"),
            exponent=1,
        )
        assert np.allclose(out.matrix.toarray(), right, atol=1e-15)

    def test_shape_and_time_mismatch(self):
        a = dense_tm(np.eye(2), label="W")
        b = dense_tm(np.eye(3), label="S")
        with pytest.raises(ValueError):
            compose_annual(a, b, a)
        c = dense_tm(np.eye(2), transition_time=7.0, label="S")
        with pytest.raises(ValueError):
            compose_annual(a, c, a)
        with pytest.raises(ValueError):
            compose_annual(a, a, a, exponent=0)


def seasonal_product(tms, exponent):
    """Dense oracle of the annual map: W^e SF^e S^e SF^e, factor by factor."""
    w, s, sf = (tms[k].matrix.toarray() for k in ("W", "S", "SF"))
    return dense_power_product([w] * exponent + [sf] * exponent + [s] * exponent
                               + [sf] * exponent)


class TestAnnualOperator:
    @pytest.mark.parametrize("n, seed", [(1, 1), (2, 2), (7, 3), (20, 4), (50, 5)])
    def test_action_matches_dense_product(self, n, seed):
        tms = seasonal_tms(np.random.default_rng(seed), n)
        op = annual_operator(tms["W"], tms["S"], tms["SF"], exponent=18)
        want = seasonal_product(tms, 18)
        assert want.sum(axis=1).min() > 0.1  # near-stochastic rows: not a vanishing product
        assert np.abs(op @ np.eye(n) - want).max() <= 1e-12
        assert np.abs(op.T @ np.eye(n) - want.T).max() <= 1e-12
        x = np.random.default_rng(seed).random(n)
        assert np.abs(op @ x - want @ x).max() <= 1e-12

    def test_metadata_and_transpose_views(self):
        tms = seasonal_tms(np.random.default_rng(6), 5)
        op = annual_operator(tms["W"], tms["S"], tms["SF"], exponent=3)
        assert op.shape == (5, 5)
        assert op.n_states == 5
        assert op.transition_time == 4 * 3 * 5.0
        t = op.T
        assert (t.shape, t.exponent, t.transition_time) == (op.shape, 3, op.transition_time)
        assert len(t.factors) == len(op.factors) == 4
        for a, b in zip(t.factors, reversed(op.factors)):
            assert np.shares_memory(a.data, b.data) and np.shares_memory(a.indices, b.indices)
            assert np.array_equal(a.toarray(), b.toarray().T)

    def test_propagate_is_one_year_per_step(self):
        rng = np.random.default_rng(7)
        tms = seasonal_tms(rng, 30)
        op = annual_operator(tms["W"], tms["S"], tms["SF"], exponent=18)
        dense = seasonal_product(tms, 18)
        f = rng.random(30)
        f /= f.sum()
        for k, got in enumerate(propagate(f, itertools.repeat(op, 4))):
            assert np.abs(got - f @ np.linalg.matrix_power(dense, k)).max() <= 1e-13

    def test_shape_and_time_mismatch(self):
        a = dense_tm(np.eye(2), label="W")
        with pytest.raises(ValueError):
            annual_operator(a, dense_tm(np.eye(3), label="S"), a)
        with pytest.raises(ValueError):
            annual_operator(a, dense_tm(np.eye(2), transition_time=7.0, label="S"), a)
        with pytest.raises(ValueError):
            annual_operator(a, a, a, exponent=0)


class TestPushForward:
    def test_matches_dense_powers(self):
        rng = np.random.default_rng(11)
        a = rng.random((5, 5))
        a /= a.sum(axis=1)[:, None] / 0.97
        tm = dense_tm(a)
        f = rng.random(5)
        f /= f.sum()
        for k in (0, 1, 3):
            want = f @ np.linalg.matrix_power(a, k)
            assert np.allclose(push_forward(f, tm, k), want, atol=1e-14)

    def test_mass_conserved_in_stochastic_chain(self):
        a = np.array([[0.5, 0.5], [0.25, 0.75]])
        f = push_forward(np.array([1.0, 0.0]), dense_tm(a), k=50)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        tm = dense_tm(np.eye(2))
        with pytest.raises(ValueError):
            push_forward(np.array([1.0, 0.0, 0.0]), tm)
        with pytest.raises(ValueError):
            push_forward(np.array([-0.5, 0.5]), tm)
        with pytest.raises(ValueError):
            push_forward(np.array([0.9, 0.9]), tm)
        with pytest.raises(ValueError):
            push_forward(np.array([0.5, 0.5]), tm, k=-1)


class TestPropagate:
    def test_yields_start_then_each_step(self):
        rng = np.random.default_rng(12)
        mats = [random_substochastic(rng, 5) for _ in range(3)]
        f = np.array([0.5, 0.0, 0.25, 0.0, 0.25])
        got = list(propagate(f, [sparse.csr_matrix(m) for m in mats]))
        assert len(got) == 4
        assert got[0] is f
        for k in range(1, 4):
            np.testing.assert_allclose(got[k], f @ dense_power_product(mats[:k]),
                                       rtol=0, atol=1e-15)

    def test_columns_evolve_as_alone(self):
        rng = np.random.default_rng(13)
        mats = [sparse.csr_matrix(random_substochastic(rng, 9, density=0.4))
                for _ in range(25)]
        block = rng.random((9, 6))
        block /= block.sum(axis=0)
        batch = list(propagate(block, mats))
        for c in range(6):
            alone = list(propagate(block[:, c].copy(), mats))
            for k in range(len(mats) + 1):
                assert np.array_equal(batch[k][:, c], alone[k])

    def test_reads_one_matrix_per_step_taken(self):
        taken = []

        def matrices():
            while True:
                taken.append(len(taken))
                yield sparse.identity(2, format="csr")

        steps = propagate(np.array([1.0, 0.0]), matrices())
        next(steps)
        assert taken == []
        next(steps)
        next(steps)
        assert taken == [0, 1]


class TestMarkovTest:
    def test_homogeneous_chain_has_no_deviation(self):
        rng = np.random.default_rng(2)
        a = rng.random((6, 6))
        a /= a.sum(axis=1)[:, None]
        p1 = dense_tm(a, transition_time=5.0)
        pn = [
            dense_tm(np.linalg.matrix_power(a, n), transition_time=5.0 * n)
            for n in (2, 3, 5)
        ]
        rows = markov_test(p1, pn, k_eigs=2)
        assert [r.n for r in rows] == [2, 3, 5]
        for row in rows:
            assert row.converged
            assert row.rel_deviation.max() < 1e-8

    def test_non_integer_lag_rejected(self):
        p1 = dense_tm(np.eye(2), transition_time=5.0)
        bad = dense_tm(np.eye(2), transition_time=7.5)
        with pytest.raises(ValueError):
            markov_test(p1, [bad])


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.random((7, 7))
        a *= rng.random((7, 7)) < 0.4
        a = 0.5 * a / np.maximum(a.sum(axis=1, keepdims=True), 1e-300)
        a[0, 0] = 1 / 3      # not exactly representable in decimal
        a[1, 2] = 1e-17      # tiny magnitudes must survive the text format
        tm = dense_tm(a, transition_time=5.0, label="SF", row_counts=np.arange(7))
        path = tmp_path / "m.txt"
        save_matrix(tm, path)
        back = load_matrix(path)
        assert np.array_equal(back.matrix.toarray(), tm.matrix.toarray())
        assert back.transition_time == tm.transition_time
        assert back.label == "SF"
        assert np.array_equal(back.row_counts, tm.row_counts)

    def test_save_load_without_counts(self, tmp_path):
        tm = dense_tm(np.eye(2) * 0.5)
        path = tmp_path / "m.txt"
        save_matrix(tm, path)
        assert load_matrix(path).row_counts is None

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ConfigError):
            load_matrix(path)

    def test_reject_malformed_header(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.eye(2) * 0.5), path)
        path.write_text(path.read_text().replace("n_states 2", "n_states two"))
        with pytest.raises(ConfigError, match="malformed header"):
            load_matrix(path)

    def test_reject_missing_body(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# transition-matrix v1\nn_states 2\n")
        with pytest.raises(ConfigError):
            load_matrix(path)

    @pytest.mark.parametrize("stop", ["", "   ", "# end", "[extra]"])
    def test_body_ends_at_first_stop_line(self, tmp_path, stop):
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]])), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{stop}\n0,1,0.125\nnot a triplet\n")
        assert load_matrix(path).matrix.toarray().tolist() == [[0.5, 0.25], [0.0, 1.0]]

    @pytest.mark.parametrize("line", ["3,x,0.5", "1,1", "1,1,0.5,7", "1.0,1,0.5",
                                      "Ǿ,1,0.5", "1\x1c,1,0.5", "1,2,0.5", "-1,0,0.5",
                                      "99999999999999999999,0,0.5"])
    def test_malformed_entry_names_path_and_line(self, tmp_path, line):
        # numpy's C reader would read "Ǿ" as digits and "\x1c" as blank.
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]])), path)
        text = path.read_text(encoding="utf-8").splitlines()
        text[-2] = line  # the second of three entries
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"m.txt:{len(text) - 1}: "):
            load_matrix(path)


def test_transition_matrix_invariants():
    with pytest.raises(ValueError):
        dense_tm(np.full((2, 2), 0.8))       # row sums above 1
    with pytest.raises(ValueError):
        dense_tm(np.array([[0.5, -0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        TransitionMatrix(
            matrix=sparse.csr_matrix((2, 3)),
            transition_time=5.0,
            label="W",
            row_counts=None,
        )
