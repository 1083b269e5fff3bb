import itertools
from datetime import date

import numpy as np
import pytest
from scipy import sparse

from conftest import dense_tm, seasonal_tms, write_mask
from oracles import dense_power_product, random_substochastic

from driftchain.errors import ConfigError
from driftchain.grid import OUT_OF_DOMAIN, build_grid
from driftchain.ingest import (MONTH_SEASONS, SEASON_BLOCK_DAYS, SEASONS, YEAR_BLOCKS,
                               YEAR_DAYS, Season, TransitionPairs)
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
        assert 1.0 - tm.row_sums()[0] == pytest.approx(0.2)
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

    def test_factors_follow_the_calendar_blocks(self):
        # A year is four season blocks, each taking the season of its first month.
        tms = seasonal_tms(np.random.default_rng(8), 3)
        op = annual_operator(tms["W"], tms["S"], tms["SF"], exponent=2)
        order = [MONTH_SEASONS[month] for month in range(1, 13, 3)]
        assert order == [Season.W, Season.SF, Season.S, Season.SF] == list(YEAR_BLOCKS)
        assert len(op.factors) == len(order)
        assert all(f is tms[s.value].matrix for f, s in zip(op.factors, order))
        assert YEAR_DAYS == 360.0
        assert op.transition_time == YEAR_DAYS / SEASON_BLOCK_DAYS * 2 * 5.0

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

    def test_crash_date_line_checked_when_given(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.eye(2) * 0.5), path, crash_date=date(2014, 3, 8))
        assert "crash_date 2014-03-08\n" in path.read_text()
        assert load_matrix(path, crash_date=date(2014, 3, 8)).n_states == 2
        assert load_matrix(path).n_states == 2
        with pytest.raises(ConfigError, match="built with crash_date 2014-03-08, "
                                              "but crash_date is 2014-08-01"):
            load_matrix(path, crash_date=date(2014, 8, 1))
        save_matrix(dense_tm(np.eye(2) * 0.5), path)
        assert load_matrix(path, crash_date=date(2014, 8, 1)).n_states == 2

    def test_repeated_header_key_rejected(self, tmp_path):
        # A second value must not replace the first without a word.
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.eye(2) * 0.5, label="W"), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = lines.index("label W\n") + 1
        blanks = lines[:at] + ["\n", " \n"] + lines[at:]
        path.write_text("".join(blanks), encoding="utf-8")
        assert load_matrix(path).label == "W"
        path.write_text("".join(blanks[:at + 2] + ["label S\n"] + blanks[at + 2:]),
                        encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_matrix(path)
        assert str(exc.value) == (f"{path}:{at + 3}: duplicate key 'label', "
                                  f"first given on line {at}")

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
    def test_stop_line_in_body_names_its_line(self, tmp_path, stop):
        # Such a line must not end the body, dropping every entry after it.
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]])), path)
        text = path.read_text(encoding="utf-8").splitlines()
        text.insert(len(text) - 2, stop)  # after the first of three entries
        text.append("not a triplet")
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"m.txt:{len(text) - 3}: malformed matrix entry"):
            load_matrix(path)

    @pytest.mark.parametrize("line", ["1_0,2,0.5", "2,1_0,0.5", "1,1,0_5"])
    def test_underscore_digits_rejected(self, tmp_path, line):
        # Python's int() reads "1_0" as 10; the C reader, the one entry grammar, does not.
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.eye(12) * 0.5), path)
        text = path.read_text(encoding="utf-8").splitlines()
        text[-11] = line  # entry (1, 1)
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"m.txt:{len(text) - 10}: malformed matrix entry"):
            load_matrix(path)

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

    @pytest.mark.parametrize("line, fault", [
        ("\x1f1,1,0.5", "malformed matrix entry"),
        (" 1,x,0.5 ", "malformed matrix entry"),
        ("\t5,0,0.5", "matrix index outside 0..1 in"),
    ], ids=["separator-padding", "blank-padding", "padded-index"])
    def test_bad_entry_quoted_as_written(self, tmp_path, line, fault):
        # str.strip would drop the padding, \x1f included, that the entry grammar rejects.
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]])), path)
        text = path.read_text(encoding="utf-8").splitlines()
        text[-2] = line
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}:{len(text) - 1}: {fault} {line!r}"

    @pytest.mark.parametrize("line", ["0,0,0.5\x0c", "0,0\x0b,0.5"],
                             ids=["form-feed", "vertical-tab"])
    def test_whitespace_break_stays_in_its_entry(self, tmp_path, line):
        # str.splitlines breaks at \x0b and \x0c; int() and float() read them as padding.
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]])), path)
        text = path.read_text(encoding="utf-8").split("\n")
        assert text[6] == "0,0,0.5"  # line 7, the first entry
        text[6] = line
        path.write_text("\n".join(text), encoding="utf-8")
        assert load_matrix(path).matrix.toarray().tolist() == [[0.5, 0.25], [0.0, 1.0]]

    def test_non_ascii_break_names_its_own_line(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]])), path)
        text = path.read_text(encoding="utf-8").split("\n")
        text[6] = "0,0,0.5\x85"
        path.write_text("\n".join(text), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}:7: malformed matrix entry '0,0,0.5\\x85'"

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "m.txt"
        tm = dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]]))
        save_matrix(tm, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_matrix(path).matrix.toarray().tolist() == tm.matrix.toarray().tolist()


    def test_repeated_entry_names_both_lines(self, tmp_path):
        # The earlier reader summed a repeat into one entry; save_matrix never writes one.
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.array([[0.5, 0.25], [0.0, 1.0]])), path)
        text = path.read_text(encoding="utf-8").splitlines()
        text.append("0,1,0.25")  # entry (0, 1) is on the line before the last
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        first, again = len(text) - 2, len(text)
        with pytest.raises(ConfigError,
                           match=fr"m.txt: lines {first} and {again} both give entry \(0, 1\)"):
            load_matrix(path)

    def test_grid_line_checked_when_a_grid_is_given(self, tmp_path):
        built = build_grid((40.0, 42.0, -30.0, -29.0), cell_size=1.0)
        moved = build_grid((41.0, 43.0, -30.0, -29.0), cell_size=1.0)
        tm = dense_tm(np.eye(2) * 0.5)
        with_line, without = tmp_path / "with.txt", tmp_path / "without.txt"
        save_matrix(tm, with_line, grid=built)
        save_matrix(tm, without)
        assert "grid lon_min=40 lon_max=42 lat_min=-30 lat_max=-29 cell_size=1\n" \
            in with_line.read_text(encoding="utf-8")
        load_matrix(with_line, grid=(built, "grid.cfg"))
        load_matrix(with_line)
        load_matrix(without, grid=(moved, "grid.cfg"))
        with pytest.raises(ConfigError, match="with.txt was built on lon_min=40 .* but "
                                              "grid.cfg gives lon_min=41 "):
            load_matrix(with_line, grid=(moved, "grid.cfg"))

    def test_state_count_checked_when_a_grid_is_given(self, tmp_path):
        # The same bounds with box (2, 0) left dry: only the state count can tell.
        bounds = (40.0, 43.0, -30.0, -29.0)
        built = build_grid(bounds, cell_size=1.0)
        mask = write_mask(tmp_path / "mask.csv", {(0, 0): True, (1, 0): True})
        masked = build_grid(bounds, cell_size=1.0, wet_mask=mask)
        path = tmp_path / "m.txt"
        save_matrix(dense_tm(np.eye(3) * 0.5), path, grid=built)
        load_matrix(path, grid=(built, "grid.cfg"))
        with pytest.raises(ConfigError, match="do not match the configured grid: .*m.txt has "
                                              "3 states, but grid.cfg gives 2; rerun"):
            load_matrix(path, grid=(masked, "grid.cfg"))


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


def test_non_finite_entry_rejected():
    # NaN fails the sign and row-sum checks alike, so it needs its own
    with pytest.raises(ValueError, match="entries must be finite"):
        dense_tm(np.array([[0.5, np.nan], [0.0, 0.5]]))
