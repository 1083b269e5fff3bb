import re

import numpy as np
import pytest
from scipy import sparse

from conftest import chain_dense, dense_tm, make_chain, make_roles, random_roles
from oracles import mc_first_absorption, random_substochastic, two_stage_augment

from driftchain.absorb import (
    AugmentedChain,
    absorption_split,
    augment,
    load_chain,
    save_chain,
)
from driftchain.errors import ConfigError, NumericalError


class TestCemetery:
    def test_deficit_routed_to_cemetery(self):
        a = np.array([[0.6, 0.0], [0.0, 0.0]])
        roles = make_roles(2, leaky=(0, 1))
        full = chain_dense(augment(dense_tm(a), roles))
        assert full.shape == (3, 3)
        assert full[0].tolist() == [0.6, 0.0, 0.4]
        assert full[1].tolist() == [0.0, 0.0, 1.0]  # empty row dies immediately
        assert full[2].tolist() == [0.0, 0.0, 1.0]  # cemetery is absorbing
        assert np.allclose(full.sum(axis=1), 1.0, atol=1e-13)

    def test_stochastic_rows_untouched(self):
        a = np.array([[0.5, 0.5], [1.0, 0.0]])
        chain = augment(dense_tm(a), make_roles(2))
        assert chain.matrix[0, 2] == 0.0
        assert chain.matrix[1, 2] == 0.0
        assert chain_dense(chain)[:2, :2].tolist() == a.tolist()

    def test_negative_deficit_beyond_tolerance_rejected(self):
        tm = dense_tm(np.array([[0.7, 0.3], [0.0, 1.0]]))
        tm.matrix.data *= 1.0 + 1e-9  # simulate upstream roundoff damage
        with pytest.raises(NumericalError):
            augment(tm, make_roles(2))

    def test_roundoff_deficit_clipped_to_zero(self):
        tm = dense_tm(np.array([[0.3, 0.7 + 2e-13], [0.0, 1.0]]))
        chain = augment(tm, make_roles(2))
        assert chain.matrix[0, 2] == 0.0  # no negative mass invented

    def test_deficit_on_unlisted_row_warns(self, caplog):
        a = np.array([[0.5, 0.0], [0.5, 0.5]])
        with caplog.at_level("WARNING", logger="driftchain.absorb"):
            augment(dense_tm(a), make_roles(2, leaky=(1,)))
        assert "declared leaky" in caplog.text
        assert "(first few: [0])" in caplog.text


def random_instance(rng):
    """A transition matrix and roles drawn across augmentation's corner cases.

    Rows are either dyadic (eighths, so a full row sums to exactly 1 and
    leaves a zero deficit) or random floats; some rows are empty, with or
    without row counts that mark them unsampled.  Debris labels are drawn
    with replacement from the sticky states, so labels often share a box,
    and there are none when no state is sticky.
    """
    n = int(rng.integers(1, 9))
    if rng.random() < 0.5:
        a = np.array([rng.multinomial(int(rng.integers(0, 9)), np.full(n, 1 / n)) / 8.0
                      for _ in range(n)])
    else:
        a = random_substochastic(rng, n, min_row=rng.uniform(0.0, 1.0),
                                 density=rng.uniform(0.2, 1.0))
    a[rng.random(n) < 0.2] = 0.0
    counts = None
    if rng.random() < 0.5:
        counts = np.where(a.sum(axis=1) > 0, rng.integers(1, 50, size=n), 0)
    tm = dense_tm(a, transition_time=float(rng.choice([2.5, 5.0, 7.5])),
                  label=str(rng.choice(["W", "S", "SF", "pooled"])), row_counts=counts)

    sticky_states = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    sticky = {int(s): float(rng.integers(1, 8) / 8 if rng.random() < 0.5
                            else rng.uniform(0.01, 0.99)) for s in sticky_states}
    n_targets = int(rng.integers(0, 4)) if sticky else 0
    debris = tuple(int(rng.choice(list(sticky))) for _ in range(n_targets))
    leaky = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    roles = make_roles(n, leaky=leaky.tolist(), sticky=sticky, debris=debris)
    return tm, roles


class TestOnePass:
    def test_bitwise_equal_to_two_stage_closure(self, caplog):
        rng = np.random.default_rng(2019)
        seen = dict.fromkeys(["zero_deficit", "colocated", "no_targets",
                              "counts_none", "empty_unsampled"], 0)
        for _ in range(1200):
            tm, roles = random_instance(rng)
            with caplog.at_level("ERROR", logger="driftchain.absorb"):
                chain = augment(tm, roles)
            want, want_roles, want_time, want_label = two_stage_augment(tm, roles)
            assert chain.matrix.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                got, ref = getattr(chain.matrix, attr), getattr(want, attr)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), attr
            assert chain.roles is want_roles
            assert chain.transition_time == want_time and chain.label == want_label

            sums = tm.row_sums()
            seen["zero_deficit"] += bool((sums == 1.0).any())
            seen["colocated"] += len(set(roles.debris)) < roles.n_targets
            seen["no_targets"] += roles.n_targets == 0
            seen["counts_none"] += tm.row_counts is None
            seen["empty_unsampled"] += tm.row_counts is not None and bool(
                (tm.row_counts == 0).any())
        assert min(seen.values()) >= 50, seen


class TestBeaching:
    def test_plain_sticky_fixture(self):
        # One transient box with land fraction 0.5 feeding a neighbour.
        a = np.array([[0.0, 0.6], [0.0, 0.0]])
        roles = make_roles(2, leaky=(0, 1), sticky={0: 0.5})
        chain = augment(dense_tm(a), roles)
        full = chain_dense(chain)
        # Row 0 had [0, 0.6, 0.4]; scaling by 1 - 0.5 and adding 0.5 to the
        # cemetery gives [0, 0.3, 0.7].
        assert full[0].tolist() == [0.0, 0.3, 0.7]
        assert chain.cemetery == 2
        assert chain.n_targets == 0

    def test_debris_fixture(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        roles = make_roles(2, leaky=(1,), sticky={0: 0.5}, debris=(0,))
        chain = augment(dense_tm(a), roles)
        full = chain_dense(chain)
        # States: 0,1 grid; 2 cemetery; 3 target #1.
        assert full.shape == (4, 4)
        assert full[0].tolist() == [0.0, 0.5, 0.0, 0.5]
        assert full[1].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert full[2].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert full[3].tolist() == [0.0, 0.0, 0.0, 1.0]
        assert chain.target_state(1) == 3

    def test_colocated_targets_split_equally(self):
        a = np.array([[0.2, 0.2], [0.0, 0.0]])
        roles = make_roles(2, leaky=(0, 1), sticky={0: 0.4}, debris=(0, 0))
        chain = augment(dense_tm(a), roles)
        full = chain_dense(chain)
        # ell = 0.4 split over two co-located labels -> 0.2 each.
        assert full[0, 3] == pytest.approx(0.2)
        assert full[0, 4] == pytest.approx(0.2)
        # Remaining motion scaled by 0.6: [0.12, 0.12] plus 0.36 cemetery.
        assert full[0, 0] == pytest.approx(0.12)
        assert full[0, 1] == pytest.approx(0.12)
        assert full[0, 2] == pytest.approx(0.36)

    def test_sticky_cemetery_mass_also_scaled(self):
        # The land fraction applies to the whole row including the
        # leak-to-cemetery column, not only to the grid part.
        a = np.zeros((1, 1))
        roles = make_roles(1, leaky=(0,), sticky={0: 0.25})
        full = chain_dense(augment(dense_tm(a), roles))
        assert full[0].tolist() == [0.0, 1.0]  # 0.75 leak + 0.25 beach, both die

    def test_absorbing_diagonals_exactly_one(self):
        rng = np.random.default_rng(0)
        a = random_substochastic(rng, 6)
        roles = make_roles(6, leaky=range(6), sticky={1: 0.3, 4: 0.6}, debris=(1, 4, 1))
        chain = augment(dense_tm(a), roles)
        full = chain_dense(chain)
        for s in chain.absorbing_states():
            assert full[s, s] == 1.0
            assert full[s].sum() == 1.0

    def test_row_sums_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = random_substochastic(rng, n, min_row=0.2)
            roles = random_roles(rng, n)
            chain = make_chain(a, roles)
            sums = np.asarray(chain.matrix.tocsr().sum(axis=1)).ravel()
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_source_metadata_carried(self):
        tm = dense_tm(np.array([[0.5]]), label="S")
        chain = augment(tm, make_roles(1, leaky=(0,)))
        assert chain.label == "S"
        assert chain.transition_time == tm.transition_time


class TestChainValidation:
    def test_row_sum_violation_rejected(self):
        m = sparse.csr_matrix(np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            AugmentedChain(
                matrix=m, roles=make_roles(1), transition_time=5.0, label="W"
            )

    def test_nonabsorbing_target_rejected(self):
        m = sparse.csr_matrix(
            np.array([
                [0.0, 0.5, 0.5],
                [0.0, 1.0, 0.0],
                [0.0, 0.5, 0.5],  # target diagonal != 1
            ])
        )
        roles = make_roles(1, sticky={0: 0.5}, debris=(0,))
        with pytest.raises(ValueError):
            AugmentedChain(matrix=m, roles=roles, transition_time=5.0, label="W")

    def test_non_finite_entry_rejected(self):
        # NaN fails the range and row-sum checks alike, so it needs its own
        m = sparse.csr_matrix(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="entries must be finite"):
            AugmentedChain(matrix=m, roles=make_roles(1), transition_time=5.0, label="W")


class TestAbsorptionStructure:
    def test_split_shapes(self):
        rng = np.random.default_rng(1)
        a = random_substochastic(rng, 5)
        roles = make_roles(5, leaky=range(5), sticky={0: 0.2, 3: 0.5}, debris=(3,))
        chain = make_chain(a, roles)
        q, r = absorption_split(chain)
        assert q.shape == (5, 5)
        assert r.shape == (5, 2)
        recombined = np.hstack([q.toarray(), r.toarray()])
        assert np.allclose(recombined, chain_dense(chain)[:5], atol=0)

    def test_absorption_probabilities_match_monte_carlo(self):
        rng = np.random.default_rng(9)
        a = random_substochastic(rng, 4, min_row=0.75)
        roles = make_roles(4, leaky=range(4), sticky={2: 0.45}, debris=(2,))
        chain = make_chain(a, roles)
        q, r = absorption_split(chain)
        hit = np.linalg.solve(np.eye(4) - q.toarray(), r.toarray())

        full = chain_dense(chain)
        counts = mc_first_absorption(
            lambda k: full, c=0, absorbing=[4, 5], n_walkers=200_000,
            max_steps=400, seed=3,
        )
        mc_cem = counts[4].sum() / 200_000
        mc_hit = counts[5].sum() / 200_000
        assert mc_cem == pytest.approx(hit[0, 0], abs=5e-3)
        assert mc_hit == pytest.approx(hit[0, 1], abs=5e-3)
        # Everything is eventually absorbed somewhere.
        assert hit[0].sum() == pytest.approx(1.0, abs=1e-12)


class TestChainRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        a = random_substochastic(rng, 5)
        roles = make_roles(
            5, leaky=(0, 2), sticky={1: 1 / 3, 4: 0.7}, debris=(1, 4, 1),
            candidates=(3, 0, 4),
        )
        chain = make_chain(a, roles, transition_time=5.0, label="SF")
        path = tmp_path / "chain.txt"
        save_chain(chain, path)
        back = load_chain(path)
        assert np.array_equal(back.matrix.toarray(), chain.matrix.toarray())
        assert back.roles.leaky == roles.leaky
        assert back.roles.sticky == roles.sticky
        assert back.roles.debris == roles.debris
        assert back.roles.candidate_sources == roles.candidate_sources
        assert back.transition_time == 5.0
        assert back.label == "SF"
        assert back.n_grid_states == 5
        assert back.n_targets == 3

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("# transition-matrix v1\nn_states 2\ni,j,value\n")
        with pytest.raises(ConfigError):
            load_chain(path)


class TestChainRolesAppendix:
    @pytest.fixture
    def saved(self, tmp_path):
        roles = make_roles(5, leaky=(0, 2), sticky={1: 0.25, 4: 0.75}, debris=(1, 4),
                           candidates=(3, 0))
        path = tmp_path / "chain.txt"
        save_chain(make_chain(random_substochastic(np.random.default_rng(5), 5), roles), path)
        return path

    @pytest.mark.parametrize("old, new, message", [
        ("source,3\n", "source,3\nsource,3\n", "duplicate source record"),
        ("leaky,2\n", "leaky,2\nleaky,2\n", "duplicate leaky record"),
        ("sticky,4,0.75\n", "sticky,4,0.75\nsticky,4,0.5\n", "duplicate sticky record"),
        ("debris,4,2\n", "debris,4,2\ndebris,1,2\n", "duplicate debris label 2"),
        ("source,3\n", "source,x\n", "malformed roles line 'source,x'"),
        ("source,3\n", "source,3,1\n", "malformed roles line 'source,3,1'"),
        ("sticky,4,0.75\n", "sticky,4\n", "malformed roles line 'sticky,4'"),
        ("source,3\n", "swimmer,3\n", "malformed roles line 'swimmer,3'"),
        ("sticky,4,0.75\n", "sticky,4,x\n", "could not convert string to float"),
    ], ids=["dup-source", "dup-leaky", "dup-sticky", "dup-label", "bad-state", "extra-field",
            "missing-field", "unknown-kind", "bad-ell"])
    def test_bad_record_names_its_line(self, saved, old, new, message):
        text = saved.read_text(encoding="utf-8")
        saved.write_text(text.replace(old, new), encoding="utf-8")
        lines = saved.read_text(encoding="utf-8").splitlines()
        lineno = len(lines) - lines[::-1].index(new.splitlines()[-1])  # last occurrence
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{saved}:{lineno}: ')}") as exc:
            load_chain(saved)
        assert message in str(exc.value)

    @pytest.mark.parametrize("old, new, message", [
        ("debris,4,2\n", "debris,4,3\n", "debris target labels must be exactly 1..M, got [1, 3]"),
        ("debris,4,2\n", "", "1 debris records, header n_targets 2"),
        ("debris,4,2\n", "debris,4,2\ndebris,4,3\n", "3 debris records, header n_targets 2"),
        ("source,3\n", "source,5\n", "role references state 5 but chain has 5 states"),
        ("source,3\n", "source,-1\n", "role references state -1 but chain has 5 states"),
        ("sticky,4,0.75\n", "", "debris states not marked sticky: [4]"),
    ], ids=["label-gap", "too-few-labels", "too-many-labels", "state-too-big", "negative-state",
            "debris-not-sticky"])
    def test_inconsistent_roles_name_the_path(self, saved, old, new, message):
        text = saved.read_text(encoding="utf-8")
        saved.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(saved))}: ") as exc:
            load_chain(saved)
        assert message in str(exc.value)
