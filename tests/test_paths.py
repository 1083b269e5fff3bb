import dataclasses
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import (autonomous, make_roles, random_roles, schedule_step_mats, seasonal,
                      traced_peak)
from oracles import (
    enumerate_best_constrained,
    enumerate_best_unconstrained,
    random_substochastic,
    reduceat_best_paths,
)

from scipy import sparse

from driftchain.absorb import AugmentedChain
from driftchain.errors import UnreachableTargetError
from driftchain.grid import build_grid
from driftchain.ingest import Season
from driftchain.paths import (
    _EdgeLayout,
    common_source_report,
    most_probable_path,
    most_probable_paths,
    path_to_geojson,
    unconstrained_best_path,
)
from driftchain.schedule import SeasonalSchedule


def pipeline_schedule():
    """Three boxes in a row; box 2 is the coast with ell = 0.5."""
    a = np.array(
        [
            [0.2, 0.8, 0.0],
            [0.0, 0.3, 0.7],
            [0.0, 0.0, 1.0],
        ]
    )
    roles = make_roles(3, sticky={2: 0.5}, debris=(2,), candidates=(0, 1))
    return autonomous(a, roles)


def hand_schedule(m, roles):
    """The same hand-built augmented chain in every season."""
    chain = AugmentedChain(matrix=sparse.csr_matrix(m), roles=roles, transition_time=5.0,
                           label="W")
    return SeasonalSchedule(chains=dict.fromkeys(Season, chain))


def bits(x):
    """A PathSet, or the oracle's tuple of its fields, with floats as hex strings."""
    if dataclasses.is_dataclass(x):
        x = dataclasses.astuple(x)
    if isinstance(x, tuple):
        return tuple(bits(y) for y in x)
    return x.hex() if isinstance(x, float) else x


class TestConstrainedPath:
    def test_deterministic_line(self):
        sched = pipeline_schedule()
        ps = most_probable_path(sched, sources=[0], b=1, n_steps=3)
        r = ps.best
        # source 0 -> 1 -> 2 -> absorbed; the target sits one past the
        # cemetery, at state 4.
        assert r.states == (0, 1, 2, 4)
        assert r.log_prob == pytest.approx(np.log(0.8) + np.log(0.7) + np.log(0.5))
        assert r.log_prob == pytest.approx(sum(r.step_log_probs))
        assert r.landing_state == 2
        assert r.target_label == 1
        assert r.source == 0
        assert r.n_steps == 3

    def test_too_short_horizon_is_infeasible(self):
        sched = pipeline_schedule()
        ps = most_probable_path(sched, sources=[0], b=1, n_steps=1)
        assert ps.results == (None,)
        assert ps.best is None

    def test_exact_length_constraint_forces_detours(self):
        sched = pipeline_schedule()
        # A 4-step path from 0 must burn a step in a self-loop.
        ps = most_probable_path(sched, sources=[0], b=1, n_steps=4)
        r = ps.best
        assert len(r.states) == 5
        direct = np.log(0.8) + np.log(0.7) + np.log(0.5)
        assert r.log_prob < direct
        # Best use of the spare step is waiting on the coast box (0.5),
        # which beats self-loops at 0 (0.2) or 1 (0.3).
        assert r.states == (0, 1, 2, 2, 4)
        mats = schedule_step_mats(sched, 4)
        want, _ = enumerate_best_constrained(
            mats, sources=[0], target_col=sched.target_state(1),
            transient=[0, 1, 2], n_steps=4,
        )
        assert r.log_prob == want

    def test_matches_enumeration_random_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            a = random_substochastic(rng, n, min_row=0.4, density=0.7)
            sticky_state = int(rng.integers(n))
            roles = make_roles(
                n, leaky=range(n), sticky={sticky_state: float(rng.uniform(0.2, 0.8))},
                debris=(sticky_state,),
            )
            sched = autonomous(a, roles)
            k = int(rng.integers(1, 6))
            sources = list(range(n))
            ps = most_probable_path(sched, sources, b=1, n_steps=k)
            mats = schedule_step_mats(sched, k)
            want, _ = enumerate_best_constrained(
                mats, sources, target_col=sched.target_state(1),
                transient=sources, n_steps=k,
            )
            if ps.best is None:
                assert want == -np.inf
            else:
                assert ps.best.log_prob == want

    def test_intermediate_absorption_excluded(self):
        # A 4-step walk may not beach at step 2 and then sit on the target;
        # it has to bounce back through the interior and land at the end.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        roles = make_roles(2, sticky={1: 0.9}, debris=(1,))
        sched = autonomous(a, roles)
        ps = most_probable_path(sched, sources=[0], b=1, n_steps=4)
        assert ps.best.states == (0, 1, 0, 1, 3)
        # surviving the first coast visit costs the 0.1 factor; sitting on
        # the absorbing state after an early landing would have scored 0.9
        assert np.isclose(np.exp(ps.best.log_prob), 1.0 * 0.1 * 1.0 * 0.9)

    def test_too_short_horizon_from_coast_is_infeasible(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        roles = make_roles(2, sticky={1: 0.9}, debris=(1,))
        sched = autonomous(a, roles)
        ps = most_probable_path(sched, sources=[1], b=1, n_steps=2)
        # from the coast box itself, 2 steps cannot end in a landing:
        # the walker would have to re-enter the coast box one step early
        assert ps.best is None
        assert ps.results == (None,)

    def test_seasonal_steps_use_their_own_matrices(self):
        from datetime import date

        rng = np.random.default_rng(15)
        mats = {k: random_substochastic(rng, 3, min_row=0.6) for k in ("W", "S", "SF")}
        roles = make_roles(3, leaky=range(3), sticky={2: 0.5}, debris=(2,))
        sched = seasonal(mats, roles, start_date=date(2014, 3, 28))
        ps = most_probable_path(sched, sources=[0, 1], b=1, n_steps=3)
        step_mats = schedule_step_mats(sched, 3)
        want, _ = enumerate_best_constrained(
            step_mats, [0, 1], target_col=sched.target_state(1),
            transient=[0, 1, 2], n_steps=3,
        )
        assert ps.best.log_prob == want
        assert ps.best.season_labels == ("W", "SF", "SF")

    def test_tie_breaks_to_smallest_source(self):
        # Two symmetric sources with identical path probabilities.
        a = np.array(
            [
                [0.0, 0.0, 0.6],
                [0.0, 0.0, 0.6],
                [0.0, 0.0, 0.4],
            ]
        )
        roles = make_roles(3, leaky=range(3), sticky={2: 0.5}, debris=(2,))
        sched = autonomous(a, roles)
        ps = most_probable_path(sched, sources=[1, 0], b=1, n_steps=2)
        assert ps.best.source == 0
        assert ps.sources == (0, 1)  # deduplicated and sorted

    def test_intermediate_tie_breaks_to_smallest_predecessor(self):
        # 0 -> 1 -> 3 and 0 -> 2 -> 3 score the same bits before landing.
        a = np.array(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.6],
                [0.0, 0.0, 0.0, 0.6],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        roles = make_roles(4, leaky=range(4), sticky={3: 0.5}, debris=(3,))
        sched = autonomous(a, roles)
        ps = most_probable_path(sched, sources=[0], b=1, n_steps=3)
        assert ps.best.states == (0, 1, 3, sched.target_state(1))

    def test_final_tie_breaks_to_smallest_row(self):
        # Hand-built augmented chain (grid 0..2, cemetery 3, target 4) in
        # which boxes 1 and 2 both enter the target with equal probability.
        m = np.zeros((5, 5))
        m[0, 1] = m[0, 2] = 0.5
        m[1, 4] = m[2, 4] = 0.4
        m[1, 3] = m[2, 3] = 0.6
        m[3, 3] = m[4, 4] = 1.0
        chain = AugmentedChain(
            matrix=sparse.csr_matrix(m), roles=make_roles(3, sticky={2: 0.4}, debris=(2,)),
            transition_time=5.0, label="W",
        )
        sched = SeasonalSchedule(chains=dict.fromkeys(Season, chain))
        ps = most_probable_path(sched, sources=[0], b=1, n_steps=2)
        assert ps.best.states == (0, 1, 4)
        assert ps.best.step_log_probs == (np.log(0.5), np.log(0.4))

    def test_each_source_matches_its_own_call(self):
        # One multi-source pass must give every source the path a
        # single-source call gives it, and the enumerated optimum, bitwise.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k_steps = int(rng.integers(1, 7))
            mats = {lbl: random_substochastic(rng, n, min_row=0.4,
                                              density=float(rng.uniform(0.5, 0.9)))
                    for lbl in ("W", "S", "SF")}
            roles = random_roles(rng, n)
            sched = seasonal(mats, roles)
            b = int(rng.integers(1, len(roles.debris) + 1))
            sources = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            ps = most_probable_path(sched, sources, b, k_steps)
            step_mats = schedule_step_mats(sched, k_steps)
            for s, r in zip(ps.sources, ps.results):
                alone = most_probable_path(sched, [s], b, k_steps).results[0]
                want, _ = enumerate_best_constrained(
                    step_mats, [s], sched.target_state(b), range(n), k_steps,
                )
                if r is None:
                    assert alone is None
                    assert want == -np.inf
                    continue
                assert r.source == s
                assert r.states == alone.states
                assert r.log_prob == alone.log_prob == want
                assert r.step_log_probs == alone.step_log_probs

    def test_repeated_runs_identical(self):
        sched = pipeline_schedule()
        a = most_probable_path(sched, [0, 1], 1, 4)
        b = most_probable_path(sched, [0, 1], 1, 4)
        assert a.best.states == b.best.states
        assert a.best.log_prob == b.best.log_prob

    def test_validation(self):
        sched = pipeline_schedule()
        with pytest.raises(ValueError):
            most_probable_path(sched, [0], b=2, n_steps=2)
        with pytest.raises(ValueError):
            most_probable_path(sched, [0], b=1, n_steps=0)
        with pytest.raises(ValueError):
            most_probable_path(sched, [7], b=1, n_steps=2)
        with pytest.raises(ValueError):
            most_probable_path(sched, [], b=1, n_steps=2)


class TestManyTargets:
    def assert_batch_matches(self, sched, sources, targets):
        """The batch equals, field for field and bitwise, every single-target
        call and the per-observation reduceat DP."""
        batch = most_probable_paths(sched, sources, targets)
        assert len(batch) == len(targets)
        for ps, (b, k) in zip(batch, targets):
            assert (ps.target_label, ps.n_steps) == (b, k)
            assert bits(ps) == bits(most_probable_path(sched, sources, b, k))
            assert bits(ps) == bits(reduceat_best_paths(sched, sources, b, k))
        return batch

    def test_matches_single_calls_and_reduceat_dp(self):
        rng = np.random.default_rng(1973)
        for _ in range(240):
            n = int(rng.integers(2, 7))
            mats = {lbl: random_substochastic(rng, n, min_row=0.4,
                                              density=float(rng.uniform(0.3, 0.9)))
                    for lbl in ("W", "S", "SF")}
            roles = random_roles(rng, n, max_targets=3)
            start = date(2014, 1, 1) + timedelta(days=int(rng.integers(365)))
            sched = seasonal(mats, roles, transition_time=float(rng.choice([5.0, 30.0])),
                             start_date=start)
            targets = [(int(rng.integers(1, len(roles.debris) + 1)), int(rng.integers(1, 9)))
                       for _ in range(int(rng.integers(1, 6)))]
            if rng.random() < 0.3:
                targets.append(targets[0])
            sources = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            self.assert_batch_matches(sched, sources, targets)

    def test_repeats_short_and_out_of_order_targets(self):
        sched = pipeline_schedule()
        targets = [(1, 4), (1, 1), (1, 3), (1, 4), (1, 2)]
        batch = self.assert_batch_matches(sched, [0, 1], targets)
        assert [ps.n_steps for ps in batch] == [4, 1, 3, 4, 2]
        assert batch[1].results == (None, None)  # one step cannot land from 0 or 1
        assert batch[2].results[0].states == (0, 1, 2, 4)
        assert batch[0].best.season_labels == ("W",) * 4
        assert batch[2].best.season_labels == ("W",) * 3
        assert bits(batch[0]) == bits(batch[3])

    def test_target_without_in_edges_and_unreachable_target(self):
        # Grid 0..2, cemetery 3, targets 4 and 5.  Only box 2 beaches, into
        # target 1, so the final step into target 2 has no edges at all; and
        # from box 0 target 1 needs at least three steps.
        m = np.zeros((6, 6))
        m[0, 0] = m[0, 1] = 0.5
        m[1, 1] = m[1, 2] = 0.5
        m[2, 2], m[2, 3], m[2, 4] = 0.25, 0.25, 0.5
        m[3, 3] = m[4, 4] = m[5, 5] = 1.0
        roles = make_roles(3, sticky={1: 0.5, 2: 0.5}, debris=(2, 1))
        sched = hand_schedule(m, roles)
        lay = _EdgeLayout(sched.matrix_for_step(0), 3, sched.target_state(2))
        best, edge = lay.step(np.zeros((3, 2)))
        assert best.shape == edge.shape == (0, 2)
        targets = [(2, 3), (1, 3), (1, 2), (2, 1), (1, 1)]
        batch = self.assert_batch_matches(sched, [0], targets)
        assert [ps.best is None for ps in batch] == [True, False, True, True, True]
        assert batch[1].best.states == (0, 1, 2, 4)

    def test_slot_ties_go_to_smallest_row(self):
        # Grid 0..4, cemetery 5, target 6.  Column 4 has five in-edges and
        # columns 1..3 one each, so slot order (4, 1, 2, 3) differs from
        # column order.  Rows 1, 2 and 3 tie into column 4 after the -inf
        # edge from row 0, and tie again into the target.
        m = np.zeros((7, 7))
        m[0, 1:6] = 0.25, 0.25, 0.25, 0.125, 0.125
        m[1:4, 4], m[1:4, 5], m[1:4, 6] = 0.5, 0.25, 0.25
        m[4, 4], m[4, 5], m[4, 6] = 0.75, 0.125, 0.125
        m[5, 5] = m[6, 6] = 1.0
        sched = hand_schedule(m, make_roles(5, sticky={4: 0.125}, debris=(4,)))
        lay = _EdgeLayout(sched.matrix_for_step(0), 5, None)
        assert lay.cols.tolist() == [4, 1, 2, 3]
        two, three = self.assert_batch_matches(sched, [0], [(1, 2), (1, 3)])
        assert two.best.states == (0, 1, 6)
        assert three.best.states == (0, 1, 4, 6)
        assert two.best.step_log_probs == (np.log(0.25), np.log(0.25))
        assert three.best.step_log_probs == (np.log(0.25), np.log(0.5), np.log(0.125))

    @pytest.mark.parametrize("in_degree, slot_dtype", [(256, np.uint8), (257, np.uint16)])
    def test_hub_slots_take_the_smallest_unsigned_type(self, in_degree, slot_dtype):
        # Every other box feeds box 0, the last one most strongly, so the
        # winning slot into the hub is its last, 255 or 256.  Box 0 beaches.
        n = in_degree + 1
        a = np.zeros((n, n))
        a[1:, 0] = np.linspace(0.1, 0.5, in_degree)
        a[np.arange(1, n), np.arange(1, n)] = 0.4
        a[0, 1:] = 0.9 / in_degree
        sched = autonomous(a, make_roles(n, sticky={0: 0.5}, debris=(0,)))
        lay = _EdgeLayout(sched.matrix_for_step(0), n, None)
        assert lay.slot_dtype == slot_dtype and len(lay.slots) == in_degree
        assert lay.step(np.zeros((n, 1)))[1][0, 0] == in_degree - 1
        batch = self.assert_batch_matches(sched, [1, n // 2, n - 1], [(1, 2), (1, 4), (1, 3)])
        assert batch[1].best.states[-2:] == (0, n + 1)

    def test_back_pointers_cost_one_byte_per_step_state_and_source(self):
        # The DP's peak: S*(K-1)*n one-byte slots and a few n x S float
        # temporaries per step, where int32 edge indices cost four times more.
        rng = np.random.default_rng(7)
        n, k = 400, 60
        a = random_substochastic(rng, n, min_row=1.0, density=0.01)
        sched = autonomous(a, make_roles(n, sticky={3: 0.5, 200: 0.5}, debris=(3, 200)))
        sources = list(range(0, n, 20))
        most_probable_paths(sched, sources, [(1, 2)])  # first use of the matrices' arrays
        batch, peak = traced_peak(lambda: most_probable_paths(sched, sources,
                                                              [(1, k), (2, k - 20)]))
        s = len(sources)
        assert any(r is not None for ps in batch for r in ps.results)
        assert peak <= s * (k - 1) * n + 8 * (n * s * 8)

    def test_validation(self):
        sched = pipeline_schedule()
        with pytest.raises(ValueError):
            most_probable_paths(sched, [0], [])
        with pytest.raises(ValueError):
            most_probable_paths(sched, [0], [(1, 3), (1, 0)])
        with pytest.raises(ValueError):
            most_probable_paths(sched, [0], [(1, 3), (2, 3)])


class TestUnconstrainedPath:
    def test_single_edge(self):
        a = np.array([[0.0, 0.9], [0.0, 0.0]])
        r = unconstrained_best_path(a, 0, 1)
        assert r.states == (0, 1)
        assert r.log_prob == pytest.approx(np.log(0.9))

    def test_two_hops_beat_weak_direct_edge(self):
        a = np.array(
            [
                [0.0, 0.9, 0.05],
                [0.0, 0.0, 0.9],
                [0.0, 0.0, 0.0],
            ]
        )
        r = unconstrained_best_path(a, 0, 2)
        assert r.states == (0, 1, 2)
        assert r.log_prob == pytest.approx(2 * np.log(0.9))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(15):
            a = random_substochastic(rng, 5, min_row=0.3, density=0.5)
            want, path = enumerate_best_unconstrained(a, 0, 4, max_len=6)
            if path is None:
                with pytest.raises(UnreachableTargetError):
                    unconstrained_best_path(a, 0, 4)
                continue
            r = unconstrained_best_path(a, 0, 4)
            # Optimal log-probabilities agree up to summation roundoff;
            # enumeration caps the length, the search does not, so the
            # search result can only be at least as good.
            assert r.log_prob >= want - 1e-12
            assert r.step_log_probs == tuple(
                float(np.log(a[u, v])) for u, v in zip(r.states, r.states[1:]))

    def test_unreachable_raises(self):
        a = np.array([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(UnreachableTargetError):
            unconstrained_best_path(a, 0, 1)

    def test_source_equals_target(self):
        a = np.eye(2) * 0.5
        r = unconstrained_best_path(a, 1, 1)
        assert r.states == (1,)
        assert r.log_prob == 0.0

    def test_leaves_scipy_out(self):
        # the search keeps each edge it relaxes, so no entry lookup loads scipy
        script = ("import sys\nimport numpy as np\n"
                  "from driftchain.paths import unconstrained_best_path\n"
                  "unconstrained_best_path(np.array([[0.0, 0.9], [0.0, 0.0]]), 0, 1)\n"
                  "print('scipy' in sys.modules)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert r.stdout.strip() == "False"


class TestGeoJson:
    def test_line_through_box_centers(self):
        sched = pipeline_schedule()
        g = build_grid((40.0, 43.0, -30.0, -29.0), cell_size=1.0)
        ps = most_probable_path(sched, [0], 1, 3)
        feature = path_to_geojson(ps.best, g)
        assert feature["type"] == "Feature"
        coords = feature["geometry"]["coordinates"]
        # Final vertex repeats the landing box center.
        assert coords == [
            [40.5, -29.5],
            [41.5, -29.5],
            [42.5, -29.5],
            [42.5, -29.5],
        ]
        assert feature["properties"]["states"] == [0, 1, 2, 4]
        assert feature["properties"]["season_labels"] == ["W", "W", "W"]

    def test_infeasible_path_is_empty_feature(self, line_grid):
        feature = path_to_geojson(None, line_grid)
        assert feature["geometry"]["coordinates"] == []
        assert feature["properties"]["error"] == "no feasible path"

    def test_round_trips_through_json(self, line_grid):
        import json

        sched = pipeline_schedule()
        g = build_grid((40.0, 43.0, -30.0, -29.0), cell_size=1.0)
        ps = most_probable_path(sched, [0], 1, 3)
        feature = path_to_geojson(ps.best, g)
        assert json.loads(json.dumps(feature)) == feature


class TestCommonSourceReport:
    def test_repeated_target_does_not_fabricate_sharing(self):
        sched = pipeline_schedule()
        ps1 = most_probable_path(sched, [0, 1], 1, 3)
        ps2 = most_probable_path(sched, [0, 1], 1, 3)
        report = common_source_report([ps1, ps2])
        assert report["best_source_by_target"] == {1: ps1.best.source}
        assert report["shared_sources"] == {}

    def test_shared_source_across_targets(self):
        # Two targets co-located on the same coastal box share a source.
        a = np.array([[0.2, 0.8, 0.0], [0.0, 0.3, 0.7], [0.0, 0.0, 1.0]])
        roles = make_roles(3, sticky={2: 0.5}, debris=(2, 2), candidates=(0, 1))
        sched = autonomous(a, roles)
        sets = [most_probable_path(sched, [0, 1], b, 3) for b in (1, 2)]
        report = common_source_report(sets)
        best = sets[0].best.source
        assert report["best_source_by_target"] == {1: best, 2: best}
        assert report["shared_sources"] == {best: [1, 2]}

    def test_infeasible_target_reported_as_none(self):
        sched = pipeline_schedule()
        ps = most_probable_path(sched, [0], 1, 1)
        report = common_source_report([ps])
        assert report["best_source_by_target"] == {1: None}
        assert report["shared_sources"] == {}
