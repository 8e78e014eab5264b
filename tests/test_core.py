import itertools
import json

import numpy as np
import pytest

from budgetrl.core import (
    ActionSet,
    HyperParams,
    StateVector,
    Trajectory,
    Transition,
    argmax_cheapest,
    cents,
    claim_masks,
    day_mask_indices,
    load_dataset,
    units,
    validate_dataset,
    write_dataset,
)


def make_state(d=3, day=1, bonuses=0, fill=0.0):
    return StateVector(tuple([fill] * d), day_in_cycle=day, bonuses_collected=bonuses)


def make_trajectory(actions, uid=0, action_seq=(0, 1), rewards=None, d=3):
    rewards = rewards if rewards is not None else [1] * (len(action_seq) - 1) + [0]
    transitions = []
    states = [make_state(d, day=i + 1, bonuses=i, fill=0.1 * i) for i in range(len(action_seq) + 1)]
    for i, a in enumerate(action_seq):
        done = i == len(action_seq) - 1
        transitions.append(Transition(
            user_id=uid, t=i + 1, state=states[i], action_index=a, reward=rewards[i],
            cost_cents=actions.cost_cents(a), next_state=None if done else states[i + 1],
            done=done))
    return Trajectory(tuple(transitions))


class TestActionSet:
    def test_default_menu(self):
        a = ActionSet.default()
        assert a.size == 12
        assert a.n_normal == 10
        assert a.all_cents == (65, 67, 71, 75, 79, 83, 87, 94, 101, 105, 172, 182)
        assert a.cost_units(6) == 0.87

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ActionSet(normal_cents=(65, 65), super_cents=(172,))

    def test_rejects_super_below_normal(self):
        with pytest.raises(ValueError):
            ActionSet(normal_cents=(65, 105), super_cents=(100,))

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            ActionSet(normal_cents=(65,), super_cents=())

    def test_money_round_trip(self):
        for v in (0.65, 0.87, 1.05, 1.72, 1.82):
            assert units(cents(v)) == v


class TestDayMask:
    def test_normal_claims(self):
        a = ActionSet.default()
        for bonuses in (0, 1, 2):
            assert list(day_mask_indices(a, bonuses)) == list(range(10))

    def test_super_claim(self):
        a = ActionSet.default()
        assert list(day_mask_indices(a, 3)) == [10, 11]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            day_mask_indices(ActionSet.default(), 4)


class TestClaimMasks:
    def test_rows_match_day_mask_indices(self):
        a = ActionSet.default()
        counts = np.array([b for b in range(4) for _ in range(2)])
        masks = claim_masks(a, counts)
        assert masks.shape == (counts.size, a.size)
        for b, row in zip(counts, masks):
            assert np.flatnonzero(row).tolist() == day_mask_indices(a, b).tolist()
            assert claim_masks(a, int(b)).tolist() == row.tolist()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            claim_masks(ActionSet.default(), 4)
        with pytest.raises(ValueError):
            claim_masks(ActionSet.default(), np.array([0, -1]))

    def test_returned_rows_are_copies(self):
        claim_masks(ActionSet.default(), 0)[0] = False
        claim_masks(ActionSet.default(), np.array([0]))[0, 0] = False
        assert claim_masks(ActionSet.default(), 0)[0]


class TestArgmaxCheapest:
    @staticmethod
    def random_costs(rng, kind, m):
        if kind == "shuffled":
            return rng.permutation(np.arange(10, 10 + 7 * m, 7))[:m].astype(float)
        if kind == "repeated":  # non-decreasing, with runs of equal costs
            return np.sort(rng.integers(0, 3, size=m)).astype(float)
        return np.asarray(ActionSet.default().all_cents[:m], dtype=float)  # the menu

    def test_against_brute_force_with_ties(self):
        rng = np.random.default_rng(21)
        for kind, no_finite_rows, _ in itertools.product(
                ("shuffled", "repeated", "menu"), (False, True), range(200)):
            m = int(rng.integers(1, 13 if kind == "menu" else 7))
            costs = self.random_costs(rng, kind, m)
            scores = rng.integers(0, 3, size=(5, m)).astype(float)
            scores[rng.random((5, m)) < 0.3] = -np.inf
            if no_finite_rows:
                scores[rng.random(5) < 0.5] = -np.inf
            picks = argmax_cheapest(scores, costs)
            for row, pick in zip(scores, picks):
                best = row.max()
                expected = min(range(m), key=lambda j: (row[j] != best, costs[j]))
                assert pick == expected

    def test_single_row_gives_scalar(self):
        assert argmax_cheapest(np.array([1.0, 3.0, 3.0]), np.array([3.0, 2.0, 1.0])) == 2

    def test_row_without_finite_score_takes_cheapest(self):
        scores = np.full((1, 3), -np.inf)
        assert argmax_cheapest(scores, np.array([5.0, 1.0, 3.0])).tolist() == [1]

class TestHyperParams:
    def test_defaults_valid(self):
        h = HyperParams()
        assert h.gamma == 1.0 and h.xi == 0.3

    @pytest.mark.parametrize("kw", [
        {"gamma": 1.5}, {"xi": -0.1}, {"kappa": 0.0}, {"batch_size": 0},
        {"optimizer": "rmsprop"},
    ])
    def test_rejects_bad_ranges(self, kw):
        with pytest.raises(ValueError):
            HyperParams(**kw)


class TestValidateDataset:
    def setup_method(self):
        self.actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))

    def test_well_formed_dataset_is_clean(self):
        ds = [make_trajectory(self.actions, uid=0, action_seq=(0, 1)),
              make_trajectory(self.actions, uid=1, action_seq=(2,))]
        assert validate_dataset(ds, self.actions, d=3) == []

    def test_trajectory_exceeding_T_flagged(self):
        traj = make_trajectory(self.actions, action_seq=(0, 1, 2, 3, 0))
        report = validate_dataset([traj], self.actions, d=3)
        assert any("exceeds T" in v for v in report)

    def test_cost_mismatch_flagged(self):
        traj = make_trajectory(self.actions, action_seq=(0,))
        bad = Transition(**{**traj.transitions[0].__dict__, "cost_cents": 999})
        report = validate_dataset([Trajectory((bad,))], self.actions, d=3)
        assert any("cost mismatch" in v for v in report)

    def test_super_action_early_flagged(self):
        traj = make_trajectory(self.actions, action_seq=(3,))
        report = validate_dataset([traj], self.actions, d=3)
        assert any("super action before claim" in v for v in report)

    def test_feature_dim_checked(self):
        traj = make_trajectory(self.actions, action_seq=(0,), d=5)
        report = validate_dataset([traj], self.actions, d=3)
        assert any("feature length" in v for v in report)

    def test_reward_range_checked(self):
        traj = make_trajectory(self.actions, action_seq=(0,), rewards=[2])
        report = validate_dataset([traj], self.actions, d=3)
        assert any("reward" in v for v in report)

    def test_idempotent_and_order_independent(self):
        good = make_trajectory(self.actions, uid=0, action_seq=(0, 1))
        bad = make_trajectory(self.actions, uid=1, action_seq=(0, 1, 2, 0, 1))
        first = validate_dataset([good, bad], self.actions, d=3)
        second = validate_dataset([good, bad], self.actions, d=3)
        swapped = validate_dataset([bad, good], self.actions, d=3)
        assert first == second
        assert sorted(first) == sorted(swapped)


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        ds = [make_trajectory(actions, uid=i, action_seq=(0, 1, 2), rewards=[1, 1, 0])
              for i in range(3)]
        ds.append(make_trajectory(actions, uid=7, action_seq=(1,), rewards=[0]))
        write_dataset(tmp_path / "ds", ds, actions, d=3)
        loaded, manifest = load_dataset(tmp_path / "ds")
        assert manifest["feature_dim"] == 3
        assert manifest["max_steps"] == 4
        assert manifest["actions"] == actions.to_dict()
        assert loaded == ds

    def test_append_only_shards(self, tmp_path):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        first = [make_trajectory(actions, uid=0, action_seq=(0,))]
        second = [make_trajectory(actions, uid=1, action_seq=(1,))]
        write_dataset(tmp_path / "ds", first, actions, d=3)
        write_dataset(tmp_path / "ds", second, actions, d=3)
        loaded, _ = load_dataset(tmp_path / "ds")
        assert loaded == first + second

    def test_manifest_conflict_rejected(self, tmp_path):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        write_dataset(tmp_path / "ds", [], actions, d=3)
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "ds", [], actions, d=4)

    @pytest.mark.parametrize("max_steps", [3, 5, None])
    def test_manifest_with_other_max_steps_rejected(self, tmp_path, max_steps):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        write_dataset(tmp_path / "ds", [make_trajectory(actions)], actions, d=3)
        path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["max_steps"] = max_steps
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="max_steps"):
            load_dataset(tmp_path / "ds")


class TestFailedWrite:
    actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))

    def trajectories(self, uids, fail=False):
        for uid in uids:
            yield make_trajectory(self.actions, uid=uid, action_seq=(0,))
        if fail:
            raise RuntimeError("writer crashed")

    def test_crash_mid_shard_adds_nothing(self, tmp_path):
        first = list(self.trajectories(range(10)))
        write_dataset(tmp_path / "ds", first, self.actions, d=3)
        with pytest.raises(RuntimeError):
            write_dataset(tmp_path / "ds", self.trajectories(range(10, 15), fail=True),
                          self.actions, d=3)
        loaded, _ = load_dataset(tmp_path / "ds")
        assert loaded == first
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
            "data-00000.jsonl", "manifest.json"]
        write_dataset(tmp_path / "ds", self.trajectories(range(10, 12)), self.actions, d=3)
        assert len(load_dataset(tmp_path / "ds")[0]) == 12

    def test_crash_on_first_write_leaves_no_dataset(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_dataset(tmp_path / "ds", self.trajectories(range(5), fail=True),
                          self.actions, d=3)
        assert list((tmp_path / "ds").iterdir()) == []
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "ds")
