import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetrl.core import (
    ActionSet,
    HyperParams,
    StateVector,
    Transition,
    argmax_cheapest,
    cents,
    claim_masks,
    day_mask_indices,
    load_dataset,
    units,
    validate_dataset,
    write_csv,
    write_dataset,
)


def make_state(d=3, day=1, bonuses=0, fill=0.0):
    return StateVector(tuple([fill] * d), day_in_cycle=day, bonuses_collected=bonuses)


def make_trajectory(actions, uid=0, action_seq=(0, 1), rewards=None, d=3):
    rewards = rewards if rewards is not None else [1] * (len(action_seq) - 1) + [0]
    transitions = []
    for i, a in enumerate(action_seq):
        transitions.append(Transition(
            user_id=uid, t=i + 1, state=make_state(d, day=i + 1, bonuses=i, fill=0.1 * i),
            action_index=a, reward=rewards[i], cost_cents=actions.cost_cents(a),
            done=i == len(action_seq) - 1))
    return tuple(transitions)


@st.composite
def menus(draw):
    """A valid menu: 1-8 increasing normal costs, then 1-4 dearer super costs."""
    normal = sorted(draw(st.sets(st.integers(0, 10_000), min_size=1, max_size=8)))
    extra = sorted(draw(st.sets(st.integers(1, 10_000), min_size=1, max_size=4)))
    return ActionSet(tuple(normal), tuple(normal[-1] + e for e in extra))


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

    @pytest.mark.parametrize("normal, super_, field", [
        ((65.5, 87), (172,), "normal_cents"),
        ((True, 87), (172,), "normal_cents"),
        ((-10, 87), (172,), "normal_cents"),
        ((65, 87), (2 ** 31,), "super_cents"),
        ((), (172,), "normal_cents"),
        ((65, 87), (), "super_cents"),
        ([65, 87], (172,), "normal_cents"),
    ])
    def test_rejects_cents_that_are_not_a_menu(self, normal, super_, field):
        with pytest.raises(ValueError, match=field):
            ActionSet(normal_cents=normal, super_cents=super_)

    def test_zero_cents_is_a_valid_arm(self):
        a = ActionSet(normal_cents=(0, 65), super_cents=(172,))
        assert a.cost_cents(0) == 0 and a.cost_units(0) == 0.0

    @pytest.mark.parametrize("doc, message", [
        ({"normal_cents": 65, "super_cents": [172]}, "normal_cents must be a list"),
        ({"normal_cents": [65], "super_cents": "172"}, "super_cents must be a list"),
        ({"normal_cents": [65]}, "missing key 'super_cents'"),
        ({"normal_cents": [65], "super_cents": [172], "bonus": [1]}, "unknown actions key"),
        ([65, 172], "actions must be a JSON object"),
    ])
    def test_from_dict_refuses_a_malformed_document(self, doc, message):
        with pytest.raises(ValueError, match=message):
            ActionSet.from_dict(doc)

    def test_claim_table_is_built_once_and_read_only(self):
        a = ActionSet.default()
        table = a.claim_table
        assert table is a.claim_table and a.all_cents is a.all_cents
        for b in range(4):
            assert np.flatnonzero(table[b]).tolist() == day_mask_indices(a, b).tolist()
        with pytest.raises(ValueError):
            table[0, 0] = False
        assert a == ActionSet.default()  # the cached values are not fields

    def test_money_round_trip(self):
        for v in (0.65, 0.87, 1.05, 1.72, 1.82):
            assert units(cents(v)) == v

    @pytest.mark.parametrize("amount", [math.inf, -math.inf, math.nan, 1e307])
    def test_cents_of_an_amount_that_is_not_finite_refused(self, amount):
        with pytest.raises(ValueError, match="finite"):
            cents(amount)


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

    @given(menu=menus(), outside=st.one_of(st.integers(-10, -1), st.integers(4, 10)))
    @settings(max_examples=100, deadline=None)
    def test_index_form_of_the_claim_table(self, menu, outside):
        for k in range(4):
            got = day_mask_indices(menu, k)
            assert got.dtype == np.intp
            assert got.tolist() == np.flatnonzero(menu.claim_table[k]).tolist()
        # one range check, so one message for both forms
        message = f"no claim available at bonuses_collected={outside}$"
        for rule in (day_mask_indices, claim_masks):
            with pytest.raises(ValueError, match=message):
                rule(menu, outside)


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

    def test_cost_order_depends_on_the_values_not_the_form(self):
        scores = np.zeros((1, 4))
        costs = np.array([[7, 0], [3, 0], [3, 0], [1, 0]], dtype=np.int64)[:, 0]  # strided
        for form in (costs, costs.tolist(), tuple(costs.tolist()), costs.astype(np.int32),
                     costs.astype(float), np.ascontiguousarray(costs)):
            assert argmax_cheapest(scores, form).tolist() == [3]
        # The same bytes read as another dtype are other costs, in another order.
        signed = np.array([-1, 1], dtype=np.int64)
        assert argmax_cheapest(np.zeros(2), signed) == 0
        assert argmax_cheapest(np.zeros(2), signed.view(np.uint64)) == 1

class TestHyperParams:
    def test_defaults_valid(self):
        h = HyperParams()
        assert h.gamma == 1.0 and h.xi == 0.3

    @pytest.mark.parametrize("kw", [
        {"gamma": 1.5}, {"xi": -0.1}, {"kappa": 0.0}, {"kappa": float("nan")}, {"batch_size": 0},
        {"optimizer": "rmsprop"}, {"learning_rate": 0.0}, {"learning_rate": -0.05},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
    ])
    def test_rejects_bad_ranges(self, kw):
        with pytest.raises(ValueError):
            HyperParams(**kw)

    @pytest.mark.parametrize("kw", [
        {"gamma": "1.0"}, {"xi": None}, {"kappa": True}, {"learning_rate": "0.05"},
        {"batch_size": "64"}, {"batch_size": 64.0}, {"target_sync_interval": False},
        {"training_steps": 2.5}, {"seed": 1.5}, {"seed": True}, {"seed": -1},
        {"hidden_sizes": (64.5,)}, {"hidden_sizes": (True,)}, {"hidden_sizes": (0,)},
        {"hidden_sizes": [64]}, {"hidden_sizes": "64"},
    ])
    def test_rejects_wrong_types_naming_the_field(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=name):
            HyperParams(**kw)

    def test_accepts_ints_for_float_fields_and_numpy_integers(self):
        h = HyperParams(gamma=1, kappa=2, seed=np.int64(3), hidden_sizes=(np.int64(4), 5))
        assert h.gamma == 1 and h.seed == 3 and h.hidden_sizes == (4, 5)


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
        bad = Transition(**{**traj[0].__dict__, "cost_cents": 999})
        report = validate_dataset([(bad,)], self.actions, d=3)
        assert any("cost mismatch" in v for v in report)

    def test_super_action_early_flagged(self):
        traj = make_trajectory(self.actions, action_seq=(3,))
        report = validate_dataset([traj], self.actions, d=3)
        assert report == ["user 0 t=1: action 3 not eligible at claim 1"]

    def test_normal_action_at_the_super_claim_flagged(self):
        traj = make_trajectory(self.actions, action_seq=(0, 1, 2, 0))
        report = validate_dataset([traj], self.actions, d=3)
        assert report == ["user 0 t=4: action 0 not eligible at claim 4"]

    @given(menu=menus())
    @settings(max_examples=50, deadline=None)
    def test_ineligible_exactly_where_the_claim_table_refuses(self, menu):
        for claim in range(4):
            for a in range(menu.size):
                tr = Transition(user_id=0, t=1, state=make_state(bonuses=claim, day=claim + 1),
                                action_index=a, reward=0, cost_cents=menu.cost_cents(a),
                                done=True)
                report = validate_dataset([(tr,)], menu, d=3)
                refused = f"user 0 t=1: action {a} not eligible at claim {claim + 1}"
                assert report == ([] if menu.claim_table[claim, a] else [refused])

    def test_two_supers_in_one_trajectory_flagged(self):
        # each record is eligible on its own: a super at the super claim
        at_super = make_state(day=4, bonuses=3)
        twice = tuple(Transition(1, t, at_super, 3, 0, 172, t == 2) for t in (1, 2))
        report = validate_dataset([twice], self.actions, d=3)
        assert report == ["user 1: more than one super action in trajectory"]

    def test_feature_dim_checked(self):
        traj = make_trajectory(self.actions, action_seq=(0,), d=5)
        report = validate_dataset([traj], self.actions, d=3)
        assert any("feature length" in v for v in report)

    def test_reward_range_checked(self):
        traj = make_trajectory(self.actions, action_seq=(0,), rewards=[2])
        report = validate_dataset([traj], self.actions, d=3)
        assert any("reward" in v for v in report)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_flagged(self, value):
        traj = make_trajectory(self.actions, uid=4, action_seq=(0, 1))
        second = traj[1]
        bad_state = StateVector((0.1, value, 0.1), second.state.day_in_cycle,
                                second.state.bonuses_collected)
        bad = (traj[0], Transition(**{**second.__dict__, "state": bad_state}))
        report = validate_dataset([bad], self.actions, d=3)
        assert report == [f"user 4 t=2: feature 1 = {value!r} not finite"]

    def test_transition_after_done_flagged(self):
        first, second = make_trajectory(self.actions, uid=2, action_seq=(0, 1))
        early_done = Transition(**{**first.__dict__, "done": True})
        report = validate_dataset([(early_done, second)], self.actions, d=3)
        assert report == ["user 2 t=1: transition after done"]

    def test_trajectory_not_ending_with_done_flagged(self):
        first, second = make_trajectory(self.actions, uid=3, action_seq=(0, 1))
        cut = Transition(**{**second.__dict__, "done": False})
        report = validate_dataset([(first, cut)], self.actions, d=3)
        assert report == ["user 3: trajectory does not end with done"]

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

    def test_append_after_a_removed_shard_keeps_every_shard(self, tmp_path):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        batches = [[make_trajectory(actions, uid=5 * k + i, action_seq=(0,)) for i in range(5)]
                   for k in range(4)]
        for batch in batches[:3]:
            write_dataset(tmp_path / "ds", batch, actions, d=3)
        (tmp_path / "ds" / "data-00001.jsonl").unlink()
        shard = write_dataset(tmp_path / "ds", batches[3], actions, d=3)
        assert shard.name == "data-00003.jsonl"
        loaded, _ = load_dataset(tmp_path / "ds")
        assert len(loaded) == 15
        assert loaded == batches[0] + batches[2] + batches[3]

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

    @pytest.mark.parametrize("edit, fault", [
        (lambda rec: {**rec, "day_in_cycle": "1"}, "day_in_cycle must be int, not '1'"),
        (lambda rec: {**rec, "state": 5}, "state must be list, not 5"),
        (lambda rec: list(rec.values()), "a record must be a JSON object, not list"),
        (lambda rec: {**rec, "done": "no"}, "done must be bool, not 'no'"),
        (lambda rec: {**rec, "reward": True}, "reward must be int, not True"),
        (lambda rec: {**rec, "cost_cents": None}, "cost_cents must be int, not None"),
        (lambda rec: {k: v for k, v in rec.items() if k != "t"},
         "t must be int, not missing"),
    ], ids=["day-as-string", "state-as-int", "json-array", "done-as-string", "bool-reward",
            "null-cost", "missing-t"])
    def test_record_of_the_wrong_json_type_is_named(self, tmp_path, edit, fault):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        write_dataset(tmp_path / "ds", [make_trajectory(actions, action_seq=(0, 1, 2))],
                      actions, d=3)
        shard = tmp_path / "ds" / "data-00000.jsonl"
        lines = shard.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        shard.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as caught:
            load_dataset(tmp_path / "ds")
        assert str(caught.value) == f"{shard} line 2: {fault}"

    def test_malformed_json_line_is_named(self, tmp_path):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        write_dataset(tmp_path / "ds", [make_trajectory(actions, action_seq=(0, 1, 2))],
                      actions, d=3)
        shard = tmp_path / "ds" / "data-00000.jsonl"
        text = shard.read_text()
        cut = text.index("\n", text.index("\n") + 1) + 20  # inside line 3
        shard.write_text(text[:cut])
        with pytest.raises(ValueError) as caught:
            load_dataset(tmp_path / "ds")
        assert str(caught.value).startswith(f"{shard} line 3: ")


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

    def test_csv_failing_mid_file_leaves_target_unchanged(self, tmp_path):
        target = tmp_path / "out" / "rows.csv"
        bad_rows = [{"a": 1}, {"a": 2, "b": 3}]  # "b" is outside the header
        with pytest.raises(ValueError):
            write_csv(target, ["a"], bad_rows)
        assert list(target.parent.iterdir()) == []
        write_csv(target, ["a"], [{"a": 1}])
        before = target.read_bytes()
        with pytest.raises(ValueError):
            write_csv(target, ["a"], bad_rows)
        assert target.read_bytes() == before
        assert list(target.parent.iterdir()) == [target]

    def test_crash_on_first_write_leaves_no_dataset(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_dataset(tmp_path / "ds", self.trajectories(range(5), fail=True),
                          self.actions, d=3)
        assert list((tmp_path / "ds").iterdir()) == []
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "ds")
