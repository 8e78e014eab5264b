import copy
import itertools
import json
import math
import pickle
import tempfile
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from budgetrl.allocator import AllocationProblem, WindowStore, _Prices, assign
from budgetrl.core import (
    ActionSet,
    HyperParams,
    StateVector,
    Transition,
    cents,
    claim_masks,
    day_mask_indices,
    load_dataset,
    units,
    validate_dataset,
    write_csv,
    write_dataset,
)
from budgetrl.envsim import CheckinEnv, default_config, generate_dataset
from mutation import EDITS, mutate, node_paths


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

    @pytest.mark.parametrize("amount", [0.875, 0.655, 0.001, -0.005])
    def test_cents_of_a_sub_cent_amount_refused(self, amount):
        # rounding 0.875 up to 88 cents would let a run spend past its budget
        with pytest.raises(ValueError, match="whole number of cents"):
            cents(amount)

    @given(menu=menus(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_max_argmax_picks_the_cheapest_of_tied_actions(self, menu, data):
        # Index order is cost order, so the assignment rule at lam = 0 takes,
        # per row, the cheapest top-scoring eligible action, or the cheapest
        # eligible one when every score is negative.
        value = st.sampled_from([np.nan, -0.5, 0.0, 0.25, 1.0])
        row = st.lists(value, min_size=menu.size, max_size=menu.size).filter(
            lambda r: not all(map(math.isnan, r)))
        q = np.array(data.draw(st.lists(row, min_size=1, max_size=6)))
        chosen = assign(AllocationProblem(q, menu.all_cents, menu.all_cents[0]), 0.0).chosen
        for r, pick in zip(q.tolist(), chosen):
            eligible = [j for j, v in enumerate(r) if not math.isnan(v)]
            top = max(r[j] for j in eligible)
            best = [j for j in eligible if r[j] == top] if top >= 0 else eligible
            assert pick == min(best, key=menu.cost_cents)

    @given(menu=menus(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_row_assignment_rule_is_its_matrix_row(self, menu, data):
        # An online decision (one admitted row, at the store's snapshot)
        # answers as the batch rule does on that row: exact score ties, NaN
        # (ineligible) entries and rows whose every score is negative (the
        # cheapest fallback), at lam 0, at each lam where two actions' scores
        # meet, and at a lam past every score.
        value = st.sampled_from([np.nan, -1.5, -0.5, 0.0, 0.25, 1.0, 2.0])
        drawn = data.draw(st.lists(value, min_size=menu.size, max_size=menu.size).filter(
            lambda r: not all(map(math.isnan, r))))
        budget = data.draw(st.integers(0, menu.all_cents[-1]))
        prices = _Prices(menu.all_cents, budget)
        for row in (np.array(drawn), np.array(drawn) - 3.0):
            eligible = np.flatnonzero(np.isfinite(row))
            lams = [0.0, 1e6]
            for j, k in itertools.combinations(eligible.tolist(), 2):
                if prices.shift[j] != prices.shift[k]:
                    meet = (row[j] - row[k]) / (prices.shift[j] - prices.shift[k])
                    lams += [float(meet)] if meet > 0.0 else []
            store = WindowStore(menu.all_cents, budget)
            problem = AllocationProblem(row[None], menu.all_cents, budget)
            for lam in lams:
                store.lambda_snapshot = lam
                one = store.allocate_online(store.admit(row[None])[0], 0.0)
                assert type(one) is int and one == assign(problem, lam).chosen[0]

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

    @given(menu=menus())
    @settings(max_examples=30, deadline=None)
    def test_int_count_is_the_array_paths_row_and_writable(self, menu):
        for k in range(4):
            row = menu.claim_table[k]
            for count in (k, np.int64(k)):
                got = claim_masks(menu, count)
                assert got.dtype == bool and got.tolist() == row.tolist()
                assert got.flags.writeable and not np.shares_memory(got, menu.claim_table)
            assert claim_masks(menu, k).tobytes() == claim_masks(menu, np.array([k]))[0].tobytes()
        for outside in (4, -1, np.int64(4)):
            message = f"no claim available at bonuses_collected={outside}$"
            with pytest.raises(ValueError, match=message):
                claim_masks(menu, outside)

    @pytest.mark.parametrize("count", [True, np.bool_(False), np.array([True, False])],
                             ids=["bool", "numpy-bool", "bool-array"])
    def test_bool_count_refused(self, count):
        # as an index a bool takes the whole (1, 4, M) table or none of it
        for rule in (claim_masks, day_mask_indices):
            with pytest.raises(ValueError, match="no claim available"):
                rule(ActionSet.default(), count)

    @pytest.mark.parametrize("rule", [claim_masks, day_mask_indices], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("count", [1.5, np.float64(1.0), [], np.array([0.5])],
                             ids=["float", "numpy-float", "empty-list", "float-array"])
    def test_count_that_is_not_an_integer_refused(self, rule, count):
        # only an int or an integer dtype is a count; a float would reach the index
        with pytest.raises(ValueError, match="no claim available"):
            rule(ActionSet.default(), count)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8])
    def test_integer_dtypes_take_the_array_path(self, dtype):
        menu = ActionSet.default()
        assert claim_masks(menu, np.array([], dtype=dtype)).shape == (0, menu.size)
        counts = np.array([3, 0], dtype=dtype)
        assert claim_masks(menu, counts).tolist() == menu.claim_table[[3, 0]].tolist()
        assert day_mask_indices(menu, dtype(3)).tolist() == [10, 11]

    def test_returned_rows_are_copies(self):
        claim_masks(ActionSet.default(), 0)[0] = False
        claim_masks(ActionSet.default(), np.array([0]))[0, 0] = False
        assert claim_masks(ActionSet.default(), 0)[0]


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


class TestSlottedRecords:
    """Log records hold their fields in slots, with no ``__dict__``, and behave
    as the plain frozen dataclasses they were."""

    def records(self):
        state = StateVector((0.5, 1), day_in_cycle=2, bonuses_collected=1)
        return state, Transition(3, 2, state, 1, 1, 87, False)

    def test_no_dict_and_still_frozen(self):
        for record in self.records():
            assert not hasattr(record, "__dict__")
            for name in asdict(record):
                with pytest.raises(FrozenInstanceError):
                    setattr(record, name, 0)
            # a name that is no field is refused too; before Python 3.12 a
            # frozen slotted dataclass refuses it with a TypeError
            with pytest.raises((FrozenInstanceError, TypeError)):
                record.extra = 0
            assert not hasattr(record, "extra")

    def test_equality_hash_replace_and_asdict(self):
        state, tr = self.records()
        twin = Transition(3, 2, StateVector((0.5, 1), 2, 1), 1, 1, 87, False)
        assert tr == twin and hash(tr) == hash(twin)
        assert hash(tr) == hash((3, 2, state, 1, 1, 87, False))
        assert hash(state) == hash(((0.5, 1), 2, 1))
        assert tr != (3, 2, state, 1, 1, 87, False)
        done = replace(tr, done=True)
        assert type(done) is Transition and done.done and done != tr
        assert replace(done, done=False) == tr
        assert asdict(tr) == {"user_id": 3, "t": 2, "action_index": 1, "reward": 1,
                              "cost_cents": 87, "done": False,
                              "state": {"features": (0.5, 1), "day_in_cycle": 2,
                                        "bonuses_collected": 1}}
        assert pickle.loads(pickle.dumps(tr)) == tr and copy.deepcopy(tr) == tr


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
        bad = replace(traj[0], cost_cents=999)
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
                # claims of the cheapest normal action lead up to the claim checked
                traj = make_trajectory(menu, action_seq=(0,) * claim + (a,))
                report = validate_dataset([traj], menu, d=3)
                refused = f"user 0 t={claim + 1}: action {a} not eligible at claim {claim + 1}"
                assert report == ([] if menu.claim_table[claim, a] else [refused])

    def test_two_supers_in_one_trajectory_flagged(self):
        # each record is eligible on its own: a super at the super claim
        at_super = make_state(day=4, bonuses=3)
        twice = tuple(Transition(1, t, at_super, 3, 1, 172, t == 2) for t in (1, 2))
        report = validate_dataset([twice], self.actions, d=3)
        assert report == ["user 1 t=1: bonuses_collected 3 != claims before this step (0)",
                          "user 1 t=2: bonuses_collected 3 != claims before this step (1)",
                          "user 1: more than one super action in trajectory"]

    def test_claim_count_other_than_the_step_flagged(self):
        # a fourth claim that says it is the first may take a normal bonus
        traj = make_trajectory(self.actions, uid=5, action_seq=(0, 1, 2, 0))
        fourth = traj[3]
        first_claim = StateVector(fourth.state.features, fourth.state.day_in_cycle, 0)
        bad = traj[:3] + (replace(fourth, state=first_claim),)
        report = validate_dataset([bad], self.actions, d=3)
        assert report == ["user 5 t=4: bonuses_collected 0 != claims before this step (3)"]

    def test_claim_after_reward_0_flagged(self):
        # a user who did not log in cannot claim again
        traj = make_trajectory(self.actions, uid=6, action_seq=(0, 1, 2), rewards=[1, 0, 0])
        report = validate_dataset([traj], self.actions, d=3)
        assert report == ["user 6 t=2: transition after reward 0"]

    def test_done_with_reward_1_before_the_last_claim_flagged(self):
        # a user who logged in again has not churned, whatever the record says
        returned = Transition(7, 1, make_state(), 0, 1, self.actions.cost_cents(0), True)
        report = validate_dataset([(returned,)], self.actions, d=3)
        assert report == ["user 7 t=1: done with reward 1 before claim 4"]
        # the cycle ends after the fourth claim whatever its reward
        full = make_trajectory(self.actions, uid=8, action_seq=(0, 1, 2, 3), rewards=[1] * 4)
        assert validate_dataset([full], self.actions, d=3) == []

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
        bad = (traj[0], replace(second, state=bad_state))
        report = validate_dataset([bad], self.actions, d=3)
        assert report == [f"user 4 t=2: feature 1 = {value!r} not finite"]

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_feature_flagged(self, value):
        # math.isfinite(True) holds, but a bool is never a number
        traj = make_trajectory(self.actions, uid=4, action_seq=(0, 1))
        second = traj[1]
        bad_state = StateVector((value, 0.1, float("nan")), second.state.day_in_cycle,
                                second.state.bonuses_collected)
        bad = (traj[0], replace(second, state=bad_state))
        report = validate_dataset([bad], self.actions, d=3)
        assert report == [f"user 4 t=2: feature 0 = {value!r} not a number"]

    def test_transition_after_done_flagged(self):
        first, second = make_trajectory(self.actions, uid=2, action_seq=(0, 1))
        early_done = replace(first, done=True)
        report = validate_dataset([(early_done, second)], self.actions, d=3)
        assert report == ["user 2 t=1: transition after done"]

    def test_trajectory_not_ending_with_done_flagged(self):
        first, second = make_trajectory(self.actions, uid=3, action_seq=(0, 1))
        cut = replace(second, done=False)
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

    @pytest.mark.parametrize("doc, kind", [("5", "int"), ("null", "NoneType"), ('"1"', "str"),
                                           ("[]", "list")])
    def test_manifest_that_is_not_an_object_rejected(self, tmp_path, doc, kind):
        actions = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))
        write_dataset(tmp_path / "ds", [make_trajectory(actions)], actions, d=3)
        path = tmp_path / "ds" / "manifest.json"
        path.write_text(doc + "\n")
        with pytest.raises(ValueError, match=f"{path} must be a JSON object, not {kind}"):
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


# ---------------------------------------------------------------------------
# A mutated log is refused by name or read: ``load_dataset`` either raises a
# ValueError that names the shard and line, or the manifest, or returns the
# records, one per line, which ``validate_dataset`` checks.


def _written_log():
    """The menu, feature count, manifest and 60 records of a generated shard, as
    ``write_dataset`` writes them."""
    env_config, behavior, actions = default_config()
    dataset = generate_dataset(CheckinEnv(env_config, actions), behavior, 23, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        shard = write_dataset(tmp, dataset, actions, env_config.feature_dim)
        manifest = json.loads((Path(tmp) / "manifest.json").read_text())
        records = [json.loads(line) for line in shard.read_text().splitlines()]
    assert len(records) == 60
    return actions, env_config.feature_dim, manifest, records


LOG_ACTIONS, LOG_D, LOG_MANIFEST, LOG_RECORDS = _written_log()
# (0, path) is a node of the manifest and (1, path) a node of the shard's
# records, drawn evenly, so the manifest's few nodes are not drowned out
LOG_NODES = st.one_of(st.tuples(st.just(0), st.sampled_from(list(node_paths(LOG_MANIFEST)))),
                      st.tuples(st.just(1), st.sampled_from(list(node_paths(LOG_RECORDS)))))


class TestMutatedShards:
    @settings(max_examples=300, deadline=None)
    @given(mutations=st.lists(st.tuples(LOG_NODES, st.sampled_from(EDITS)), min_size=1,
                              max_size=3))
    @example(mutations=[((0, ("format",)), ("swap", "1"))])
    @example(mutations=[((0, ()), ("swap", 5))])
    @example(mutations=[((1, (7, "reward")), ("swap", math.nan))])
    @example(mutations=[((1, (7, "state", 1)), ("swap", {}))])
    def test_refused_by_name_or_validated(self, mutations):
        boxes = [copy.deepcopy(LOG_MANIFEST)], [copy.deepcopy(LOG_RECORDS)]
        for (file, path), edit in mutations:
            mutate(boxes[file], path, edit)
        (manifest,), (records,) = boxes
        # a shard holds one record a line; records that are no longer a list are its one line
        lines = records if isinstance(records, list) else [records]
        with tempfile.TemporaryDirectory() as tmp:
            manifest_path, shard = Path(tmp, "manifest.json"), Path(tmp, "data-00000.jsonl")
            manifest_path.write_text(json.dumps(manifest) + "\n")
            shard.write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in lines))
            try:
                dataset, _ = load_dataset(tmp)
            except ValueError as exc:
                assert str(exc).startswith((f"{shard} line ", str(manifest_path))), exc
                return
        assert sum(map(len, dataset)) == len(lines)
        assert all(type(v) is str for v in validate_dataset(dataset, LOG_ACTIONS, LOG_D))


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
