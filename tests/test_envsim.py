import itertools
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from budgetrl.baselines import ExpertPolicy
from budgetrl.core import (
    CLAIMS_PER_CYCLE,
    ActionSet,
    day_mask_indices,
    load_dataset,
    validate_dataset,
    write_dataset,
)
from budgetrl.envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    IneligibleActionError,
    SegmentParams,
    TabularModeError,
    check_claim_table,
    config_from_dict,
    config_to_dict,
    default_behavior_table,
    default_config,
    generate_dataset,
    load_config,
    oracle_value_iteration,
    _spawn_generators,
)
from budgetrl.evaluation import simulate_online

SMALL_ACTIONS = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))

# Each probe sets one numeric field of the default config document to a value
# that is not a finite number: (path to the field, value).
CONFIG_PROBES = {
    "base_logit NaN": (("env", "segments", 0, "base_logit"), math.nan),
    "base_logit string": (("env", "segments", 0, "base_logit"), "1"),
    "feature_noise true": (("env", "feature_noise"), True),
    "streak_bonus inf": (("env", "segments", 1, "streak_bonus"), math.inf),
    "segment weight NaN": (("env", "segment_weights"), [1.0, math.nan, 1.0]),
    "behavior noise string": (("behavior", "noise"), "0.1"),
}

# Each probe sets one field of the default config document to a value that
# breaks the menu, a list, the behavior table or the feature noise: (path to
# the field, value, what the error names).
LOAD_PROBES = {
    "fractional cents": (("actions", "normal_cents", 0), 65.5, "normal_cents"),
    "negative cents": (("actions", "normal_cents", 0), -10, "normal_cents"),
    "true cents": (("actions", "super_cents", 0), True, "super_cents"),
    "empty super menu": (("actions", "super_cents"), [], "super_cents"),
    "empty normal menu": (("actions", "normal_cents"), [], "normal_cents"),
    "menu not a list": (("actions", "normal_cents"), 65, "normal_cents"),
    "segments not a list": (("env", "segments"), 5, "env.segments"),
    "segment weights not a list": (("env", "segment_weights"), 5, "env.segment_weights"),
    "table entry 0.0": (("behavior", "table", 0, 0), 0.0, "claim table entry 0.0"),
    "table entry true": (("behavior", "table", 0, 0), True, "claim table entry True"),
    "feature noise that overflows": (("env", "feature_noise"), 1e308, "feature_noise"),
}


def probe_config(name: str, probes=CONFIG_PROBES) -> dict:
    """The default config document with the field of probe ``name`` replaced."""
    doc = config_to_dict(*default_config())
    (*path, key), value = probes[name][:2]
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    return doc


def enumerate_policy_value(env, gamma, segment):
    """Best expected return over all deterministic policy trees for one segment.

    Brute force used as an independent check of value iteration; exponential
    in the action set, so only call with small menus.
    """
    decision_points = []  # (k, last) pairs in fixed order
    for k in range(CLAIMS_PER_CYCLE):
        lasts = [-1] if k == 0 else [int(a) for a in day_mask_indices(env.actions, k - 1)]
        for last in lasts:
            decision_points.append((k, last))
    choice_sets = [list(map(int, day_mask_indices(env.actions, k)))
                   for k, _ in decision_points]

    def tree_value(assignment: dict) -> float:
        def value_from(k: int, last: int) -> float:
            a = assignment[(k, last)]
            p = env.retention_probability(segment, a, streak=k, last_action=last)
            if k + 1 < CLAIMS_PER_CYCLE:
                return p * (1.0 + gamma * value_from(k + 1, a))
            return p

        return value_from(0, -1)

    best = -math.inf
    for choices in itertools.product(*choice_sets):
        assignment = dict(zip(decision_points, choices))
        best = max(best, tree_value(assignment))
    return best


def small_env(feature_noise=0.0, **segment_kw):
    defaults = dict(base_logit=0.2, bonus_sensitivity=1.0, streak_bonus=0.3)
    defaults.update(segment_kw)
    cfg = EnvConfig(segments=(SegmentParams(**defaults),), feature_noise=feature_noise)
    return CheckinEnv(cfg, SMALL_ACTIONS)


class TestRetentionModel:
    def test_zero_everything_gives_half(self):
        env = small_env(base_logit=0.0, bonus_sensitivity=0.0, streak_bonus=0.0)
        assert env.retention_probability(0, 0, streak=0) == pytest.approx(0.5)

    def test_huge_sensitivity_saturates(self):
        env = small_env(bonus_sensitivity=1e6)
        assert env.retention_probability(0, 2, streak=0) > 1 - 1e-9

    def test_known_parameters_hand_oracle(self):
        # independent closed-form evaluation for cost 0.87
        env = small_env(base_logit=-0.4, bonus_sensitivity=1.7, streak_bonus=0.3)
        expected = 1.0 / (1.0 + math.exp(-(-0.4 + 1.7 * 0.87 + 0.3 * 2)))
        assert env.retention_probability(0, 1, streak=2) == pytest.approx(expected, abs=1e-12)

    def test_carryover_term(self):
        env = small_env(carryover=1.5)
        with_last = env.retention_logit(0, 0, streak=1, last_action=2)
        without = env.retention_logit(0, 0, streak=1, last_action=-1)
        assert with_last == pytest.approx(without + 1.5 * 1.05)

    def test_monotone_in_cost(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            env = small_env(base_logit=float(rng.normal()),
                            bonus_sensitivity=float(rng.random() * 3),
                            streak_bonus=float(rng.normal(0, 0.5)))
            probs = [env.retention_probability(0, a, streak=1) for a in range(3)]
            assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            SegmentParams(base_logit=0.0, bonus_sensitivity=-0.1, streak_bonus=0.0)


class TestStep:
    def test_ineligible_super_rejected(self):
        env = small_env()
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        with pytest.raises(IneligibleActionError):
            env.step(user, 3)  # super action on claim 1

    def test_ineligible_normal_on_claim4_rejected(self):
        env = small_env(base_logit=50.0)  # always retains
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        for _ in range(3):
            env.step(user, 0)
        with pytest.raises(IneligibleActionError):
            env.step(user, 0)

    @pytest.mark.parametrize("claims_done", [0, 3])
    @pytest.mark.parametrize("action", [-1, "size"])
    def test_action_outside_the_menu_rejected(self, claims_done, action):
        # on the final claim a bare table lookup of -1 would read the super column
        env = small_env(base_logit=50.0)  # always retains
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        for a in (0, 1, 2)[:claims_done]:
            env.step(user, a)
        features = user.features
        with pytest.raises(IneligibleActionError):
            env.step(user, env.actions.size if action == "size" else action)
        assert user.bonuses_collected == claims_done and user.features is features
        assert user.day_in_cycle == claims_done + 1 and not user.done

    def test_counters_advance(self):
        env = small_env(base_logit=50.0)
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        reward, done = env.step(user, 1)
        assert reward == 1 and not done
        assert user.day_in_cycle == 2 and user.bonuses_collected == 1
        assert user.features == [1.0, 0.87, 0.87]  # segment 0, last and mean bonus

    def test_terminates_after_four_claims(self):
        env = small_env(base_logit=50.0)
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        for a in (0, 0, 0):
            _, done = env.step(user, a)
            assert not done
        _, done = env.step(user, 3)
        assert done and user.features is None and user.bonuses_collected == 4

    def test_terminates_on_no_login(self):
        env = small_env(base_logit=-50.0)  # never retains
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        reward, done = env.step(user, 0)
        assert reward == 0 and done and user.features is None and user.bonuses_collected == 1


class TestGenerateDataset:
    def test_empty(self):
        env_cfg, behavior, actions = default_config()
        env = CheckinEnv(env_cfg, actions)
        assert generate_dataset(env, behavior, 0, seed=0) == []

    def test_valid_and_deterministic(self):
        env_cfg, behavior, actions = default_config()
        env1 = CheckinEnv(env_cfg, actions)
        env2 = CheckinEnv(env_cfg, actions)
        ds1 = generate_dataset(env1, behavior, 200, seed=42)
        ds2 = generate_dataset(env2, behavior, 200, seed=42)
        assert ds1 == ds2
        assert validate_dataset(ds1, actions, env_cfg.feature_dim) == []

    def test_different_seed_differs(self):
        env_cfg, behavior, actions = default_config()
        env = CheckinEnv(env_cfg, actions)
        assert (generate_dataset(env, behavior, 50, seed=1)
                != generate_dataset(env, behavior, 50, seed=2))

    def test_zero_noise_follows_table(self):
        env_cfg, _, actions = default_config()
        table = default_behavior_table(env_cfg.n_segments, actions)
        behavior = BehaviorPolicyConfig(table=table, noise=0.0)
        env = CheckinEnv(EnvConfig(segments=env_cfg.segments, feature_noise=0.0), actions)
        for traj in generate_dataset(env, behavior, 100, seed=5):
            seg = int(np.argmax(traj[0].state.to_array()[:3]))
            for tr in traj:
                assert tr.action_index == table[seg][tr.state.bonuses_collected]

    @pytest.mark.parametrize("table", [
        ((0, 1, 3),),  # one claim short
        ((0, 1, 2, 3, 0),),  # one claim too many
        ((0, 3, 1, 3),),  # super bonus on a normal claim
        ((0, 1, 2, 3), (0, 1, 2, 2)),  # normal bonus on the super claim, second row
        (),
    ])
    def test_bad_table_rejected_before_any_user(self, table):
        # noise 1 never reads the table, so only the up-front check can see it
        behavior = BehaviorPolicyConfig(table=table, noise=1.0)
        with pytest.raises(IneligibleActionError):
            generate_dataset(small_env(), behavior, 5, seed=0)

    def test_no_super_before_final_claim(self):
        env_cfg, behavior, actions = default_config()
        env = CheckinEnv(env_cfg, actions)
        for traj in generate_dataset(env, behavior, 300, seed=7):
            for tr in traj:
                assert actions.claim_table[tr.state.bonuses_collected, tr.action_index]

    def test_action_distribution_matches_table_noise_mix(self):
        # claim-1 actions: (1 - noise) on the table entry + noise/|normal| uniform
        env_cfg, _, actions = default_config()
        noise = 0.3
        table = default_behavior_table(env_cfg.n_segments, actions)
        behavior = BehaviorPolicyConfig(table=table, noise=noise)
        env = CheckinEnv(EnvConfig(segments=env_cfg.segments, feature_noise=0.0), actions)
        n_users = 10_000
        dataset = generate_dataset(env, behavior, n_users, seed=11)

        counts = np.zeros(actions.n_normal)
        seg_counts = np.zeros(env_cfg.n_segments)
        for traj in dataset:
            tr = traj[0]
            counts[tr.action_index] += 1
            seg_counts[int(np.argmax(tr.state.to_array()[:3]))] += 1

        expected = np.full(actions.n_normal, noise / actions.n_normal) * n_users
        for seg in range(env_cfg.n_segments):
            expected[table[seg][0]] += (1 - noise) * seg_counts[seg]
        # 3-sigma multinomial bounds per action
        sigma = np.sqrt(expected * np.maximum(1 - expected / n_users, 1e-9))
        assert np.all(np.abs(counts - expected) <= 3.2 * sigma)


class TestValueIteration:
    def test_single_action_one_step_q_is_p(self):
        # the super claim (claim 4, after the one normal action 0) is the last
        # step, so its value is the one eligible action's retention probability
        actions = ActionSet(normal_cents=(87,), super_cents=(172,))
        cfg = EnvConfig(segments=(SegmentParams(0.3, 1.0, 0.2),), feature_noise=0.0)
        env = CheckinEnv(cfg, actions)
        sol = oracle_value_iteration(env, gamma=1.0)
        assert sol.v[(0, 3, 0)] == pytest.approx(env.retention_probability(0, 1, 3))

    def test_two_action_one_step_argmax(self):
        # at the super claim only the super set is eligible; give it 2 actions
        actions = ActionSet(normal_cents=(65,), super_cents=(105, 172))
        # choose logits so probs are exactly 0.3 / 0.6 on the two eligible actions
        sens = (math.log(0.6 / 0.4) - math.log(0.3 / 0.7)) / (1.72 - 1.05)
        base = math.log(0.3 / 0.7) - sens * 1.05
        cfg = EnvConfig(segments=(SegmentParams(base, sens, 0.0),), feature_noise=0.0)
        env = CheckinEnv(cfg, actions)
        assert env.retention_probability(0, 1, 3) == pytest.approx(0.3, abs=1e-9)
        assert env.retention_probability(0, 2, 3) == pytest.approx(0.6, abs=1e-9)
        sol = oracle_value_iteration(env, gamma=1.0)
        assert sol.policy[(0, 3, 0)] == 2
        assert sol.v[(0, 3, 0)] == pytest.approx(0.6, abs=1e-9)

    def test_refuses_noisy_env(self):
        cfg = EnvConfig(segments=(SegmentParams(0.0, 1.0, 0.0, noise_scale=0.5),))
        env = CheckinEnv(cfg, SMALL_ACTIONS)
        with pytest.raises(TabularModeError):
            oracle_value_iteration(env, gamma=1.0)

    @pytest.mark.parametrize("carryover", [0.0, 1.2])
    def test_matches_exhaustive_policy_enumeration(self, carryover):
        actions = ActionSet(normal_cents=(65, 105), super_cents=(172,))
        segments = (
            SegmentParams(0.8, 0.4, 0.2, carryover=carryover),
            SegmentParams(-0.8, 2.0, 0.2, carryover=carryover),
            SegmentParams(-0.2, 1.0, 0.3, carryover=carryover),
        )
        env = CheckinEnv(EnvConfig(segments=segments, feature_noise=0.0), actions)
        sol = oracle_value_iteration(env, gamma=1.0)
        for seg in range(3):
            brute = enumerate_policy_value(env, gamma=1.0, segment=seg)
            assert sol.v[(seg, 0, -1)] == pytest.approx(brute, abs=1e-12)

    def test_gamma_discounts_future(self):
        env = small_env()
        v1 = oracle_value_iteration(env, gamma=1.0).v[(0, 0, -1)]
        v0 = oracle_value_iteration(env, gamma=0.0).v[(0, 0, -1)]
        assert v0 < v1
        assert v0 == pytest.approx(max(env.retention_probability(0, a, 0) for a in range(3)))


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        env_cfg, behavior, actions = default_config()
        doc = config_to_dict(env_cfg, behavior, actions)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        loaded_env, loaded_behavior, loaded_actions = load_config(path)
        assert loaded_env == env_cfg
        assert loaded_behavior == behavior
        assert loaded_actions == actions

    def test_behavior_defaults_when_missing(self):
        env_cfg, behavior, actions = default_config()
        doc = config_to_dict(env_cfg, behavior, actions)
        del doc["behavior"]
        _, loaded_behavior, _ = config_from_dict(doc)
        assert loaded_behavior.table == default_behavior_table(env_cfg.n_segments, actions)

    def test_removed_env_keys_not_written(self):
        doc = config_to_dict(*default_config())
        assert not {"cycle_length", "bonuses_per_cycle", "seed"} & set(doc["env"])

    def test_older_file_with_fixed_keys_loads(self):
        # older versions wrote the cycle shape and an unused seed into "env"
        doc = config_to_dict(*default_config())
        doc["env"].update(cycle_length=7, bonuses_per_cycle=4, seed=0)
        assert config_from_dict(doc) == default_config()

    @pytest.mark.parametrize("key, value", [
        ("cycle_length", 6), ("cycle_length", 8), ("bonuses_per_cycle", 3),
        ("bonuses_per_cycle", 5), ("seed", 1),
    ])
    def test_fixed_key_at_other_value_rejected(self, key, value):
        doc = config_to_dict(*default_config())
        doc["env"][key] = value
        with pytest.raises(ValueError, match=key):
            config_from_dict(doc)

    @pytest.mark.parametrize("probe", CONFIG_PROBES)
    def test_field_that_is_not_a_finite_number_rejected(self, probe):
        field = CONFIG_PROBES[probe][0][-1]
        with pytest.raises(ValueError, match=field):
            config_from_dict(probe_config(probe))

    @pytest.mark.parametrize("make", [
        lambda: SegmentParams(True, 1.0, 0.0),
        lambda: SegmentParams(0.0, 1.0, 0.0, carryover=-math.inf),
        lambda: SegmentParams(0.0, 1.0, 0.0, noise_scale=math.nan),
        lambda: SegmentParams(0.0, 10 ** 400, 0.0),
        lambda: EnvConfig(segments=EnvConfig.default().segments, feature_noise=math.nan),
        lambda: EnvConfig(segments=EnvConfig.default().segments, segment_weights=(1, 2, False)),
        lambda: EnvConfig(segments=EnvConfig.default().segments, segment_weights=(1, 2, "3")),
        lambda: BehaviorPolicyConfig(table=((0, 1, 2, 10),), noise=True),
    ])
    def test_constructors_refuse_what_is_not_a_finite_number(self, make):
        with pytest.raises(ValueError, match="finite number"):
            make()

    @pytest.mark.parametrize("probe", LOAD_PROBES)
    def test_field_that_breaks_the_run_rejected(self, probe):
        with pytest.raises(ValueError, match=LOAD_PROBES[probe][2]):
            config_from_dict(probe_config(probe, LOAD_PROBES))

    @pytest.mark.parametrize("entry", [0.0, True, np.float64(0.0)])
    def test_claim_table_entry_that_is_not_an_int_rejected(self, entry):
        table = ((entry, 1, 2, 3),)
        with pytest.raises(IneligibleActionError, match="claim table entry"):
            check_claim_table(table, SMALL_ACTIONS)
        check_claim_table(((0, 1, 2, 3), (np.int64(2), 2, 0, 3)), SMALL_ACTIONS)

    def test_segment_weights_whose_sum_overflows_rejected(self):
        with pytest.raises(ValueError, match="finite sum"):
            EnvConfig(segments=EnvConfig.default().segments, segment_weights=(1e308,) * 3)

    def test_integer_fields_still_load(self):
        doc = config_to_dict(*default_config())
        doc["env"]["segments"][0].update(base_logit=1, carryover=0)
        doc["env"]["segment_weights"] = [1, 2, 0]
        doc["behavior"]["noise"] = 0
        env_cfg, behavior, _ = config_from_dict(doc)
        assert env_cfg.segments[0].base_logit == 1 and env_cfg.segment_weights == (1, 2, 0)
        assert behavior.noise == 0


# entropy as SeedSequence takes it: an int (from one to three 32-bit words) or a tuple of them
ENTROPY = st.one_of(st.integers(0, 2 ** 70),
                    st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=6).map(tuple))


class TestSpawnGenerators:
    @settings(max_examples=40, deadline=None)
    @given(entropy=ENTROPY, n=st.integers(0, 3000))
    @example(entropy=2 ** 32, n=3)
    @example(entropy=2 ** 64 + 5, n=2)
    @example(entropy=(2 ** 64, 0, 2 ** 32 - 1, 7, 7), n=1)
    @example(entropy=(3, 0), n=0)
    def test_streams_equal_numpys_spawned_children(self, entropy, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = _spawn_generators(entropy, n)
        theirs = [np.random.default_rng(c) for c in np.random.SeedSequence(entropy).spawn(n)]
        assert len(ours) == n
        for a, b in zip(ours, theirs):
            assert a.bit_generator.state == b.bit_generator.state
        if n:
            assert ours[-1].random(4).tobytes() == theirs[-1].random(4).tobytes()

    def test_nested_entropy_and_numpy_integers(self):
        for entropy in ((1, (2, 3)), np.int64(9), (np.uint32(4), 2 ** 40)):
            ours = _spawn_generators(entropy, 5)
            theirs = np.random.SeedSequence(entropy).spawn(5)
            assert [g.bit_generator.state for g in ours] == [
                np.random.default_rng(c).bit_generator.state for c in theirs]

    @pytest.mark.parametrize("entropy, error", [(-1, ValueError), ((1, -2), ValueError),
                                                (1.5, TypeError), ((1, 2.0), TypeError)])
    def test_bad_entropy_refused_as_numpy_refuses_it(self, entropy, error):
        with pytest.raises(error):
            np.random.SeedSequence(entropy).spawn(1)
        with pytest.raises(error):
            _spawn_generators(entropy, 1)


# ---------------------------------------------------------------------------
# A config the loader accepts runs end to end: the default document under
# random mutations is either refused by ``config_from_dict`` or runs.


def _node_paths(node, path=()):
    """The path to every node of a JSON document, the root's included."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, (*path, key))


DEFAULT_DOC_PATHS = list(_node_paths(config_to_dict(*default_config())))

# Values swapped in for a node: other JSON types, non-finite numbers, and
# numbers out of (or at the edge of) the ranges the loader checks.
SWAPS = (math.nan, math.inf, -math.inf, "1", True, False, None, [], {}, 0, 1, -1, 0.5, 2,
         2 ** 31, -1e30, 1e30, -1e308, 1e308, [1.0, 2.0, 0.5])
# What a mutation does to a node: swap in a value, or drop it from its
# parent, empty it, add a key to it, or push a number by negating it,
# scaling it by 10**6 or adding 1.
EDITS = ("drop", "empty", "add key", "negate", "scale", "nudge") + tuple(
    ("swap", value) for value in SWAPS)


def _mutate(box: list, path: tuple, edit) -> None:
    """Apply ``edit`` to the node at ``path`` of the document ``box[0]``; a path
    that an earlier mutation removed changes nothing."""
    parent, key = box, 0
    for step in path:
        node = parent[key]
        if not (isinstance(node, dict) and step in node
                or isinstance(node, list) and isinstance(step, int) and step < len(node)):
            return
        parent, key = node, step
    node = parent[key]
    number = isinstance(node, (int, float)) and not isinstance(node, bool)
    if isinstance(edit, tuple):
        parent[key] = edit[1]
    elif edit == "drop" and parent is not box:
        del parent[key]
    elif edit == "empty" and isinstance(node, (dict, list)):
        node.clear()
    elif edit == "add key" and isinstance(node, dict):
        node["extra"] = 1
    elif number and edit in ("negate", "scale", "nudge"):
        parent[key] = {"negate": -node, "scale": node * 10 ** 6, "nudge": node + 1}[edit]


class TestMutatedConfigs:
    @settings(max_examples=300, deadline=None)
    @given(mutations=st.lists(st.tuples(st.sampled_from(DEFAULT_DOC_PATHS), st.sampled_from(EDITS)),
                              min_size=1, max_size=3),
           n_users=st.integers(0, 30), days=st.integers(1, 2), seed=st.integers(0, 2 ** 32))
    @example(mutations=[(("env", "segment_weights"), ("swap", 5))], n_users=5, days=1, seed=0)
    @example(mutations=[(("actions", "normal_cents", 0), ("swap", 0))], n_users=30, days=2, seed=1)
    def test_refused_at_load_or_runs_end_to_end(self, mutations, n_users, days, seed):
        box = [config_to_dict(*default_config())]
        for path, edit in mutations:
            _mutate(box, path, edit)
        try:
            env_config, behavior, actions = config_from_dict(box[0])
        except ValueError:
            return
        env = CheckinEnv(env_config, actions)
        dataset = generate_dataset(env, behavior, n_users, seed)
        d = env_config.feature_dim
        assert validate_dataset(dataset, actions, d) == []
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(tmp, dataset, actions, d)
            assert load_dataset(tmp)[0] == dataset
        policy = ExpertPolicy(behavior.table, env_config.n_segments, actions)
        report = simulate_online(env, policy, None, days, 8, seed)
        assert report.matched_steps >= 8 * days
        assert math.isfinite(report.retention_rate) and math.isfinite(report.avg_cost_units)
