import json
import math

import numpy as np
import pytest

from budgetrl.core import ActionSet, validate_dataset
from budgetrl.envsim import (
    BehaviorPolicyConfig,
    CheckinEnv,
    EnvConfig,
    IneligibleActionError,
    SegmentParams,
    TabularModeError,
    config_from_dict,
    config_to_dict,
    default_behavior_table,
    default_config,
    enumerate_policy_value,
    generate_dataset,
    load_config,
    oracle_value_iteration,
)

SMALL_ACTIONS = ActionSet(normal_cents=(65, 87, 105), super_cents=(172,))


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

    def test_counters_advance(self):
        env = small_env(base_logit=50.0)
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        reward, state, done = env.step(user, 1)
        assert reward == 1 and not done
        assert state.day_in_cycle == 2 and state.bonuses_collected == 1

    def test_terminates_after_four_claims(self):
        env = small_env(base_logit=50.0)
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        for a in (0, 0, 0):
            _, _, done = env.step(user, a)
            assert not done
        _, state, done = env.step(user, 3)
        assert done and state is None

    def test_terminates_on_no_login(self):
        env = small_env(base_logit=-50.0)  # never retains
        user = env.spawn_user(0, np.random.default_rng(0), segment=0)
        reward, state, done = env.step(user, 0)
        assert reward == 0 and done and state is None


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
            seg = int(np.argmax(traj.transitions[0].state.to_array()[:3]))
            for tr in traj.transitions:
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
            for tr in traj.transitions:
                if actions.is_super(tr.action_index):
                    assert tr.state.bonuses_collected == 3

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
            tr = traj.transitions[0]
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
