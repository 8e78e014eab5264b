import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from budgetrl import allocator, cli
from budgetrl.cli import build_parser, main
from budgetrl.core import ActionSet, flatten, load_dataset, validate_dataset
from budgetrl.envsim import config_to_dict, default_config
from budgetrl.evaluation import MatchedSet
from test_envsim import CONFIG_PROBES, LOAD_PROBES, probe_config

DATA_DIR = Path(__file__).parent / "data"


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small dataset + trained models shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run("generate-data", "--n-users", "150", "--seed", "3",
               "--out", str(root / "ds")) == 0
    assert run("train", "--dataset", str(root / "ds"), "--policy", "bcq",
               "--steps", "300", "--hidden", "32,32", "--optimizer", "adam",
               "--lr", "0.01", "--seed", "3", "--out", str(root / "model.json"),
               "--log", str(root / "train.csv")) == 0
    assert run("train", "--dataset", str(root / "ds"), "--policy", "lr",
               "--steps", "300", "--hidden", "32,32", "--optimizer", "adam",
               "--lr", "0.01", "--seed", "3", "--out", str(root / "lr.json")) == 0
    return root


class TestHelpGolden:
    def test_every_flag_documented(self):
        golden = json.loads((DATA_DIR / "cli_flags.json").read_text())
        parser = build_parser()
        current = {"budgetrl": sorted(o for a in parser._actions for o in a.option_strings)}
        subparsers = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for name, sp in subparsers.choices.items():
            current[name] = sorted(o for a in sp._actions for o in a.option_strings)
        assert current == golden

    def test_help_text_mentions_all_flags(self, capsys):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for name, sp in subparsers.choices.items():
            text = sp.format_help()
            for action in sp._actions:
                for opt in action.option_strings:
                    assert opt in text, f"{name} help missing {opt}"
                if action.option_strings and action.help is None:
                    pytest.fail(f"{name} flag {action.option_strings} lacks help text")


class TestErrors:
    def test_missing_dataset_path(self, tmp_path, capsys):
        rc = run("train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "m.json"))
        assert rc != 0
        assert "nope" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code != 0

    def test_allocate_needs_exactly_one_mode(self, tmp_path, capsys):
        rc = run("allocate", "--budget", "0.87", "--out", str(tmp_path / "a.csv"))
        assert rc != 0

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--policy", "expert"],
        ["train", "--policy", "bcq", "--steps", "20", "--hidden", "8"],
        ["train", "--policy", "lr", "--steps", "20", "--hidden", "8"],
    ])
    def test_invalid_logs_exit_1_and_write_nothing(self, workspace, tmp_path, capsys, argv):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        shard = ds / "data-00000.jsonl"
        first, *rest = shard.read_text().splitlines(keepends=True)
        rec = json.loads(first)
        assert rec["bonuses_collected"] == 0  # claim 1, where action 11 (super) is not allowed
        rec.update(reward=7, cost_cents=1, action_index=11)
        shard.write_text(json.dumps(rec) + "\n" + "".join(rest))
        rc = run(*argv, "--dataset", str(ds), "--out", str(tmp_path / "out" / "result.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "reward 7" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--policy", "expert"],
        ["train", "--policy", "bcq", "--steps", "20", "--hidden", "8"],
        ["train", "--policy", "lr", "--steps", "20", "--hidden", "8"],
    ])
    def test_non_finite_feature_exits_1_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                           argv):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        shard = ds / "data-00000.jsonl"
        records = [json.loads(line) for line in shard.read_text().splitlines()]
        records[0]["state"][1] = float("nan")  # json writes NaN, which json.loads accepts
        records[1]["state"][2] = float("inf")
        shard.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        where = f"user {records[0]['user_id']} t={records[0]['t']}"
        rc = run(*argv, "--dataset", str(ds), "--out", str(tmp_path / "out" / "result.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and f"{where}: feature 1 = nan not finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--policy", "expert"],
        ["train", "--policy", "bcq", "--steps", "20", "--hidden", "8"],
        ["train", "--policy", "lr", "--steps", "20", "--hidden", "8"],
    ])
    def test_bool_feature_exits_1_and_writes_nothing(self, workspace, tmp_path, capsys, argv):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        shard = ds / "data-00000.jsonl"
        first, *rest = shard.read_text().splitlines(keepends=True)
        rec = json.loads(first)
        rec["state"][0] = True  # JSON true; a bool is never a number
        shard.write_text(json.dumps(rec) + "\n" + "".join(rest))
        where = f"user {rec['user_id']} t={rec['t']}"
        rc = run(*argv, "--dataset", str(ds), "--out", str(tmp_path / "out" / "result.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and f"{where}: feature 0 = True not a number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--policy", "expert"],
        ["train", "--policy", "bcq", "--steps", "20", "--hidden", "8"],
        ["train", "--policy", "lr", "--steps", "20", "--hidden", "8"],
    ])
    @pytest.mark.parametrize("edit", [
        {"day_in_cycle": "1"}, {"state": 5}, None,
    ], ids=["day-as-string", "state-as-int", "json-array"])
    def test_record_of_the_wrong_json_type_exits_1_and_writes_nothing(
            self, workspace, tmp_path, capsys, argv, edit):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        shard = ds / "data-00000.jsonl"
        first, *rest = shard.read_text().splitlines(keepends=True)
        rec = json.loads(first)
        first = json.dumps(list(rec.values()) if edit is None else {**rec, **edit})
        shard.write_text(first + "\n" + "".join(rest))
        rc = run(*argv, "--dataset", str(ds), "--out", str(tmp_path / "out" / "result.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and f"{shard} line 1: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_truncated_shard_exits_1_and_writes_nothing(self, workspace, tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(workspace / "ds", ds)
        shard = ds / "data-00000.jsonl"
        text = shard.read_text()
        cut = len(text) // 2
        line = text.count("\n", 0, cut) + 1
        assert text[cut - 1] != "\n"  # the cut falls inside a record
        shard.write_text(text[:cut])
        rc = run("evaluate", "--policy", "expert", "--dataset", str(ds),
                 "--out", str(tmp_path / "out" / "result.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and f"{shard} line {line}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-0.05"), ("--kappa", "nan"),
    ])
    def test_bad_hyperparameter_exits_1_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                            flag, value):
        out = tmp_path / "out" / "model.json"
        rc = run("train", "--dataset", str(workspace / "ds"), "--steps", "20", "--hidden", "8",
                 flag, value, "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and ("learning_rate" in err or "kappa" in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", ["bcq", "lr"])
    def test_diverged_training_exits_1_and_writes_nothing(self, workspace, tmp_path, capsys,
                                                          policy):
        out = tmp_path / "out" / "model.json"
        with pytest.warns(RuntimeWarning):  # numpy overflow warnings come before the loss check
            rc = run("train", "--dataset", str(workspace / "ds"), "--policy", policy, "--steps",
                     "20", "--hidden", "8", "--lr", "1e200", "--out", str(out), "--log",
                     str(tmp_path / "out" / "log.csv"))
        assert rc == 1
        assert "training diverged" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_agent_file_with_bad_learning_rate_exits_1(self, workspace, tmp_path, capsys,
                                                       command):
        payload = json.loads((workspace / "model.json").read_text())
        payload["hyper"]["learning_rate"] = -0.05
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        argv = [command, "--policy", "bcq", "--model", str(model), "--out",
                str(tmp_path / "out" / "report.json")]
        if command == "evaluate":
            argv += ["--dataset", str(workspace / "ds")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "learning_rate" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("gamma", "1.0"), ("batch_size", "64"), ("seed", 1.5), ("hidden_sizes", [64.5]),
        ("hidden_sizes", 64),
    ])
    def test_agent_file_with_mistyped_hyperparameter_exits_1(self, workspace, tmp_path, capsys,
                                                             field, value):
        payload = json.loads((workspace / "model.json").read_text())
        payload["hyper"][field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        assert run("simulate", "--policy", "bcq", "--model", str(model), "--days", "1",
                   "--arrivals", "5", "--out", str(tmp_path / "out" / "report.json")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    @pytest.mark.parametrize("field, value", [
        ("params", [10 ** 400]), ("layer_sizes", [10 ** 400, 4]),
        ("layer_sizes", [float("inf"), 4]), ("layer_sizes", None),
    ])
    def test_agent_file_with_a_net_field_past_the_number_range_exits_1(
            self, workspace, tmp_path, capsys, command, field, value):
        payload = json.loads((workspace / "model.json").read_text())
        payload["q_net"][field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        argv = [command, "--policy", "bcq", "--model", str(model), "--out",
                str(tmp_path / "out" / "report.json")]
        if command == "evaluate":
            argv += ["--dataset", str(workspace / "ds")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and field in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy, model, node, value", [
        ("bcq", "model.json", None, [1, 2]), ("bcq", "model.json", "q_net", 5),
        ("bcq", "model.json", "behavior_model", [0.5]), ("bcq", "model.json", "hyper", "fast"),
        ("bcq", "model.json", "actions", None), ("lr-lp", "lr.json", None, "model"),
        ("lr-lp", "lr.json", "net", [1, 2]),
    ])
    def test_model_document_that_is_not_an_object_exits_1(self, workspace, tmp_path, capsys,
                                                          policy, model, node, value):
        payload = json.loads((workspace / model).read_text())
        if node is None:
            payload = value
        else:
            payload[node] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert run("simulate", "--policy", policy, "--model", str(path), "--days", "1",
                   "--arrivals", "5", "--out", str(tmp_path / "out" / "report.json")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert "must be a JSON object" in err and (node is None or node in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("manifest", ["5", "null", '"1"', "[]"])
    def test_manifest_that_is_not_an_object_exits_1(self, workspace, tmp_path, capsys,
                                                    manifest):
        logs = tmp_path / "logs"
        shutil.copytree(workspace / "ds", logs)
        (logs / "manifest.json").write_text(manifest + "\n")
        assert run("evaluate", "--policy", "expert", "--dataset", str(logs), "--out",
                   str(tmp_path / "out" / "report.json")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert str(logs / "manifest.json") in err and "must be a JSON object" in err
        assert not (tmp_path / "out").exists()

    def test_missing_model_file(self, workspace, tmp_path, capsys):
        rc = run("evaluate", "--dataset", str(workspace / "ds"), "--policy", "bcq",
                 "--model", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "r.json"))
        assert rc != 0
        assert "ghost" in capsys.readouterr().err


class TestGenerateData:
    def test_dataset_reloadable_and_snapshotted(self, workspace):
        trajs, manifest = load_dataset(workspace / "ds")
        assert len(trajs) == 150
        snapshot = json.loads((workspace / "ds" / "data-00000.jsonl.config.json").read_text())
        assert snapshot["command"] == "generate-data" and snapshot["resolved"]["seed"] == 3

    @pytest.mark.parametrize("n_users", ["0", "-1"])
    def test_no_users_exits_1_and_writes_nothing(self, tmp_path, capsys, n_users):
        # an empty log is refused here, not later by train
        rc = run("generate-data", "--n-users", n_users, "--out", str(tmp_path / "logs"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "n_users" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("defect", ["bonuses_per_cycle", "short_row", "seed", "feature_nois",
                                        "sensitivity", "nois"])
    def test_bad_config_exits_1_and_writes_nothing(self, tmp_path, capsys, defect):
        doc = config_to_dict(*default_config())
        if defect == "bonuses_per_cycle":
            doc["env"]["bonuses_per_cycle"] = 3
        elif defect == "short_row":
            doc["behavior"]["table"] = [row[:3] for row in doc["behavior"]["table"]]
        else:  # an unknown key at the top level, in env, in a segment or in behavior
            {"seed": doc, "feature_nois": doc["env"], "sensitivity": doc["env"]["segments"][0],
             "nois": doc["behavior"]}[defect][defect] = 0.5
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        rc = run("generate-data", "--config", str(config), "--n-users", "20",
                 "--out", str(tmp_path / "ds"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err
        assert defect == "short_row" or defect in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("probe", LOAD_PROBES)
    def test_config_refused_at_load_exits_1_and_writes_nothing(self, tmp_path, capsys, probe):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(probe_config(probe, LOAD_PROBES)))
        rc = run("generate-data", "--config", str(config), "--n-users", "20",
                 "--out", str(tmp_path / "logs"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and LOAD_PROBES[probe][2] in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


    def test_appended_shard_numbers_its_users_after_the_existing_ones(self, tmp_path):
        out, alone = tmp_path / "ds", tmp_path / "alone"
        assert run("generate-data", "--n-users", "30", "--seed", "1", "--out", str(out)) == 0
        first = (out / "data-00000.jsonl").read_bytes()
        assert run("generate-data", "--n-users", "20", "--seed", "2", "--out", str(out)) == 0
        assert run("generate-data", "--n-users", "20", "--seed", "2", "--out", str(alone)) == 0
        assert (out / "data-00000.jsonl").read_bytes() == first
        # each shard keeps the snapshot of the run that wrote it
        for k, seed in enumerate((1, 2)):
            snapshot = json.loads((out / f"data-0000{k}.jsonl.config.json").read_text())
            assert snapshot["resolved"]["seed"] == seed
        assert not (out / "run.config.json").exists()
        trajs, manifest = load_dataset(out)
        assert [traj[0].user_id for traj in trajs] == list(range(50))
        assert validate_dataset(trajs, ActionSet.from_dict(manifest["actions"]),
                                manifest["feature_dim"]) == []
        # the appended logs are the seed-2 logs, renumbered and otherwise unchanged
        fresh = flatten(load_dataset(alone)[0])
        assert flatten(trajs[30:]) == [replace(tr, user_id=tr.user_id + 30) for tr in fresh]


class TestAllocateBatch:
    def test_budget_satisfied_and_outputs_written(self, tmp_path):
        rng = np.random.default_rng(1)
        menu = [0.65, 0.67, 0.71, 0.75, 0.79, 0.83, 0.87, 0.94, 1.01, 1.05]
        rows = 0.2 + 0.7 * rng.random((40, len(menu)))
        csv_path = tmp_path / "q.csv"
        lines = [",".join(str(c) for c in menu)]
        lines += [",".join(f"{v:.6f}" for v in row) for row in rows]
        csv_path.write_text("\n".join(lines) + "\n")

        out = tmp_path / "assign.csv"
        assert run("allocate", "--q-matrix", str(csv_path), "--budget", "0.87",
                   "--out", str(out)) == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["mean_cost_units"] <= 0.87
        body = out.read_text().splitlines()
        assert body[0] == "customer,action_index,cost_units,q_value"
        assert len(body) == 41


    # a budget that is not finite or not a whole number of cents; a cost past the cent
    # range; costs out of cost order
    @pytest.mark.parametrize("header, budget", [("0.65,0.87", "inf"), ("0.65,1e20", "0.80"),
                                                ("0.87,0.65", "0.80"), ("0.65,0.87", "0.875")])
    def test_budget_or_cost_out_of_range_exits_1(self, tmp_path, capsys, header, budget):
        csv_path = tmp_path / "q.csv"
        csv_path.write_text(f"{header}\n0.5,0.6\n")
        out = tmp_path / "a.csv"
        assert run("allocate", "--q-matrix", str(csv_path), "--budget", budget,
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv"]

    def test_empty_q_matrix_exits_1(self, tmp_path, capsys):
        csv_path = tmp_path / "q.csv"
        csv_path.write_text("")
        out = tmp_path / "assign.csv"
        assert run("allocate", "--q-matrix", str(csv_path), "--budget", "0.87",
                   "--out", str(out)) == 1
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()


class TestAllocateStream:
    def test_stream_decisions_and_timeline(self, tmp_path):
        rng = np.random.default_rng(2)
        stream = tmp_path / "rows.jsonl"
        with stream.open("w") as f:
            for i in range(600):
                q = 0.3 + 0.6 * np.array([0.65, 0.87, 1.05]) + rng.normal(0, 0.05, 3)
                f.write(json.dumps({"ts": i * 30.0, "q": [round(v, 6) for v in q]}) + "\n")
        out = tmp_path / "dec.jsonl"
        timeline = tmp_path / "lam.csv"
        assert run("allocate", "--stream", str(stream), "--costs", "0.65,0.87,1.05",
                   "--budget", "0.80", "--window-hours", "2", "--refresh-minutes", "10",
                   "--out", str(out), "--lambda-timeline", str(timeline)) == 0
        decisions = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(decisions) == 600
        assert timeline.read_text().splitlines()[0] == "ts,lam,window,infeasible"
        late = [d["cost_units"] for d in decisions if d["ts"] > 7200]
        assert np.mean(late) <= 0.80 * 1.05


    def test_window_whose_move_to_the_cheapest_action_overflows(self, tmp_path):
        # The first row's move from action 1 to action 0 has lam = inf, so the
        # first window looks infeasible though action 0 costs 0: the run
        # decides every row and marks that refresh infeasible.
        stream = tmp_path / "rows.jsonl"
        stream.write_text("".join(json.dumps(row) + "\n" for row in (
            {"ts": 0, "q": [-1.5e308, 1.5e308]}, {"ts": 90, "q": [0.1, 0.5]})))
        out, timeline = tmp_path / "dec.jsonl", tmp_path / "lam.csv"
        with np.errstate(over="ignore"):
            assert run("allocate", "--budget", "0.50", "--costs", "0,1", "--refresh-minutes",
                       "1", "--stream", str(stream), "--out", str(out),
                       "--lambda-timeline", str(timeline)) == 0
        decisions = [json.loads(line) for line in out.read_text().splitlines()]
        assert [d["action_index"] for d in decisions] == [1, 1]
        assert timeline.read_text().splitlines()[1:] == ["60.0,0.0,1,True"]

    # A list is the third row's Q values; a string is the whole third line, of the wrong shape.
    @pytest.mark.parametrize("bad_q", [
        [None, None, None], [0.5, "inf", 0.7], [0.5, 0.6],
        pytest.param('{"ts": 0, "q": 5}', id="q_not_a_list"),
        pytest.param("[1, 2]", id="line_not_an_object"),
        pytest.param('{"q": [0.5, 0.6, 0.7]}', id="no_ts"),
        pytest.param('{"ts": 120, "q": [0.5, [0.6], 0.7]}', id="q_value_not_a_number"),
        pytest.param('{"ts": NaN, "q": [0.5, 0.6, 0.7]}', id="ts_not_finite"),
        pytest.param('{"ts": 120, "q": [0.5, 1%s, 0.7]}' % ("0" * 400), id="q_int_past_floats"),
        pytest.param('{"ts": 1%s, "q": [0.5, 0.6, 0.7]}' % ("0" * 400), id="ts_int_past_floats"),
    ])
    def test_bad_row_leaves_no_decisions_file(self, tmp_path, capsys, bad_q):
        stream = tmp_path / "rows.jsonl"
        rows = [[0.5, 0.6, 0.7], [0.4, 0.6, 0.8], bad_q]
        lines = [q if isinstance(q, str) else json.dumps({"ts": 60.0 * i, "q": q})
                 for i, q in enumerate(rows)]
        stream.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "dec.jsonl"
        assert run("allocate", "--stream", str(stream), "--costs", "0.65,0.87,1.05",
                   "--budget", "0.80", "--out", str(out), "--lambda-timeline",
                   str(tmp_path / "lam.csv")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert "stream line 3" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]

    def test_a_row_earlier_than_the_line_before_is_refused(self, tmp_path, capsys):
        # Within a 1 h window, the row at ts 10 would still be live at 6000 s.
        stream = tmp_path / "rows.jsonl"
        stream.write_text("".join(json.dumps({"ts": ts, "q": [0.5, 0.6]}) + "\n"
                                  for ts in (0, 3000, 3000, 10, 6000)))
        assert run("allocate", "--stream", str(stream), "--costs", "0.65,0.87", "--budget",
                   "0.80", "--window-hours", "1", "--out", str(tmp_path / "dec.jsonl"),
                   "--lambda-timeline", str(tmp_path / "lam.csv")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert "stream line 4" in err and "10" in err and "3000" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]

    def test_a_ts_the_refresh_period_cannot_move_is_refused(self, tmp_path, capsys):
        # 1e20 + 600 == 1e20: the refresh ticks would never pass the rows' ts
        stream = tmp_path / "rows.jsonl"
        stream.write_text("".join(json.dumps({"ts": 1e20, "q": q}) + "\n"
                                  for q in ([0.1, 0.5], [0.2, 0.3])))
        assert run("allocate", "--budget", "0.5", "--costs", "0,1", "--stream", str(stream),
                   "--out", str(tmp_path / "dec.jsonl")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert "1e+20" in err and "600.0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]

    def test_a_period_far_below_the_row_gaps_is_refused(self, tmp_path, capsys):
        # 60 s at a period of 6e-19 s would be 1e20 refreshes
        stream = tmp_path / "rows.jsonl"
        stream.write_text("".join(json.dumps({"ts": ts, "q": [0.1, 0.5]}) + "\n"
                                  for ts in (0, 60)))
        assert run("allocate", "--budget", "0.5", "--costs", "0,1", "--refresh-minutes", "1e-20",
                   "--stream", str(stream), "--out", str(tmp_path / "dec.jsonl")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert "1e+20 refresh ticks" in err and str(allocator._MAX_TICKS) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]

    @pytest.mark.parametrize("flag, value", [
        ("--refresh-minutes", "0"), ("--refresh-minutes", "-5"), ("--refresh-minutes", "nan"),
        ("--window-hours", "nan"), ("--window-hours", "inf"), ("--window-hours", "0"),
        ("--budget", "inf"), ("--budget", "nan"), ("--costs", "0.65,1e20"),
        ("--costs", "0.87,0.65"), ("--budget", "0.875"),
    ])
    def test_bad_store_setting_exits_1_and_writes_nothing(self, tmp_path, capsys, flag, value):
        stream = tmp_path / "rows.jsonl"
        stream.write_text("".join(json.dumps({"ts": 60.0 * i, "q": [0.5, 0.6]}) + "\n"
                                  for i in range(3)))
        options = {"--costs": "0.65,0.87", "--budget": "0.80", flag: value}
        assert run("allocate", "--stream", str(stream), *[x for kv in options.items() for x in kv],
                   "--out", str(tmp_path / "dec.jsonl"),
                   "--lambda-timeline", str(tmp_path / "lam.csv")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]

    def test_first_bad_line_is_named_before_a_later_one_in_its_chunk(self, tmp_path, capsys):
        stream = tmp_path / "rows.jsonl"
        lines = [json.dumps({"ts": 0, "q": [0.5, 0.6, 0.7]}), json.dumps({"ts": 60, "q": [0.5]}),
                 json.dumps({"ts": 120, "q": [0.5, 0.6, 0.7]}), "not json"]
        stream.write_text("".join(line + "\n" for line in lines))
        assert run("allocate", "--stream", str(stream), "--costs", "0.65,0.87,1.05",
                   "--budget", "0.80", "--out", str(tmp_path / "dec.jsonl")) == 1
        err = capsys.readouterr().err
        assert "stream line 2" in err and "stream line 4" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


class TestEvaluateAndSimulate:
    def test_evaluate_bcq(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        assert run("evaluate", "--dataset", str(workspace / "ds"), "--policy", "bcq",
                   "--model", str(workspace / "model.json"), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["retention_rate"] <= 1.0
        assert report["matched_steps"] > 0

    def test_evaluate_expert_full_trajectory(self, workspace, tmp_path):
        out = tmp_path / "expert.json"
        assert run("evaluate", "--dataset", str(workspace / "ds"), "--policy", "expert",
                   "--full-trajectory", "--out", str(out)) == 0
        assert json.loads(out.read_text())["matched_steps"] > 0

    def test_evaluate_refuses_an_xi_out_of_range_before_scoring(self, workspace, tmp_path,
                                                                capsys, monkeypatch):
        scored = []
        monkeypatch.setattr(cli, "match_records", lambda *args, **kw: scored.append(args))
        out = tmp_path / "out" / "report.json"
        assert run("evaluate", "--dataset", str(workspace / "ds"), "--policy", "bcq",
                   "--model", str(workspace / "model.json"), "--xi", "1.5",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "xi must be in [0, 1]" in err
        assert "Traceback" not in err
        assert scored == [] and not (tmp_path / "out").exists()

    def test_evaluate_with_a_policy_that_matches_no_record_exits_1(self, tmp_path, capsys):
        # logs whose every first claim took arm 0, scored by an expert table that
        # takes arm 1 there: no trajectory matches its first step
        configs = {}
        for name, first_arm in (("logged", 0), ("scored", 1)):
            doc = config_to_dict(*default_config())
            doc["behavior"]["noise"] = 0.0
            for row in doc["behavior"]["table"]:
                row[0] = first_arm
            configs[name] = tmp_path / f"{name}.json"
            configs[name].write_text(json.dumps(doc))
        assert run("generate-data", "--config", str(configs["logged"]), "--n-users", "30",
                   "--seed", "2", "--out", str(tmp_path / "ds")) == 0
        capsys.readouterr()
        out = tmp_path / "out" / "report.json"
        assert run("evaluate", "--dataset", str(tmp_path / "ds"), "--policy", "expert",
                   "--config", str(configs["scored"]), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "matched no logged records" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", ["bcq", "lr-lp", "lr-greedy", "expert",
                                        "cheapest", "random"])
    def test_simulate_each_policy(self, workspace, tmp_path, policy):
        model = {"bcq": workspace / "model.json",
                 "lr-lp": workspace / "lr.json",
                 "lr-greedy": workspace / "lr.json"}.get(policy)
        argv = ["simulate", "--policy", policy, "--budget", "0.87", "--days", "2",
                "--arrivals", "25", "--seed", "4", "--out", str(tmp_path / f"{policy}.json"),
                "--timeline", str(tmp_path / f"{policy}.csv")]
        if model is not None:
            argv += ["--model", str(model)]
        assert run(*argv) == 0
        report = json.loads((tmp_path / f"{policy}.json").read_text())
        assert report["matched_steps"] > 0
        # only the budgeted policies run through a window store that refreshes
        assert (report["infeasible_refreshes"] is None) == (policy not in ("bcq", "lr-lp"))
        assert (tmp_path / f"{policy}.csv").read_text().startswith(
            "day,claims,retention,avg_cost_units,lam")

    @pytest.mark.parametrize("probe", CONFIG_PROBES)
    def test_simulate_refuses_a_config_field_that_is_not_a_finite_number(self, tmp_path, capsys,
                                                                         probe):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(probe_config(probe)))
        rc = run("simulate", "--config", str(config), "--policy", "expert", "--days", "2",
                 "--arrivals", "10", "--out", str(tmp_path / "sim.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "finite number" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("flag, value", [("--budget", "inf"), ("--days", "-2"),
                                             ("--arrivals", "-5"), ("--budget", "0.875")])
    def test_simulate_refuses_a_bad_run_setting(self, workspace, tmp_path, capsys, flag, value):
        options = {"--days": "2", "--arrivals": "10", flag: value}
        assert run("simulate", "--policy", "bcq", "--model", str(workspace / "model.json"),
                   *[x for kv in options.items() for x in kv],
                   "--out", str(tmp_path / "sim.json"),
                   "--timeline", str(tmp_path / "sim.csv")) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("budget", ["inf", "nan"])
    @pytest.mark.parametrize("policy", ["cheapest", "bcq"])
    def test_simulate_refuses_a_non_finite_budget_for_every_policy(self, workspace, tmp_path,
                                                                   capsys, policy, budget):
        # cheapest never spends the budget, but the run snapshot records it
        argv = ["simulate", "--policy", policy, "--budget", budget, "--days", "1",
                "--arrivals", "3", "--out", str(tmp_path / "sim.json")]
        if policy == "bcq":
            argv += ["--model", str(workspace / "model.json")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("budget, infeasible", [("0.60", True), ("0.87", False)])
    def test_report_counts_infeasible_refreshes(self, workspace, tmp_path, budget, infeasible):
        # 0.60 is below the cheapest bonus, 0.65: no multiplier fits any refresh
        out = tmp_path / "sim.json"
        assert run("simulate", "--policy", "bcq", "--model", str(workspace / "model.json"),
                   "--budget", budget, "--days", "2", "--arrivals", "25", "--seed", "4",
                   "--out", str(out)) == 0
        report = json.loads(out.read_text())
        flagged = sum(entry["infeasible"] for entry in report["lambda_timeline"])
        assert report["infeasible_refreshes"] == flagged
        assert (flagged > 100) == infeasible and (flagged == 0) != infeasible

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_unknown_agent_hyper_key_exits_1(self, workspace, tmp_path, capsys, command):
        payload = json.loads((workspace / "model.json").read_text())
        payload["hyper"]["tau"] = 0.005
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        argv = [command, "--policy", "bcq", "--model", str(model), "--out",
                str(tmp_path / "out" / "report.json")]
        if command == "evaluate":
            argv += ["--dataset", str(workspace / "ds")]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "tau" in err
        assert not (tmp_path / "out").exists()


def tree_hash(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestPipeline:
    def test_two_runs_byte_identical(self, tmp_path):
        args = ["--seed", "5", "--n-users", "250", "--steps", "300",
                "--days", "3", "--arrivals", "30"]
        assert run("pipeline", "--workdir", str(tmp_path / "a"), *args) == 0
        assert run("pipeline", "--workdir", str(tmp_path / "b"), *args) == 0
        ha, hb = tree_hash(tmp_path / "a"), tree_hash(tmp_path / "b")
        assert ha == hb
        assert "run_config.json" in ha

    @pytest.mark.parametrize("flag, value", [("--budget", "inf"), ("--days", "-2"),
                                             ("--arrivals", "-5")])
    def test_bad_run_setting_exits_1_without_a_report(self, tmp_path, capsys, flag, value):
        options = {"--n-users": "40", "--steps": "20", "--days": "1", "--arrivals": "5",
                   flag: value}
        assert run("pipeline", "--workdir", str(tmp_path / "w"),
                   *[x for kv in options.items() for x in kv]) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert not (tmp_path / "w" / "simulate_report.json").exists()

    @pytest.mark.parametrize("flag, value", [("--budget", "inf"), ("--budget", "nan"),
                                             ("--budget", "0.875"), ("--days", "-1"),
                                             ("--arrivals", "-1"), ("--xi", "2"),
                                             ("--steps", "-1"), ("--n-users", "0")])
    def test_bad_run_setting_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        flag, value):
        def no_logs(*args):
            raise AssertionError("pipeline made logs before checking its settings")

        monkeypatch.setattr(cli, "_write_logs", no_logs)
        assert run("pipeline", "--workdir", str(tmp_path / "w"), "--n-users", "40",
                   "--steps", "20", flag, value) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_workdir_that_holds_a_dataset_is_refused_and_left_as_it_was(self, tmp_path, capsys):
        work = tmp_path / "w"
        options = ["--n-users", "40", "--steps", "20", "--days", "1", "--arrivals", "5"]
        assert run("pipeline", "--workdir", str(work), "--seed", "1", *options) == 0
        before = tree_hash(work)
        capsys.readouterr()
        assert run("pipeline", "--workdir", str(work), "--seed", "2", *options) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "already holds a dataset" in err
        assert "Traceback" not in err
        assert tree_hash(work) == before

    def test_a_policy_that_matches_no_record_reports_no_matched_steps(self, tmp_path,
                                                                        monkeypatch):
        monkeypatch.setattr(cli, "match_records",
                            lambda dataset, policy: MatchedSet(0, 0, 0, 0, len(dataset)))
        work = tmp_path / "w"
        assert run("pipeline", "--workdir", str(work), "--n-users", "40", "--steps", "20",
                   "--days", "1", "--arrivals", "5") == 0
        assert json.loads((work / "eval_report.json").read_text()) == {"matched_steps": 0}

    def test_artifacts_chain(self, tmp_path):
        # every artifact written by the pipeline must be readable by the
        # stand-alone subcommands without edits
        work = tmp_path / "w"
        assert run("pipeline", "--workdir", str(work), "--seed", "6", "--n-users", "200",
                   "--steps", "200", "--days", "2", "--arrivals", "20") == 0
        assert run("evaluate", "--dataset", str(work / "dataset"), "--policy", "bcq",
                   "--model", str(work / "model.json"),
                   "--out", str(tmp_path / "again.json")) == 0
        assert run("simulate", "--policy", "bcq", "--model", str(work / "model.json"),
                   "--days", "1", "--arrivals", "10", "--seed", "6",
                   "--out", str(tmp_path / "sim2.json")) == 0
