import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from budgetrl.cli import build_parser, main
from budgetrl.envsim import config_to_dict, default_config

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

    def test_missing_model_file(self, workspace, tmp_path, capsys):
        rc = run("evaluate", "--dataset", str(workspace / "ds"), "--policy", "bcq",
                 "--model", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "r.json"))
        assert rc != 0
        assert "ghost" in capsys.readouterr().err


class TestGenerateData:
    def test_dataset_reloadable_and_snapshotted(self, workspace):
        from budgetrl.core import load_dataset
        trajs, manifest = load_dataset(workspace / "ds")
        assert len(trajs) == 150
        assert (workspace / "ds" / "run.config.json").exists()

    @pytest.mark.parametrize("defect", ["bonuses_per_cycle", "short_row"])
    def test_bad_config_exits_1_and_writes_nothing(self, tmp_path, capsys, defect):
        doc = config_to_dict(*default_config())
        if defect == "bonuses_per_cycle":
            doc["env"]["bonuses_per_cycle"] = 3
        else:
            doc["behavior"]["table"] = [row[:3] for row in doc["behavior"]["table"]]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        rc = run("generate-data", "--config", str(config), "--n-users", "20",
                 "--out", str(tmp_path / "ds"))
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()


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
        assert timeline.read_text().startswith("ts,lam,window")
        late = [d["cost_units"] for d in decisions if d["ts"] > 7200]
        assert np.mean(late) <= 0.80 * 1.05


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
        assert (tmp_path / f"{policy}.csv").read_text().startswith(
            "day,claims,retention,avg_cost_units,lam")


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
