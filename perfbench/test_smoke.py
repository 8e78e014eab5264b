"""Tiny-size runs of the benchmark itself, so the harness does not rot.

Run from the repository root with ``python -m pytest perfbench``. The tier-1
suite does not collect this directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_runs_clean_at_tiny_size(trace, section):
    proc = _bench("--workload", "all", "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    per_workload = results[:-1]
    assert len(per_workload) == len(SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in per_workload:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert results[-1]["correct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "online",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_restores_every_wrapped_name():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import tracing
    finally:
        del sys.path[:2]
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr, _), orig in zip(tracing.TARGETS, originals))
    assert all(owner.__dict__[attr] is orig
               for (owner, attr, _), orig in zip(tracing.TARGETS, originals))
