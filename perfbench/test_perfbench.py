"""Tests of the benchmark itself, on the tiny sizes (seconds per workload).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
# Metrics that count work rather than time it: they must repeat exactly.
COUNTS = sorted(m["name"] for m in BENCHMARK["per_layer"] if m["unit"] != "s")


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_runs_pass_and_repeat_their_counts(name):
    # A trace run alternates an untraced and a traced sample and fails a
    # sample whose report bytes differ from the first one's, so failed == 0
    # also means traced and untraced reports are byte-identical.
    first = run.run(name, workloads.DEFAULT_SEED, 0, True, "tiny")
    second = run.run(name, workloads.DEFAULT_SEED, 0, True, "tiny")
    for record in (first, second):
        assert record["failed"] == 0, [s["error"] for s in record["samples"]]
        assert [s["traced"] for s in record["samples"]] == [False, True]
        assert set(record["metrics"]) == PER_LAYER
    assert {m: first["metrics"][m]["value"] for m in COUNTS} == {
        m: second["metrics"][m]["value"] for m in COUNTS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed_passes_the_invariants(name):
    record = run.run(name, workloads.HELD_OUT_SEED, 0, False, "tiny")
    assert record["failed"] == 0, [s["error"] for s in record["samples"]]
    assert set(record["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_inputs_follow_the_seed():
    cands = list(range(3, 40))
    assert workloads.make_inputs("pointcap-sg", workloads.DEFAULT_SEED, cands) == workloads.Inputs(1, 0, 5)
    for name in ("a3-seeded", "rank-seeded"):
        a = workloads.make_inputs(name, 7, cands)
        assert a == workloads.make_inputs(name, 7, cands)
        assert a != workloads.make_inputs(name, 8, cands)
    assert workloads.make_inputs("a3-seeded", 9, cands).labeling_seed in workloads.A3_LABELINGS
    assert workloads.make_inputs("rank-seeded", 9, cands).labeling_seed in workloads.RANK_LABELINGS


def test_reference_check_catches_a_changed_number(tmp_path):
    expected = json.loads((run.EXPECTED_DIR / "full" / "a3-seeded.json").read_text())
    argv = ["verify-a3", "--depth", "3"]

    def check(report):
        (tmp_path / workloads.REPORT).write_text(json.dumps({"report": dict(report, arithmetic_mode="x")}))
        workloads.check_report("a3-seeded", argv, tmp_path, expected)

    check(expected)
    check(dict(expected, C_b=expected["C_b"] * (1 + 1e-12)))
    with pytest.raises(workloads.CheckFailed):
        check(dict(expected, C_b=expected["C_b"] * (1 + 1e-6)))
    with pytest.raises(workloads.CheckFailed):
        check(dict(expected, words_total=expected["words_total"] + 1))
    with pytest.raises(workloads.CheckFailed):
        check(dict(expected, worst_mass_ratio="3/1"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blowup-sg", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
