"""Self-test of the benchmark (not part of the repository's tier-1 run).

    python3 -m pytest -q perfbench/test_perfbench.py

Tiny-size runs of every workload must emit every metric that
``BENCHMARK.json`` and ``layers.py`` declare, with its unit, and pass
their checks; a deliberately flipped expected decision must make the
decision check fail, which proves the check can fire.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.require_source_tree()

import layers  # noqa: E402
from run import WORKLOADS, load_workload  # noqa: E402

with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_declared_metrics_match_the_code():
    assert PER_LAYER == layers.UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_signatures_checked_inside_a_batch_count_once():
    import tracing

    spans = [
        ["crypto.schnorr_batch", 0.0, 3.0, -1, None, 1],
        ["crypto.schnorr_one", 1.0, 2.0, 0, None, None],
        ["crypto.schnorr_one", 4.0, 5.0, -1, None, None],
    ]
    summary = tracing.summarize(spans)
    values = layers.span_metrics(summary, spans, {}, updates=2)
    # one batch item plus one signature checked on its own, 4 s in all
    assert values["crypto.schnorr_verify_us_per_sig"] == 2e6


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    outcome = load_workload(workload).run(3, 1.0, trace=False, tiny=True)
    assert outcome.correct, (outcome.checks, outcome.notes)
    assert outcome.attempted > 0 and outcome.failed == 0
    units = {name: unit for name, (_, unit) in outcome.metrics.items()}
    assert units == END_TO_END
    assert all(value > 0 for value, _ in outcome.metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    outcome = load_workload(workload).run(3, 1.0, trace=True, tiny=True)
    assert outcome.correct, (outcome.checks, outcome.notes)
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} \
        == PER_LAYER
    values = {name: value for name, (value, _) in outcome.metrics.items()}
    assert values["error_ratio"] == 0.0
    assert values["pipeline.verify_us_per_update"] > 0
    if workload == "federated":
        assert values["verify.scans_per_update"] == 0.0
        assert values["consensus.order_sim_ms.p50"] > 0
    else:
        assert values["verify.scans_per_update"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_expectation_fails_the_decision_check(workload):
    outcome = load_workload(workload).run(3, 1.0, trace=False, tiny=True,
                                          flip=5)
    assert not outcome.checks["decisions"]
    assert outcome.failed >= 1
    assert not outcome.correct


def test_command_prints_the_result_contract_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "ingest", "--seed", "4", "--seconds", "1", "--trace", "0",
         "--tiny"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)


def test_command_without_the_program_fails_without_a_result():
    alone = common.fresh_state_dir("alone")
    try:
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), alone)
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", "ingest", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=120)
    finally:
        common.remove_state_dir(alone)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
