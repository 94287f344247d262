"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

They check that the command prints every metric ``BENCHMARK.json``
names, with its unit; that each correctness check fails on a perturbed
result; and that the traced run's layer names match the README table.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from plans import design_plan, known_fault_scenario  # noqa: E402
from repro import io  # noqa: E402
from repro.api import Scenario, SimulationSession  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


RESULTS: "dict[tuple[str, int], dict]" = {}


@pytest.fixture
def bench(monkeypatch, capsys):
    """One short run (a single round) of the benchmark, memoized."""

    def run_once(workload: str, trace: int) -> dict:
        if (workload, trace) not in RESULTS:
            monkeypatch.setattr(run, "MIN_PLANS", 4)
            argv = ["--workload", workload, "--seed", "3", "--seconds", "0"]
            assert run.main([*argv, "--trace", str(trace)]) == 0
            last = capsys.readouterr().out.strip().splitlines()[-1]
            RESULTS[workload, trace] = json.loads(last)
        return RESULTS[workload, trace]

    return run_once


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(bench, workload):
    result = bench(workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    # Only the named thick-oxide device-summary calls fail, one per plan.
    if workload == "design-sweep":
        per_plan = len(design_plan(3, 0).scenarios) + 1
        assert result["failed"] * per_plan == result["attempted"]
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["design-sweep", "service-warm"])
def test_per_layer_metrics_printed_with_units(bench, workload):
    result = bench(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_workloads_in_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def readme_layers() -> "set[str]":
    """Layer names in the first column of the README's per-layer table."""
    text = (HERE / "README.md").read_text()
    section = text.split("## Per-layer metrics", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            cell = re.sub(r"\([^)]*\)", "", line.split("|")[1])
            names.update(re.findall(r"`([^`]+)`", cell))
    return names


def test_traced_layer_names_match_readme(bench):
    traced = set(bench("design-sweep", 1)["metrics"])
    layers = set()
    for name in traced:
        base = re.sub(r"\.(calls|ms)$", "", name) if name.endswith((".calls", ".ms")) else name
        if base in run.TIMED_LAYERS:
            name = base
        layers.add(re.sub(r"^experiments\.[^.]+$", "experiments.<id>", name))
    assert layers == readme_layers()


def fig6_result():
    scenario = Scenario("fig6", {"tunnel_oxide_nm": 5.2, "gcrs": (0.4, 0.5, 0.6, 0.7)})
    return scenario, SimulationSession(seed=0).run_scenario(scenario).result


def test_closed_form_check_fails_on_scaled_lane():
    scenario, result = fig6_result()
    assert checks.fn_closed_form_error(scenario, result) is None
    series = list(result.series)
    series[2] = dataclasses.replace(series[2], y=np.asarray(series[2].y) * (1 + 1e-3))
    perturbed = dataclasses.replace(result, series=tuple(series))
    assert checks.fn_closed_form_error(scenario, perturbed) is not None
    assert checks.scenario_error(scenario, perturbed) is not None


def test_bit_identity_check_fails_on_flipped_bit():
    scenario = design_plan(3, 0).expanded()[3]
    outcome = SimulationSession(seed=3).run_scenario(scenario)
    served = io.scenario_result_from_dict(io.scenario_result_to_dict(outcome))
    assert checks.fingerprint(served.result) == checks.fingerprint(outcome.result)
    series = list(served.result.series)
    y = np.array(series[0].y, dtype=float)
    y.view(np.uint64)[len(y) // 2] ^= np.uint64(1)
    series[0] = dataclasses.replace(series[0], y=y)
    flipped = dataclasses.replace(served.result, series=tuple(series))
    assert checks.fingerprint(flipped) != checks.fingerprint(outcome.result)


def test_counts_check_fails_on_wrong_sources():
    record = type("Record", (), {"computed": 31, "store_hits": 1})()
    assert run.counts_error(record, 0, 32) is not None
    assert run.counts_error(record, 31, 1) is None


def test_operating_point_checks_apply_only_there():
    away = Scenario("fig5", {"tunnel_oxide_nm": 4.6, "gcr": 0.6})
    result = SimulationSession(seed=0).run_scenario(away).result
    assert not result.all_checks_pass  # legitimately fails away from it
    assert checks.scenario_error(away, result) is None
    at = Scenario("fig5", {"tunnel_oxide_nm": 5.0, "gcr": 0.6})
    assert checks.at_operating_point(at)
    failing = dataclasses.replace(
        result, checks=(dataclasses.replace(result.checks[0], passed=False),)
    )
    assert checks.scenario_error(at, failing) is not None


def test_known_fault_is_seed_independent_and_raises():
    assert known_fault_scenario(0) == known_fault_scenario(2)
    with pytest.raises(TypeError):
        SimulationSession(seed=0).run_scenario(known_fault_scenario(1))


def test_plans_replay_from_seed():
    assert design_plan(5, 7) == design_plan(5, 7)
    assert design_plan(5, 7) != design_plan(6, 7)
