"""Smoke test of the benchmark's own code at a tiny size.

Each workload runs untraced and traced against references recorded on the
spot; a corrupted reference must show up as exactly one failed operation.
"""

import copy
import functools
import json
import shutil
import subprocess
import sys

import pytest

import make_refs
import run as bench

bench.load_exclust()

import workloads  # noqa: E402  (needs the checkout's exclust on the path)
from exclust import cli, experiments  # noqa: E402
from exclust.asymptotics import QuadratureSpec  # noqa: E402


def tiny_workload(name, workdir, monkeypatch):
    if name == "mc-table1":
        small = functools.partial(experiments.ExperimentConfig, n=300, block_grid=(6, 10))
        monkeypatch.setattr(cli, "ExperimentConfig", small)
        return workloads.McTable1(str(workdir))
    if name == "long-series":
        return workloads.LongSeries(n=2000)
    quad = QuadratureSpec(nodes_1d=8, refinement=False)
    keys = [(label, kind) for label in ("iid", "geometric") for kind in ("db", "sb")]
    return workloads.Variance(m=2, quads=dict.fromkeys(keys, quad))


def corrupt(value):
    if isinstance(value, dict):
        key = sorted(value)[-1]
        return {**value, key: corrupt(value[key])}
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    if isinstance(value, str):
        return "0" * len(value)
    return value + 1.0


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_workload_runs_and_reports_a_corrupted_reference(name, tmp_path, monkeypatch):
    wl = tiny_workload(name, tmp_path / "work", monkeypatch)
    refs = json.loads(json.dumps(make_refs.record(wl, [0])))

    result, detail = bench.benchmark(wl, refs, 0, 0, False, [0.5])
    assert (result["correct"], result["failed"]) == (True, 0), detail["failed_ops"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)

    traced, detail = bench.benchmark(wl, refs, 0, 0, True, [0.5], scaling_sizes=(200, 2000))
    assert traced["failed"] == 0, detail["failed_ops"]
    assert set(traced["metrics"]) == set(workloads.LAYER_METRICS)

    bad = copy.deepcopy(refs)
    op = sorted(bad["0"])[0]
    bad["0"][op] = corrupt(bad["0"][op])
    result, detail = bench.benchmark(wl, bad, 0, 0, False, [0.5])
    assert (result["correct"], result["failed"], detail["failed_ops"]) == (False, 1, [op])


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in workloads.LAYER_METRICS.items()
    }


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "variance", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
