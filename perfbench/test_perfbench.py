"""Tests of the benchmark itself (not part of the library's test suite).

Run from the root of the repository::

    python3 -m pytest perfbench -q

The workloads run in process at reduced sizes; the counts per train step do
not depend on the size, so they are checked against their exact values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker  # perfbench/ is on sys.path when pytest collects this file

MODS = worker.load_library()  # pins BLAS before numpy loads

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracemod  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((worker.ROOT / "BENCHMARK.json").read_text())


def names(section):
    return {m["name"] for m in BENCH[section]}


@pytest.fixture(scope="module", autouse=True)
def small():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "ROUND_STEPS", 4)
        mp.setattr(workloads, "ABLATE_STEPS", 10)
        mp.setattr(workloads, "ABLATE_TRANSITIONS", 3000)
        mp.setattr(workloads, "ABLATE_EVAL_TRIALS", 2)
        yield


def small_setup(name, seed, transitions=5000):
    config = workloads.train_config(MODS, name, seed)
    config.transitions = transitions
    spec = MODS.maze.builtin_layout(config.layout)
    return {"config": config, "spec": spec,
            "dataset": workloads.make_dataset(MODS, config, spec),
            "state": MODS.training.init_learner(config.train, spec)}


def run_train(name, seed, trace):
    tracer = tracemod.install(tracemod.Tracer(), MODS) if trace else None
    try:
        res = workloads.run_train(MODS, small_setup(name, seed), 2, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return res, tracer


def run_ablate(seed, trace, tmp_path):
    tracer = tracemod.install(tracemod.Tracer(), MODS) if trace else None
    try:
        res = workloads.run_ablate(MODS, seed, 2, tmp_path, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return res, tracer


@pytest.fixture(scope="module")
def traced_lan():
    return run_train("lan-hier-cont", 3, True)


@pytest.fixture(scope="module")
def traced_iqe():
    return run_train("iqe-flat-stitch", 3, True)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


def test_end_to_end_names_match_benchmark_json():
    res, _ = run_train("iqe-flat-stitch", 1, False)
    assert res["correct"] and res["failed"] == 0
    process = {"metrics": worker.end_to_end(res), "setup_s": 1.0}
    assert set(run.aggregate([process] * 3)) == names("end_to_end")


def test_processes_must_agree():
    same = {"quality": [0.0, 0.5, 0.7], "digest": "a"}
    assert run.outputs_agree([same, dict(same)])
    assert not run.outputs_agree([same, dict(same, digest="b")])
    assert not run.outputs_agree([same, dict(same, quality=[0.0, 0.5, 0.6])])


def test_per_layer_names_match_benchmark_json(traced_lan):
    res, tracer = traced_lan
    assert set(worker.per_layer(tracer, res)) == names("per_layer")


@pytest.mark.parametrize("name, counts", [
    ("lan-hier-cont", {"autodiff.tapes_per_step": 3,
                       "autodiff.backward_calls_per_step": 3,
                       "autodiff.tape_mlp_passes_per_step": 13,
                       "autodiff.plain_mlp_passes_per_step": 9,
                       "values.tape_value_calls_per_step": 3,
                       "values.plain_value_calls_per_step": 3,
                       "values.iqe_union_calls_per_step": 0}),
    ("iqe-flat-stitch", {"autodiff.tapes_per_step": 2,
                         "autodiff.backward_calls_per_step": 2,
                         "values.iqe_union_calls_per_step": 3}),
])
def test_counts_per_train_step(traced_lan, traced_iqe, name, counts):
    res, tracer = traced_lan if name == "lan-hier-cont" else traced_iqe
    layer = worker.per_layer(tracer, res)
    assert {k: layer[k] for k in counts} == counts


def test_wrappers_fire_on_train_workloads(traced_lan, traced_iqe):
    lan, iqe = traced_lan[1], traced_iqe[1]
    for fn in ("data.collect_navigate", "data.sample_batch", "maze.step",
               "maze.distance_field", "training.train_step",
               "training.adam_step", "training.polyak_update", "autodiff.Tape",
               "autodiff.Tape.backward", "autodiff.Tape.matmul",
               "autodiff.Tape.gelu", "autodiff.gelu_value", "autodiff.LiftedMlp",
               "autodiff.mlp_apply", "values.LiftedValue", "values.value",
               "evaluation.evaluate", "evaluation.act_batch",
               "evaluation.kendall_consistency", "evaluation.temporal_alignment"):
        assert lan.calls(fn) > 0, fn
    assert lan.calls("values.interval_union_measure") == 0
    assert iqe.calls("data.collect_stitch") > 0
    assert iqe.calls("values.interval_union_measure") > 0
    for quantity in ("matmul_flops", "matmul_bytes", "gelu_backward", "act_rows"):
        assert lan.amount(quantity) > 0, quantity


def test_wrappers_fire_on_ablate_and_outputs_repeat(tmp_path):
    res, tracer = run_ablate(5, True, tmp_path)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 8
    for fn in ("cli.cmd_ablate", "cli.cmd_train", "data.write_dataset",
               "data.read_dataset", "values.write_tensors", "data.collect_stitch",
               "evaluation.evaluate", "training.train_step"):
        assert tracer.calls(fn) > 0, fn
    layer = worker.per_layer(tracer, res)
    assert layer["cli.runs_attempted"] == 8 and layer["cli.runs_failed"] == 0
    assert layer["values.checkpoint_mb"] > 0 and layer["data.dataset_mb"] > 0
    # a second call at the same seed writes the same bytes
    again, _ = run_ablate(5, False, tmp_path)
    assert again["digest"] == res["digest"]
    assert len(again["latencies"]) == 2 * 4 * workloads.ABLATE_STEPS


def test_tracer_restores_every_patched_function():
    before = (MODS.maze.step, MODS.training.value, MODS.autodiff.Tape.matmul,
              MODS.cli.write_tensors)
    tracer = tracemod.install(tracemod.Tracer(), MODS)
    assert MODS.maze.step is not before[0]
    tracer.uninstall()
    assert (MODS.maze.step, MODS.training.value, MODS.autodiff.Tape.matmul,
            MODS.cli.write_tensors) == before


def test_same_seed_same_results_other_seed_other_data():
    a, _ = run_train("lan-hier-cont", 7, False)
    b, _ = run_train("lan-hier-cont", 7, False)
    assert a["quality"] == b["quality"]
    first, second = (small_setup("iqe-flat-stitch", seed, 2000)["dataset"]
                     .trajectories[0].states for seed in (7, 8))
    assert first.shape != second.shape or not np.array_equal(first, second)


def test_self_time_subtracts_children():
    t = tracemod.Tracer()
    t.spans = [[0, None, "outer", 0.0, 10.0], [1, 0, "a", 1.0, 3.0],
               [2, 0, "b", 4.0, 8.0], [3, 2, "c", 5.0, 6.0]]
    assert t.self_times() == [4.0, 2.0, 3.0, 1.0]


def test_fails_without_library_source(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(worker.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "lan-hier-cont", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench-out").exists()
