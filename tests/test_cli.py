"""Configuration handling, CLI verbs, run artifacts, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mazegcrl
from mazegcrl import cli, data, evaluation as E, maze, training as T
from mazegcrl.cli import (
    ConfigError,
    RunConfig,
    cmd_ablate,
    cmd_eval,
    cmd_gen_data,
    cmd_landscape,
    cmd_train,
    config_hash,
    config_lines,
    load_config,
    parse_config_lines,
    read_metrics_csv,
    read_runs_csv,
    read_summary_csv,
)
from mazegcrl.values import read_tensors, write_tensors
from tests import oracle_collect, oracle_csv

TINY = [
    "data.transitions=600",
    "train.steps=40",
    "train.batch_size=32",
    "run.metrics_every=10",
    "run.eval_trials=2",
]


def tiny_config(*extra) -> RunConfig:
    return load_config([], TINY + list(extra))


# ---- configuration -----------------------------------------------------------------


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config_lines(["train.gamm=0.99"])


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_lines(["just-some-text"])


def test_comments_and_blanks_ignored():
    cfg = parse_config_lines(["# comment", "", "train.gamma=0.95  # inline"])
    assert cfg.train.discount == 0.95


def test_config_hash_stable_under_reordering(tmp_path):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("train.gamma=0.95\narch.kind=IQE\n")
    b.write_text("arch.kind=IQE\ntrain.gamma=0.95\n")
    ha = config_hash(load_config([a], []))
    hb = config_hash(load_config([b], []))
    assert ha == hb


def test_config_hash_tracks_semantic_changes():
    base = config_hash(load_config([], ["train.gamma=0.99"]))
    changed = config_hash(load_config([], ["train.gamma=0.95"]))
    assert base != changed
    moved = config_hash(load_config([], ["train.gamma=0.99",
                                         "run.out_dir=elsewhere"]))
    assert moved == base


def test_value_ratio_default_follows_style():
    nav = load_config([], ["data.style=navigate"])
    assert nav.train.value_goal_ratios == data.VALUE_GOAL_RATIOS_DEFAULT
    sti = load_config([], ["data.style=stitch"])
    assert sti.train.value_goal_ratios == data.VALUE_GOAL_RATIOS_STITCH
    forced = load_config([], ["data.style=stitch",
                              "train.value_goal_ratios=0.2,0,0.5,0.3"])
    assert forced.train.value_goal_ratios == (0.2, 0.0, 0.5, 0.3)


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        load_config([], ["train.gamma=high"])
    with pytest.raises(ConfigError):
        load_config([], ["env.layout=tiny"])
    with pytest.raises(ConfigError, match="bad value for 'train.hierarchical': "
                                          "expected true/false, got 'yes'"):
        load_config([], ["train.hierarchical=yes"])


@pytest.mark.parametrize("setting", [
    "train.lr=nan", "train.lr=inf",
    "train.continuity_weight=nan", "train.continuity_weight=inf",
    "train.high_temp=nan", "train.high_temp=inf",
    "train.low_temp=nan", "train.low_temp=inf",
    "data.noise=nan", "data.noise=inf", "data.noise=-0.5",
])
def test_non_finite_or_negative_values_rejected(setting):
    with pytest.raises(ConfigError, match=setting.split("=")[0].split(".")[1]):
        load_config([], [setting])


def test_bad_value_exits_2_before_writing(tmp_path):
    # both verbs once ran: gen-data wrote noiseless data under another hash,
    # train wrote a run directory and an abort checkpoint
    r = run_cli("gen-data", "--out", str(tmp_path / "x.dset"),
                "--set", "data.noise=nan")
    assert r.returncode == 2
    assert r.stderr.splitlines()[0].startswith("config: data.noise "), r.stderr
    r = run_cli("train", "--data", str(tmp_path / "x.dset"),
                "--out", str(tmp_path / "run"), "--set", "train.lr=nan")
    assert r.returncode == 2
    assert r.stderr.splitlines()[0].startswith("config: lr "), r.stderr
    assert list(tmp_path.iterdir()) == []


CONFIG_SETS = [
    [],
    TINY,
    ["train.gamma=0.95", "arch.kind=IQE", "grid.arch_kinds=",
     "grid.arch_kinds= MLP , LAN ,", "grid.seeds=4,5",
     "train.value_goal_ratios=0.1,0.2,0.3,0.4", "run.out_dir=elsewhere"],
    ["data.style=stitch", "train.hierarchical=false", "train.lr=1e-5",
     "grid.hierarchical=true,false", "arch.value_hidden=32,16,8",
     "grid.continuity_weights=0.1,1e308,-0.0", "grid.styles=", "train.steps=7"],
]


@pytest.mark.parametrize("sets", CONFIG_SETS,
                         ids=["defaults", "tiny", "emptied-tuple", "stitch"])
def test_config_lines_cover_every_key(sets):
    # every RunConfig/TrainConfig field but train and explicit has one key
    fields = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in ("train", "explicit")]
    fields += [f"train.{f.name}" for f in dataclasses.fields(T.TrainConfig)]
    assert sorted(cli._KEYS.values()) == sorted(fields)
    config = load_config([], sets)
    lines = config_lines(config)
    assert [line.split("=", 1)[0] for line in lines] == sorted(oracle_csv._KEYS)
    assert lines == oracle_csv.config_lines(config)
    # the canonical lines read back to the same config, by both key tables
    again = parse_config_lines(lines)
    reference = RunConfig()
    for line in lines:
        key, value = line.split("=", 1)
        oracle_csv._KEYS[key][1](reference, value)
    for back in (again, reference):
        back.explicit = config.explicit
        assert back == config
        assert config_hash(back) == config_hash(config)


# ---- gen-data -------------------------------------------------------------------------


def test_gen_data_deterministic_bytes(tmp_path):
    cfg = tiny_config()
    p1, p2 = tmp_path / "a.dset", tmp_path / "b.dset"
    cmd_gen_data(cfg, p1)
    cmd_gen_data(tiny_config(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_data_stitch_manifest_records_span(tmp_path):
    cfg = tiny_config("data.style=stitch", "data.segment_len=4")
    path = tmp_path / "stitch.dset"
    cmd_gen_data(cfg, path)
    manifest = json.loads((tmp_path / "stitch.dset.manifest.json").read_text())
    assert manifest["max_bfs_span"] <= 4
    assert manifest["segment_len"] == 4


def _brute_force_coverage(spec, dataset):
    """Span and task coverage of each trajectory, split from states by lengths."""
    bounds = np.cumsum(dataset.lengths + 1)[:-1]
    cell_sets = []
    for states in np.split(dataset.states, bounds):
        cell_sets.append({(int(np.floor(y / spec.cell_size)),
                           int(np.floor(x / spec.cell_size))) for x, y in states})
    span = max(max((int(oracle_collect.distance_field(spec, a)[b])
                    for a in cells for b in cells), default=0)
               for cells in cell_sets)
    covered = [any({maze.cell_of(spec, t.start), maze.cell_of(spec, t.goal)} <= cells
                   for cells in cell_sets) for t in spec.tasks]
    return span, covered


@pytest.mark.parametrize("extra", [
    ("env.layout=giant", "data.style=stitch", "data.transitions=3000",
     "data.segment_len=8"),
    ("env.layout=medium", "data.style=navigate", "data.transitions=1500")])
def test_gen_data_manifest_walk_equals_brute_force(tmp_path, extra):
    cfg = tiny_config(*extra)
    path = tmp_path / "walk.dset"
    cmd_gen_data(cfg, path)
    manifest = json.loads((tmp_path / "walk.dset.manifest.json").read_text())
    spec = maze.builtin_layout(cfg.layout)
    ds = data.read_dataset(path)
    span, covered = _brute_force_coverage(spec, ds)
    assert manifest["tasks_covered_by_single_trajectory"] == covered
    if cfg.style == "stitch":
        assert manifest["max_bfs_span"] == span
    else:
        assert "max_bfs_span" not in manifest and any(covered)
    # the benchmark's trajectory views: slices of the one store, in order
    views = ds.trajectories
    assert [len(v.actions) for v in views] == ds.lengths.tolist()
    for v in views:
        assert np.shares_memory(v.states, ds.states)
        assert np.shares_memory(v.actions, ds.actions)
    assert np.array_equal(np.concatenate([v.states for v in views]), ds.states)
    assert np.array_equal(np.concatenate([v.actions for v in views]), ds.actions)


@pytest.mark.parametrize("verb", ["gen-data", "train"])
def test_unknown_dtype_exits_2_before_writing(tmp_path, verb):
    args = ["--data", str(tmp_path / "x.dset")] if verb == "train" else []
    r = run_cli(verb, *args, "--out", str(tmp_path / "out"),
                "--set", "train.dtype=float16")
    assert r.returncode == 2
    assert r.stderr.splitlines()[0] == \
        "config: dtype must be float32 or float64, got 'float16'", r.stderr
    assert list(tmp_path.iterdir()) == []


def test_gen_data_giant_stitch_flags_uncovered_task(tmp_path):
    cfg = tiny_config("env.layout=giant", "data.style=stitch",
                      "data.transitions=20000", "data.segment_len=8")
    path = tmp_path / "giant.dset"
    cmd_gen_data(cfg, path)
    manifest = json.loads((tmp_path / "giant.dset.manifest.json").read_text())
    assert manifest["tasks_covered_by_single_trajectory"][4] is False


# ---- train ---------------------------------------------------------------------------


def _gen_and_train(tmp_path, *extra):
    cfg = tiny_config(*extra)
    tmp_path.mkdir(parents=True, exist_ok=True)
    dset = tmp_path / "d.dset"
    cmd_gen_data(cfg, dset)
    cfg.out_dir = str(tmp_path / "run")
    manifest = cmd_train(cfg, data.read_dataset(dset))
    return cfg, manifest


def test_zero_steps_checkpoint_is_initialization(tmp_path):
    cfg, _ = _gen_and_train(tmp_path, "train.steps=0")
    spec = maze.builtin_layout(cfg.layout)
    fresh = T.init_learner(cfg.train, spec)
    saved = read_tensors(tmp_path / "run" / "ckpt_00000000.txt")
    own = T.state_tree(fresh)
    assert set(saved) == set(own)
    for name in own:
        assert np.array_equal(saved[name], own[name]), name


def test_identical_runs_produce_identical_bytes(tmp_path):
    cfg1, _ = _gen_and_train(tmp_path / "one")
    cfg2, _ = _gen_and_train(tmp_path / "two")
    for fname in ("metrics.csv", "report.csv", "ckpt_00000040.txt"):
        b1 = (tmp_path / "one" / "run" / fname).read_bytes()
        b2 = (tmp_path / "two" / "run" / fname).read_bytes()
        assert b1 == b2, fname


def test_metrics_csv_round_trip(tmp_path):
    _gen_and_train(tmp_path)
    text = (tmp_path / "run" / "metrics.csv").read_text()
    rows = read_metrics_csv(text)
    assert [r["step"] for r in rows] == [10, 20, 30, 40]
    assert all(np.isfinite(r["td_loss"]) for r in rows)


def test_train_abort_keeps_a_loadable_checkpoint_and_parseable_logs(
        tmp_path, monkeypatch, capsys):
    cfg = tiny_config()
    cmd_gen_data(cfg, tmp_path / "d.dset")
    real, calls = T.train_step, []

    def third_call_fails(state, batch):
        calls.append(state.step)
        if len(calls) == 3:
            raise T.GraphError("value_loss: non-finite at training step 3")
        return real(state, batch)

    monkeypatch.setattr(T, "train_step", third_call_fails)
    sets = [arg for s in TINY + ["run.metrics_every=1", "run.eval_every=1"]
            for arg in ("--set", s)]
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(tmp_path / "d.dset"),
                     "--out", str(out), *sets]) == 2
    assert capsys.readouterr().err.splitlines()[0] == \
        "numeric: value_loss: non-finite at training step 3"
    assert calls == [0, 1, 2]
    saved = read_tensors(out / "ckpt_abort_00000002.txt")
    state = T.load_state_tree(
        T.init_learner(cfg.train, maze.builtin_layout(cfg.layout)), saved)
    assert state.step == 2
    assert [r["step"] for r in read_metrics_csv((out / "metrics.csv").read_text())] \
        == [1, 2]
    reports = E.report_from_csv((out / "report.csv").read_text())
    assert [r.checkpoint_step for r in reports] == [1, 2]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"] == "value_loss: non-finite at training step 3"
    assert "final_eval" not in manifest


def test_train_rejects_mismatched_dataset(tmp_path):
    bad = data.Dataset(np.zeros((3, 4)), np.zeros((2, 2)), [2])
    path = tmp_path / "bad.dset"
    data.write_dataset(bad, path)
    cfg = tiny_config()
    cfg.out_dir = str(tmp_path / "run")
    from mazegcrl.autodiff import GraphError

    with pytest.raises(GraphError, match="dims"):
        cmd_train(cfg, data.read_dataset(path))


# ---- eval ----------------------------------------------------------------------------


def test_eval_fresh_checkpoint_near_zero_success(tmp_path):
    cfg, _ = _gen_and_train(tmp_path, "train.steps=0")
    report = cmd_eval(cfg, tmp_path / "run" / "ckpt_00000000.txt",
                      tmp_path / "report.csv")
    assert report.aggregate_success <= 0.2
    again = cmd_eval(cfg, tmp_path / "run" / "ckpt_00000000.txt",
                     tmp_path / "report2.csv")
    assert (tmp_path / "report.csv").read_bytes() == \
        (tmp_path / "report2.csv").read_bytes()
    parsed = E.report_from_csv((tmp_path / "report.csv").read_text())
    assert parsed[0].task_success == report.task_success


def test_eval_of_final_float32_checkpoint_reproduces_last_report_rows(tmp_path):
    cfg, _ = _gen_and_train(tmp_path)
    assert cfg.train.dtype == "float32"
    cmd_eval(cfg, tmp_path / "run" / "ckpt_00000040.txt", tmp_path / "report.csv")
    run_rows = (tmp_path / "run" / "report.csv").read_text().splitlines()
    eval_rows = (tmp_path / "report.csv").read_text().splitlines()
    assert eval_rows[0] == run_rows[0]
    assert eval_rows[1:] == [row for row in run_rows if row.startswith("40,")]
    assert len(eval_rows) == 1 + len(maze.builtin_layout(cfg.layout).tasks)


def test_float64_checkpoint_loads_into_float32_learner(tmp_path):
    cfg, _ = _gen_and_train(tmp_path, "train.dtype=float64")
    ckpt = tmp_path / "run" / "ckpt_00000040.txt"
    saved = read_tensors(ckpt)
    spec = maze.builtin_layout(cfg.layout)
    state = T.load_state_tree(T.init_learner(tiny_config().train, spec), saved)
    own = T.state_tree(state)
    assert own["value/phi_s.w0"].dtype == np.float32
    for name, arr in own.items():
        assert np.array_equal(arr, saved[name].astype(arr.dtype)), name
    report = cmd_eval(tiny_config(), ckpt, tmp_path / "report.csv")
    assert report.checkpoint_step == 40
    # finite in float64, beyond float32's range: refused, not loaded as inf
    saved["low/log_std"][0] = 1e39
    with pytest.raises(T.GraphError, match="tensor 'low/log_std' is non-finite"):
        T.load_state_tree(T.init_learner(tiny_config().train, spec), saved)
    T.load_state_tree(T.init_learner(cfg.train, spec), saved)


def test_eval_rejects_incompatible_checkpoint(tmp_path):
    cfg, _ = _gen_and_train(tmp_path, "train.steps=0")
    other = tiny_config("arch.kind=MRN")
    from mazegcrl.autodiff import GraphError

    with pytest.raises(GraphError):
        cmd_eval(other, tmp_path / "run" / "ckpt_00000000.txt",
                 tmp_path / "r.csv")


# ---- ablate --------------------------------------------------------------------------


def test_ablate_single_cell_matches_train(tmp_path):
    cfg = tiny_config("grid.arch_kinds=LAN", "grid.hierarchical=false",
                      "grid.continuity_weights=0", "grid.styles=navigate",
                      "grid.seeds=3")
    rows = cmd_ablate(cfg, tmp_path / "grid")
    assert len(rows) == 1
    # the same configuration trained directly gives the same numbers
    direct = tiny_config("arch.kind=LAN", "train.hierarchical=false",
                         "train.continuity_weight=0", "train.seed=3")
    direct.out_dir = str(tmp_path / "direct")
    manifest = cmd_train(direct, data.read_dataset(
        tmp_path / "grid" / "dataset_medium_navigate.dset"))
    assert rows[0]["success_mean"] == manifest["final_eval"]["success"]
    assert rows[0]["success_std"] == 0.0
    # and writes the same run files, byte for byte
    cell = tmp_path / "grid" / "LAN_flat_wc0_navigate_s3"
    ckpts = sorted(p.name for p in cell.glob("ckpt_*.txt"))
    assert ckpts == sorted(p.name for p in (tmp_path / "direct").glob("ckpt_*.txt"))
    assert ckpts
    for fname in ["metrics.csv", "report.csv"] + ckpts:
        assert (cell / fname).read_bytes() == \
            (tmp_path / "direct" / fname).read_bytes(), fname


def test_ablate_five_archs_three_seeds(tmp_path, monkeypatch):
    reads = []
    read_dataset = data.read_dataset
    monkeypatch.setattr(data, "read_dataset",
                        lambda path: reads.append(path) or read_dataset(path))
    cfg = tiny_config("grid.arch_kinds=MLP,LAN,IQE,MRN,Hilbert",
                      "grid.hierarchical=false", "grid.continuity_weights=0",
                      "grid.styles=navigate", "grid.seeds=0,1,2",
                      "train.steps=12", "data.transitions=400",
                      "run.eval_trials=1", "run.metrics_every=6")
    rows = cmd_ablate(cfg, tmp_path / "grid")
    assert len(rows) == 5
    runs = read_runs_csv((tmp_path / "grid" / "runs.csv").read_text())
    assert len(runs) == 15
    summary = read_summary_csv((tmp_path / "grid" / "summary.csv").read_text())
    assert len(summary) == 5
    assert all(r["n_ok"] == 3 for r in summary)
    # the grid's one dataset is read back once, not once per run
    assert reads == [tmp_path / "grid" / "dataset_medium_navigate.dset"]


@pytest.mark.parametrize("key", ["grid.styles", "grid.arch_kinds"])
def test_ablate_empty_grid_exits_2_naming_the_key(tmp_path, key):
    # the tuples of names are the ones a --set line can empty
    r = run_cli("ablate", "--out", str(tmp_path / "grid"), "--set", f"{key}=")
    assert r.returncode == 2
    assert r.stderr.splitlines()[0] == \
        f"config: {key} is empty: the grid has no runs", r.stderr
    assert not (tmp_path / "grid" / "runs.csv").exists()


@pytest.mark.parametrize("key, value, name", [
    ("grid.continuity_weights", "1,1.0000001", "1"),  # both format as wc1
    ("grid.arch_kinds", "LAN,LAN", "LAN"),
    ("grid.seeds", "0,0", "0"),
])
def test_ablate_grid_entries_sharing_a_run_directory_exit_2(tmp_path, key, value, name):
    # the second run once overwrote the first one's files; runs.csv kept both.
    # A tiny grid keeps the run short should the check ever be lost.
    sets = TINY + ["grid.arch_kinds=MLP", "grid.seeds=0", "grid.styles=navigate",
                   f"{key}={value}"]
    r = run_cli("ablate", "--out", str(tmp_path / "grid"),
                *[arg for s in sets for arg in ("--set", s)])
    assert r.returncode == 2
    assert r.stderr.splitlines()[0] == (f"config: {key} repeats the name '{name}': "
                                        "two runs would share a directory"), r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, attr", [("grid.seeds", "grid_seeds"),
                                       ("grid.hierarchical", "grid_hierarchical"),
                                       ("grid.continuity_weights", "grid_continuity")])
def test_ablate_empty_grid_rejected_before_writing(tmp_path, key, attr):
    cfg = tiny_config()
    setattr(cfg, attr, ())
    with pytest.raises(ConfigError, match=f"^{key} is empty"):
        cmd_ablate(cfg, tmp_path / "grid")
    assert not (tmp_path / "grid").exists()


# ---- landscape ------------------------------------------------------------------------


def test_landscape_constant_bias_and_walls_absent(tmp_path):
    cfg, _ = _gen_and_train(tmp_path, "train.steps=0", "arch.kind=MLP",
                            "train.hierarchical=false")
    ckpt = tmp_path / "run" / "ckpt_00000000.txt"
    # rewrite the trunk to a constant: zero weights, bias -3
    tree = read_tensors(ckpt)
    for name in tree:
        if name.startswith("value/trunk"):
            tree[name] = np.zeros_like(tree[name])
    tree["value/trunk.b2"] = np.array([-3.0])
    write_tensors(tree, ckpt)
    out = tmp_path / "land.csv"
    cmd_landscape(cfg, ckpt, out, task=0)
    xs, ys, vals = E.landscape_from_csv(out.read_text())
    spec = maze.builtin_layout("medium")
    res = cfg.landscape_resolution
    assert len(vals) == len(spec.free_cells()) * res * res
    assert (vals == -3.0).all()
    cols = np.floor(xs / spec.cell_size).astype(int)
    rows_ = np.floor(ys / spec.cell_size).astype(int)
    assert not spec.walls[rows_, cols].any()


def test_landscape_rejects_wall_goal(tmp_path):
    cfg, _ = _gen_and_train(tmp_path, "train.steps=0")
    ckpt = tmp_path / "run" / "ckpt_00000000.txt"
    with pytest.raises(maze.MazeError):
        cmd_landscape(cfg, ckpt, tmp_path / "x.csv", goal=(0.5, 0.5))


# ---- process-level behavior --------------------------------------------------------------


def run_python(*args):
    # the child imports the package from where this process imported it
    root = str(Path(mazegcrl.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def run_cli(*args):
    return run_python("-m", "mazegcrl", *args)


def test_suite_imports_the_package_pythonpath_names(tmp_path):
    # a stub on PYTHONPATH must shadow this checkout's src, so the suite run
    # with PYTHONPATH naming another checkout's src tests that checkout
    stub = tmp_path / "mazegcrl" / "__init__.py"
    stub.parent.mkdir()
    mark = tmp_path / "imported"
    stub.write_text(f"open({str(mark)!r}, 'w').write(__file__)\n")
    r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "--collect-only", "tests/test_text_io.py"],
                       cwd=Path(__file__).resolve().parents[1], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                       timeout=120)
    assert mark.exists(), r.stdout + r.stderr
    assert mark.read_text() == str(stub)


def test_no_module_imports_scipy():
    # SciPy is a test-only dependency; a library import of it costs every
    # process about a second and 67 MB
    r = run_python("-c", """
import importlib, pkgutil, sys
import mazegcrl
names = [m.name for m in pkgutil.iter_modules(mazegcrl.__path__)]
for name in names:
    if name != "__main__":  # runs the CLI; it imports only mazegcrl.cli
        importlib.import_module("mazegcrl." + name)
print(",".join(sorted(names)))
print(",".join(sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))))
""")
    assert r.returncode == 0, r.stderr
    names, scipy_modules = r.stdout.split("\n")[:2]
    assert {"cli", "evaluation", "training", "values"} <= set(names.split(","))
    assert scipy_modules == ""


@pytest.mark.parametrize("module", ["autodiff", "cli", "data", "evaluation",
                                    "maze", "training", "values"])
def test_every_export_resolves(module):
    # a name deleted from a module but left in __all__ breaks import *
    exec(f"from mazegcrl.{module} import *", {})


@pytest.mark.parametrize("sets", [
    ["grid.continuity_weights=nan"],
    ["grid.continuity_weights=-1"],
    ["train.objective=bc", "train.hierarchical=false",
     "grid.hierarchical=false,true"],
    ["grid.arch_kinds=LAN,XYZ"],
], ids=["wc-nan", "wc-negative", "bc-hier-cell", "unknown-kind"])
def test_ablate_bad_grid_cell_exits_2_before_writing(tmp_path, sets):
    # each once wrote the grid dataset, failed its cells and exited 0
    args = [a for kv in sets for a in ("--set", kv)]
    r = run_cli("ablate", "--out", str(tmp_path / "grid"), *args)
    assert r.returncode == 2
    assert r.stderr.splitlines()[0].startswith("config: grid cell "), r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("goal", ["inf,1", "nan,1"])
def test_landscape_non_finite_goal_exits_2(tmp_path, goal):
    r = run_cli("landscape", "--ckpt", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "land.csv"), "--goal", goal)
    assert r.returncode == 2
    assert r.stderr.splitlines()[0] == f"config: --goal must be finite, got {goal}"
    assert "Traceback" not in r.stderr


def test_exit_code_and_category_on_unknown_key(tmp_path):
    r = run_cli("gen-data", "--out", str(tmp_path / "x.dset"),
                "--set", "nope.key=1")
    assert r.returncode == 2
    assert r.stderr.splitlines()[0].startswith("config: ")


def test_exit_code_on_missing_dataset(tmp_path):
    r = run_cli("train", "--data", str(tmp_path / "missing.dset"),
                "--out", str(tmp_path / "run"))
    assert r.returncode == 2
    category = r.stderr.splitlines()[0].split(":", 1)[0]
    assert category == "io"


def test_truncated_dataset_exits_2_naming_the_last_line(tmp_path):
    full = tmp_path / "full.dset"
    r = run_cli("gen-data", "--out", str(full), "--set", "data.transitions=2000")
    assert r.returncode == 0
    cut = tmp_path / "cut.dset"
    cut.write_bytes(full.read_bytes()[:2000])
    r = run_cli("train", "--data", str(cut), "--out", str(tmp_path / "run"))
    assert r.returncode == 2
    first = r.stderr.splitlines()[0]
    assert first.startswith("config: dataset ends at line "), r.stderr
    assert "Traceback" not in r.stderr


def test_short_dataset_row_exits_2_naming_the_line(tmp_path):
    # a one-number row is an error, not a state broadcast from one number
    bad = tmp_path / "short.dset"
    bad.write_text("GCRL-DSET v1 2 2 1\nT 1\n0.5 0.5\n0.1 0.1\n2.5\n")
    r = run_cli("train", "--data", str(bad), "--out", str(tmp_path / "run"))
    assert r.returncode == 2
    first = r.stderr.splitlines()[0]
    assert first == "config: line 5 has 1 numbers, expected 2", r.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, message", [
    ("GCRL-DSET v1 2 2 1\nT -1\n0.5 0.5\n",
     "config: expected trajectory marker at line 2"),
    ("GCRL-DSET v1 2 2 1\n" + "T 1\n0.5 0.5\n0.1 0.1\n2.5 2.5\n" * 2,
     "config: line 6 follows the last of the 1 trajectories the header "
     "declares"),
    ("GCRL-DSET v1 2 2 2\nT 1\n0.5 0.5\n0.1 0.1\n2.5 2.5\nT 0\n0.5 0.5\n",
     "config: expected trajectory marker at line 6"),
])
def test_bad_trajectory_count_exits_2_naming_the_line(tmp_path, capsys, text,
                                                      message):
    bad = tmp_path / "bad.dset"
    bad.write_text(text)
    assert cli.main(["train", "--data", str(bad),
                     "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "run").exists()


def test_truncated_checkpoint_exits_2_naming_the_last_line(tmp_path):
    _gen_and_train(tmp_path, "train.steps=0")
    ckpt = tmp_path / "run" / "ckpt_00000000.txt"
    cut = tmp_path / "cut.txt"
    cut.write_text(ckpt.read_text().split("\n")[0] + "\n")
    r = run_cli("eval", "--ckpt", str(cut), "--out", str(tmp_path / "e.csv"))
    assert r.returncode == 2
    first = r.stderr.splitlines()[0]
    assert first.startswith("config: tensor file ends at line 1, inside tensor "), r.stderr
    assert "Traceback" not in r.stderr


def test_non_finite_checkpoint_exits_2_naming_the_tensor(tmp_path):
    _gen_and_train(tmp_path, "train.steps=0")
    tree = read_tensors(tmp_path / "run" / "ckpt_00000000.txt")
    first, *_, last = tree
    tree[first][...] = np.nan
    tree[last][...] = np.inf
    bad = tmp_path / "nan.txt"
    write_tensors(tree, bad)
    message = f"numeric: checkpoint tensor '{first}' is non-finite"
    for verb, *extra in (("eval",), ("landscape", "--task", "0")):
        r = run_cli(verb, "--ckpt", str(bad), "--out", str(tmp_path / "o.csv"),
                    *extra)
        assert r.returncode == 2
        assert r.stderr.splitlines()[0] == message, r.stderr
        assert not (tmp_path / "o.csv").exists()


def test_cli_gen_data_succeeds(tmp_path):
    r = run_cli("gen-data", "--out", str(tmp_path / "ok.dset"),
                "--set", "data.transitions=500")
    assert r.returncode == 0
    assert "wrote" in r.stdout
