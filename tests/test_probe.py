"""The quality probe on a few steps of one config, and the byte probe."""

import importlib.util
import json
import re
import time
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "probe"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"probe_{name}",
                                                  PROBE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def probe():
    return load("run")


def test_probe_reports_every_task_at_every_checkpoint(probe, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert probe.main(["--steps", "10,20", "--seeds", "0,1",
                       "--set", "data.transitions=600", "--set", "run.eval_trials=1",
                       "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert list(result["configs"]) == list(probe.CONFIGS)
    cell = result["configs"]["iqe-flat-stitch"]
    assert cell["sets"][-2:] == ["data.transitions=600", "run.eval_trials=1"]
    assert sorted(cell["runs"]) == ["0", "1"]
    for run in cell["runs"].values():
        assert sorted(run) == ["10", "20"]
        for step in run.values():
            assert len(step["alignment"]) == len(step["success"]) == 5
    for step, mean in cell["mean"].items():
        tasks = [cell["runs"][s][step]["alignment"] for s in ("0", "1")]
        assert mean["alignment"] == pytest.approx(sum(map(sum, tasks)) / 10)
    capsys.readouterr()
    assert probe.main(["--table", str(out), str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 + 2 * len(probe.CONFIGS)
    assert rows[-2].startswith("| iqe-flat-stitch | 10 |")
    assert all(row.count("+0.000") == 2 for row in rows[2:])


@pytest.mark.parametrize("steps", ["10,25", "20,10", "0,10"])
def test_probe_rejects_steps_off_the_first_cadence(probe, steps):
    with pytest.raises(SystemExit):
        probe.main(["--steps", steps])


def test_byte_probe_prints_the_same_hashes_on_every_run(capsys, monkeypatch):
    bytes_probe = load("bytes")
    outputs = []
    for stamp in ("2001-01-01T00:00:00", "2002-02-02T02:02:02"):
        monkeypatch.setattr(time, "strftime", lambda fmt, stamp=stamp: stamp)
        assert bytes_probe.main() == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    paths = [line.split("  ")[1] for line in lines]
    labels = [label for label, _ in bytes_probe.commands(Path("tmp"))]
    assert paths[:len(labels)] == [f"{label}.stdout" for label in labels]
    runs = [f"{name}-{dtype}" for name in bytes_probe.TRAINS
            for dtype in ("float32", "float64")]
    for path in (["data/navigate.dset", "data/stitch.dset.manifest.json",
                  "data/giant-stitch.dset.manifest.json",
                  "ablate/runs.csv", "ablate/summary.csv",
                  "train/giant-stitch/report.csv", "eval/giant-stitch.csv"]
                 + [f"train/{run}/{name}" for run in runs
                    for name in ("metrics.csv", "report.csv", "manifest.json",
                                 f"ckpt_{bytes_probe.STEPS:08d}.txt")]
                 + [f"{verb}/{run}.csv" for run in runs
                    for verb in ("eval", "landscape")]):
        assert path in paths


def test_memory_probe_prints_every_call_and_the_grid_rss(capsys):
    mem = load("mem")
    assert mem.main(["--scale", "0.01"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "call", "peak_mb", "retained_mb",
                                "store_mb", "store_b/t", "file_mb", "wall_s"]
    n_layouts = len(mem.maze.LAYOUT_NAMES)
    rows = [line.split() for line in lines[1:-1 - n_layouts]]
    assert [row[:2] for row in rows] == [
        [name, call] for name, (_, style, _) in mem.DATASETS.items()
        for call in (f"collect_{style}", "write_dataset", "read_dataset")]
    for name, call, peak, kept, store, per, size, wall in rows:
        assert 0.0 <= float(kept) <= float(peak), (name, call)
        assert 0.0 < float(store) < float(size)
        # a state and an action of float64 and two int32 positions, at least
        assert float(per) >= 40.0, (name, call)
        assert float(wall) > 0.0 if call.startswith("collect_") else wall == "-"
    for line, name in zip(lines[-1 - n_layouts:-1], mem.maze.LAYOUT_NAMES):
        assert re.fullmatch(rf"bfs tables {name}: int16 hop_table (\d+) B, "
                            rf"int16 next_hop_table \1 B", line), line
    assert re.fullmatch(r"ablate-giant grid job: ru_maxrss \d+\.\d MB", lines[-1])
