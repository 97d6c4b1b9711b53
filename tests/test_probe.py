"""The quality probe script, on a few steps of one config."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "probe" / "run.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("probe_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
