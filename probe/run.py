"""Quality probe: the neural-TD arm, trained through the train verb.

Run from the root of a checkout::

    python3 probe/run.py --steps 4000,8000 --seeds 0,1,2 --out probe.json
    python3 probe/run.py --steps 4000,8000 --seeds 0,1,2 \\
        --set train.dtype=float64 --out probe64.json
    python3 probe/run.py --table probe64.json probe.json

Each config below trains once per seed with ``cli.cmd_train`` to the last
of ``--steps``, evaluating at every step listed, on the default dataset
(100k transitions, data seed 100) of its layout and style. ``--set`` lines
apply to every run after the config's own. The JSON output holds per-task
alignment and success at each checkpoint, and their means over seeds.
``--table A B`` prints the means of two outputs side by side with B - A.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mazegcrl import cli, data as datamod, evaluation  # noqa: E402

CONFIGS = {
    "lan-flat-wc0": ["env.layout=medium", "data.style=navigate", "arch.kind=LAN",
                     "train.hierarchical=false", "train.continuity_weight=0"],
    "lan-hier-wc1": ["env.layout=medium", "data.style=navigate", "arch.kind=LAN",
                     "train.hierarchical=true", "train.continuity_weight=1"],
    "iqe-flat-stitch": ["env.layout=medium", "data.style=stitch", "arch.kind=IQE",
                        "train.hierarchical=false", "train.continuity_weight=0"],
}


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def run_config(lines: list[str], steps: list[int], seeds: list[int], work: Path,
               datasets: dict) -> dict:
    runs = {}
    for seed in seeds:
        config = cli.load_config([], lines + [
            f"train.seed={seed}", f"train.steps={steps[-1]}",
            f"run.eval_every={steps[0]}", f"run.out_dir={work / str(seed)}"])
        key = (config.layout, config.style, config.transitions, config.data_seed)
        if key not in datasets:
            path = work.parent / f"{'_'.join(map(str, key))}.dset"
            cli.cmd_gen_data(config, path)
            datasets[key] = datamod.read_dataset(path)
        cli.cmd_train(config, datasets[key])
        reports = evaluation.report_from_csv(
            (Path(config.out_dir) / "report.csv").read_text())
        by_step = {r.checkpoint_step: r for r in reports}
        runs[seed] = {step: {"alignment": by_step[step].task_alignment,
                             "success": by_step[step].task_success}
                      for step in steps}
    mean = {step: {k: sum(sum(runs[s][step][k]) / len(runs[s][step][k])
                          for s in seeds) / len(seeds)
                   for k in ("alignment", "success")}
            for step in steps}
    return {"sets": lines, "runs": runs, "mean": mean}


def table(base: dict, other: dict) -> str:
    out = ["| config | step | alignment A | alignment B | B - A "
           "| success A | success B | B - A |", "|---|---|---|---|---|---|---|---|"]
    for name, result in base["configs"].items():
        for step, a in result["mean"].items():
            b = other["configs"][name]["mean"][step]
            out.append(f"| {name} | {step} "
                       + " ".join(f"| {a[k]:.3f} | {b[k]:.3f} | {b[k] - a[k]:+.3f}"
                                  for k in ("alignment", "success")) + " |")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=_ints, default=[4000, 8000],
                        help="checkpoint steps, ascending, each a multiple of the first")
    parser.add_argument("--seeds", type=_ints, default=[0, 1, 2])
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="config override for every run (repeatable)")
    parser.add_argument("--out", default="probe.json", help="JSON output path")
    parser.add_argument("--table", nargs=2, metavar=("A", "B"),
                        help="compare two outputs instead of running")
    args = parser.parse_args(argv)
    if args.table:
        base, other = (json.loads(Path(p).read_text()) for p in args.table)
        print(table(base, other))
        return 0
    steps = args.steps
    if steps[0] < 1 or steps != sorted(set(steps)) or any(s % steps[0] for s in steps):
        parser.error("--steps must be positive and ascend, each a multiple of the first")
    result = {"steps": steps, "seeds": args.seeds, "set": args.set, "configs": {}}
    datasets: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            work = Path(tmp) / name
            result["configs"][name] = run_config(CONFIGS[name] + args.set, steps,
                                                 args.seeds, work, datasets)
            for step, mean in result["configs"][name]["mean"].items():
                print(f"{name} step {step}: alignment {mean['alignment']:.4f} "
                      f"success {mean['success']:.4f}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
