"""Byte probe: hash every output of a fixed set of CLI runs.

Run from the root of a checkout::

    python3 probe/bytes.py > bytes.txt

In one temporary directory it runs, through ``cli.main``: ``gen-data`` for
both styles (2k transitions on medium) and for giant/stitch (3k transitions,
whose manifest has a long span and tasks no one trajectory covers); at full
size and data seed 1, ``gen-data`` of each benchmark workload's dataset
(100k medium/navigate, 100k medium/stitch, 50k giant/stitch) and of 100k
large/navigate; ``train`` LAN hier wc=1 on navigate and IQE flat on stitch,
each in float32 and float64, with eval, checkpoint and metrics cadences;
``eval`` and ``landscape`` on each final checkpoint; a short LAN ``train``
on the giant/stitch data with an eval cadence, and ``eval`` of its final
checkpoint, whose Kendall columns read the giant tasks' reference paths; and
a 2x2 ``ablate`` grid (MLP, LAN x navigate, stitch). It prints
``sha256  relative-path`` for every file written and for each command's
stdout (``<label>.stdout``), with the temporary directory's path and the
train manifests' timestamps removed.

It then runs a fixed set of inputs the CLI must refuse (``refusals``), on
those files or on edited copies of them, and prints for each one line
``refuse <label>: exit <status>; <first stderr line>; leaves [<files>]``,
the files being those the command left behind.
``diff`` of two checkouts' output is the check that a change kept every
output byte and every refusal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mazegcrl import cli, data as datamod, values  # noqa: E402

STEPS = 40
DATA = ["data.transitions=2000"]
RUN = [f"train.steps={STEPS}", "train.batch_size=64", "run.eval_every=20",
       "run.checkpoint_every=20", "run.metrics_every=7", "run.eval_trials=2"]
TRAINS = {
    "lan-hier-wc1": ("navigate", ["arch.kind=LAN", "train.hierarchical=true",
                                  "train.continuity_weight=1"]),
    "iqe-flat": ("stitch", ["arch.kind=IQE", "train.hierarchical=false",
                            "train.continuity_weight=0"]),
}
ABLATE = DATA + ["train.steps=20", "run.eval_trials=2",
                 "grid.arch_kinds=MLP,LAN", "grid.styles=navigate,stitch",
                 "grid.seeds=0"]
GIANT_STITCH = ["data.transitions=3000", "env.layout=giant", "data.style=stitch"]
GIANT_STEPS = 10
GIANT_RUN = GIANT_STITCH + ["arch.kind=LAN", f"train.steps={GIANT_STEPS}",
                            "train.batch_size=64", "run.eval_every=5",
                            "run.eval_trials=2"]
FULL_SIZE = {  # label -> the sets of a full-size dataset, data seed 1
    "medium-navigate-100k": ["env.layout=medium", "data.style=navigate"],
    "medium-stitch-100k": ["env.layout=medium", "data.style=stitch"],
    "giant-stitch-50k": ["env.layout=giant", "data.style=stitch",
                         "data.transitions=50000"],
    "large-navigate-100k": ["env.layout=large", "data.style=navigate"],
}
REFUSE_RUN = ["train.steps=2", "run.eval_trials=1"]
LAN_RUN = RUN + TRAINS["lan-hier-wc1"][1]
TIMESTAMP = re.compile(r'^ *"(started|finished)": .*\n', re.M)


def _sets(lines: list[str]) -> list[str]:
    return [arg for line in lines for arg in ("--set", line)]


def commands(tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, in run order."""
    cmds = [(f"gen-data-{style}",
             ["gen-data", "--out", str(tmp / "data" / f"{style}.dset"),
              *_sets(DATA + [f"data.style={style}"])])
            for style in ("navigate", "stitch")]
    cmds.append(("gen-data-giant-stitch",
                 ["gen-data", "--out", str(tmp / "data" / "giant-stitch.dset"),
                  *_sets(GIANT_STITCH)]))
    cmds += [(f"gen-data-{label}",
              ["gen-data", "--out", str(tmp / "data" / f"{label}.dset"),
               *_sets(lines + ["data.seed=1"])])
             for label, lines in FULL_SIZE.items()]
    for name, (style, lines) in TRAINS.items():
        for dtype in ("float32", "float64"):
            run = f"{name}-{dtype}"
            sets = _sets(RUN + lines + [f"data.style={style}",
                                        f"train.dtype={dtype}"])
            ckpt = str(tmp / "train" / run / f"ckpt_{STEPS:08d}.txt")
            cmds += [
                (f"train-{run}", ["train", "--data",
                                  str(tmp / "data" / f"{style}.dset"),
                                  "--out", str(tmp / "train" / run), *sets]),
                (f"eval-{run}", ["eval", "--ckpt", ckpt, "--out",
                                 str(tmp / "eval" / f"{run}.csv"), *sets]),
                (f"landscape-{run}", ["landscape", "--ckpt", ckpt,
                                      "--task", "0", "--out",
                                      str(tmp / "landscape" / f"{run}.csv"),
                                      *sets]),
            ]
    giant = tmp / "train" / "giant-stitch"
    cmds += [
        ("train-giant-stitch", ["train", "--data",
                                str(tmp / "data" / "giant-stitch.dset"),
                                "--out", str(giant), *_sets(GIANT_RUN)]),
        ("eval-giant-stitch", ["eval", "--ckpt",
                               str(giant / f"ckpt_{GIANT_STEPS:08d}.txt"), "--out",
                               str(tmp / "eval" / "giant-stitch.csv"),
                               *_sets(GIANT_RUN)]),
    ]
    cmds.append(("ablate", ["ablate", "--out", str(tmp / "ablate"),
                            *_sets(ABLATE)]))
    return cmds


def refusals(tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each refusal, in run order; writes the edited inputs
    they read under ``tmp/refuse``, from the files ``commands`` left in ``tmp``."""
    ref, nav = tmp / "refuse", str(tmp / "data" / "navigate.dset")
    ref.mkdir()
    dataset = datamod.read_dataset(nav)
    dataset.actions[3] = float("nan")
    datamod.write_dataset(dataset, ref / "nan-action.dset")
    (ref / "bad-header.dset").write_text("GCRL-DSET v1 2 2 0\n")
    ckpt = tmp / "train" / "lan-hier-wc1-float32" / f"ckpt_{STEPS:08d}.txt"
    for label, name, value in (("nan-checkpoint", "value/phi_s.w0", float("nan")),
                               ("checkpoint-counter", "step", -4.0)):
        tree = values.read_tensors(ckpt)
        tree[name][...] = value
        values.write_tensors(tree, ref / f"{label}.txt")

    def train(label, data_path, lines):
        return (label, ["train", "--data", str(data_path), "--out",
                        str(ref / label), *_sets(REFUSE_RUN + lines)])

    def evaluate(label, ckpt_path, lines):
        return (label, ["eval", "--ckpt", str(ckpt_path), "--out",
                        str(ref / f"{label}.csv"), *_sets(LAN_RUN + lines)])

    return [
        ("unknown-key", ["gen-data", "--out", str(ref / "unknown-key.dset"),
                         *_sets(["data.no_such_key=1"])]),
        train("negative-seed", nav, ["train.seed=-1"]),
        train("nan-goal-ratio", nav, ["train.value_goal_ratios=nan,0,0,1"]),
        train("nan-action", ref / "nan-action.dset", []),
        train("other-layout", tmp / "data" / "giant-stitch.dset", []),
        train("bad-header", ref / "bad-header.dset", []),
        evaluate("nan-checkpoint", ref / "nan-checkpoint.txt", []),
        evaluate("checkpoint-shape", ckpt, ["arch.latent_dim=32"]),
        evaluate("checkpoint-counter", ref / "checkpoint-counter.txt", []),
    ]


def _files(tmp: Path) -> set[str]:
    return {p.relative_to(tmp).as_posix() for p in tmp.rglob("*") if p.is_file()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for sub in ("data", "eval", "landscape"):
            (tmp / sub).mkdir()
        lines = []
        for label, argv in commands(tmp):
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                status = cli.main(argv)
            if status != 0:
                print(f"{label} exited {status}: {err.getvalue()}",
                      file=sys.stderr)
                return 1
            text = out.getvalue().replace(name, "<tmp>")
            lines.append(f"{_sha(text.encode())}  {label}.stdout")
        for path in sorted(p for p in tmp.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = TIMESTAMP.sub("", data.decode()).encode()
            lines.append(f"{_sha(data)}  {path.relative_to(tmp).as_posix()}")
        for label, argv in refusals(tmp):
            before, err = _files(tmp), io.StringIO()
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(err)):
                status = cli.main(argv)
            first = err.getvalue().replace(name, "<tmp>").split("\n")[0]
            left = sorted(_files(tmp) - before)
            lines.append(f"refuse {label}: exit {status}; {first}; leaves {left}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
