"""In-memory tracer that wraps the library's public functions from outside.

Each wrapper is installed where callers look the function up: a module
attribute that other modules reach as ``module.name`` is patched on that
module, a name imported with ``from x import name`` is patched on every
importing module, and methods are patched on their class. Patching only the
defining module would count nothing for callers holding their own reference.

Every wrapped call is aggregated as (count, summed seconds) under the phase
it runs in: the innermost open ``train_step``, ``evaluate`` or ``collect``
call, else ``other``. Coarse calls also become spans with a parent id, kept
in memory and written out by ``write_spans``. Targets that a version of the
library does not have are skipped, so the tracer reports zero for them
instead of failing.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

PHASES = {"training.train_step": "train_step", "evaluation.evaluate": "evaluate",
          "data.collect_navigate": "collect", "data.collect_stitch": "collect"}


def _matmul_cost(m: int, k: int, n: int, itemsize: int) -> tuple[int, int]:
    """Computed flops and bytes moved by one (m, k) @ (k, n) product."""
    return 2 * m * k * n, (m * k + k * n + m * n) * itemsize


class Tracer:
    """Aggregates and spans for one traced process."""

    def __init__(self):
        self.count = defaultdict(int)      # (phase, name) -> calls
        self.seconds = defaultdict(float)  # (phase, name) -> summed seconds
        self.extra = defaultdict(float)    # (phase, quantity) -> summed amount
        self.spans = []                    # [id, parent, name, start, end]
        self._stack = []                   # open span ids
        self._phases = ["other"]
        self._saved = []                   # (owner, attribute, original)
        self.enabled = True

    # ---- recording -------------------------------------------------------------

    @property
    def phase(self) -> str:
        return self._phases[-1]

    def add(self, quantity: str, amount: float) -> None:
        self.extra[(self.phase, quantity)] += amount

    def _wrap(self, name: str, fn, span: bool, after=None):
        phase = PHASES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            key = (self.phase, name)
            if span:
                sid = len(self.spans)
                record = [sid, self._stack[-1] if self._stack else None, name,
                          0.0, 0.0]
                self.spans.append(record)
                self._stack.append(sid)
            if phase:
                self._phases.append(phase)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if phase:
                    self._phases.pop()
                if span:
                    self._stack.pop()
                    record[3], record[4] = t0, t1
                self.count[key] += 1
                self.seconds[key] += t1 - t0
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, span: bool = False,
              after=None) -> None:
        """Wrap ``owner.attr`` (module or class) if it exists."""
        original = owner.__dict__.get(attr)
        if original is None or not callable(original):
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, span, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ---- queries -----------------------------------------------------------------

    def calls(self, name: str, phase: str | None = None) -> int:
        return sum(n for (p, k), n in self.count.items()
                   if k == name and (phase is None or p == phase))

    def total_s(self, name: str, phase: str | None = None) -> float:
        return sum(s for (p, k), s in self.seconds.items()
                   if k == name and (phase is None or p == phase))

    def amount(self, quantity: str, phase: str | None = None) -> float:
        return sum(v for (p, k), v in self.extra.items()
                   if k == quantity and (phase is None or p == phase))

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s[4] - s[3] for s in self.spans]
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        own = self.self_times()
        with open(path, "w") as fh:
            for (sid, parent, name, start, end), self_s in zip(self.spans, own):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "self_s": self_s}) + "\n")


def _file_size(path_index: int, quantity: str, tracer: Tracer):
    def after(args, kwargs, out):
        path = args[path_index] if len(args) > path_index else kwargs.get("path")
        if path is not None and os.path.exists(path):
            tracer.add(quantity, os.path.getsize(path))
    return after


def install(tracer: Tracer, mods) -> Tracer:
    """Wrap every traced function of the library modules in ``mods``."""
    autodiff, maze, data = mods.autodiff, mods.maze, mods.data
    values, training, evaluation, cli = (mods.values, mods.training,
                                         mods.evaluation, mods.cli)
    t = tracer

    # coarse calls: spans
    t.patch(cli, "cmd_ablate", "cli.cmd_ablate", span=True)
    t.patch(cli, "cmd_train", "cli.cmd_train", span=True)
    t.patch(evaluation, "evaluate", "evaluation.evaluate", span=True)
    t.patch(training, "train_step", "training.train_step", span=True)
    t.patch(autodiff.Tape, "backward", "autodiff.Tape.backward", span=True)
    for fn in ("collect_navigate", "collect_stitch"):
        t.patch(data, fn, f"data.{fn}", span=True)
    t.patch(data, "write_dataset", "data.write_dataset", span=True,
            after=_file_size(1, "dataset_bytes", t))
    t.patch(data, "read_dataset", "data.read_dataset", span=True)
    for owner in (cli, values):
        t.patch(owner, "write_tensors", "values.write_tensors", span=True,
                after=_file_size(1, "checkpoint_bytes", t))

    # hot leaves: count plus summed time
    t.patch(maze, "step", "maze.step")
    t.patch(maze, "distance_field", "maze.distance_field")
    t.patch(data, "sample_batch", "data.sample_batch")
    t.patch(training, "adam_step", "training.adam_step")
    t.patch(training, "polyak_update", "training.polyak_update")
    t.patch(autodiff.Tape, "__init__", "autodiff.Tape")
    t.patch(autodiff.Tape, "matmul", "autodiff.Tape.matmul",
            after=lambda args, kwargs, out: _tape_matmul_cost(t, args, out))
    t.patch(autodiff.Tape, "gelu", "autodiff.Tape.gelu",
            after=lambda args, kwargs, out: _time_backward(t, out, "gelu_backward"))
    t.patch(autodiff, "gelu_value", "autodiff.gelu_value")
    if hasattr(autodiff, "LiftedMlp"):
        t.patch(autodiff.LiftedMlp, "__call__", "autodiff.LiftedMlp")
    for owner in (autodiff, values, training):
        t.patch(owner, "mlp_apply", "autodiff.mlp_apply",
                after=lambda args, kwargs, out: _plain_mlp_cost(t, args))
    if hasattr(values, "LiftedValue"):
        t.patch(values.LiftedValue, "__call__", "values.LiftedValue")
    for owner in (values, training, evaluation):
        t.patch(owner, "value", "values.value")
    t.patch(values, "interval_union_measure", "values.interval_union_measure")
    t.patch(evaluation, "act_batch", "evaluation.act_batch",
            after=lambda args, kwargs, out: t.add("act_rows", len(out)))
    t.patch(evaluation, "kendall_consistency", "evaluation.kendall_consistency")
    t.patch(evaluation, "temporal_alignment", "evaluation.temporal_alignment")
    return t


def _tape_matmul_cost(t: Tracer, args, out) -> None:
    """Forward product, plus the two backward products when it needs grad."""
    try:
        (m, k), n = args[1].value.shape, args[2].value.shape[1]
        flops, moved = _matmul_cost(m, k, n, out.value.itemsize)
        passes = 3 if out.needs_grad else 1
    except (AttributeError, IndexError, ValueError):
        return
    t.add("matmul_flops", passes * flops)
    t.add("matmul_bytes", passes * moved)


def _plain_mlp_cost(t: Tracer, args) -> None:
    try:
        params, x = args[0], args[1]
        rows = len(x)
        for w in params.weights:
            flops, moved = _matmul_cost(rows, w.shape[0], w.shape[1], w.itemsize)
            t.add("matmul_flops", flops)
            t.add("matmul_bytes", moved)
    except (AttributeError, IndexError, TypeError):
        return


def _time_backward(t: Tracer, node, quantity: str) -> None:
    """Time the backward closure a tape node carries, under the node's phase."""
    backward = getattr(node, "_backward", None)
    if backward is None:
        return
    clock = time.perf_counter

    def timed(g):
        t0 = clock()
        try:
            return backward(g)
        finally:
            t.add(quantity, clock() - t0)

    node._backward = timed
