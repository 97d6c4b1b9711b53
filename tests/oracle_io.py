"""Reference text writers for datasets and checkpoints, one float at a time,
and the reference dataset reader.

Test-only copies of the text ``data.write_dataset`` and
``values.write_tensors`` write, as it was formatted before each trajectory and
each tensor took one call. The library's files must equal these by bytes.
``dataset_from_text`` is the reader as it was before it streamed its input: it
splits the whole text into lines first. It differs only in rejecting a ``T 0``
marker at its own line. The library must accept what it
accepts, with equal arrays, and reject the rest with the same message; an
entry that is not a number is named by its line, converted here one at a time.
"""

from itertools import chain

import numpy as np

from mazegcrl.data import Dataset
from tests.oracle_collect import dataset_of


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in row)


def dataset_to_text(dataset: Dataset) -> str:
    lines = [f"GCRL-DSET v1 {dataset.state_dim} {dataset.action_dim} "
             f"{len(dataset.lengths)}"]
    s0 = a0 = 0
    for n in dataset.lengths.tolist():
        lines.append(f"T {n}")
        for t in range(n):
            lines.append(_fmt_row(dataset.states[s0 + t]))
            lines.append(_fmt_row(dataset.actions[a0 + t]))
        lines.append(_fmt_row(dataset.states[s0 + n]))
        s0, a0 = s0 + n + 1, a0 + n
    return "\n".join(lines) + "\n"


def tensors_to_text(tree: dict[str, np.ndarray]) -> str:
    lines = []
    for name in tree:
        arr = np.asarray(tree[name], dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"tensor '{name}' has more than 2 dimensions")
        lines.append(" ".join([name] + [str(d) for d in arr.shape]))
        rows = arr.reshape(1, -1) if arr.ndim < 2 else arr
        for row in rows:
            lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def dataset_from_text(text: str) -> Dataset:
    lines = text.strip().split("\n")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "GCRL-DSET" or head[1] != "v1":
        raise ValueError("bad dataset header")
    try:
        state_dim, action_dim, n_traj = (int(x) for x in head[2:])
    except ValueError as err:
        raise ValueError(f"bad dataset header at line 1: {err}") from None
    if min(state_dim, action_dim, n_traj) < 1:
        raise ValueError(f"bad dataset header at line 1: dims and trajectory "
                         f"count must be at least 1, got {' '.join(head[2:])}")
    pos = 1
    trajectories = []
    for i in range(n_traj):
        if pos >= len(lines):
            raise ValueError(f"dataset ends at line {len(lines)}, before "
                             f"trajectory {i} of {n_traj}")
        marker = lines[pos].split()
        if (len(marker) != 2 or marker[0] != "T" or not marker[1].isdecimal()
                or int(marker[1]) == 0):
            raise ValueError(f"expected trajectory marker at line {pos + 1}")
        length = int(marker[1])
        pos += 1
        end = pos + 2 * length + 1
        if end > len(lines):
            raise ValueError(f"dataset ends at line {len(lines)}, inside "
                             f"trajectory {i} (marker at line {pos})")
        rows = [line.split() for line in lines[pos:end]]
        widths = [state_dim, action_dim] * length + [state_dim]
        if list(map(len, rows)) != widths:
            k = next(k for k, (row, w) in enumerate(zip(rows, widths))
                     if len(row) != w)
            raise ValueError(f"line {pos + k + 1} has {len(rows[k])} numbers, "
                             f"expected {widths[k]}")
        flat = []
        for k, row in enumerate(rows):
            for x in row:
                try:
                    flat.append(float(x))
                except ValueError as err:
                    raise ValueError(f"line {pos + k + 1}: {err}") from None
        flat = np.array(flat)
        n_pairs = length * (state_dim + action_dim)
        pairs = flat[:n_pairs].reshape(length, state_dim + action_dim)
        states = np.vstack((pairs[:, :state_dim], flat[n_pairs:]))
        trajectories.append(Dataset(states, pairs[:, state_dim:], [length]))
        pos = end
    if pos < len(lines):
        raise ValueError(f"line {pos + 1} follows the last of the {n_traj} "
                         f"trajectories the header declares")
    return dataset_of(trajectories)
