"""Reference text writers for datasets and checkpoints, one float at a time.

Test-only copy of ``data.dataset_to_text`` (with ``_fmt_row``) and
``values.tensors_to_text`` as they were before each trajectory and each
tensor was formatted in one call. The library's text must equal these by
bytes.
"""

import numpy as np

from mazegcrl.data import Dataset


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in row)


def dataset_to_text(dataset: Dataset) -> str:
    lines = [f"GCRL-DSET v1 {dataset.state_dim} {dataset.action_dim} "
             f"{len(dataset.trajectories)}"]
    for traj in dataset.trajectories:
        lines.append(f"T {traj.length}")
        for t in range(traj.length):
            lines.append(_fmt_row(traj.states[t]))
            lines.append(_fmt_row(traj.actions[t]))
        lines.append(_fmt_row(traj.states[-1]))
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
