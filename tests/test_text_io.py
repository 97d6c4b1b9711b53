"""Dataset and checkpoint text: the one-call writers against the reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazegcrl import data, values as V
from tests import oracle_io

# values whose 17-digit text differs from their 16-digit or their repr text
SEVENTEEN_DIGITS = (0.1, 1.0 / 3.0, 2.0 / 3.0, 1e23, 0.30000000000000004,
                    9007199254740993.0, 1.2345678901234567e-200)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
           -2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
           float("inf"), float("-inf"), float("nan"), 1.0, -3.0, 1e16,
           2.0 ** 53) + SEVENTEEN_DIGITS

reals = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(-2 ** 60, 2 ** 60).map(float),
)


def _matrix(rows: int, cols: int):
    return st.lists(reals, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=np.float64).reshape(rows, cols))


@st.composite
def datasets(draw):
    state_dim = draw(st.integers(1, 3))
    action_dim = draw(st.integers(1, 3))
    trajectories = []
    for length in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        trajectories.append(data.Trajectory(draw(_matrix(length + 1, state_dim)),
                                            draw(_matrix(length, action_dim))))
    return data.Dataset(trajectories)


SHAPES = ((), (1,), (4,), (0,), (2, 3), (3, 0), (0, 3), (1, 1))


@st.composite
def tensor_trees(draw):
    tree = {}
    for i, shape in enumerate(draw(st.lists(st.sampled_from(SHAPES),
                                            min_size=1, max_size=4))):
        size = int(np.prod(shape))
        xs = draw(st.lists(reals, min_size=size, max_size=size))
        tree[f"net/t{i}"] = np.array(xs, dtype=np.float64).reshape(shape)
    return tree


EDGE_DATASET = data.Dataset([
    data.Trajectory(np.array([SPECIAL[:2], SPECIAL[2:4]]), np.array([SPECIAL[4:6]])),
    data.Trajectory(np.array(SEVENTEEN_DIGITS[:6]).reshape(3, 2),
                    np.array([[1e308, -0.0], [0.1, 7.0]])),
])

EDGE_TREE = {"scalar": np.array(0.1), "vec": np.array(SPECIAL),
             "empty": np.zeros((0,)), "no_cols": np.zeros((3, 0)),
             "no_rows": np.zeros((0, 3)), "ints": np.arange(6).reshape(2, 3),
             "mat": np.array(SEVENTEEN_DIGITS[:6]).reshape(3, 2)}


@settings(max_examples=200, deadline=None)
@given(dataset=datasets())
@example(dataset=EDGE_DATASET)
def test_dataset_text_equals_reference_bytes(dataset):
    assert data.dataset_to_text(dataset) == oracle_io.dataset_to_text(dataset)


@settings(max_examples=200, deadline=None)
@given(tree=tensor_trees())
@example(tree=EDGE_TREE)
def test_tensor_text_equals_reference_bytes(tree):
    assert V.tensors_to_text(tree) == oracle_io.tensors_to_text(tree)


def test_three_dim_tensor_rejected():
    with pytest.raises(ValueError, match="more than 2 dimensions"):
        V.tensors_to_text({"cube": np.zeros((1, 1, 1))})
