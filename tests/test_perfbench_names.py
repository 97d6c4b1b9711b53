"""Names the benchmark harness reads from the library.

Each name below is read by a test in ``perfbench/test_perfbench.py``, named
in the comment beside it; deleting the name would turn that benchmark test
into a failure. A change that mends those benchmark tests deletes the names
and this file together.
"""

import numpy as np

from mazegcrl import autodiff, cli, data, maze, training, values


def test_names_the_benchmark_reads_still_exist():
    # the tracer wraps what it finds in its owner's own namespace
    # test_tracer_restores_every_patched_function
    assert callable(vars(maze)["step"])
    # test_tracer_restores_every_patched_function
    assert callable(vars(autodiff.Tape)["matmul"])
    # test_tracer_restores_every_patched_function
    assert vars(training)["value"] is values.value
    # test_tracer_restores_every_patched_function
    assert vars(cli)["write_tensors"] is values.write_tensors
    # test_same_seed_same_results_other_seed_other_data
    ds = data.Dataset(np.arange(10.0).reshape(5, 2), np.zeros((3, 2)), [2, 1])
    assert np.array_equal(ds.trajectories[0].states, ds.states[:3])
