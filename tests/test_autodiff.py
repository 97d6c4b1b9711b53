"""Tape, primitive ops, MLP, Adam, and the finite-difference oracle."""

import gc
import weakref

import numpy as np
import pytest

from mazegcrl.autodiff import (
    ARRAYS,
    AdamState,
    GraphError,
    MlpParams,
    Tape,
    adam_step,
    gelu_value,
    init_mlp,
    mlp_apply,
    polyak_update,
)
from tests import oracle_layers
from tests.finite_diff import finite_diff_grad


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / scale


# ---- forward -----------------------------------------------------------------


def test_forward_identity():
    tape = Tape()
    x = tape.leaf([[1.0, -2.0], [0.5, 3.0]])
    y = tape.reshape(x, (2, 2))
    assert np.array_equal(y.value, x.value)


def test_gelu_at_zero():
    tape = Tape()
    x = tape.leaf([[0.0]])
    one, zero = tape.constant([[1.0]]), tape.constant([0.0])
    assert tape.dense(x, one, zero, True).value[0, 0] == 0.0
    assert gelu_value(np.zeros(1))[0] == 0.0


def test_row_l2_norm_3_4_5():
    tape = Tape()
    x = tape.leaf([[3.0, 4.0]])
    assert tape.l2norm_rows(x).value[0] == pytest.approx(5.0, abs=1e-15)


def test_forward_deterministic():
    rng = np.random.default_rng(0)
    params = init_mlp(rng, [3, 16, 16, 2])
    x = np.random.default_rng(1).normal(size=(5, 3))
    a = mlp_apply(params, x)
    b = mlp_apply(params, x)
    assert np.array_equal(a, b)


def test_shape_mismatch_carries_node_identifier():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((4, 2)))
    with pytest.raises(GraphError, match="matmul"):
        tape.matmul(a, b)


def test_nonfinite_rejected_at_boundaries():
    tape = Tape()
    with pytest.raises(GraphError, match="non-finite constant 'c'"):
        tape.constant([np.nan], "c")
    x = tape.leaf([800.0])
    with np.errstate(over="ignore"):
        out = tape.reduce_sum(tape.exp(x))  # overflows to inf
    with pytest.raises(GraphError, match="non-finite output at node 'sum#2'"):
        tape.backward(out)


def test_cross_tape_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf([1.0])
    b = t2.leaf([1.0])
    with pytest.raises(GraphError):
        t1.add(a, b)


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_elementwise_errors_name_the_op(op):
    t1, t2 = Tape(), Tape()
    a, b = t1.leaf(np.ones((2, 3))), t1.leaf(np.ones(4))
    with pytest.raises(GraphError) as err:
        getattr(t1, op)(a, b)
    assert str(err.value) == f"{op}: shapes (2, 3) and (4,) do not broadcast"
    with pytest.raises(GraphError) as err:
        getattr(t1, op)(a, t2.leaf(np.ones(3)))
    assert str(err.value) == f"{op}: input from a different tape"


# ---- backward ----------------------------------------------------------------


def test_square_gradient():
    tape = Tape()
    x = tape.leaf([3.0])
    y = tape.reduce_sum(tape.square(x))
    tape.backward(y)
    assert tape.grad(x)[0] == pytest.approx(6.0, abs=1e-12)


def test_stop_gradient_is_exactly_zero():
    tape = Tape()
    x = tape.leaf([1.0, 2.0, 3.0])
    y = tape.reduce_sum(tape.stop_gradient(x))
    tape.backward(y)
    assert np.array_equal(tape.grad(x), np.zeros(3))


def test_grad_before_backward_rejected():
    tape = Tape()
    x = tape.leaf([1.0])
    with pytest.raises(GraphError, match="backward"):
        tape.grad(x)


def test_backward_releases_the_graph():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    y = tape.reduce_sum(tape.square(x))
    tape.backward(y)
    assert tape.nodes == [] and y._backward is None
    assert float(y.value) == 5.0
    assert np.array_equal(tape.grad(x), [2.0, 4.0])
    with pytest.raises(GraphError, match="released"):
        tape.backward(y)


def test_a_tape_dropped_without_backward_is_freed_without_the_cycle_collector():
    # nodes once held their tape and closures the tape, so only gc freed it
    gc.disable()
    try:
        tape = Tape()
        w, b = tape.leaf(np.ones((2, 3))), tape.leaf(np.zeros(3))
        h = tape.dense(tape.constant(np.eye(2)), w, b, act=True)
        y = tape.reduce_mean(tape.take_rows([(h, 0, 1), (h, 1, 2), (h, 0, 2)]))
        refs = [weakref.ref(tape)] + [weakref.ref(n._backward) for n in tape.nodes
                                      if n._backward is not None]
        assert len(refs) == 4 and np.isfinite(y.value)
        del tape, w, b, h, y
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_backward_requires_scalar_without_seed():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(GraphError, match="scalar"):
        tape.backward(x)


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = init_mlp(rng, [4, 8, 8, 1])
    x = rng.normal(size=(3, 4))
    tree = params.tree("net")

    def run(tape_params):
        tape = Tape()
        lifted = {k: tape.leaf(v, k) for k, v in tape_params.items()}
        h = tape.constant(x)
        h = tape.dense(h, lifted["net.w0"], lifted["net.b0"], True)
        h = tape.dense(h, lifted["net.w1"], lifted["net.b1"], True)
        h = tape.dense(h, lifted["net.w2"], lifted["net.b2"], False)
        out = tape.reduce_sum(h)
        return tape, lifted, out

    tape, lifted, out = run(tree)
    tape.backward(out)
    for name, arr in tree.items():
        def fn(v, name=name):
            probe = dict(tree)
            probe[name] = v
            _, _, o = run(probe)
            return float(o.value)

        fd = finite_diff_grad(fn, arr, step=1e-5)
        assert rel_err(tape.grad(lifted[name]), fd) < 1e-4


OPS = [
    ("add", lambda t, a, b: t.add(a, b), 2),
    ("sub", lambda t, a, b: t.sub(a, b), 2),
    ("mul", lambda t, a, b: t.mul(a, b), 2),
    ("matmul", lambda t, a, b: t.matmul(a, b), 2),
    ("concat", lambda t, a, b: t.concat(a, b), 2),
    ("neg", lambda t, a: t.neg(a), 1),
    ("gelu", lambda t, a: t.dense(a, t.constant(np.eye(4)), t.constant(np.zeros(4)),
                                  True), 1),
    ("relu", lambda t, a: t.relu(a), 1),
    ("square", lambda t, a: t.square(a), 1),
    ("exp", lambda t, a: t.exp(a), 1),
    ("sigmoid", lambda t, a: t.sigmoid(a), 1),
    ("l2norm", lambda t, a: t.l2norm_rows(a), 1),
    ("sum0", lambda t, a: t.reduce_sum(a, axis=0), 1),
    ("sum1", lambda t, a: t.reduce_sum(a, axis=1), 1),
    ("mean", lambda t, a: t.reduce_mean(a), 1),
    ("max0", lambda t, a: t.reduce_max(a, axis=0), 1),
    ("max1", lambda t, a: t.reduce_max(a, axis=1), 1),
    ("clip", lambda t, a: t.clip(a, -0.5, 0.5), 1),
    ("slice", lambda t, a: t.slice_cols(a, 1, 3), 1),
    ("take_rows", lambda t, a: t.mul(t.take_rows([(a, 1, 3), (a, 0, 2), (a, 1, 2)]),
                                     t.constant(np.arange(20.0).reshape(5, 4))), 1),
    ("reshape", lambda t, a: t.reshape(a, (12,)), 1),
]


@pytest.mark.parametrize("name,op,arity", OPS, ids=[o[0] for o in OPS])
def test_primitive_gradients_match_finite_differences(name, op, arity):
    rng = np.random.default_rng(hash(name) % 2**32)
    # keep inputs away from relu/clip kinks and norm singularities
    a0 = rng.normal(size=(3, 4)) * 1.5 + 0.01
    b0 = rng.normal(size=(4, 4)) * 1.5 if name == "matmul" else rng.normal(size=(3, 4)) * 1.5 + 0.02

    def scalar_out(a_val, b_val):
        tape = Tape()
        a = tape.leaf(a_val, "a")
        args = [a]
        if arity == 2:
            args.append(tape.leaf(b_val, "b"))
        out = op(tape, *args)
        loss = tape.reduce_sum(out) if out.value.ndim else out
        if loss.value.size != 1:
            loss = tape.reduce_sum(loss)
        return tape, args, loss

    tape, args, loss = scalar_out(a0, b0)
    tape.backward(loss)
    grads = [tape.grad(x) for x in args]

    fd_a = finite_diff_grad(lambda v: float(scalar_out(v, b0)[2].value), a0)
    assert rel_err(grads[0], fd_a) < 1e-4, name
    if arity == 2:
        fd_b = finite_diff_grad(lambda v: float(scalar_out(a0, v)[2].value), b0)
        assert rel_err(grads[1], fd_b) < 1e-4, name


def test_broadcast_add_gradient():
    rng = np.random.default_rng(5)
    a0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=(3,))
    tape = Tape()
    a, b = tape.leaf(a0), tape.leaf(b0)
    loss = tape.reduce_sum(tape.square(tape.add(a, b)))
    tape.backward(loss)
    fd_b = finite_diff_grad(lambda v: float(((a0 + v) ** 2).sum()), b0)
    assert rel_err(tape.grad(b), fd_b) < 1e-4
    assert tape.grad(b).shape == (3,)


# ---- dense layer ---------------------------------------------------------------


def _dense_case(dtype, seed=9):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(37, 5)) * 2.0).astype(dtype)
    w = rng.normal(size=(5, 6)).astype(dtype)
    b = rng.normal(size=6).astype(dtype)
    seed_grad = rng.normal(size=(37, 6)).astype(dtype)
    return x, w, b, seed_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", [True, False])
@pytest.mark.parametrize("x_leaf", [True, False])
def test_dense_equals_the_matmul_add_gelu_chain_bitwise(dtype, act, x_leaf):
    x0, w0, b0, seed = _dense_case(dtype)
    runs = []
    for fused in (True, False):
        tape = Tape(dtype=dtype)
        x = tape.leaf(x0, "x") if x_leaf else tape.constant(x0, "x")
        w, b = tape.leaf(w0, "w"), tape.leaf(b0, "b")
        if fused:
            y = tape.dense(x, w, b, act)
            assert len(tape.nodes) == 4
        else:
            y = tape.add(tape.matmul(x, w), b)
            y = oracle_layers.tape_gelu(tape, y) if act else y
        value = y.value.copy()
        tape.backward(y, seed)
        runs.append([value] + [tape.grad(n) for n in (x, w, b)])
    for new, old in zip(*runs):
        assert new.dtype == old.dtype == dtype
        assert new.tobytes() == old.tobytes()
    if not x_leaf:
        assert not runs[0][1].any()
    plain = ARRAYS.dense(x0, w0, b0, act)
    assert plain.tobytes() == runs[0][0].tobytes()
    chain = np.add(np.matmul(x0, w0), b0)
    assert plain.tobytes() == (oracle_layers.gelu_value(chain) if act else chain).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_value_equals_the_oracle_and_keeps_its_input(dtype):
    x = (np.random.default_rng(2).normal(size=(64, 33)) * 3.0).astype(dtype)
    before = x.copy()
    out = gelu_value(x)
    assert out.dtype == dtype and out.tobytes() == oracle_layers.gelu_value(x).tobytes()
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("act", [True, False])
def test_dense_gradients_match_finite_differences(act):
    x0, w0, b0, seed = _dense_case(np.float64, seed=3)
    x0, seed = x0[:4], seed[:4]

    def run(x_val, w_val, b_val):
        tape = Tape()
        nodes = [tape.leaf(v) for v in (x_val, w_val, b_val)]
        out = tape.reduce_sum(tape.mul(tape.dense(*nodes, act), tape.constant(seed)))
        return tape, nodes, out

    tape, nodes, out = run(x0, w0, b0)
    tape.backward(out)
    args = [x0, w0, b0]
    for i, node in enumerate(nodes):
        def fn(v, i=i):
            probe = list(args)
            probe[i] = v
            return float(run(*probe)[2].value)

        assert rel_err(tape.grad(node), finite_diff_grad(fn, args[i])) < 1e-4, i


def test_dense_rejects_bad_shapes():
    tape = Tape()
    x, w = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 4)))
    with pytest.raises(GraphError, match="dense: incompatible shapes"):
        tape.dense(x, tape.leaf(np.ones((4, 3))), tape.leaf(np.ones(3)), True)
    with pytest.raises(GraphError, match="dense: incompatible shapes"):
        tape.dense(x, w, tape.leaf(np.ones(3)), True)
    with pytest.raises(GraphError, match="different tape"):
        tape.dense(x, w, Tape().leaf(np.ones(4)), True)


# ---- GELU shape --------------------------------------------------------------


def test_gelu_monotone_on_positive_branch():
    # The tanh-approximation (like exact GELU) has its single minimum near
    # x = -0.75, so monotonicity holds from there upward; asserted on a grid.
    xs = np.linspace(-0.7, 3.0, 2001)
    ys = gelu_value(xs)
    assert np.all(np.diff(ys) > 0)


def test_gelu_matches_erf_form_closely():
    from scipy.special import erf

    xs = np.linspace(-3.0, 3.0, 601)
    exact = 0.5 * xs * (1.0 + erf(xs / np.sqrt(2.0)))
    assert np.abs(gelu_value(xs) - exact).max() < 1e-3


# ---- MLP ----------------------------------------------------------------------


def test_mlp_zero_weights_returns_bias():
    params = MlpParams(
        weights=[np.zeros((3, 4)), np.zeros((4, 2))],
        biases=[np.zeros(4), np.array([1.5, -2.5])],
    )
    out = mlp_apply(params, np.random.default_rng(0).normal(size=(6, 3)))
    assert np.allclose(out, [1.5, -2.5])


def test_mlp_identity_weights_apply_gelu_elementwise():
    eye = np.eye(2)
    params = MlpParams(weights=[eye.copy(), eye.copy()],
                       biases=[np.zeros(2), np.zeros(2)])
    x = np.array([[1.0, -1.0]])
    assert np.allclose(mlp_apply(params, x), gelu_value(x))


def test_mlp_matches_straight_line_oracle():
    rng = np.random.default_rng(11)
    params = init_mlp(rng, [3, 5, 7, 2])
    x = rng.normal(size=(4, 3))

    # independent straight-line evaluation, one sample at a time
    expected = np.zeros((4, 2))
    for i in range(4):
        h = x[i]
        h = h @ params.weights[0] + params.biases[0]
        h = 0.5 * h * (1.0 + np.tanh(0.7978845608028654 * (h + 0.044715 * h**3)))
        h = h @ params.weights[1] + params.biases[1]
        h = 0.5 * h * (1.0 + np.tanh(0.7978845608028654 * (h + 0.044715 * h**3)))
        expected[i] = h @ params.weights[2] + params.biases[2]

    assert rel_err(mlp_apply(params, x), expected) < 1e-12


def test_mlp_dimension_mismatch_rejected():
    params = init_mlp(np.random.default_rng(0), [3, 4, 2])
    with pytest.raises(GraphError, match="in_dim"):
        mlp_apply(params, np.ones((2, 5)))


def test_lifted_mlp_matches_plain_apply():
    from mazegcrl.autodiff import LiftedMlp

    rng = np.random.default_rng(2)
    params = init_mlp(rng, [2, 8, 3])
    x = rng.normal(size=(5, 2))
    tape = Tape()
    out = LiftedMlp(tape, params)(tape.constant(x))
    assert np.array_equal(out.value, mlp_apply(params, x))


@pytest.mark.parametrize("sizes", [[3, 2], [3, 64, 5], [3, 64, 64, 64, 1]])
def test_lifted_mlp_forward_equals_plain_bytes(sizes):
    from mazegcrl.autodiff import LiftedMlp

    rng = np.random.default_rng(4)
    params = init_mlp(rng, sizes)
    x = rng.normal(size=(1024, 3)) * 4.0
    tape = Tape()
    out = LiftedMlp(tape, params, trainable=False)(tape.constant(x))
    assert out.value.tobytes() == mlp_apply(params, x).tobytes()


def test_init_final_scale_shrinks_head():
    rng = np.random.default_rng(0)
    a = init_mlp(np.random.default_rng(0), [2, 8, 1])
    b = init_mlp(np.random.default_rng(0), [2, 8, 1], final_scale=1e-2)
    assert np.allclose(b.weights[-1], 1e-2 * a.weights[-1])
    assert np.allclose(b.weights[0], a.weights[0])


# ---- Adam ----------------------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    params = {"p": np.array([1.0])}
    state = AdamState.for_params(params)
    adam_step(params["p"], np.array([7.3]), state, lr=1e-3)
    assert params["p"][0] == pytest.approx(1.0 - 1e-3, rel=1e-6)
    params = {"p": np.array([1.0])}
    state = AdamState.for_params(params)
    adam_step(params["p"], np.array([-0.02]), state, lr=1e-3)
    assert params["p"][0] == pytest.approx(1.0 + 1e-3, rel=1e-6)


def test_adam_zero_gradient_leaves_params_unchanged():
    params = {"p": np.array([0.25, -1.0])}
    state = AdamState.for_params(params)
    adam_step(params["p"], np.zeros(2), state, lr=0.5)
    assert np.array_equal(params["p"], [0.25, -1.0])


def test_adam_three_step_trace_on_quadratic():
    # frozen from a hand-stepped scalar trace: f(x)=x^2, x0=1, lr=0.1
    expected = [0.9000000005, 0.8004122286917928, 0.7015862729460303]
    params = {"x": np.array([1.0])}
    state = AdamState.for_params(params)
    for step_target in expected:
        g = 2.0 * params["x"]
        adam_step(params["x"], g, state, lr=0.1)
        assert params["x"][0] == pytest.approx(step_target, abs=1e-15)


def test_adam_rejects_nonfinite_gradients():
    params = {"p": np.array([1.0])}
    state = AdamState.for_params(params)
    with pytest.raises(GraphError, match="non-finite"):
        adam_step(params["p"], np.array([np.nan]), state, lr=0.1)


@pytest.mark.parametrize("at, name", [(0, "a"), (2, "a"), (3, "b"), (6, "b"), (7, "c")])
def test_adam_non_finite_error_names_the_parameter(at, name):
    like = {"a": np.zeros(3), "b": np.zeros((2, 2)), "c": np.zeros(())}
    state = AdamState.for_params(like)
    param, grad = np.ones(8), np.zeros(8)
    grad[at] = np.nan
    grad[7] = np.inf  # a later non-finite entry: the first one is named
    with pytest.raises(GraphError) as err:
        adam_step(param, grad, state, lr=0.1)
    assert str(err.value) == f"adam_step: non-finite gradient for '{name}'"
    assert state.count == 0 and np.array_equal(param, np.ones(8))
    assert not state.m.any() and not state.v.any()


def test_adam_moments_are_one_buffer_named_like_the_params():
    like = {"a": np.zeros(3), "b": np.zeros((2, 2)), "c": np.zeros(())}
    state = AdamState.for_params(like)
    assert state.m.shape == state.v.shape == (8,)
    for moments, flat in ((state.mean, state.m), (state.var, state.v)):
        assert list(moments) == list(like)
        assert [m.shape for m in moments.values()] == [(3,), (2, 2), ()]
        assert all(np.shares_memory(m, flat) for m in moments.values())
    with pytest.raises(GraphError, match="shape mismatch"):
        adam_step(np.zeros(8), np.zeros(7), state, lr=0.1)


def test_adam_flat_step_equals_the_per_array_oracle_bitwise():
    rng = np.random.default_rng(4)
    for dtype in (np.float32, np.float64):
        shapes = [(3, 5), (5,), (), (5, 2)]
        arrays = {f"p{i}": rng.normal(size=s).astype(dtype) for i, s in enumerate(shapes)}
        old = {k: v.copy() for k, v in arrays.items()}
        flat = np.concatenate([a.ravel() for a in arrays.values()])
        state, old_state = AdamState.for_params(arrays), AdamState.for_params(old)
        for _ in range(4):
            grads = {k: rng.normal(size=v.shape).astype(dtype) for k, v in old.items()}
            adam_step(flat, np.concatenate([g.ravel() for g in grads.values()]),
                      state, lr=3e-4)
            oracle_layers.adam_step(old, grads, old_state, lr=3e-4)
        assert flat.tobytes() == np.concatenate([a.ravel() for a in old.values()]).tobytes()
        assert state.m.tobytes() == np.concatenate(
            [m.ravel() for m in old_state.mean.values()]).tobytes()
        target = rng.normal(size=flat.shape).astype(dtype)
        old_target = {k: v.copy() for k, v in zip(old, np.split(target, np.cumsum(
            [a.size for a in old.values()])[:-1]))}
        polyak_update(target, flat, 0.005)
        oracle_layers.polyak_update(old_target, {k: v.ravel() for k, v in old.items()},
                                    0.005)
        assert target.tobytes() == np.concatenate(list(old_target.values())).tobytes()


def test_polyak_update_endpoints():
    online = np.array([1.0])
    target = np.array([0.0])
    polyak_update(target, online, 1.0)
    assert target[0] == 1.0
    target = np.array([0.0])
    polyak_update(target, online, 0.0)
    assert target[0] == 0.0
    target = np.array([0.0])
    polyak_update(target, online, 0.005)
    assert target[0] == pytest.approx(0.005, abs=1e-18)
    with pytest.raises(GraphError, match="shape mismatch"):
        polyak_update(np.zeros(2), online, 0.5)


# ---- finite differences ---------------------------------------------------------


def test_finite_diff_on_quadratic():
    fd = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), step=1e-5)
    assert abs(fd[0] - 6.0) < 1e-6


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda v: 0.0, np.array([1.0]), step=0.0)


def test_take_rows_stacks_blocks_of_several_nodes():
    rng = np.random.default_rng(5)
    a0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
    weights = rng.normal(size=(6, 3))

    def loss(a_val, b_val):
        tape = Tape()
        a, b, c = tape.leaf(a_val), tape.leaf(b_val), tape.constant(np.ones((1, 3)))
        rows = tape.take_rows([(a, 1, 3), (b, 0, 2), (c, 0, 1), (a, 2, 3)])
        return tape, (a, b), tape.reduce_sum(tape.mul(rows, tape.constant(weights)))

    tape, (a, b), out = loss(a0, b0)
    assert np.array_equal(out.value, np.sum(np.concatenate(
        [a0[1:3], b0, np.ones((1, 3)), a0[2:3]]) * weights))
    tape.backward(out)
    assert rel_err(tape.grad(a), finite_diff_grad(
        lambda v: float(loss(v, b0)[2].value), a0)) < 1e-8
    assert rel_err(tape.grad(b), finite_diff_grad(
        lambda v: float(loss(a0, v)[2].value), b0)) < 1e-8
    one = Tape()
    node = one.leaf(a0)
    assert one.take_rows([(node, 0, 4)]) is node
    with pytest.raises(GraphError, match="different tape"):
        one.take_rows([(node, 0, 1), (Tape().leaf(b0), 0, 1)])
    with pytest.raises(GraphError, match="bad range"):
        one.take_rows([(node, 0, 1), (node, 3, 5)])


def test_leaf_check_can_be_left_to_the_caller():
    # leaves are parameter views; the step checks each buffer before its tape
    assert np.isnan(Tape().leaf([np.nan]).value).all()
    with pytest.raises(GraphError, match="non-finite constant"):
        Tape().constant([np.nan])
