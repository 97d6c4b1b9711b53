"""Value parameterizations: distance heads, quasimetric contracts, gradients."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazegcrl.autodiff import LiftedMlp, MlpParams, Tape, mlp_apply
from mazegcrl import values as V
from mazegcrl.values import (
    ValueArchitecture,
    interval_union_measure,
    make_subgoal_rep,
    make_value_arch,
    value,
)
from tests import oracle_io, oracle_iqe
from tests.oracle_step import tape_value
from tests.finite_diff import finite_diff_grad
from tests.oracle_distances import hilbert_distance, iqe_distance, mrn_distance


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / scale


def constant_lan(bias_s, bias_g):
    """LAN whose encoders output fixed vectors regardless of input."""
    dim = len(bias_s)
    phi_s = MlpParams([np.zeros((2, dim))], [np.asarray(bias_s, dtype=float)])
    phi_g = MlpParams([np.zeros((2, dim))], [np.asarray(bias_g, dtype=float)])
    return ValueArchitecture("LAN", {"phi_s": phi_s, "phi_g": phi_g})


# ---- trivial value cases ----------------------------------------------------------


def test_lan_equal_encodings_give_zero():
    arch = constant_lan([0.3, -1.0, 2.0], [0.3, -1.0, 2.0])
    s = np.random.default_rng(0).normal(size=(4, 2))
    assert np.array_equal(value(arch, None, s, s + 1.0), np.zeros(4))


def test_lan_unit_offset_gives_minus_one():
    arch = constant_lan([1.0, 0.0], [0.0, 0.0])
    s = np.zeros((3, 2))
    assert np.allclose(value(arch, None, s, s), -1.0)


def test_mlp_constant_bias():
    trunk = MlpParams([np.zeros((4, 8)), np.zeros((8, 1))],
                      [np.zeros(8), np.array([-3.0])])
    arch = ValueArchitecture("MLP", {"trunk": trunk})
    s = np.random.default_rng(1).normal(size=(5, 2))
    assert np.allclose(value(arch, None, s, -s), -3.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown value architecture"):
        make_value_arch(np.random.default_rng(0), "BILINEAR", 2, (8,))


# ---- IQE ---------------------------------------------------------------------------


def test_iqe_identity():
    u = np.random.default_rng(0).normal(size=(3, 4))
    assert iqe_distance(u, u) == 0.0


def test_iqe_single_interval_asymmetry():
    assert iqe_distance(np.array([[2.0]]), np.array([[0.0]])) == 0.0
    assert iqe_distance(np.array([[0.0]]), np.array([[2.0]])) == 2.0


def test_iqe_overlapping_intervals_merge():
    u = np.array([[0.0, 1.0]])
    v = np.array([[2.0, 3.0]])
    assert iqe_distance(u, v) == pytest.approx(3.0, abs=1e-12)


def _union_oracle(u_row, v_row):
    """Independent interval-union measure by sorting and merging."""
    ivals = sorted((a, max(a, b)) for a, b in zip(u_row, v_row))
    total = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in ivals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def test_union_measure_matches_merge_oracle():
    rng = np.random.default_rng(42)
    u = rng.normal(size=(16, 5, 7)) * 2.0
    v = rng.normal(size=(16, 5, 7)) * 2.0
    measure, _ = interval_union_measure(u, v)
    for b in range(16):
        for k in range(5):
            assert measure[b, k] == pytest.approx(
                _union_oracle(u[b, k], v[b, k]), abs=1e-12)


@pytest.mark.parametrize("u_shape, v_shape", [
    ((5, 7), (5, 7)),
    ((3, 2, 4), (3, 2)),
    ((1, 2, 4), (4, 2, 4)),
    ((4, 2, 4), (1, 2, 4)),
    ((4, 2, 4), (4, 2, 5)),
])
def test_union_measure_rejects_bad_shapes(u_shape, v_shape):
    match = f"{re.escape(str(u_shape))} and {re.escape(str(v_shape))}"
    with pytest.raises(ValueError, match=match):
        interval_union_measure(np.zeros(u_shape), np.zeros(v_shape))


@st.composite
def endpoint_pairs(draw):
    """(B, K, L) start/end inputs and an upstream gradient for the measure."""
    shape = (draw(st.integers(1, 64)), draw(st.integers(1, 8)), draw(st.integers(1, 12)))
    case = draw(st.sampled_from(
        ("floats", "ties", "u_eq_v", "v_le_u", "equal_starts", "signed_zeros")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3)
    u, v = rng.normal(size=(2, *shape)) * scale
    if case == "ties":
        u, v = rng.integers(-3, 4, size=(2, *shape)).astype(np.float64)
    elif case == "u_eq_v":
        v = u.copy()
    elif case == "v_le_u":
        v = u - np.abs(rng.normal(size=shape)) * rng.integers(0, 2, size=shape)
    elif case == "equal_starts":
        u = np.full(shape, u.flat[0])
    elif case == "signed_zeros":
        pool = np.array([-0.0, 0.0, -1.0, 1.0, 0.5])
        u, v = pool[rng.integers(0, len(pool), size=(2, *shape))]
    g = rng.normal(size=shape[:2]) * rng.integers(-1, 2, size=shape[:2])
    return u, v, g


def _measure_and_grads(measure_node, u, v, g):
    tape = Tape()
    un, vn = tape.leaf(u), tape.leaf(v)
    measure = measure_node(tape, un, vn)
    tape.backward(measure, seed=g)
    return measure.value, tape.grad(un), tape.grad(vn)


@settings(max_examples=300, deadline=None)
@given(case=endpoint_pairs())
def test_union_measure_and_grads_equal_reference_bytes(case):
    u, v, g = case
    want = _measure_and_grads(oracle_iqe._iqe_measure_node, u, v, g)
    got = _measure_and_grads(V._iqe_measure_node, u, v, g)
    plain, _ = interval_union_measure(u, v)
    assert plain.tobytes() == want[0].tobytes()
    for name, a, b in zip(("measure", "grad_u", "grad_v"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_iqe_maxmean_mixing():
    # two components with measures 1 and 3: alpha=0.5 -> 0.5*3 + 0.5*2 = 2.5
    u = np.array([[0.0], [0.0]])
    v = np.array([[1.0], [3.0]])
    assert iqe_distance(u, v, raw_alpha=0.0) == pytest.approx(2.5, abs=1e-12)
    big = iqe_distance(u, v, raw_alpha=50.0)   # alpha ~ 1 -> max
    assert big == pytest.approx(3.0, abs=1e-6)


def test_iqe_quasimetric_on_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        x, y, z = rng.normal(size=(3, 2, 3)) * 2.0
        dxy = iqe_distance(x, y)
        assert dxy >= 0.0
        assert iqe_distance(x, z) <= dxy + iqe_distance(y, z) + 1e-9


# ---- MRN ---------------------------------------------------------------------------


def test_mrn_identity_and_asymmetry():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 0.0])
    assert mrn_distance(x, x, 1) == 0.0
    assert mrn_distance(x, y, 1) == 1.0
    assert mrn_distance(y, x, 1) == 0.0


def test_mrn_triangle_on_random_triples():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        x, y, z = rng.normal(size=(3, 6)) * 3.0
        assert mrn_distance(x, z, 3) <= (mrn_distance(x, y, 3)
                                         + mrn_distance(y, z, 3) + 1e-9)


# ---- Hilbert ------------------------------------------------------------------------


def test_hilbert_basics():
    x = np.array([0.0, 3.0])
    y = np.array([4.0, 0.0])
    assert hilbert_distance(x, x) == 0.0
    assert hilbert_distance(x, y) == pytest.approx(5.0, abs=1e-15)
    assert hilbert_distance(x, y) == hilbert_distance(y, x)


# ---- architecture-level invariants ----------------------------------------------------


@pytest.mark.parametrize("kind", ("LAN", "IQE", "MRN", "Hilbert"))
@pytest.mark.parametrize("hierarchical", (False, True))
def test_distance_kinds_never_positive(kind, hierarchical):
    rng = np.random.default_rng(10)
    rep = make_subgoal_rep(rng, 2, (16,), 10) if hierarchical else None
    arch = make_value_arch(rng, kind, 2, (16, 16),
                           goal_input_dim=10 if hierarchical else None,
                           latent_dim=8, iqe_components=4, iqe_intervals=4,
                           mrn_sym_dim=4, mrn_asym_dim=4)
    s = rng.normal(size=(64, 2)) * 5.0
    g = rng.normal(size=(64, 2)) * 5.0
    assert (value(arch, rep, s, g) <= 0.0).all()


def test_lan_is_generically_asymmetric():
    rng = np.random.default_rng(11)
    arch = make_value_arch(rng, "LAN", 2, (32, 32), latent_dim=16)
    s = rng.normal(size=(1000, 2)) * 4.0
    g = rng.normal(size=(1000, 2)) * 4.0
    forward = value(arch, None, s, g)
    backward = value(arch, None, g, s)
    assert (forward != backward).mean() >= 0.99


def test_hierarchical_bottleneck_changes_goal_side_only():
    rng = np.random.default_rng(12)
    rep = make_subgoal_rep(rng, 2, (16,), 10)
    arch = make_value_arch(rng, "LAN", 2, (16,), goal_input_dim=10)
    s = rng.normal(size=(8, 2))
    g = rng.normal(size=(8, 2))
    direct = -np.sqrt(((mlp_apply(arch.nets["phi_s"], s)
                        - mlp_apply(arch.nets["phi_g"], mlp_apply(rep, g))) ** 2
                       ).sum(axis=1))
    assert np.allclose(value(arch, rep, s, g), direct)


def test_shared_encoder_bottleneck_applies_to_both_inputs():
    rng = np.random.default_rng(13)
    rep = make_subgoal_rep(rng, 2, (16,), 10)
    arch = make_value_arch(rng, "Hilbert", 2, (16,), goal_input_dim=10,
                           latent_dim=8)
    s = rng.normal(size=(8, 2))
    g = rng.normal(size=(8, 2))
    zs = mlp_apply(arch.nets["phi"], mlp_apply(rep, s))
    zg = mlp_apply(arch.nets["phi"], mlp_apply(rep, g))
    direct = -np.sqrt(((zs - zg) ** 2).sum(axis=1))
    assert np.allclose(value(arch, rep, s, g), direct)


# ---- tape vs plain forward, gradients ---------------------------------------------------


def _lifted_value_sum(arch, rep, s, g):
    tape = Tape()
    rep_l = LiftedMlp(tape, rep, name="rep") if rep is not None else None
    lifted = arch.lift(tape)
    out = tape_value(tape, lifted, rep_l, tape.constant(s), tape.constant(g))
    total = tape.reduce_sum(out)
    tape.backward(total)
    nodes = {f"value/{k}": n for k, n in lifted.tree().items()}
    if rep_l is not None:
        nodes.update(rep_l.tree("rep"))
    return out.value, {k: tape.grad(n) for k, n in nodes.items()}


@pytest.mark.parametrize("kind", V.KINDS)
@pytest.mark.parametrize("hierarchical", (False, True))
def test_tape_forward_matches_plain_forward(kind, hierarchical):
    rng = np.random.default_rng(20)
    rep = make_subgoal_rep(rng, 2, (8,), 10) if hierarchical else None
    arch = make_value_arch(rng, kind, 2, (8, 8),
                           goal_input_dim=10 if hierarchical else None,
                           latent_dim=6, iqe_components=3, iqe_intervals=4,
                           mrn_sym_dim=3, mrn_asym_dim=3)
    s = rng.normal(size=(16, 2)) * 3.0
    g = rng.normal(size=(16, 2)) * 3.0
    got, _ = _lifted_value_sum(arch, rep, s, g)
    assert rel_err(got, value(arch, rep, s, g)) < 1e-12


HEADS = [("MLP", 8), ("LAN", 8), ("MRN", 8), ("Hilbert", 8),
         ("IQE", 3), ("IQE", 5), ("IQE", 8)]


@pytest.mark.parametrize("kind, components", HEADS,
                         ids=[f"{k}-K{c}" if k == "IQE" else k for k, c in HEADS])
@pytest.mark.parametrize("hierarchical", (False, True))
def test_plain_value_equals_tape_value_bytes(kind, components, hierarchical):
    rng = np.random.default_rng(22)
    rep = make_subgoal_rep(rng, 2, (16,), 10) if hierarchical else None
    arch = make_value_arch(rng, kind, 2, (16, 16),
                           goal_input_dim=10 if hierarchical else None,
                           latent_dim=8, iqe_components=components,
                           iqe_intervals=4, mrn_sym_dim=4, mrn_asym_dim=4)
    for net in arch.nets.values():  # undo the small head init: values away from 0
        net.weights[-1] *= 100.0
    if arch.raw_alpha is not None:
        arch.raw_alpha[...] = 0.3
    s = rng.normal(size=(256, 2)) * 3.0
    g = rng.normal(size=(256, 2)) * 3.0
    tape = Tape()
    rep_l = None if rep is None else LiftedMlp(tape, rep, trainable=False)
    got = tape_value(tape, arch.lift(tape), rep_l, tape.constant(s),
                     tape.constant(g)).value
    assert got.tobytes() == value(arch, rep, s, g).tobytes()


@pytest.mark.parametrize("kind", V.KINDS)
def test_value_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(21)
    rep = make_subgoal_rep(rng, 2, (6,), 5)
    arch = make_value_arch(rng, kind, 2, (6,), goal_input_dim=5,
                           latent_dim=4, iqe_components=2, iqe_intervals=3,
                           mrn_sym_dim=2, mrn_asym_dim=2)
    s = rng.normal(size=(4, 2)) * 2.0
    g = rng.normal(size=(4, 2)) * 2.0
    _, grads = _lifted_value_sum(arch, rep, s, g)

    tree = arch.tree()
    tree = {f"value/{k}": v for k, v in tree.items()}
    tree.update({f"rep/{k}": v for k, v in rep.tree("rep").items()})
    renames = {f"rep/rep.w{i}": f"rep.w{i}" for i in range(len(rep.weights))}
    renames.update({f"rep/rep.b{i}": f"rep.b{i}" for i in range(len(rep.biases))})

    for name, arr in tree.items():
        def fn(candidate, arr=arr):
            old = arr.copy()
            arr[...] = candidate
            out = float(value(arch, rep, s, g).sum())
            arr[...] = old
            return out

        fd = finite_diff_grad(fn, arr, step=1e-5)
        grad_name = renames.get(name, name)
        assert rel_err(grads[grad_name], fd) < 1e-4, f"{kind}: {name}"


# ---- serialization -----------------------------------------------------------------------


def test_tensor_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(30)
    tree = {
        "net.w0": rng.normal(size=(3, 4)),
        "net.b0": rng.normal(size=(4,)),
        "alpha": np.array(0.123456789012345678),
        "count": np.array(42.0),
    }
    path = tmp_path / "ckpt.txt"
    V.write_tensors(tree, path)
    back = V.read_tensors(path)
    assert set(back) == set(tree)
    for k in tree:
        assert np.array_equal(back[k], np.asarray(tree[k], dtype=np.float64)), k
    assert V.tensors_to_text(back) == V.tensors_to_text(tree)
    assert path.read_text() == oracle_io.tensors_to_text(tree)


@pytest.mark.parametrize("text, message", [
    ("a 2 3\n1 2 3\n4 5\n", "line 3 has 2 numbers, expected 3, in tensor 'a'"),
    ("b 4\n1 2 3 4\na 2 x\n1\n",
     "tensor 'a' header at line 3: expected at most two nonnegative integer "
     "dims, got '2 x'"),
    ("a 2 3 4\n" + "1 2 3 4\n" * 6,
     "tensor 'a' header at line 1: expected at most two nonnegative integer "
     "dims, got '2 3 4'"),
    ("b 1\n0\na 2\n1 x\n",
     "line 4: could not convert string to float: 'x', in tensor 'a'"),
], ids=["short-row", "bad-dim", "3-d", "not-a-number"])
def test_tensor_reader_names_the_line_and_the_tensor(text, message):
    # these once read "cannot reshape array", "invalid literal for int()",
    # (3-D) "tensor file ends at line 2" and (no line) "could not convert"
    with pytest.raises(ValueError) as err:
        V.tensors_from_text(text)
    assert str(err.value) == message


def test_tensor_reader_keeps_nan_and_inf():
    # aborted checkpoints hold them
    back = V.tensors_from_text("a 3\nnan inf -inf\n")["a"]
    assert np.isnan(back[0]) and back[1] == np.inf and back[2] == -np.inf


@pytest.mark.parametrize("tree", [{"b": np.ones(2), "a": np.zeros((0,))},
                                  {"lone": np.zeros((3, 0))}],
                         ids=["empty-last", "no-cols"])
def test_tensor_round_trip_zero_size_last(tree):
    # a zero-size last tensor ends the file with its empty row lines
    text = V.tensors_to_text(tree)
    back = V.tensors_from_text(text)
    assert list(back) == list(tree)
    for k in tree:
        assert back[k].shape == tree[k].shape and np.array_equal(back[k], tree[k]), k
    assert V.tensors_to_text(back) == text
