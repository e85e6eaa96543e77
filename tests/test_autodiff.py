"""Gradient checks for every primitive against central finite differences.

The finite-difference oracle is the ground truth here: each case builds a
scalar loss from one or more primitives, asks the engine for gradients,
and compares against finite_difference_gradient in float64.
"""

from __future__ import annotations

import contextlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_gradients, closure_arrays, evaluate, finite_difference_gradient,
                      gradient, mean_all, multiply, ref_attention, ref_sublayer, rel_err,
                      stop_gradient)
from loopforge import autodiff as ad
from loopforge import model as md


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# oracle instances, one or more per primitive


def test_add_broadcast():
    r = rng(1)
    check_gradients(lambda t: mean_all(ad.add(t["a"], t["b"])),
                    {"a": r.normal(size=(3, 4)), "b": r.normal(size=(4,))})


def test_add_sum_to_scalar_row():
    r = rng(2)
    check_gradients(lambda t: mean_all(ad.add(t["a"], t["b"])),
                    {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(1, 1, 4))})


def test_multiply_broadcast():
    r = rng(3)
    check_gradients(lambda t: mean_all(multiply(t["a"], t["b"])),
                    {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(3, 1))})


def test_scale():
    r = rng(4)
    check_gradients(lambda t: mean_all(ad.scale(t["a"], -2.5)),
                    {"a": r.normal(size=(5, 3))})


def test_matmul_plain():
    r = rng(5)
    check_gradients(lambda t: mean_all(ad.matmul(t["a"], t["b"])),
                    {"a": r.normal(size=(3, 4)), "b": r.normal(size=(4, 5))})


def test_matmul_batched_shared_rhs():
    r = rng(6)
    check_gradients(lambda t: mean_all(ad.matmul(t["a"], t["b"])),
                    {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(4, 5))})


def test_matmul_batched_both():
    r = rng(7)
    check_gradients(lambda t: mean_all(ad.matmul(t["a"], t["b"])),
                    {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(2, 4, 3))})


def test_rms_norm():
    r = rng(9)
    check_gradients(lambda t: mean_all(ad.rms_norm(t["a"], t["g"])),
                    {"a": r.normal(size=(2, 3, 8)), "g": r.normal(size=(8,)) + 1.0})


def test_rms_norm_batched_weighting():
    r = rng(10)
    w = r.normal(size=(4, 6))
    check_gradients(
        lambda t: mean_all(multiply(ad.rms_norm(t["a"], t["g"]), ad.tensor(w))),
        {"a": r.normal(size=(4, 6)) * 3.0, "g": r.normal(size=(6,))})


def test_silu():
    r = rng(11)
    check_gradients(lambda t: mean_all(ad.silu(t["a"])),
                    {"a": r.normal(size=(3, 7)) * 2.0})


def test_gather_scatter_add():
    r = rng(12)
    idx = np.array([[0, 2, 2], [1, 0, 3]])
    w = r.normal(size=(2, 3, 5))
    check_gradients(
        lambda t: mean_all(multiply(ad.gather(t["table"], idx), ad.tensor(w))),
        {"table": r.normal(size=(4, 5))})


def test_rope_rotation():
    r = rng(13)
    w = r.normal(size=(2, 5, 8))
    check_gradients(lambda t: mean_all(multiply(ad.rope(t["a"], 2), ad.tensor(w))),
                    {"a": r.normal(size=(2, 5, 8))})


def test_slice_and_concat_roundtrip():
    r = rng(14)

    def build(t):
        lo = ad.slice_axis(t["a"], 0, 3, axis=-1)
        hi = ad.slice_axis(t["a"], 3, 7, axis=-1)
        back = ad.concat([ad.scale(lo, 2.0), hi], axis=-1)
        return mean_all(multiply(back, back))

    check_gradients(build, {"a": r.normal(size=(2, 7))})


def test_concat_sequence_axis():
    r = rng(16)
    check_gradients(lambda t: mean_all(ad.concat([t["a"], t["b"]], axis=1)),
                    {"a": r.normal(size=(2, 1, 4)), "b": r.normal(size=(2, 3, 4))})


def test_reshape():
    r = rng(17)
    check_gradients(lambda t: mean_all(multiply(ad.reshape(t["a"], (6, 2)),
                                                   ad.reshape(t["a"], (6, 2)))),
                    {"a": r.normal(size=(3, 4))})


def _attention_weights(r, d):
    return {"wqkv": r.normal(size=(d, 3 * d)) / np.sqrt(d),
            "wo": r.normal(size=(d, d)) / np.sqrt(d), "g": r.normal(size=d) + 1.0}


def _attend(t, num_heads, gain="g"):
    return ad.attention(t["h"], t["wqkv"], t["wo"], t[gain], num_heads)


def test_attention_small():
    r = rng(18)
    check_gradients(lambda t: mean_all(_attend(t, 2)),
                    {"h": r.normal(size=(2, 4, 8)), **_attention_weights(r, 8)})


def test_attention_single_head():
    r = rng(19)
    w = r.normal(size=(1, 5, 6))
    check_gradients(lambda t: mean_all(multiply(_attend(t, 1), ad.tensor(w))),
                    {"h": r.normal(size=(1, 5, 6)), **_attention_weights(r, 6)})


def test_cross_entropy_masked():
    r = rng(20)
    targets = np.array([[0, 3, 1], [2, 2, 0]])
    mask = np.array([[True, True, False], [True, False, True]])
    check_gradients(
        lambda t: ad.masked_mean(ad.softmax_cross_entropy(t["logits"], targets), mask),
        {"logits": r.normal(size=(2, 3, 4)) * 3.0})


def test_sigmoid_bce_extreme_logits():
    targets = np.array([1.0, 0.0, 1.0, 0.0])
    x = np.array([30.0, -30.0, -30.0, 30.0])
    check_gradients(lambda t: mean_all(ad.sigmoid_bce(t["x"], targets)), {"x": x},
                    tol=5e-6)  # saturated region: fd itself loses a digit


def test_sigmoid_bce_moderate():
    r = rng(21)
    targets = (r.uniform(size=(3, 4)) > 0.5).astype(float)
    check_gradients(lambda t: mean_all(ad.sigmoid_bce(t["x"], targets)),
                    {"x": r.normal(size=(3, 4)) * 2.0})


def test_masked_mean_random_mask():
    r = rng(22)
    mask = r.uniform(size=(4, 5)) > 0.4
    check_gradients(lambda t: ad.masked_mean(t["a"], mask), {"a": r.normal(size=(4, 5))})


def test_shared_leaf_accumulates():
    r = rng(23)

    def build(t):
        prod = ad.matmul(t["a"], t["a"])  # a used twice in one node
        return mean_all(ad.add(prod, t["a"]))

    check_gradients(build, {"a": r.normal(size=(4, 4))})


def test_transformer_block_composition():
    r = rng(24)
    d, H = 8, 2

    def build(t):
        h = ad.mlp(_attend(t, H, "g1"), t["w1"], t["w2"], t["g2"])
        targets = np.array([[0, 5, 2, 7], [1, 1, 3, 0]])
        return mean_all(ad.softmax_cross_entropy(h, targets))

    check_gradients(build, {
        "h": r.normal(size=(2, 4, d)),
        "wqkv": r.normal(size=(d, 3 * d)) / np.sqrt(d),
        "wo": r.normal(size=(d, d)) / np.sqrt(d),
        "g1": np.ones(d), "g2": np.ones(d),
        "w1": r.normal(size=(d, 3 * d)) / np.sqrt(d),
        "w2": r.normal(size=(3 * d, d)) / np.sqrt(3 * d),
    })


def _mlp(h, w1, w2):
    return ad.matmul(ad.silu(ad.matmul(h, w1)), w2)


def test_recompute_through_tied_residual_mlp():
    # two tied applications of h <- rms_norm(h + mlp(h)), each one node
    # that rebuilds its hidden arrays and residual sum in backward: h feeds
    # both the residual and the MLP
    r = rng(44)
    d = 6
    w = r.normal(size=(2, 3, d))

    def build(t):
        h = t["x"]
        for _ in range(2):
            h = ad.mlp(h, t["w1"], t["w2"], t["g"])
        return mean_all(multiply(h, ad.tensor(w)))

    check_gradients(build, {"x": r.normal(size=(2, 3, d)),
                            "w1": r.normal(size=(d, 2 * d)) / np.sqrt(d),
                            "w2": r.normal(size=(2 * d, d)) / np.sqrt(2 * d),
                            "g": r.normal(size=(d,)) + 1.0})


def test_recompute_vjp_keeps_only_its_inputs():
    r = rng(45)
    h, w1, w2, gain = (ad.tensor(r.normal(size=s), requires_grad=True)
                       for s in ((2, 3, 4), (4, 8), (8, 4), (4,)))
    node = ad.mlp(h, w1, w2, gain)
    assert node.op == "mlp" and node.parents == (h.node, w1.node, w2.node, gain.node)
    want = ad.rms_norm(ad.add(h, _mlp(h, w1, w2)), gain)
    assert node.value.tobytes() == want.value.tobytes()
    kept = closure_arrays(node.vjp)
    assert set(map(id, kept)) == {id(t.value) for t in (h, w1, w2, gain)}


def test_recompute_backward_under_no_grad():
    # the mlp vjp needs no graph of its own, whatever the ambient mode
    r = rng(46)
    arrays = [r.normal(size=s).astype(np.float32) for s in ((2, 3, 4), (4, 8), (8, 4), (4,))]

    def grads(quiet):
        leaves = [ad.tensor(a, requires_grad=True) for a in arrays]
        loss = mean_all(ad.mlp(*leaves))
        with ad.no_grad() if quiet else contextlib.nullcontext():
            ad.backward(loss)
        return [t.adjoint for t in leaves]

    want = grads(False)
    assert all(g is not None for g in want)
    assert [g.tobytes() for g in grads(True)] == [g.tobytes() for g in want]


def test_matmul_stack_rows_match_per_item_products():
    # a stack times one matrix: every item's value and a's gradient come
    # out as they do alone, at desk and at toy sizes
    r = rng(47)
    for B, M, K, N in ((32, 145, 128, 512), (32, 145, 512, 128), (32, 1, 128, 1),
                       (3, 37, 32, 128), (12, 10, 32, 128)):
        a = r.normal(size=(B, M, K)).astype(np.float32)
        b = r.normal(size=(K, N)).astype(np.float32)
        g = r.normal(size=(B, M, N)).astype(np.float32)
        node = ad.matmul(ad.tensor(a, requires_grad=True), ad.tensor(b))
        ga, _ = node.vjp(g)
        for i in range(B):
            one = ad.matmul(ad.tensor(a[i:i + 1], requires_grad=True), ad.tensor(b))
            assert node.value[i].tobytes() == one.value[0].tobytes(), (B, M, K, N, i)
            assert ga[i].tobytes() == one.vjp(g[i:i + 1])[0][0].tobytes(), (B, M, K, N, i)


def test_backward_keeps_only_leaf_adjoints():
    # interior adjoints are dropped once their vjp has run; the leaves,
    # which gradient() and the optimizer read, keep theirs
    r = rng(27)
    d, H = 8, 2
    x = ad.tensor(r.normal(size=(2, 4, d)))
    w = {n: ad.tensor(r.normal(size=(d, d)) / np.sqrt(d), requires_grad=True, op=n)
         for n in ("wq", "wk", "wv", "wo")}
    gain = ad.tensor(np.ones(d), requires_grad=True, op="gain")
    q = ad.rope(ad.matmul(x, w["wq"]), H)
    k = ad.rope(ad.matmul(x, w["wk"]), H)
    att = ad.matmul(ref_attention(q, k, ad.matmul(x, w["wv"]), H), w["wo"])
    h = ad.rms_norm(ad.add(att, att), gain)
    loss = mean_all(ad.softmax_cross_entropy(ad.silu(h), np.zeros((2, 4), int)))
    ad.backward(loss)
    nodes = ad.graph_nodes(loss)
    interior = [n for n in nodes if n.parents]
    assert len(interior) > 10 and loss.node in interior
    assert [n.op for n in interior if n.adjoint is not None] == []
    for leaf in [*w.values(), gain]:
        assert leaf.adjoint is not None and np.any(leaf.adjoint), leaf.op
    assert x.adjoint is None


def test_backward_frees_each_vjp_once_run():
    # backward drops every interior vjp once it has run it, and with it the
    # arrays its closure captured, such as a sublayer's input; the leaf
    # adjoints equal those of a backward whose closures all stay alive
    def run(hold):
        r = rng(50)
        B, M, d, H = 2, 5, 8, 2
        shapes = {"x": (B, M, d), "wqkv": (d, 3 * d), "wo": (d, d),
                  "ga": (d,), "w1": (d, 2 * d), "w2": (2 * d, d), "gm": (d,)}
        t = {n: ad.tensor(r.normal(size=s) / np.sqrt(s[0]), requires_grad=True, op=n)
             for n, s in shapes.items()}
        h = ad.add(t["x"], t["x"])
        kept = weakref.ref(h.value)            # only attention's vjp holds it
        out = ad.attention(h, t["wqkv"], t["wo"], t["ga"], H)
        del h
        loss = mean_all(multiply(out, ad.mlp(out, t["w1"], t["w2"], t["gm"])))
        _held = [n.vjp for n in ad.graph_nodes(loss)] if hold else None   # outlive backward
        ad.backward(loss)
        interior = [n for n in ad.graph_nodes(loss) if n.parents]
        assert len(interior) == 5
        return (kept() is not None, [n.vjp is None for n in interior],
                {n: leaf.adjoint for n, leaf in t.items()})

    alive, freed, got = run(hold=False)
    assert not alive and all(freed)
    alive, _, want = run(hold=True)
    assert alive
    for name, g in got.items():
        assert g.tobytes() == want[name].tobytes(), name


def test_stop_gradient_blocks_branch():
    r = rng(25)
    a0 = r.normal(size=(3, 3))
    b0 = r.normal(size=(3, 3))

    def build(t):
        blocked = stop_gradient(ad.matmul(t["a"], t["b"]))
        live = multiply(t["b"], blocked)
        return mean_all(live)

    grads = gradient(build, {"a": a0, "b": b0}, ["a", "b"])
    assert np.array_equal(grads["a"], np.zeros_like(a0))
    # b's gradient only flows through the live factor; check against fd of
    # the equivalent function with the blocked branch frozen at its value
    frozen = a0 @ b0

    def f(arr):
        return float((arr * frozen).mean())

    want = finite_difference_gradient(f, b0)
    assert rel_err(grads["b"], want) <= 1e-6


def test_stop_gradient_forward_is_bit_identical():
    x = ad.tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
    y = ad.silu(x)
    s = stop_gradient(y)
    assert s.value is y.value
    assert s.detached is y
    assert not s.requires_grad


def test_unreached_leaf_gets_exact_zeros():
    r = rng(26)
    grads = gradient(lambda t: mean_all(t["a"]),
                     {"a": r.normal(size=(2, 2)), "b": r.normal(size=(3,))},
                     ["a", "b"])
    assert grads["b"].shape == (3,)
    assert np.all(grads["b"] == 0.0)


# ---------------------------------------------------------------------------
# engine behaviour


def test_no_grad_builds_leaves():
    x = ad.tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        y = ad.silu(ad.add(x, x))
    assert not y.requires_grad
    assert y.parents == ()
    assert y.vjp is None
    z = ad.silu(ad.add(x, x))  # outside the context the graph is back
    assert z.requires_grad


def test_no_grad_nests():
    assert ad.grad_enabled()
    with ad.no_grad():
        assert not ad.grad_enabled()
        with ad.no_grad():
            assert not ad.grad_enabled()
        assert not ad.grad_enabled()
    assert ad.grad_enabled()


def test_evaluate_is_pure():
    r = rng(27)
    bindings = {"a": r.normal(size=(4, 4)), "g": np.ones(4)}

    def build(t):
        return mean_all(ad.rms_norm(ad.matmul(t["a"], t["a"]), t["g"]))

    one = evaluate(build, bindings)
    two = evaluate(build, bindings)
    assert one.tobytes() == two.tobytes()


def test_backward_requires_scalar_root():
    x = ad.tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.AutodiffError, match="backward: root must be scalar"):
        ad.backward(ad.silu(x))


def test_shape_error_names_the_op():
    a = ad.tensor(np.ones((2, 3)))
    b = ad.tensor(np.ones((4, 5)))
    with pytest.raises(ad.AutodiffError, match="matmul: inner dims disagree"):
        ad.matmul(a, b)
    with pytest.raises(ad.AutodiffError, match="add: operands .* do not broadcast"):
        ad.add(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 4))))
    with pytest.raises(ad.AutodiffError, match="rms_norm: gain shape"):
        ad.rms_norm(a, ad.tensor(np.ones(5)))
    h = ad.tensor(np.ones((2, 3, 4)))
    w1, w2 = ad.tensor(np.ones((4, 8))), ad.tensor(np.ones((8, 4)))
    gain, bad_gain = ad.tensor(np.ones(4)), ad.tensor(np.ones(5))
    with pytest.raises(ad.AutodiffError, match="mlp: expected"):
        ad.mlp(ad.tensor(np.ones((3, 4))), w1, w2, gain)
    with pytest.raises(ad.AutodiffError, match="mlp: expected"):
        ad.mlp(h, ad.tensor(np.ones((5, 8))), w2, gain)
    with pytest.raises(ad.AutodiffError, match="mlp: expected"):
        ad.mlp(h, w1, ad.tensor(np.ones((4, 4))), gain)
    with pytest.raises(ad.AutodiffError, match="mlp: expected"):
        ad.mlp(h, w1, ad.tensor(np.ones((8, 5))), gain)
    with pytest.raises(ad.AutodiffError, match="mlp: expected"):
        ad.mlp(h, w1, w2, bad_gain)
    w = [ad.tensor(np.ones((4, 12))), ad.tensor(np.ones((4, 4)))]
    with pytest.raises(ad.AutodiffError, match="attention: expected"):
        ad.attention(ad.tensor(np.ones((3, 4))), *w, gain, 2)
    with pytest.raises(ad.AutodiffError, match="attention: expected"):
        ad.attention(h, w[1], w[1], gain, 2)
    with pytest.raises(ad.AutodiffError, match="attention: expected"):
        ad.attention(h, w[0], ad.tensor(np.ones((4, 5))), gain, 2)
    with pytest.raises(ad.AutodiffError, match="attention: expected"):
        ad.attention(h, *w, bad_gain, 2)
    with pytest.raises(ad.AutodiffError, match="attention: feature dim 4 not divisible"):
        ad.attention(h, *w, gain, 3)
    with pytest.raises(ad.AutodiffError, match="attention: head dim 1 must be even"):
        ad.attention(h, *w, gain, 4)


def test_nonfinite_leaf_rejected():
    bad = np.ones((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ad.AutodiffError, match="non-finite values entering the graph"):
        ad.tensor(bad)


def test_gather_index_out_of_range():
    table = ad.tensor(np.ones((4, 3)), requires_grad=True)
    with pytest.raises(ad.AutodiffError, match="gather: index out of range"):
        ad.gather(table, np.array([0, 4]))


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = ad.tensor(np.zeros((2, 6, 11)))
    ce = ad.softmax_cross_entropy(logits, np.zeros((2, 6), dtype=int))
    assert np.allclose(ce.value, np.log(11.0), rtol=0, atol=1e-12)


def test_masked_mean_empty_mask_rejected():
    with pytest.raises(ad.AutodiffError, match="masked_mean: mask selects no positions"):
        ad.masked_mean(ad.tensor(np.ones((2, 2))), np.zeros((2, 2), dtype=bool))


def test_rope_preserves_norm():
    # rotations are orthogonal, so per-pair norms survive
    r = rng(29)
    x = r.normal(size=(1, 6, 8))
    y = ad.rope(ad.tensor(x), 2).value
    assert np.allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-10)


# ---------------------------------------------------------------------------
# dtype invariance: every primitive's value and vjp keep the operand dtype

IDX = np.array([[0, 2], [4, 1]])
TARGETS = np.array([[0, 3, 1], [2, 2, 0]])
MASK = np.array([[True, False, True], [True, True, False]])

DTYPE_CASES = {
    "add": (lambda t: ad.add(t["a"], t["b"]), {"a": (2, 3, 4), "b": (4,)}),
    "multiply": (lambda t: multiply(t["a"], t["b"]), {"a": (2, 3, 4), "b": (3, 1)}),
    "scale": (lambda t: ad.scale(t["a"], 0.3), {"a": (2, 3)}),
    "matmul": (lambda t: ad.matmul(t["a"], t["b"]), {"a": (2, 3, 4), "b": (4, 5)}),
    "reshape": (lambda t: ad.reshape(t["a"], (6, 4)), {"a": (2, 3, 4)}),
    "slice_axis": (lambda t: ad.slice_axis(t["a"], 1, 3), {"a": (2, 3, 4)}),
    "concat": (lambda t: ad.concat([t["a"], t["b"]]), {"a": (2, 3, 4), "b": (2, 3, 2)}),
    "silu": (lambda t: ad.silu(t["a"]), {"a": (2, 3, 4)}),
    "rms_norm": (lambda t: ad.rms_norm(t["a"], t["g"]), {"a": (2, 3, 4), "g": (4,)}),
    "gather": (lambda t: ad.gather(t["table"], IDX), {"table": (5, 4)}),
    "rope": (lambda t: ad.rope(t["a"], 2), {"a": (2, 6, 8)}),
    "attention": (lambda t: _attend(t, 2), {"h": (2, 5, 8), "wqkv": (8, 24), "wo": (8, 8),
                                            "g": (8,)}),
    "softmax_cross_entropy": (lambda t: ad.softmax_cross_entropy(t["a"], TARGETS),
                              {"a": (2, 3, 4)}),
    "sigmoid_bce": (lambda t: ad.sigmoid_bce(t["a"], MASK), {"a": (2, 3)}),
    "masked_mean": (lambda t: ad.masked_mean(t["a"], MASK), {"a": (2, 3)}),
    "mlp": (lambda t: ad.mlp(t["h"], t["w1"], t["w2"], t["g"]),
            {"h": (2, 3, 4), "w1": (4, 6), "w2": (6, 4), "g": (4,)}),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(DTYPE_CASES))
def test_primitive_keeps_operand_dtype(op, dtype):
    build, shapes = DTYPE_CASES[op]
    r = rng(40)
    leaves = {name: ad.tensor(r.normal(size=s).astype(dtype), requires_grad=True)
              for name, s in shapes.items()}
    out = build(leaves)
    assert out.op == op and out.value.dtype == dtype
    grads = out.vjp(np.asarray(r.normal(size=out.shape), dtype=dtype))
    assert len(grads) == len(out.parents)
    assert [g.dtype for g in grads] == [np.dtype(dtype)] * len(grads)


@pytest.mark.parametrize("op", sorted(DTYPE_CASES))
def test_primitive_records_backward_only_in_grad_mode(op):
    build, shapes = DTYPE_CASES[op]
    r = rng(41)
    arrays = {name: r.normal(size=s).astype(np.float32) for name, s in shapes.items()}

    def run(requires_grad):
        return build({name: ad.tensor(a, requires_grad=requires_grad)
                      for name, a in arrays.items()})

    recorded = run(True)
    assert recorded.parents and recorded.vjp is not None
    with ad.no_grad():
        under_no_grad = run(True)
    for out in (under_no_grad, run(False)):
        assert out.op == op and not out.requires_grad
        assert out.parents == () and out.vjp is None
        assert out.value.dtype == recorded.value.dtype
        assert out.value.tobytes() == recorded.value.tobytes()


# ---------------------------------------------------------------------------
# kernels that rebuild state in backward, pinned to the plain formulas
# byte for byte where they run the formulas' ops and within rounding where
# they do not; a vjp closure keeps no array that backward can recompute


def _same_bytes(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _close(got, want, tol, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert rel_err(got, want) <= tol, (what, rel_err(got, want))


def _graph_grads(build, arrays, g):
    """Value and leaf gradients of a plain graph, with g as its output's
    adjoint."""
    leaves = [ad.tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    ad.backward(ad._node(np.zeros((), out.value.dtype), (out,), lambda _: (g,), "cotangent"))
    return out.value, [t.adjoint for t in leaves]


def _sublayers(H):
    """Both sublayers, each as (node, plain graph, weight shapes for d and
    expansion e)."""
    return (
        (lambda *t: ad.attention(*t, H),
         lambda h, wqkv, wo, gain: ad.rms_norm(ref_sublayer(h, wqkv, wo, H), gain),
         lambda d, e: [(d, 3 * d), (d, d), (d,)]),
        (ad.mlp, lambda h, w1, w2, gain: ad.rms_norm(ad.add(h, _mlp(h, w1, w2)), gain),
         lambda d, e: [(d, e * d), (e * d, d), (d,)]))


def test_rewritten_kernels_match_reference_formulas():
    # the elementwise kernels are pinned byte for byte to the formulas they
    # compute, and to the plain formulas within rounding; rope and the
    # attention sublayer, whose kernels are not those formulas' ops, are
    # pinned in float64 within 1e-12 and give the same bytes on every run
    B, M, d, H = 3, 37, 32, 4
    hd = d // H
    half = hd // 2
    for dtype in (np.float32, np.float64):
        r = rng(42)
        x, q, k, v, g = (r.normal(size=(B, M, d)).astype(dtype) for _ in range(5))
        x *= dtype(4.0)   # reach well into the sigmoid's saturated tails
        gain = r.normal(size=(d,)).astype(dtype)
        tol = 1e-12 if dtype == np.float64 else 1e-5

        def run(op, *values):
            node = op(*(ad.tensor(a, requires_grad=True) for a in values))
            return node.value, node.vjp(g)

        def ref_sigmoid(a):
            return 0.5 * (1.0 + np.tanh(0.5 * a))

        _same_bytes(ad.sigmoid(x), ref_sigmoid(x), f"sigmoid {dtype}")

        value, (gx,) = run(ad.silu, x)
        h, s = x * 0.5, ref_sigmoid(x)
        t = np.tanh(h)
        _same_bytes(value, t * h + h, f"silu value {dtype}")
        _same_bytes(gx, ((1.0 - t) * h + 1.0) * ((t + 1.0) * 0.5) * g, f"silu vjp {dtype}")
        _close(value, x * s, tol, f"silu value, sigmoid form {dtype}")
        _close(gx, g * (s * (1.0 + x * (1.0 - s))), tol, f"silu vjp, sigmoid form {dtype}")

        value, (gx, ggain) = run(ad.rms_norm, x, gain)
        rr = 1.0 / np.sqrt(np.vecdot(x, x)[..., None] / d + ad.RMS_NORM_EPS)
        gg = g * gain
        _same_bytes(value, x * rr * gain, f"rms_norm value {dtype}")
        _same_bytes(gx, rr * gg - (rr ** 3 / d * np.vecdot(gg, x)[..., None]) * x,
                    f"rms_norm vjp x {dtype}")
        _same_bytes(ggain, (g * x * rr).reshape(-1, d).sum(axis=0), f"rms_norm vjp gain {dtype}")
        mean_rr = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + ad.RMS_NORM_EPS)
        _close(value, x * mean_rr * gain, tol, f"rms_norm value, mean form {dtype}")

        value, (gx,) = run(lambda t: ad.rope(t, H), x)
        inv = 10000.0 ** (-np.arange(half, dtype=np.float64) / half)
        ang = np.arange(M, dtype=np.float64)[:, None] * inv[None, :]
        cos, sin = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
        xh, gh = x.reshape(B, M, H, hd).astype(np.float64), g.reshape(B, M, H, hd)
        x1, x2, g1, g2 = xh[..., 0::2], xh[..., 1::2], gh[..., 0::2], gh[..., 1::2]
        want = np.stack([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
        _close(value, want.reshape(B, M, d).astype(dtype), tol, f"rope value {dtype}")
        want = np.stack([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=-1)
        _close(gx, want.reshape(B, M, d).astype(dtype), tol, f"rope vjp {dtype}")
        _same_bytes(value, run(lambda t: ad.rope(t, H), x)[0], f"rope rerun {dtype}")

        value, (gq, gk, gv) = run(lambda a, b, c: ref_attention(a, b, c, H), q, k, v)

        def heads(a):
            return a.reshape(B, M, H, hd).transpose(0, 2, 1, 3)

        def merge(a):
            return a.transpose(0, 2, 1, 3).reshape(B, M, d)

        alpha = 1.0 / np.sqrt(hd)
        qs, kh, vh = heads(q) * float(alpha), heads(k), heads(v)
        p = np.matmul(qs, kh.swapaxes(-1, -2))
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out = merge(np.matmul(p, vh))
        _same_bytes(value, out, f"attention value {dtype}")
        ghh = heads(g)
        gp = np.matmul(ghh, vh.swapaxes(-1, -2))
        gp -= (g * out).reshape(B, M, H, hd).sum(axis=-1).transpose(0, 2, 1)[..., None]
        gp *= p
        gqh = np.matmul(gp, kh)
        gqh *= float(alpha)
        _same_bytes(gq, merge(gqh), f"attention vjp q {dtype}")
        _same_bytes(gk, merge(np.matmul(gp.swapaxes(-1, -2), qs)), f"attention vjp k {dtype}")
        _same_bytes(gv, merge(np.matmul(p.swapaxes(-1, -2), ghh)), f"attention vjp v {dtype}")

        # both sublayers against their plain graphs over the whole batch,
        # with exactly g as the norm's output adjoint.  The MLP runs the
        # graph's ops, so it gives the graph's bytes; attention's fused
        # kernel is within 1e-12 in float64, and in float32 keeps the dtype
        # and repeats its bytes
        (attention, attention_graph, _), (mlp, mlp_graph, _) = _sublayers(H)
        ws = [(r.normal(size=s) / np.sqrt(d)).astype(dtype) for s in ((d, 3 * d), (d, d))]
        value, grads = run(attention, x, *ws, gain)
        again, grads_again = run(attention, x, *ws, gain)
        want_value, want = _graph_grads(attention_graph, (x, *ws, gain), g)
        _close(value, want_value, tol, f"attention sublayer value {dtype}")
        _same_bytes(value, again, f"attention sublayer value rerun {dtype}")
        for got, got_again, w, name in zip(grads, grads_again, want,
                                           ("h", "wqkv", "wo", "gain")):
            _close(got, w, tol, f"attention sublayer vjp {name} {dtype}")
            _same_bytes(got, got_again, f"attention sublayer vjp {name} rerun {dtype}")

        w1 = (r.normal(size=(d, 4 * d)) / np.sqrt(d)).astype(dtype)
        w2 = (r.normal(size=(4 * d, d)) / np.sqrt(4 * d)).astype(dtype)
        value, grads = run(mlp, x, w1, w2, gain)
        want_value, want = _graph_grads(mlp_graph, (x, w1, w2, gain), g)
        _same_bytes(value, want_value, f"mlp value {dtype}")
        for got, w, name in zip(grads, want, ("h", "w1", "w2", "gain")):
            _same_bytes(got, w, f"mlp vjp {name} {dtype}")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sublayers_per_item_bytes_and_reference_over_drawn_shapes(data):
    # the batched/single-case guarantee at every drawn shape: each item's
    # value and h gradient have the same bytes alone, in its group (each a
    # fresh copy, so addresses differ) and in the whole batch.  In float64
    # every output is within 1e-12 of the plain graph, measured against the
    # node's largest output (at M = 1 the scores' gradient is zero, and the
    # q and k weight gradients are rounding noise on both sides), plus, for
    # attention, the rounding its softmax amplifies: a score's absolute
    # rounding error becomes a relative error of every softmax term.  q and
    # k come from length-d sums and the score from a length-hd one, so that
    # error is at most (d + hd) u S, for u float64's unit roundoff and S the
    # largest score magnitude ‖q‖‖k‖ / √hd, and the terms' relative error
    # at most twice it, with the normaliser's; S grows with the square of
    # the weight and item scales.  The weight scale and each item's input
    # scale mix, in one batch, items whose base-2 scores all lie inside
    # (-64, 64) and items that take the softmax's row-max shift.  At the
    # smallest shapes every input's gradient also meets the float64
    # finite-difference oracle at 1e-6, at unit scale: with a scale of 16
    # or 1/4, a row of d = 2 can make the norm curve so sharply, or a
    # gradient so small beside the loss, that central differences miss
    # 1e-6 at every step size
    B, M = data.draw(st.integers(1, 6), "B"), data.draw(st.integers(1, 40), "M")
    H, hd = data.draw(st.sampled_from([1, 2, 4]), "H"), data.draw(st.integers(1, 16), "hd") * 2
    e, d = data.draw(st.integers(1, 4), "expansion"), H * hd
    cuts = sorted(data.draw(st.sets(st.integers(1, max(B - 1, 1)), max_size=B - 1), "cuts"))
    groups = list(zip([0, *cuts], [*cuts, B]))
    wscale = data.draw(st.sampled_from([1.0, 4.0, 16.0]), "weight scale")
    items = data.draw(st.lists(st.sampled_from([0.25, 1.0]), min_size=B, max_size=B), "items")
    r = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    unit, g = (r.normal(size=(B, M, d)).astype(np.float32) for _ in range(2))
    h = unit * np.float32(items)[:, None, None]
    for (node, graph, shapes), softmax in zip(_sublayers(H), (True, False)):
        units = [(r.normal(size=s) / np.sqrt(s[0]) + (len(s) == 1)).astype(np.float32)
                 for s in shapes(d, e)]
        ws = [w * np.float32(wscale) if w.ndim == 2 else w for w in units]

        def run(lo, hi, dtype=np.float32):
            out = node(*(ad.tensor(a.astype(dtype), requires_grad=True)
                         for a in (h[lo:hi].copy(), *ws)))
            return out.value, out.vjp(g[lo:hi].astype(dtype))

        value, grads = run(0, B)
        for lo, hi in groups + [(i, i + 1) for i in range(B)]:
            part, part_grads = run(lo, hi)
            assert part.tobytes() == value[lo:hi].tobytes(), (lo, hi)
            assert part_grads[0].tobytes() == grads[0][lo:hi].tobytes(), (lo, hi)

        value, grads = run(0, B, np.float64)
        want_value, want = _graph_grads(graph, [a.astype(np.float64) for a in (h, *ws)],
                                        g.astype(np.float64))
        scale = max(np.abs(a).max() for a in (want_value, *want))
        tol = 1e-12
        if softmax:
            qk = np.matmul(h.astype(np.float64), ws[0][:, :2 * d].astype(np.float64))
            norms = np.linalg.norm(qk.reshape(B, M, 2, H, hd), axis=-1).max(axis=1)
            S = (norms[:, 0] * norms[:, 1]).max() / np.sqrt(hd)
            u = np.finfo(np.float64).eps / 2
            tol += 2 * (d + hd) * u * S
        for got, w in zip((value, *grads), (want_value, *want)):
            assert got.dtype == np.float64 and got.shape == w.shape
            assert np.abs(got - w).max() <= tol * scale

        if B * M * d <= 64 and d <= 8:
            names = ["h", *(f"w{i}" for i in range(len(ws)))]
            check_gradients(lambda t: mean_all(multiply(node(*(t[n] for n in names)),
                                                        ad.tensor(g.astype(np.float64)))),
                            dict(zip(names, (unit, *units))))


def test_attention_item_whose_scores_could_overflow_takes_the_shift():
    # an unshifted exp2 of a float32 base-2 score above 128 is infinite;
    # such an item takes the row-max shift, is finite and matches the
    # float64 graph, and has the same bytes alone as beside an in-range item
    B, M, d, H = 2, 9, 8, 2
    r = rng(50)
    h = r.normal(size=(B, M, d))
    h[1] *= 12.0
    g = r.normal(size=(B, M, d))
    ws = [r.normal(size=s) / np.sqrt(d) for s in ((d, 3 * d), (d, d))] + [np.ones(d)]
    q, k = (ad.rope(ad.tensor(h @ ws[0][:, i * d:(i + 1) * d]), H).value.reshape(B, M, H, d // H)
            for i in range(2))
    scores = np.einsum("bqhj,bkhj->bhqk", q, k) / np.sqrt(d // H) / np.log(2)
    assert np.abs(scores[0]).max() < 64 and scores[1].max() > 128

    def run(lo, hi):
        out = ad.attention(*(ad.tensor(a.astype(np.float32), requires_grad=True)
                             for a in (h[lo:hi], *ws)), H)
        return out.value, out.vjp(g[lo:hi].astype(np.float32))

    value, grads = run(0, B)
    want_value, want = _graph_grads(_sublayers(H)[0][1], (h, *ws), g)
    for got, w, name in zip((value, *grads), (want_value, *want),
                            ("value", "h", "wqkv", "wo", "gain")):
        assert got.dtype == np.float32 and np.all(np.isfinite(got)), name
        assert rel_err(got.astype(np.float64), w) <= 1e-4, (name, rel_err(got, w))
    alone, alone_grads = run(1, 2)
    assert alone.tobytes() == value[1:].tobytes()
    assert alone_grads[0].tobytes() == grads[0][1:].tobytes()


def test_shifted_softmax_keeps_every_term_at_least_2_to_the_minus_64(monkeypatch):
    # after the row-max shift, base-2 scores below -64 are raised to -64,
    # as the direct path never goes below it: exp2 makes no denormal term,
    # which would slow every pass over e many times over
    B, M, d, H = 2, 16, 8, 2
    r = rng(51)
    h = r.normal(size=(B, M, d)).astype(np.float32)
    h[1] *= 16.0
    ws = [(r.normal(size=s) / np.sqrt(d)).astype(np.float32) for s in ((d, 3 * d), (d, d))]
    saved = []
    attend = ad._attend

    def spy(x, state, out, num_heads):
        kept = attend(x, state, out, num_heads)
        saved.append(kept[3].copy())
        return kept

    monkeypatch.setattr(ad, "_attend", spy)
    ad.attention(*(ad.tensor(a) for a in (h, *ws, np.ones(d, np.float32))), H)
    q, k = (ad.rope(ad.tensor(h.astype(np.float64) @ ws[0][:, i * d:(i + 1) * d]), H).value
            .reshape(B, M, H, d // H) for i in range(2))
    scores = np.einsum("bqhj,bkhj->bhkq", q, k) / np.sqrt(d // H) / np.log(2)
    spread = scores.max(axis=2) - scores.min(axis=2)
    assert np.abs(scores[0]).max() < 64 and spread[1].max() > 200
    assert len(saved) == B
    for e in saved:
        assert e.dtype == np.float32 and e.min() >= 2.0 ** -64
    assert saved[1].min() == np.float32(2.0 ** -64)


def test_sublayers_refuse_an_empty_batch():
    h = ad.tensor(np.ones((0, 5, 8)), requires_grad=True)
    gain = ad.tensor(np.ones(8), requires_grad=True)
    w = [ad.tensor(np.ones(s) / 8, requires_grad=True) for s in ((8, 24), (8, 8))]
    with pytest.raises(ad.AutodiffError, match="attention: empty batch"):
        ad.attention(h, *w, gain, 2)
    with pytest.raises(ad.AutodiffError, match="mlp: empty batch"):
        ad.mlp(h, w[1], w[1], gain)


def test_rope_and_attention_refuse_half_precision():
    # the phases are complex, and numpy has no complex type for float16
    h = ad.tensor(np.ones((1, 3, 4), np.float16))
    w = [ad.tensor(np.ones((4, 12), np.float16)), ad.tensor(np.eye(4, dtype=np.float16))]
    with pytest.raises(ad.AutodiffError, match="float16 has no complex type"):
        ad.attention(h, *w, ad.tensor(np.ones(4, np.float16)), 2)
    with pytest.raises(ad.AutodiffError, match="float16 has no complex type"):
        ad.rope(h, 2)


def test_vjp_closures_keep_no_recomputable_arrays():
    B, M, d, H = 2, 6, 8, 2
    r = rng(43)
    # attention keeps h, its two weights and the gain: no q, k, v, scores,
    # output or residual sum, also after its vjp has run once
    x = ad.tensor(r.normal(size=(B, M, d)), requires_grad=True)
    ws = [ad.tensor(r.normal(size=s), requires_grad=True) for s in ((d, 3 * d), (d, d))]
    gain = ad.tensor(np.ones(d), requires_grad=True)
    node = ad.attention(x, *ws, gain, H)
    node.vjp(np.ones(node.shape))
    kept = closure_arrays(node.vjp)
    assert set(map(id, kept)) == {id(t.value) for t in (x, *ws, gain)}

    node = ad.silu(x)
    full = [a for a in closure_arrays(node.vjp) if a.size == x.value.size]
    assert full and all(a is x.value for a in full)

    # the MLP keeps h, the two weights and the gain, and no 4d-wide
    # activation or residual sum, also after its vjp has run once
    w1, w2 = (ad.tensor(r.normal(size=s), requires_grad=True) for s in ((d, 4 * d), (4 * d, d)))
    node = ad.mlp(x, w1, w2, gain)
    node.vjp(np.ones(node.shape))
    kept = closure_arrays(node.vjp)
    assert set(map(id, kept)) == {id(t.value) for t in (x, w1, w2, gain)}


def test_phi_apply_closures_keep_two_activations_per_layer():
    # per layer, backward keeps the attention input h and the MLP input,
    # and no other (B, M, d) buffer: each sublayer node ends in its own
    # residual add and rms_norm and rebuilds what they need
    cfg = md.ModelConfig(hidden_size=16, num_heads=2, num_layers=2, expansion=2, seq_len=9)
    params = md.Parameters.init(cfg, rng(48))
    pt = md.wrap_parameters(params)
    shape = (3, cfg.seq_len + 1, cfg.hidden_size)
    h = ad.tensor(rng(49).normal(size=shape).astype(np.float32), requires_grad=True)
    out = md.phi_apply(pt, cfg, h)
    bases = set()
    for node in ad.graph_nodes(out):
        for a in closure_arrays(node.vjp) if node.vjp is not None else ():
            if a.shape == shape:
                while a.base is not None:
                    a = a.base
                bases.add(id(a))
    assert len(bases) == 2 * cfg.num_layers
    assert id(h.value) in bases and id(out.value) not in bases
