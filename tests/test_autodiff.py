"""Gradient checks for every primitive against central finite differences.

The finite-difference oracle is the ground truth here: each case builds a
scalar loss from one or more primitives, asks the engine for gradients,
and compares against finite_difference_gradient in float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from loopforge import autodiff as ad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def fd_check(build, bindings, wrt=None, tol=1e-6, h=1e-5):
    bindings = {k: np.asarray(v, dtype=np.float64) for k, v in bindings.items()}
    names = sorted(bindings) if wrt is None else sorted(wrt)
    got = ad.gradient(build, bindings, names)
    for name in names:
        def f(arr, name=name):
            b = dict(bindings)
            b[name] = arr
            return float(ad.evaluate(build, b))

        want = ad.finite_difference_gradient(f, bindings[name], h=h)
        err = rel_err(got[name], want)
        assert err <= tol, f"gradient of {name!r} off by {err:.3e} (tol {tol:.0e})"


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# oracle instances, one or more per primitive


def test_add_broadcast():
    r = rng(1)
    fd_check(lambda t: ad.mean_all(ad.add(t["a"], t["b"])),
             {"a": r.normal(size=(3, 4)), "b": r.normal(size=(4,))})


def test_add_sum_to_scalar_row():
    r = rng(2)
    fd_check(lambda t: ad.mean_all(ad.add(t["a"], t["b"])),
             {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(1, 1, 4))})


def test_multiply_broadcast():
    r = rng(3)
    fd_check(lambda t: ad.mean_all(ad.multiply(t["a"], t["b"])),
             {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(3, 1))})


def test_scale():
    r = rng(4)
    fd_check(lambda t: ad.mean_all(ad.scale(t["a"], -2.5)),
             {"a": r.normal(size=(5, 3))})


def test_matmul_plain():
    r = rng(5)
    fd_check(lambda t: ad.mean_all(ad.matmul(t["a"], t["b"])),
             {"a": r.normal(size=(3, 4)), "b": r.normal(size=(4, 5))})


def test_matmul_batched_shared_rhs():
    r = rng(6)
    fd_check(lambda t: ad.mean_all(ad.matmul(t["a"], t["b"])),
             {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(4, 5))})


def test_matmul_batched_both():
    r = rng(7)
    fd_check(lambda t: ad.mean_all(ad.matmul(t["a"], t["b"])),
             {"a": r.normal(size=(2, 3, 4)), "b": r.normal(size=(2, 4, 3))})


def test_softmax_weighted():
    r = rng(8)
    w = r.normal(size=(3, 5))
    fd_check(lambda t: ad.mean_all(ad.multiply(ad.softmax(t["a"]), ad.constant(w))),
             {"a": r.normal(size=(3, 5))})


def test_rms_norm():
    r = rng(9)
    fd_check(lambda t: ad.mean_all(ad.rms_norm(t["a"], t["g"])),
             {"a": r.normal(size=(2, 3, 8)), "g": r.normal(size=(8,)) + 1.0})


def test_rms_norm_batched_weighting():
    r = rng(10)
    w = r.normal(size=(4, 6))
    fd_check(lambda t: ad.mean_all(ad.multiply(ad.rms_norm(t["a"], t["g"]), ad.constant(w))),
             {"a": r.normal(size=(4, 6)) * 3.0, "g": r.normal(size=(6,))})


def test_silu():
    r = rng(11)
    fd_check(lambda t: ad.mean_all(ad.silu(t["a"])),
             {"a": r.normal(size=(3, 7)) * 2.0})


def test_gather_scatter_add():
    r = rng(12)
    idx = np.array([[0, 2, 2], [1, 0, 3]])
    w = r.normal(size=(2, 3, 5))
    fd_check(lambda t: ad.mean_all(ad.multiply(ad.gather(t["table"], idx), ad.constant(w))),
             {"table": r.normal(size=(4, 5))})


def test_rope_rotation():
    r = rng(13)
    w = r.normal(size=(2, 5, 8))
    fd_check(lambda t: ad.mean_all(ad.multiply(ad.rope(t["a"], 2), ad.constant(w))),
             {"a": r.normal(size=(2, 5, 8))})


def test_slice_and_concat_roundtrip():
    r = rng(14)

    def build(t):
        lo = ad.slice_axis(t["a"], 0, 3, axis=-1)
        hi = ad.slice_axis(t["a"], 3, 7, axis=-1)
        back = ad.concat([ad.scale(lo, 2.0), hi], axis=-1)
        return ad.mean_all(ad.multiply(back, back))

    fd_check(build, {"a": r.normal(size=(2, 7))})


def test_split_parts():
    r = rng(15)

    def build(t):
        p1, p2, p3 = ad.split(t["a"], [2, 3, 3], axis=-1)
        return ad.mean_all(ad.add(ad.multiply(p1, p1), ad.matmul(p2, ad.constant(
            np.eye(3)[:, :2]))))  # mixes two parts, leaves p3 unused

    fd_check(build, {"a": r.normal(size=(4, 8))})


def test_concat_sequence_axis():
    r = rng(16)
    fd_check(lambda t: ad.mean_all(ad.concat([t["a"], t["b"]], axis=1)),
             {"a": r.normal(size=(2, 1, 4)), "b": r.normal(size=(2, 3, 4))})


def test_reshape():
    r = rng(17)
    fd_check(lambda t: ad.mean_all(ad.multiply(ad.reshape(t["a"], (6, 2)),
                                               ad.reshape(t["a"], (6, 2)))),
             {"a": r.normal(size=(3, 4))})


def test_attention_small():
    r = rng(18)
    fd_check(lambda t: ad.mean_all(ad.attention(t["q"], t["k"], t["v"], 2)),
             {"q": r.normal(size=(2, 4, 8)),
              "k": r.normal(size=(2, 4, 8)),
              "v": r.normal(size=(2, 4, 8))})


def test_attention_single_head():
    r = rng(19)
    w = r.normal(size=(1, 5, 6))
    fd_check(lambda t: ad.mean_all(ad.multiply(
        ad.attention(t["q"], t["k"], t["v"], 1), ad.constant(w))),
        {"q": r.normal(size=(1, 5, 6)),
         "k": r.normal(size=(1, 5, 6)),
         "v": r.normal(size=(1, 5, 6))})


def test_cross_entropy_masked():
    r = rng(20)
    targets = np.array([[0, 3, 1], [2, 2, 0]])
    mask = np.array([[True, True, False], [True, False, True]])
    fd_check(lambda t: ad.masked_mean(ad.softmax_cross_entropy(t["logits"], targets), mask),
             {"logits": r.normal(size=(2, 3, 4)) * 3.0})


def test_sigmoid_bce_extreme_logits():
    targets = np.array([1.0, 0.0, 1.0, 0.0])
    x = np.array([30.0, -30.0, -30.0, 30.0])
    fd_check(lambda t: ad.mean_all(ad.sigmoid_bce(t["x"], targets)), {"x": x},
             tol=5e-6)  # saturated region: fd itself loses a digit


def test_sigmoid_bce_moderate():
    r = rng(21)
    targets = (r.uniform(size=(3, 4)) > 0.5).astype(float)
    fd_check(lambda t: ad.mean_all(ad.sigmoid_bce(t["x"], targets)),
             {"x": r.normal(size=(3, 4)) * 2.0})


def test_masked_mean_random_mask():
    r = rng(22)
    mask = r.uniform(size=(4, 5)) > 0.4
    fd_check(lambda t: ad.masked_mean(t["a"], mask), {"a": r.normal(size=(4, 5))})


def test_shared_leaf_accumulates():
    r = rng(23)

    def build(t):
        prod = ad.matmul(t["a"], t["a"])  # a used twice in one node
        return ad.mean_all(ad.add(prod, t["a"]))

    fd_check(build, {"a": r.normal(size=(4, 4))})


def test_transformer_block_composition():
    r = rng(24)
    d, H = 8, 2

    def build(t):
        h = t["x"]
        q = ad.rope(ad.matmul(h, t["wq"]), H)
        k = ad.rope(ad.matmul(h, t["wk"]), H)
        v = ad.matmul(h, t["wv"])
        att = ad.matmul(ad.attention(q, k, v, H), t["wo"])
        h = ad.rms_norm(ad.add(h, att), t["g1"])
        mlp = ad.matmul(ad.silu(ad.matmul(h, t["w1"])), t["w2"])
        h = ad.rms_norm(ad.add(h, mlp), t["g2"])
        targets = np.array([[0, 5, 2, 7], [1, 1, 3, 0]])
        return ad.mean_all(ad.softmax_cross_entropy(h, targets))

    fd_check(build, {
        "x": r.normal(size=(2, 4, d)),
        "wq": r.normal(size=(d, d)) / np.sqrt(d),
        "wk": r.normal(size=(d, d)) / np.sqrt(d),
        "wv": r.normal(size=(d, d)) / np.sqrt(d),
        "wo": r.normal(size=(d, d)) / np.sqrt(d),
        "g1": np.ones(d), "g2": np.ones(d),
        "w1": r.normal(size=(d, 3 * d)) / np.sqrt(d),
        "w2": r.normal(size=(3 * d, d)) / np.sqrt(3 * d),
    })


def test_stop_gradient_blocks_branch():
    r = rng(25)
    a0 = r.normal(size=(3, 3))
    b0 = r.normal(size=(3, 3))

    def build(t):
        blocked = ad.stop_gradient(ad.matmul(t["a"], t["b"]))
        live = ad.multiply(t["b"], blocked)
        return ad.mean_all(live)

    grads = ad.gradient(build, {"a": a0, "b": b0}, ["a", "b"])
    assert np.array_equal(grads["a"], np.zeros_like(a0))
    # b's gradient only flows through the live factor; check against fd of
    # the equivalent function with the blocked branch frozen at its value
    frozen = a0 @ b0

    def f(arr):
        return float((arr * frozen).mean())

    want = ad.finite_difference_gradient(f, b0)
    assert rel_err(grads["b"], want) <= 1e-6


def test_stop_gradient_forward_is_bit_identical():
    x = ad.tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
    y = ad.silu(x)
    s = ad.stop_gradient(y)
    assert s.value is y.value
    assert s.detached is y
    assert not s.requires_grad


def test_unreached_leaf_gets_exact_zeros():
    r = rng(26)
    grads = ad.gradient(lambda t: ad.mean_all(t["a"]),
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
        return ad.mean_all(ad.rms_norm(ad.matmul(t["a"], t["a"]), t["g"]))

    one = ad.evaluate(build, bindings)
    two = ad.evaluate(build, bindings)
    assert one.tobytes() == two.tobytes()


def test_backward_requires_scalar_root():
    x = ad.tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.ContractError):
        ad.backward(ad.silu(x))


def test_shape_error_names_the_op():
    a = ad.tensor(np.ones((2, 3)))
    b = ad.tensor(np.ones((4, 5)))
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 4))))
    with pytest.raises(ad.ShapeError, match="rms_norm"):
        ad.rms_norm(a, ad.tensor(np.ones(5)))


def test_nonfinite_leaf_rejected():
    bad = np.ones((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ad.NonFiniteError):
        ad.tensor(bad)


def test_gather_index_out_of_range():
    table = ad.tensor(np.ones((4, 3)), requires_grad=True)
    with pytest.raises(ad.ContractError):
        ad.gather(table, np.array([0, 4]))


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = ad.tensor(np.zeros((2, 6, 11)))
    ce = ad.softmax_cross_entropy(logits, np.zeros((2, 6), dtype=int))
    assert np.allclose(ce.value, np.log(11.0), rtol=0, atol=1e-12)


def test_softmax_rows_sum_to_one():
    r = rng(28)
    p = ad.softmax(ad.tensor(r.normal(size=(3, 4, 9)) * 5)).value
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert p.min() >= 0.0


def test_masked_mean_empty_mask_rejected():
    with pytest.raises(ad.ContractError):
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
    "multiply": (lambda t: ad.multiply(t["a"], t["b"]), {"a": (2, 3, 4), "b": (3, 1)}),
    "scale": (lambda t: ad.scale(t["a"], 0.3), {"a": (2, 3)}),
    "matmul": (lambda t: ad.matmul(t["a"], t["b"]), {"a": (2, 3, 4), "b": (4, 5)}),
    "reshape": (lambda t: ad.reshape(t["a"], (6, 4)), {"a": (2, 3, 4)}),
    "slice_axis": (lambda t: ad.slice_axis(t["a"], 1, 3), {"a": (2, 3, 4)}),
    "concat": (lambda t: ad.concat([t["a"], t["b"]]), {"a": (2, 3, 4), "b": (2, 3, 2)}),
    "softmax": (lambda t: ad.softmax(t["a"]), {"a": (2, 3, 4)}),
    "silu": (lambda t: ad.silu(t["a"]), {"a": (2, 3, 4)}),
    "rms_norm": (lambda t: ad.rms_norm(t["a"], t["g"]), {"a": (2, 3, 4), "g": (4,)}),
    "gather": (lambda t: ad.gather(t["table"], IDX), {"table": (5, 4)}),
    "rope": (lambda t: ad.rope(t["a"], 2), {"a": (2, 6, 8)}),
    "attention": (lambda t: ad.attention(t["q"], t["k"], t["v"], 2),
                  {"q": (2, 5, 8), "k": (2, 5, 8), "v": (2, 5, 8)}),
    "softmax_cross_entropy": (lambda t: ad.softmax_cross_entropy(t["a"], TARGETS),
                              {"a": (2, 3, 4)}),
    "sigmoid_bce": (lambda t: ad.sigmoid_bce(t["a"], MASK), {"a": (2, 3)}),
    "masked_mean": (lambda t: ad.masked_mean(t["a"], MASK), {"a": (2, 3)}),
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
