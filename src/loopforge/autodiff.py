"""Reverse-mode automatic differentiation over numpy arrays.

Define-by-run: every primitive computes its forward value, defines a
closure computing vector-Jacobian products, and passes both with its
operands to one constructor, `_node`.  That is the only place grad mode
is decided: the result's node records parents and vjp when grad mode is
on and some operand requires grad, and is a plain leaf otherwise.
The graph is rebuilt from scratch on every training step; nothing here is
retained between steps except the raw parameter arrays owned by the caller.

The graph is kept apart from the values: a `Tensor` pairs a forward
value with its `Node`, and nodes link only to their parents' nodes.  A
vjp reads only what its closure captured at forward time, so a value
lives while forward code holds its Tensor or a vjp closure not yet run
by `backward` holds the array.  `attention` and `mlp` are whole
post-norm sublayers, each ending in its residual add and rms_norm, and
one runner, `_post_norm`, runs both one batch item at a time and keeps
only their input, weights and gain: q, k, v, the scores, the MLP's
hidden arrays and each residual sum exist for one item at once and never
outlive the call, and backward rebuilds them.  They equal the plain graph
of their ops to rounding, and an item's bytes do not depend on its batch.

Only the primitives the looped-transformer stack needs are provided.  Each
one validates operand shapes up front and raises `AutodiffError`, the one
error class here, with a message naming the op, rather than letting numpy
fail somewhere downstream.

Gradient flow is cut in two places only: under the `no_grad` context
`_node` records no graph at all, for warm-up phases, and the window carry,
`model._carry`, hands the next window a fresh leaf holding the previous
window's state value, with no edge back into the graph that made it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class AutodiffError(Exception):
    """A graph construction or evaluation failure: operand shapes the op
    cannot take, a call outside its domain, or a NaN or infinity crossing
    a graph boundary."""


_GRAD_STACK = [True]


class no_grad:
    """Context manager: ops build plain value nodes, no backward graph."""

    def __enter__(self):
        _GRAD_STACK.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_STACK.pop()
        return False


def grad_enabled() -> bool:
    return _GRAD_STACK[-1]


class Node:
    """One vertex of the backward graph.  Its parents are the operands'
    nodes, and it holds no forward value (`value` reads None), so the graph
    keeps no array alive.

    `adjoint` stays None until `backward` reaches the node, so an untouched
    node has an exactly-zero gradient; after backward only leaves keep
    theirs, and no node keeps its `vjp`.  `detached` is always None for
    nodes built in this package; outside audits may point it at the Tensor
    behind a boundary and walk its graph with
    `graph_nodes(follow_detached=True)`.  Backward never follows it.
    """

    __slots__ = ("parents", "vjp", "adjoint", "requires_grad", "op", "detached")
    value = None

    def __init__(self, parents, vjp, requires_grad, op):
        self.parents, self.vjp, self.adjoint = parents, vjp, None
        self.requires_grad, self.op, self.detached = requires_grad, op, None


class Tensor:
    """A forward value and the node that made it.

    `value` is read by later forward ops, never by backward: a vjp closure
    captures at forward time the operand arrays and shapes it needs, so an
    array lives while forward code holds its Tensor or a closure holds the
    array.  Intermediates that are cheap to rebuild are recomputed in
    backward instead: silu's tanh, and everything inside the `attention`
    and `mlp` sublayers, residual sums included, rebuilt from the
    sublayer's input.  The losses' probabilities are built only there.
    """

    __slots__ = ("value", "node")

    def __init__(self, value, parents=(), vjp=None, requires_grad=False, op="input"):
        self.value = value
        self.node = Node(tuple(p.node for p in parents), vjp, requires_grad, op)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape}, grad={self.requires_grad})"


# every node slot reads and writes through the Tensor, so code that sets
# `t.vjp` on a primitive's result reaches the node that backward calls
for _slot in Node.__slots__:
    setattr(Tensor, _slot, property(lambda t, s=_slot: getattr(t.node, s),
                                    lambda t, v, s=_slot: setattr(t.node, s, v)))


def tensor(value, requires_grad: bool = False, op: str = "input") -> Tensor:
    """Wrap an array as a leaf node.  Floating dtype only; must be finite."""
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.floating):
        raise AutodiffError(f"tensor leaves must be floating point, got dtype {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise AutodiffError(f"non-finite values entering the graph at leaf {op!r}")
    return Tensor(arr, requires_grad=requires_grad, op=op)


def _node(value: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    """The result of a primitive.  Its node records parents and vjp only in
    grad mode and when some operand requires grad; otherwise it is a plain
    leaf, and the vjp closure is dropped unused."""
    if grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(value, parents, vjp, True, op)
    return Tensor(value, op=op)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Value-level logistic function; the tanh form saturates instead of
    overflowing.  Built in one buffer; a scalar argument gives a 0-d array."""
    s = np.asarray(np.multiply(x, 0.5))
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        value = a.value + b.value
    except ValueError:
        raise AutodiffError(f"add: operands {a.shape} and {b.shape} do not broadcast")
    ashape, bshape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, ashape), _unbroadcast(g, bshape)

    return _node(value, (a, b), vjp, "add")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _node(a.value * s, (a,), lambda g: (g * s,), "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """One broadcasting `np.matmul`, forward and for a's gradient, so each
    item of a stack gets its own product's bytes at every size.  b's
    gradient is the items' products summed in item order."""
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise AutodiffError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise AutodiffError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    try:
        value = np.matmul(av, bv)
    except ValueError:
        raise AutodiffError(f"matmul: batch dims do not broadcast, {a.shape} @ {b.shape}")

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), av.shape)
        gb = _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), bv.shape)
        return ga, gb

    return _node(value, (a, b), vjp, "matmul")


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a: Tensor, shape) -> Tensor:
    try:
        value = a.value.reshape(shape)
    except ValueError:
        raise AutodiffError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    src = a.shape
    return _node(value, (a,), lambda g: (g.reshape(src),), "reshape")


def slice_axis(a: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    ax = axis if axis >= 0 else a.value.ndim + axis
    size = a.shape[ax]
    if not (0 <= start <= stop <= size):
        raise AutodiffError(f"slice_axis: [{start}:{stop}] outside axis {axis} of {a.shape}")
    index = tuple(slice(None) if i != ax else slice(start, stop) for i in range(a.value.ndim))
    src = a.shape

    def vjp(g):
        out = np.zeros(src, dtype=g.dtype)
        out[index] = g
        return (out,)

    return _node(a.value[index], (a,), vjp, "slice_axis")


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise AutodiffError("concat: need at least one operand")
    try:
        value = np.concatenate([p.value for p in parts], axis=axis)
    except ValueError:
        raise AutodiffError(
            "concat: shapes " + ", ".join(str(p.shape) for p in parts)
            + f" do not align on axis {axis}")
    sizes = [p.shape[axis] for p in parts]

    return _node(value, tuple(parts),
                 lambda g: tuple(np.split(g, np.cumsum(sizes[:-1]), axis=axis)), "concat")


# ---------------------------------------------------------------------------
# nonlinearities and norms


def _silu(h: np.ndarray) -> np.ndarray:
    """silu(2h) = 2h * sigmoid(2h) = h + h * tanh(h), in three passes and
    one buffer."""
    value = np.tanh(h)
    value *= h
    value += h
    return value


def _silu_grad(h: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """silu's vjp at 2h for t = tanh(h), g * s * (1 + h * (1 - t)) with s =
    sigmoid(2h) = (1 + t) / 2, in one buffer; t is overwritten."""
    out = np.subtract(1.0, t)
    out *= h
    out += 1.0
    out *= np.multiply(np.add(t, 1.0, out=t), 0.5, out=t)
    out *= g
    return out


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x) as `_silu` of x / 2, as `mlp` runs it.  No code in this
    package calls it: it is the reference `mlp` is pinned to, and loopbench's
    tracer patches it by name.  The node keeps only its input."""
    av = a.value
    return _node(_silu(av * 0.5), (a,),
                 lambda g: (_silu_grad(av * 0.5, np.tanh(av * 0.5), g),), "silu")


RMS_NORM_EPS = 1e-6


def _inv_rms(x: np.ndarray) -> np.ndarray:
    """1 / sqrt(mean(x ** 2) + eps) over the kept last axis of x, each row's
    sum of squares one dot product."""
    return 1.0 / np.sqrt(np.vecdot(x, x)[..., None] / x.shape[-1] + RMS_NORM_EPS)


def _rms(x: np.ndarray, gain: np.ndarray, out=None) -> np.ndarray:
    """Each row of x scaled to unit root-mean-square, times gain; written
    to `out` when given."""
    value = np.multiply(x, _inv_rms(x), out=out)
    value *= gain
    return value


def _rms_vjp(g: np.ndarray, x: np.ndarray, gain: np.ndarray, total=None) -> tuple:
    """`_rms`'s vjp over rows x, with r rebuilt from x: x's gradient
    r * gg - (r ** 3 / d) * (gg · x) * x for gg = g * gain, and gain's, the
    rows of g * x * r summed one at a time onto `total`, the sum of earlier
    rows, as `reshape(-1, d).sum(axis=0)` adds a batch's.  Two full buffers."""
    r = _inv_rms(x)
    ga = g * gain
    tmp = np.multiply(r ** 3 / x.shape[-1] * np.vecdot(ga, x)[..., None], x)
    ga *= r
    ga -= tmp
    np.multiply(g, x, out=tmp)
    tmp *= r
    rows = tmp.reshape(-1, x.shape[-1])
    if total is not None:
        rows[0] += total
    return ga, rows.sum(axis=0)


def rms_norm(a: Tensor, gain: Tensor) -> Tensor:
    """Normalise the last axis to unit root-mean-square, then scale by gain.

    No code in this package calls it: `attention` and `mlp` end in this
    norm, run per item over the same helpers.  It stays as the reference
    those nodes are pinned to, and because loopbench's tracer patches it
    by name."""
    d = a.shape[-1]
    if gain.shape != (d,):
        raise AutodiffError(f"rms_norm: gain shape {gain.shape} does not match feature dim {d}")
    x, gv = a.value, gain.value
    return _node(_rms(x, gv), (a, gain), lambda g: _rms_vjp(g, x, gv), "rms_norm")


# ---------------------------------------------------------------------------
# embeddings and rotary positions


def gather(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; backward scatter-adds."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise AutodiffError(f"gather: indices must be integers, got dtype {idx.dtype}")
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise AutodiffError(
            f"gather: index out of range for table with {rows} rows "
            f"(min {idx.min()}, max {idx.max()})")
    tshape = table.shape

    def vjp(g):
        out = np.zeros(tshape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return (out,)

    return _node(table.value[idx], (table,), vjp, "gather")


_PHASES: dict = {}


def _phases(M: int, num_heads: int, hd: int, dtype) -> tuple:
    """Rope as complex phases over q's and then k's heads, cached: a table
    (M, num_heads * hd) of e^(i m θ_j) for position m and each head's
    adjacent pair (x[2j], x[2j + 1]), θ_j = 10000 ** (-2j / hd), times
    head_dim ** -0.5 / ln 2 for q, so that scores come in base 2 for exp2;
    and ln 2 times its conjugate, the rotation's transpose with exp2's
    derivative folded in.  Made in float64."""
    key = (M, num_heads, hd, np.dtype(dtype).str)
    if np.dtype(dtype).itemsize < 4:
        raise AutodiffError(f"rope: {np.dtype(dtype)} has no complex type for the phases")
    if key not in _PHASES:
        inv = 10000.0 ** (-np.arange(hd // 2) / (hd // 2))
        turn = np.tile(np.exp(1j * np.arange(M)[:, None] * inv), num_heads)
        table = np.concatenate([turn / (math.sqrt(hd) * math.log(2)), turn], 1)
        ctype = np.result_type(dtype, 1j)
        _PHASES[key] = (table.astype(ctype), (math.log(2) * table.conj()).astype(ctype))
    return _PHASES[key]


def _turn(a: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """a's adjacent pairs (re, im) times phases, as complex numbers, in
    place: one complex multiply rotates every pair.  Returns a."""
    c = a.view(phases.dtype)
    np.multiply(c, phases, out=c)
    return a


def _check_heads(op: str, d: int, num_heads: int) -> int:
    """The head dim of d features over num_heads heads; rope needs it even."""
    if d % num_heads != 0:
        raise AutodiffError(f"{op}: feature dim {d} not divisible by {num_heads} heads")
    hd = d // num_heads
    if hd % 2 != 0:
        raise AutodiffError(f"{op}: head dim {hd} must be even")
    return hd


def rope(a: Tensor, num_heads: int) -> Tensor:
    """Rotary position rotation applied per head over the sequence axis:
    for (..., M, d), each head's adjacent pair (x[2j], x[2j + 1]) read as a
    complex number times k's phases in `_phases`.  No code in this package
    calls it: it is the reference `attention` is pinned to, and loopbench's
    tracer patches it by name."""
    hd = _check_heads("rope", a.shape[-1], num_heads)
    *_, M, d = a.shape
    turn = _phases(M, num_heads, hd, a.value.dtype)[0][:, d // 2:]
    return _node(_turn(a.value.copy(), turn), (a,),
                 lambda g: (_turn(g.copy(), turn.conj()),), "rope")


# ---------------------------------------------------------------------------
# the two sublayers


def _post_norm(op: str, h: Tensor, weights, gain: Tensor, item, item_vjp, prepare) -> Tensor:
    """The node rms_norm(h + f(h), gain) for h (B, M, d), B > 0, one batch
    item at a time: the runner of both sublayers.  `item(x, state, out)`
    writes one item's residual sum x + f(x) to `out`, its row of the
    output, which one `_rms` call then normalises, and returns what its vjp
    reads; `item_vjp(gs, x, saved, state, out)` writes x's gradient, the
    sum's adjoint gs included, to `out` and returns the item's weight
    gradients, in the weights' order, which are summed in item order.
    `prepare()` builds a pass's state, so the node keeps only h, the
    weights and the gain.  An item's value and h gradient have the
    same bytes in any batch and equal the plain graph of f and rms_norm to
    rounding."""
    hv, nv = h.value, gain.value
    if not len(hv):
        raise AutodiffError(f"{op}: empty batch, h {h.shape}")
    dtype = np.result_type(hv, nv, *(w.value for w in weights))
    value, state = np.empty(hv.shape, dtype), prepare()
    for b, x in enumerate(hv):
        item(x, state, value[b])
    _rms(value, nv, out=value)

    def vjp(g):
        state = prepare()
        gh, ggain, s = np.empty_like(hv), None, np.empty(hv.shape[1:], dtype)
        for b, x in enumerate(hv):
            saved = item(x, state, s)
            gs, ggain = _rms_vjp(g[b], s, nv, ggain)
            gw = item_vjp(gs, x, saved, state, gh[b])
            gws = gw if b == 0 else [np.add(t, w, out=t) for t, w in zip(gws, gw)]
        return (gh, *gws, ggain)

    return _node(value, (h, *weights, gain), vjp, op)


def _heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """One item's (M, d) as an (H, M, hd) view; writing to it merges heads."""
    M, d = x.shape
    return x.reshape(M, num_heads, d // num_heads).transpose(1, 0, 2)


def _attend(x, state, out, num_heads: int) -> tuple:
    """Attention's item kernel on its sublayer input x (M, d): writes the
    residual sum x + o · wo to `out` and returns what its vjp reads: the
    q, k and v heads, e = 2 ** s for the (H, M, M) base-2 scores s, keys
    down, shifted by each row's max over keys and kept at -64 or above
    only if some score of this item lies outside (-64, 64) or is not
    finite, its sums over keys l, and the merged output o = eᵀ · v / l.
    One complex multiply rotates q|k, projected by wqkv as stored, and
    scales q."""
    w, turn, _, ones, wo = state[:5]
    d = x.shape[-1]
    qk = _turn(np.matmul(x, w[:, :2 * d]), turn)
    qs, kh, vh = (_heads(a, num_heads) for a in (qk[:, :d], qk[:, d:], np.matmul(x, w[:, 2 * d:])))
    e = np.matmul(kh, qs.swapaxes(-1, -2))
    if not (-64.0 < e.min() and e.max() < 64.0):
        e -= e.max(axis=1, keepdims=True)
        # as on the direct path, no term below 2 ** -64: far smaller ones
        # are denormals after exp2, which run many times slower
        np.maximum(e, -64.0, out=e)
    np.exp2(e, out=e)
    l = np.matmul(ones, e)
    o = np.empty((len(x), d), e.dtype)
    np.divide(np.matmul(e.swapaxes(-1, -2), vh), l[..., None], out=_heads(o, num_heads))
    np.matmul(o, wo, out=out)
    out += x
    return qs, kh, vh, e, l, o


def attention(h: Tensor, wqkv: Tensor, wo: Tensor, gain: Tensor, num_heads: int) -> Tensor:
    """The post-norm attention sublayer, rms_norm(h + MHA(q, k, v) · wo,
    gain) for h (B, M, d) and [q | k | v] = h · wqkv, q and k rotated by
    `rope`, run by `_post_norm`: one item's q, k, v, (H, M, M) scores and
    output exist at once, in cache.  Unmasked multi-head self-attention,
    scores scaled by head_dim ** -0.5, softmax over keys.  Rope turns each
    head's adjacent feature pairs, so q|k is rotated and q scaled by one
    complex multiply on the columns as stored, and the vjp multiplies by
    the conjugates; h's gradient and wqkv's are one GEMM each.  Scores come
    in base 2 for exp2, shifted only if one could overflow, and softmax is
    normalised on the output; the vjp divides the output's adjoint by the
    same sums."""
    d = h.shape[-1]
    if (h.value.ndim != 3 or wqkv.shape != (d, 3 * d) or wo.shape != (d, d)
            or gain.shape != (d,)):
        raise AutodiffError(f"attention: expected h (batch, seq, d), a (d, 3d) wqkv, a (d, d) "
                            f"wo and a (d,) gain, got {h.shape}, {wqkv.shape}, {wo.shape}, "
                            f"{gain.shape}")
    hd = _check_heads("attention", d, num_heads)
    wqkvv, wov = wqkv.value, wo.value
    M, dtype = h.shape[1], np.result_type(h.value, wqkvv, wov, gain.value)

    def prepare():
        return (wqkvv.astype(dtype, copy=False), *_phases(M, num_heads, hd, dtype),
                np.ones(M, dtype), wov, np.empty((M, 3 * d), dtype))

    def item_vjp(gs, x, saved, state, out):
        qs, kh, vh, e, l, o = saved
        w, _, back, _, _, gqkv = state
        gq, gk, gv = (_heads(gqkv[:, i * d:(i + 1) * d], num_heads) for i in range(3))
        gah = np.divide(_heads(np.matmul(gs, wov.T), num_heads), l[..., None])
        np.matmul(e, gah, out=gv)
        ge = np.matmul(vh, gah.swapaxes(-1, -2))
        # softmax backward in place: sum(p * gp) over keys is ga · o per
        # head, an (M, d) product instead of (H, M, M)
        ge -= np.vecdot(gah, _heads(o, num_heads))[:, None]
        ge *= e
        np.matmul(ge.swapaxes(-1, -2), kh, out=gq)
        np.matmul(ge, qs, out=gk)
        _turn(gqkv[:, :2 * d], back)
        np.matmul(gqkv, w.T, out=out)
        out += gs
        return np.matmul(x.T, gqkv), np.matmul(o.T, gs)

    return _post_norm("attention", h, (wqkv, wo), gain,
                      lambda x, state, out: _attend(x, state, out, num_heads), item_vjp, prepare)


def mlp(h: Tensor, w1: Tensor, w2: Tensor, gain: Tensor) -> Tensor:
    """The post-norm MLP sublayer, rms_norm(h + silu(h · w1) · w2, gain) for
    h (B, M, d), run by `_post_norm`: the wide hidden arrays exist for one
    item at a time, and the vjp rebuilds them, the second GEMM included.
    Each pass halves w1, which is exact, and silu is `_silu` of h · w1 / 2."""
    if (h.value.ndim != 3 or w1.value.ndim != 2 or w2.value.ndim != 2
            or h.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]
            or w2.shape[1] != h.shape[-1] or gain.shape != h.shape[-1:]):
        raise AutodiffError(f"mlp: expected (batch, seq, d) @ (d, e) @ (e, d) and a (d,) gain, "
                            f"got {h.shape} @ {w1.shape} @ {w2.shape}, {gain.shape}")
    w1v, w2v = w1.value, w2.value

    def item(x, state, out):
        a = np.matmul(x, state[0])
        act = _silu(a)
        np.matmul(act, w2v, out=out)
        out += x
        return a, act

    def item_vjp(gs, x, saved, state, out):
        a, act = saved
        ga = _silu_grad(a, np.tanh(a), np.matmul(gs, w2v.T))
        np.matmul(ga, w1v.T, out=out)
        out += gs
        return np.matmul(x.T, ga), np.matmul(act.T, gs)

    return _post_norm("mlp", h, (w1, w2), gain, item, item_vjp, lambda: (w1v * 0.5,))


# ---------------------------------------------------------------------------
# losses and reductions


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-position cross entropy; logits (..., V), integer targets (...)."""
    t = np.asarray(targets)
    if t.shape != logits.shape[:-1]:
        raise AutodiffError(
            f"softmax_cross_entropy: targets {t.shape} do not match logits {logits.shape}")
    V = logits.shape[-1]
    if t.size and (t.min() < 0 or t.max() >= V):
        raise AutodiffError(f"softmax_cross_entropy: target outside [0, {V})")
    x = logits.value
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    idx = t[..., None]
    value = (lse - np.take_along_axis(x, idx, axis=-1))[..., 0]

    def vjp(g):
        gl = np.exp(x - lse) * g[..., None]   # softmax probabilities times g
        cur = np.take_along_axis(gl, idx, axis=-1)
        np.put_along_axis(gl, idx, cur - g[..., None], axis=-1)
        return (gl,)

    return _node(value, (logits,), vjp, "softmax_cross_entropy")


def sigmoid_bce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross entropy on raw logits against 0/1 targets."""
    t = np.asarray(targets, dtype=logits.value.dtype)
    if t.shape != logits.shape:
        raise AutodiffError(f"sigmoid_bce: targets {t.shape} do not match logits {logits.shape}")
    x = logits.value
    value = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    return _node(value, (logits,), lambda g: (g * (sigmoid(x) - t),), "sigmoid_bce")


def masked_mean(a: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of the entries where mask is true; scalar output."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    n = int(m.sum())
    if n == 0:
        raise AutodiffError("masked_mean: mask selects no positions")
    value = np.asarray((a.value * m).sum() / n, dtype=a.value.dtype)
    dtype = a.value.dtype

    def vjp(g):
        return ((np.asarray(g) / n) * m.astype(dtype),)

    return _node(value, (a,), vjp, "masked_mean")


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Populate `.adjoint` on every gradient-reachable leaf under root.

    Each interior node's vjp and adjoint are dropped as soon as the vjp has
    run, so backward holds only the adjoints still to be propagated and the
    closures still to run; after it returns the graph holds no array, and
    every interior node reads `vjp is None` and `adjoint is None`."""
    if root.value.size != 1:
        raise AutodiffError(f"backward: root must be scalar, got shape {root.shape}")
    if not np.all(np.isfinite(root.value)):
        raise AutodiffError("backward: loss is not finite")
    if not root.requires_grad:
        return
    order = _toposort(root.node)
    root.adjoint = np.ones_like(root.value)
    for node in reversed(order):
        if node.vjp is None:
            continue
        grads = node.vjp(node.adjoint)
        node.vjp = node.adjoint = None
        for parent, g in zip(node.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            parent.adjoint = g if parent.adjoint is None else parent.adjoint + g


def graph_nodes(root: Tensor, follow_detached: bool = False) -> list[Node]:
    """All nodes reachable from root's node, optionally also through `.detached`."""
    out, seen, stack = [], set(), [root.node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.parents)
        if follow_detached and node.detached is not None:
            stack.append(node.detached.node)
    return out
