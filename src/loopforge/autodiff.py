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
lives exactly while forward code holds its Tensor or some vjp closure
holds the array.  `attention` and `mlp` are whole sublayers run one batch
item at a time that keep only their input and weights: q, k, v, the
scores and the MLP's hidden arrays exist for one item at once and never
outlive the call, and backward rebuilds them.

Only the primitives the looped-transformer stack needs are provided.  Each
one validates operand shapes up front and raises a structured error naming
the op, rather than letting numpy fail somewhere downstream.

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
    """Base class for graph construction and evaluation failures."""


class ShapeError(AutodiffError):
    """Operand shapes incompatible with the op that received them."""


class ContractError(AutodiffError):
    """An op was called outside its documented domain."""


class NonFiniteError(AutodiffError):
    """A NaN or infinity crossed a graph boundary."""


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
    node has an exactly-zero gradient; only leaves keep theirs after
    backward.  `detached` is always None for nodes built in this package;
    outside audits may point it at the Tensor behind a boundary and walk
    its graph with `graph_nodes(follow_detached=True)`.  Backward never
    follows it.
    """

    __slots__ = ("parents", "vjp", "adjoint", "requires_grad", "op", "detached")
    value = None

    def __init__(self, parents, vjp, requires_grad, op, detached):
        self.parents, self.vjp, self.adjoint = parents, vjp, None
        self.requires_grad, self.op, self.detached = requires_grad, op, detached


class Tensor:
    """A forward value and the node that made it.

    `value` is read by later forward ops, never by backward: a vjp closure
    captures at forward time the operand arrays and shapes it needs, so an
    array lives while forward code holds its Tensor or a closure holds the
    array.  Intermediates that are cheap to rebuild are recomputed in
    backward instead: silu's sigmoid, and everything inside the `attention`
    and `mlp` sublayers, rebuilt from the sublayer's input.  The losses'
    probabilities are built only there.
    """

    __slots__ = ("value", "node")

    def __init__(self, value, parents=(), vjp=None, requires_grad=False, op="input",
                 detached=None):
        self.value = value
        self.node = Node(tuple(p.node for p in parents), vjp, requires_grad, op, detached)

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
        raise ContractError(f"tensor leaves must be floating point, got dtype {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values entering the graph at leaf {op!r}")
    return Tensor(arr, requires_grad=requires_grad, op=op)


def constant(value, op: str = "constant") -> Tensor:
    return tensor(value, requires_grad=False, op=op)


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
        raise ShapeError(f"add: operands {a.shape} and {b.shape} do not broadcast")
    ashape, bshape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, ashape), _unbroadcast(g, bshape)

    return _node(value, (a, b), vjp, "add")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _node(a.value * s, (a,), lambda g: (g * s,), "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """A stack times one matrix is one 2-D GEMM over all its rows, forward
    and for a's gradient.  Each row gets its item's own product's bytes
    only above OpenBLAS 0.3.31's small-matrix thresholds: at the desk
    config (32 × 146 rows), not at toy sizes such as (37, 128)·(128, 32)ᵀ.
    A (..., 1, K) stack and b's gradient stay batched: as one GEMV or one
    GEMM, their sums would run in another order."""
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    av, bv = a.value, b.value
    rows = bv.ndim == 2 and av.ndim > 2 and av.shape[-2] > 1

    def mm(x, w):
        return (np.matmul(x.reshape(-1, x.shape[-1]), w).reshape(x.shape[:-1] + w.shape[-1:])
                if rows else np.matmul(x, w))

    try:
        value = mm(av, bv)
    except ValueError:
        raise ShapeError(f"matmul: batch dims do not broadcast, {a.shape} @ {b.shape}")

    def vjp(g):
        ga = _unbroadcast(mm(g, bv.swapaxes(-1, -2)), av.shape)
        gb = _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), bv.shape)
        return ga, gb

    return _node(value, (a, b), vjp, "matmul")


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a: Tensor, shape) -> Tensor:
    try:
        value = a.value.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    src = a.shape
    return _node(value, (a,), lambda g: (g.reshape(src),), "reshape")


def slice_axis(a: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    ax = axis if axis >= 0 else a.value.ndim + axis
    size = a.shape[ax]
    if not (0 <= start <= stop <= size):
        raise ShapeError(f"slice_axis: [{start}:{stop}] outside axis {axis} of {a.shape}")
    index = tuple(slice(None) if i != ax else slice(start, stop) for i in range(a.value.ndim))
    src = a.shape

    def vjp(g):
        out = np.zeros(src, dtype=g.dtype)
        out[index] = g
        return (out,)

    return _node(a.value[index], (a,), vjp, "slice_axis")


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ContractError("concat: need at least one operand")
    try:
        value = np.concatenate([p.value for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(
            "concat: shapes " + ", ".join(str(p.shape) for p in parts)
            + f" do not align on axis {axis}")
    sizes = [p.shape[axis] for p in parts]

    return _node(value, tuple(parts),
                 lambda g: tuple(np.split(g, np.cumsum(sizes[:-1]), axis=axis)), "concat")


# ---------------------------------------------------------------------------
# nonlinearities and norms


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x).  The node keeps only its input: backward recomputes
    the sigmoid rather than holding a full-size copy of it per application."""
    av = a.value
    value = sigmoid(av)
    value *= av

    def vjp(g):
        s = sigmoid(av)
        out = np.subtract(1.0, s)   # g * (s * (1 + av * (1 - s))), one buffer
        out *= av
        out += 1.0
        out *= s
        out *= g
        return (out,)

    return _node(value, (a,), vjp, "silu")


RMS_NORM_EPS = 1e-6


def rms_norm(a: Tensor, gain: Tensor) -> Tensor:
    """Normalise the last axis to unit root-mean-square, then scale by gain."""
    d = a.shape[-1]
    if gain.shape != (d,):
        raise ShapeError(f"rms_norm: gain shape {gain.shape} does not match feature dim {d}")
    x, gv = a.value, gain.value
    value = np.square(x)
    r = 1.0 / np.sqrt(np.mean(value, axis=-1, keepdims=True) + RMS_NORM_EPS)
    np.multiply(x, r, out=value)
    value *= gv

    def vjp(g):
        # ga = r * gg - (r ** 3 / d) * x * sum(gg * x) and ggain = sum(g * x * r),
        # in two full-size buffers
        ga = g * gv
        tmp = np.multiply(ga, x)
        dot = tmp.sum(axis=-1, keepdims=True)
        np.multiply(r ** 3 / d, x, out=tmp)
        tmp *= dot
        ga *= r
        ga -= tmp
        np.multiply(g, x, out=tmp)
        tmp *= r
        return ga, tmp.reshape(-1, d).sum(axis=0)

    return _node(value, (a, gain), vjp, "rms_norm")


# ---------------------------------------------------------------------------
# embeddings and rotary positions


def gather(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup into an embedding table; backward scatter-adds."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"gather: indices must be integers, got dtype {idx.dtype}")
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ContractError(
            f"gather: index out of range for table with {rows} rows "
            f"(min {idx.min()}, max {idx.max()})")
    tshape = table.shape

    def vjp(g):
        out = np.zeros(tshape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return (out,)

    return _node(table.value[idx], (table,), vjp, "gather")


_ROPE_CACHE: dict = {}


def _rope_tables(M: int, half: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Full head-width tables (M, 2 * half): [cos, cos] and [-sin, sin]."""
    key = (M, half, np.dtype(dtype).str)
    hit = _ROPE_CACHE.get(key)
    if hit is None:
        inv = 10000.0 ** (-np.arange(half, dtype=np.float64) / half)
        ang = np.arange(M, dtype=np.float64)[:, None] * inv[None, :]
        cos, sin = np.cos(ang), np.sin(ang)
        hit = (np.concatenate([cos, cos], axis=1).astype(dtype),
               np.concatenate([-sin, sin], axis=1).astype(dtype))
        _ROPE_CACHE[key] = hit
    return hit


def _check_heads(op: str, d: int, num_heads: int) -> int:
    """The head dim of d features over num_heads heads; rope needs it even."""
    if d % num_heads != 0:
        raise ShapeError(f"{op}: feature dim {d} not divisible by {num_heads} heads")
    hd = d // num_heads
    if hd % 2 != 0:
        raise ShapeError(f"{op}: head dim {hd} must be even")
    return hd


def _rotate(x: np.ndarray, num_heads: int, inverse: bool = False) -> np.ndarray:
    """Each head's halves (x1, x2) of x (..., M, d) -> swap(x) * [-sin, sin]
    + x * [cos, cos] = (x1 cos - x2 sin, x1 sin + x2 cos), with the two-half
    formula's bytes.  `inverse` negates the angle (exactly, via sin): the
    transpose of a rotation, so rope's vjp."""
    *lead, M, d = x.shape
    hd = d // num_heads
    half = hd // 2
    cos, sin = _rope_tables(M, half, x.dtype)
    xh = x.reshape(*lead, M, num_heads, hd)
    out = np.empty_like(xh)
    out[..., :half] = xh[..., half:]
    out[..., half:] = xh[..., :half]
    out *= (-sin if inverse else sin)[:, None, :]   # (M, 1, hd): broadcasts over heads
    out += xh * cos[:, None, :]
    return out.reshape(x.shape)


def rope(a: Tensor, num_heads: int) -> Tensor:
    """Rotary position rotation applied per head over the sequence axis.

    Expects (..., M, d) with d divisible by num_heads and an even head dim;
    each head's features are split in halves and rotated by position.
    No code in this package calls it (`attention` rotates with `_rotate`
    per item); it stays because loopbench's tracer patches it by name.
    """
    _check_heads("rope", a.shape[-1], num_heads)
    return _node(_rotate(a.value, num_heads), (a,),
                 lambda g: (_rotate(g, num_heads, inverse=True),), "rope")


# ---------------------------------------------------------------------------
# attention


def _heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """One item's (M, d) as an (H, M, hd) view; writing to it merges heads."""
    M, d = x.shape
    return x.reshape(M, num_heads, d // num_heads).transpose(1, 0, 2)


def _attend(x, wq, wk, wv, num_heads: int, alpha: float) -> tuple:
    """One item's attention core from its sublayer input x (M, d): the
    scaled q heads, the k heads, v, the probabilities p and the merged p · v."""
    q, k = _rotate(np.matmul(x, wq), num_heads), _rotate(np.matmul(x, wk), num_heads)
    v = np.matmul(x, wv)
    qs, kh = _heads(q, num_heads) * alpha, _heads(k, num_heads)
    p = np.matmul(qs, kh.swapaxes(-1, -2))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    o = np.empty_like(v)
    _heads(o, num_heads)[...] = np.matmul(p, _heads(v, num_heads))
    return qs, kh, v, p, o


def attention(h: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
              num_heads: int) -> Tensor:
    """The attention sublayer with its residual, h + MHA(q, k, v) · wo for
    h (B, M, d), q = rope(h · wq), k = rope(h · wk) and v = h · wv.

    Unmasked multi-head self-attention: heads are carved out of the feature
    axis, scores scaled by head_dim ** -0.5 (a Python float folded into q,
    so the operands' dtype is kept) and softmaxed over keys.  The whole
    sublayer runs one batch item at a time, so one item's q, k, v, (H, M, M)
    scores and output exist at once, in cache.  The node keeps only h and
    the four weights, and its vjp rebuilds each item's q, k, v, p and p · v.
    Per item these are the ops of the nine-node graph h + matmul(attention
    core, wo) over rope and matmul nodes, the weight gradients are summed in
    item order and h's as ((g + c_q) + c_k) + c_v, the orders backward sums
    that graph's; so value and gradients are its, bit for bit, wherever BLAS
    gives a stack's rows each item's own product's bytes, as at the desk
    config.
    """
    if h.value.ndim != 3 or any(w.shape != (h.shape[-1],) * 2 for w in (wq, wk, wv, wo)):
        raise ShapeError(f"attention: expected h (batch, seq, d) and four (d, d) weights, got "
                         f"{h.shape}, {wq.shape}, {wk.shape}, {wv.shape}, {wo.shape}")
    hd = _check_heads("attention", h.shape[-1], num_heads)
    alpha = 1.0 / math.sqrt(hd)
    hv, wqv, wkv, wvv, wov = (t.value for t in (h, wq, wk, wv, wo))

    value = np.empty(hv.shape, np.result_type(hv, wqv, wkv, wvv, wov))
    for b in range(len(hv)):
        np.matmul(_attend(hv[b], wqv, wkv, wvv, num_heads, alpha)[-1], wov, out=value[b])
        value[b] += hv[b]

    def vjp(g):
        gh = np.empty_like(hv)
        for b in range(len(hv)):
            qs, kh, v, p, o = _attend(hv[b], wqv, wkv, wvv, num_heads, alpha)
            ga = np.matmul(g[b], wov.T)
            gq, gk, gv = np.empty_like(ga), np.empty_like(ga), np.empty_like(ga)
            gah = _heads(ga, num_heads)
            _heads(gv, num_heads)[...] = np.matmul(p.swapaxes(-1, -2), gah)
            gp = np.matmul(gah, _heads(v, num_heads).swapaxes(-1, -2))
            # softmax backward in place on gp; rowsum(gp * p) is rowsum(ga * o)
            # per head, which costs an (M, d) product instead of (H, M, M)
            inner = (ga * o).reshape(len(o), num_heads, hd).sum(axis=-1)
            gp -= inner.T[..., None]
            gp *= p
            _heads(gq, num_heads)[...] = np.matmul(gp, kh) * alpha
            _heads(gk, num_heads)[...] = np.matmul(gp.swapaxes(-1, -2), qs)
            gq, gk = _rotate(gq, num_heads, inverse=True), _rotate(gk, num_heads, inverse=True)
            np.matmul(gq, wqv.T, out=gh[b])
            gh[b] += g[b]
            gh[b] += np.matmul(gk, wkv.T)
            gh[b] += np.matmul(gv, wvv.T)
            x = hv[b].T
            gw = np.matmul(x, gq), np.matmul(x, gk), np.matmul(x, gv), np.matmul(o.T, g[b])
            gws = gw if b == 0 else tuple(s + w for s, w in zip(gws, gw))
        return (gh, *gws)

    return _node(value, (h, wq, wk, wv, wo), vjp, "attention")


def mlp(h: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """silu(h · w1) · w2 for h (B, M, d), one batch item at a time.

    The node keeps only h, w1 and w2: the two wide hidden arrays, h·w1 and
    its sigmoid, exist for one item at a time, and the vjp rebuilds them.
    Per item these are the ops of `matmul(silu(matmul(h, w1)), w2)`, and
    the weight gradients are summed in item order, as `_unbroadcast` sums
    the batched products; so value and gradients are that graph's, bit for
    bit, wherever BLAS gives a stack's rows the bytes of each item's own
    product, as at the model's sizes.
    """
    if (h.value.ndim != 3 or w1.value.ndim != 2 or w2.value.ndim != 2
            or h.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]):
        raise ShapeError(f"mlp: expected (batch, seq, d) @ (d, e) @ (e, n), inner dims "
                         f"agreeing, got {h.shape} @ {w1.shape} @ {w2.shape}")
    hv, w1v, w2v = h.value, w1.value, w2.value

    def hidden(b):
        a = np.matmul(hv[b], w1v)
        return a, sigmoid(a)

    value = np.empty(hv.shape[:-1] + w2v.shape[-1:], np.result_type(hv, w1v, w2v))
    for b in range(len(hv)):
        a, s = hidden(b)
        s *= a
        np.matmul(s, w2v, out=value[b])

    def vjp(g):
        gh = np.empty_like(hv)
        for b in range(len(hv)):
            a, s = hidden(b)
            ga = np.subtract(1.0, s)   # silu's vjp: gs * (s * (1 + a * (1 - s)))
            ga *= a
            ga += 1.0
            ga *= s
            ga *= np.matmul(g[b], w2v.T)
            np.matmul(ga, w1v.T, out=gh[b])
            gw = np.matmul(hv[b].T, ga), np.matmul((s * a).T, g[b])
            gw1, gw2 = gw if b == 0 else (gw1 + gw[0], gw2 + gw[1])
        return gh, gw1, gw2

    return _node(value, (h, w1, w2), vjp, "mlp")


# ---------------------------------------------------------------------------
# losses and reductions


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-position cross entropy; logits (..., V), integer targets (...)."""
    t = np.asarray(targets)
    if t.shape != logits.shape[:-1]:
        raise ShapeError(
            f"softmax_cross_entropy: targets {t.shape} do not match logits {logits.shape}")
    V = logits.shape[-1]
    if t.size and (t.min() < 0 or t.max() >= V):
        raise ContractError(f"softmax_cross_entropy: target outside [0, {V})")
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
        raise ShapeError(f"sigmoid_bce: targets {t.shape} do not match logits {logits.shape}")
    x = logits.value
    value = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    return _node(value, (logits,), lambda g: (g * (sigmoid(x) - t),), "sigmoid_bce")


def masked_mean(a: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of the entries where mask is true; scalar output."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    n = int(m.sum())
    if n == 0:
        raise ContractError("masked_mean: mask selects no positions")
    value = np.asarray((a.value * m).sum() / n, dtype=a.value.dtype)
    dtype = a.value.dtype

    def vjp(g):
        return ((np.asarray(g) / n) * m.astype(dtype),)

    return _node(value, (a,), vjp, "masked_mean")


def mean_all(a: Tensor) -> Tensor:
    return masked_mean(a, np.ones(a.shape, dtype=bool))


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

    Interior adjoints are freed as soon as their vjp has run, so backward
    holds only the frontier of adjoints still to be propagated; after it
    returns, every node with a vjp reads `adjoint is None`."""
    if root.value.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    if not np.all(np.isfinite(root.value)):
        raise NonFiniteError("backward: loss is not finite")
    if not root.requires_grad:
        return
    order = _toposort(root.node)
    root.adjoint = np.ones_like(root.value)
    for node in reversed(order):
        if node.vjp is None:
            continue
        grads = node.vjp(node.adjoint)
        node.adjoint = None
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
