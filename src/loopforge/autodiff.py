"""Reverse-mode automatic differentiation over numpy arrays.

Define-by-run: every primitive builds a graph node holding the forward
value, the parent nodes, and a closure computing vector-Jacobian products.
The graph is rebuilt from scratch on every training step; nothing here is
retained between steps except the raw parameter arrays owned by the caller.

Only the primitives the looped-transformer stack needs are provided.  Each
one validates operand shapes up front and raises a structured error naming
the op, rather than letting numpy fail somewhere downstream.

Gradient flow is cut in two ways: `stop_gradient` inserts an explicit
boundary node (forward value bit-identical to its operand), and the
`no_grad` context skips graph construction entirely for warm-up phases.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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


class Tensor:
    """One graph node: forward value plus enough to run backward through it.

    `adjoint` stays None until `backward` reaches the node; an untouched
    node therefore has an exactly-zero gradient by construction.  Stop
    gradient nodes keep a `detached` reference to their operand so tests
    can audit what sits behind a boundary, but backward never follows it.
    """

    __slots__ = ("value", "parents", "vjp", "adjoint", "requires_grad", "op", "detached")

    def __init__(self, value, parents=(), vjp=None, requires_grad=False, op="input",
                 detached=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.adjoint = None
        self.requires_grad = requires_grad
        self.op = op
        self.detached = detached

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape}, grad={self.requires_grad})"


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


def _needs_grad(*tensors: Tensor) -> bool:
    return grad_enabled() and any(t.requires_grad for t in tensors)


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
    overflowing."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        value = a.value + b.value
    except ValueError:
        raise ShapeError(f"add: operands {a.shape} and {b.shape} do not broadcast")
    if not _needs_grad(a, b):
        return Tensor(value, op="add")

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(value, (a, b), vjp, True, "add")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        value = a.value * b.value
    except ValueError:
        raise ShapeError(f"multiply: operands {a.shape} and {b.shape} do not broadcast")
    if not _needs_grad(a, b):
        return Tensor(value, op="multiply")

    av, bv = a.value, b.value

    def vjp(g):
        return _unbroadcast(g * bv, a.shape), _unbroadcast(g * av, b.shape)

    return Tensor(value, (a, b), vjp, True, "multiply")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    value = a.value * s
    if not _needs_grad(a):
        return Tensor(value, op="scale")
    return Tensor(value, (a,), lambda g: (g * s,), True, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    try:
        value = np.matmul(a.value, b.value)
    except ValueError:
        raise ShapeError(f"matmul: batch dims do not broadcast, {a.shape} @ {b.shape}")
    if not _needs_grad(a, b):
        return Tensor(value, op="matmul")

    av, bv = a.value, b.value

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), b.shape)
        return ga, gb

    return Tensor(value, (a, b), vjp, True, "matmul")


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a: Tensor, shape) -> Tensor:
    try:
        value = a.value.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    if not _needs_grad(a):
        return Tensor(value, op="reshape")
    src = a.shape
    return Tensor(value, (a,), lambda g: (g.reshape(src),), True, "reshape")


def slice_axis(a: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    ax = axis if axis >= 0 else a.value.ndim + axis
    size = a.shape[ax]
    if not (0 <= start <= stop <= size):
        raise ShapeError(f"slice_axis: [{start}:{stop}] outside axis {axis} of {a.shape}")
    index = tuple(slice(None) if i != ax else slice(start, stop) for i in range(a.value.ndim))
    value = a.value[index]
    if not _needs_grad(a):
        return Tensor(value, op="slice_axis")
    src = a.shape

    def vjp(g):
        out = np.zeros(src, dtype=g.dtype)
        out[index] = g
        return (out,)

    return Tensor(value, (a,), vjp, True, "slice_axis")


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise ContractError("concat: need at least one operand")
    try:
        value = np.concatenate([p.value for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(
            "concat: shapes " + ", ".join(str(p.shape) for p in parts)
            + f" do not align on axis {axis}")
    if not _needs_grad(*parts):
        return Tensor(value, op="concat")

    ax = axis if axis >= 0 else value.ndim + axis
    sizes = [p.shape[ax] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for i in range(len(sizes)):
            index = tuple(slice(None) if d != ax else slice(offsets[i], offsets[i + 1])
                          for d in range(g.ndim))
            grads.append(g[index])
        return tuple(grads)

    return Tensor(value, tuple(parts), vjp, True, "concat")


def split(a: Tensor, sizes: Sequence[int], axis: int = -1) -> list[Tensor]:
    """Split along an axis into parts of the given sizes."""
    ax = axis if axis >= 0 else a.value.ndim + axis
    if sum(sizes) != a.shape[ax]:
        raise ShapeError(f"split: sizes {list(sizes)} do not sum to axis {axis} of {a.shape}")
    out, offset = [], 0
    for s in sizes:
        out.append(slice_axis(a, offset, offset + s, axis=ax))
        offset += s
    return out


# ---------------------------------------------------------------------------
# nonlinearities and norms


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = a.value
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    value = e / e.sum(axis=-1, keepdims=True)
    if not _needs_grad(a):
        return Tensor(value, op="softmax")

    def vjp(g):
        inner = (g * value).sum(axis=-1, keepdims=True)
        return (value * (g - inner),)

    return Tensor(value, (a,), vjp, True, "softmax")


def silu(a: Tensor) -> Tensor:
    s = sigmoid(a.value)
    value = a.value * s
    if not _needs_grad(a):
        return Tensor(value, op="silu")
    av = a.value
    return Tensor(value, (a,), lambda g: (g * (s * (1.0 + av * (1.0 - s))),), True, "silu")


RMS_NORM_EPS = 1e-6


def rms_norm(a: Tensor, gain: Tensor) -> Tensor:
    """Normalise the last axis to unit root-mean-square, then scale by gain."""
    d = a.shape[-1]
    if gain.shape != (d,):
        raise ShapeError(f"rms_norm: gain shape {gain.shape} does not match feature dim {d}")
    x, gv = a.value, gain.value
    r = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMS_NORM_EPS)
    value = x * r * gv
    if not _needs_grad(a, gain):
        return Tensor(value, op="rms_norm")

    def vjp(g):
        gg = g * gv
        ga = r * gg - (r ** 3 / d) * x * (gg * x).sum(axis=-1, keepdims=True)
        ggain = (g * x * r).reshape(-1, d).sum(axis=0)
        return ga, ggain

    return Tensor(value, (a, gain), vjp, True, "rms_norm")


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
    value = table.value[idx]
    if not _needs_grad(table):
        return Tensor(value, op="gather")
    tshape = table.shape

    def vjp(g):
        out = np.zeros(tshape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return (out,)

    return Tensor(value, (table,), vjp, True, "gather")


_ROPE_CACHE: dict = {}


def _rope_tables(M: int, half: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    key = (M, half, np.dtype(dtype).str)
    hit = _ROPE_CACHE.get(key)
    if hit is None:
        inv = 10000.0 ** (-np.arange(half, dtype=np.float64) / half)
        ang = np.arange(M, dtype=np.float64)[:, None] * inv[None, :]
        hit = (np.cos(ang).astype(dtype), np.sin(ang).astype(dtype))
        _ROPE_CACHE[key] = hit
    return hit


def rope(a: Tensor, num_heads: int) -> Tensor:
    """Rotary position rotation applied per head over the sequence axis.

    Expects (..., M, d) with d divisible by num_heads and an even head dim;
    each head's features are split in halves and rotated by position.
    """
    *lead, M, d = a.shape
    if d % num_heads != 0:
        raise ShapeError(f"rope: feature dim {d} not divisible by {num_heads} heads")
    hd = d // num_heads
    if hd % 2 != 0:
        raise ShapeError(f"rope: head dim {hd} must be even")
    half = hd // 2
    cos, sin = _rope_tables(M, half, a.value.dtype)
    cos = cos[:, None, :]   # (M, 1, half): broadcasts over the heads axis
    sin = sin[:, None, :]

    xh = a.value.reshape(*lead, M, num_heads, hd)
    x1, x2 = xh[..., :half], xh[..., half:]
    out = np.empty_like(xh)
    out[..., :half] = x1 * cos - x2 * sin
    out[..., half:] = x1 * sin + x2 * cos
    value = out.reshape(a.shape)
    if not _needs_grad(a):
        return Tensor(value, op="rope")
    src = a.shape

    def vjp(g):
        gh = g.reshape(*lead, M, num_heads, hd)
        g1, g2 = gh[..., :half], gh[..., half:]
        back = np.empty_like(gh)
        back[..., :half] = g1 * cos + g2 * sin
        back[..., half:] = -g1 * sin + g2 * cos
        return (back.reshape(src),)

    return Tensor(value, (a,), vjp, True, "rope")


# ---------------------------------------------------------------------------
# attention


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Full (unmasked) multi-head self-attention.

    q, k, v: (B, M, d).  Heads are carved out of the feature axis, scores
    scaled by head_dim ** -0.5, softmax over keys, heads merged back.
    The scale is a Python float folded into q, so the result keeps the
    operands' dtype; softmax and its backward each run in one buffer.
    """
    if not (q.shape == k.shape == v.shape):
        raise ShapeError(f"attention: q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.value.ndim != 3:
        raise ShapeError(f"attention: expected (batch, seq, features), got {q.shape}")
    B, M, d = q.shape
    if d % num_heads != 0:
        raise ShapeError(f"attention: feature dim {d} not divisible by {num_heads} heads")
    hd = d // num_heads
    alpha = 1.0 / math.sqrt(hd)

    def heads(x):
        return x.reshape(B, M, num_heads, hd).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(B, M, d)

    qs, kh, vh = heads(q.value) * alpha, heads(k.value), heads(v.value)
    p = np.matmul(qs, kh.swapaxes(-1, -2))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    value = merge(np.matmul(p, vh))
    if not _needs_grad(q, k, v):
        return Tensor(value, op="attention")

    def vjp(g):
        gh = heads(g)
        gv = np.matmul(p.swapaxes(-1, -2), gh)
        gp = np.matmul(gh, vh.swapaxes(-1, -2))
        # softmax backward in place on gp; rowsum(gp * p) is rowsum(g * out)
        # per head, which costs a (B, M, d) product instead of (B, H, M, M)
        inner = (g * value).reshape(B, M, num_heads, hd).sum(axis=-1)
        gp -= inner.transpose(0, 2, 1)[..., None]
        gp *= p
        gq = np.matmul(gp, kh)
        gq *= alpha
        gk = np.matmul(gp.swapaxes(-1, -2), qs)
        return merge(gq), merge(gk), merge(gv)

    return Tensor(value, (q, k, v), vjp, True, "attention")


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
    if not _needs_grad(logits):
        return Tensor(value, op="softmax_cross_entropy")
    probs = np.exp(x - lse)

    def vjp(g):
        gl = probs * g[..., None]
        cur = np.take_along_axis(gl, idx, axis=-1)
        np.put_along_axis(gl, idx, cur - g[..., None], axis=-1)
        return (gl,)

    return Tensor(value, (logits,), vjp, True, "softmax_cross_entropy")


def sigmoid_bce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross entropy on raw logits against 0/1 targets."""
    t = np.asarray(targets, dtype=logits.value.dtype)
    if t.shape != logits.shape:
        raise ShapeError(f"sigmoid_bce: targets {t.shape} do not match logits {logits.shape}")
    x = logits.value
    value = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    if not _needs_grad(logits):
        return Tensor(value, op="sigmoid_bce")
    s = sigmoid(x)
    return Tensor(value, (logits,), lambda g: (g * (s - t),), True, "sigmoid_bce")


def masked_mean(a: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of the entries where mask is true; scalar output."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    n = int(m.sum())
    if n == 0:
        raise ContractError("masked_mean: mask selects no positions")
    value = np.asarray((a.value * m).sum() / n, dtype=a.value.dtype)
    if not _needs_grad(a):
        return Tensor(value, op="masked_mean")
    ashape = a.shape

    def vjp(g):
        return ((np.asarray(g) / n) * m.astype(a.value.dtype),)

    return Tensor(value, (a,), vjp, True, "masked_mean")


def mean_all(a: Tensor) -> Tensor:
    return masked_mean(a, np.ones(a.shape, dtype=bool))


# ---------------------------------------------------------------------------
# gradient boundary


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward, zero backward.  The result is a leaf; the operand
    stays reachable through `.detached` for inspection only."""
    return Tensor(a.value, parents=(), vjp=None, requires_grad=False,
                  op="stop_gradient", detached=a)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
    """Populate `.adjoint` on every gradient-reachable node under root."""
    if root.value.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    if not np.all(np.isfinite(root.value)):
        raise NonFiniteError("backward: loss is not finite")
    if not root.requires_grad:
        return
    order = _toposort(root)
    root.adjoint = np.ones_like(root.value)
    for node in reversed(order):
        if node.vjp is None:
            continue
        grads = node.vjp(node.adjoint)
        for parent, g in zip(node.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            parent.adjoint = g if parent.adjoint is None else parent.adjoint + g


def graph_nodes(root: Tensor, follow_detached: bool = False) -> list[Tensor]:
    """All nodes reachable from root, optionally crossing stop_gradient."""
    out, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.parents)
        if follow_detached and node.detached is not None:
            stack.append(node.detached)
    return out


# ---------------------------------------------------------------------------
# functional surface

BuildFn = Callable[[dict], Tensor]


def evaluate(build: BuildFn, bindings: dict[str, np.ndarray]) -> np.ndarray:
    """Run a graph-building function on plain arrays; return the root value.

    Pure: identical bindings give byte-identical results.
    """
    leaves = {name: tensor(arr, op=name) for name, arr in bindings.items()}
    root = build(leaves)
    if not np.all(np.isfinite(root.value)):
        raise NonFiniteError("evaluate: result is not finite")
    return root.value


def gradient(build: BuildFn, bindings: dict[str, np.ndarray],
             wrt: Sequence[str]) -> dict[str, np.ndarray]:
    """Gradients of a scalar-valued build function with respect to `wrt` leaves.

    Leaves not reached by backward get exact zeros.
    """
    wanted = set(wrt)
    missing = wanted - set(bindings)
    if missing:
        raise ContractError(f"gradient: unknown leaves {sorted(missing)}")
    leaves = {name: tensor(arr, requires_grad=(name in wanted), op=name)
              for name, arr in bindings.items()}
    root = build(leaves)
    if root.value.size != 1:
        raise ContractError(f"gradient: build function must return a scalar, got {root.shape}")
    backward(root)
    out = {}
    for name in sorted(wanted):
        leaf = leaves[name]
        out[name] = leaf.adjoint if leaf.adjoint is not None else np.zeros_like(leaf.value)
    return out


def finite_difference_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                               h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Meant as an oracle for testing, so it runs in float64 and makes no
    attempt to be fast.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
