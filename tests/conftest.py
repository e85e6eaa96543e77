"""Shared test helpers."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from loopforge import autodiff as ad
from loopforge import inference as inf
from loopforge import tasks as tk


def family_rule_holds(family: str, task: tk.Task) -> bool:
    """Check every pair of a synthetic task against its family's rule."""
    for inp, out in task.train_pairs + task.test_pairs:
        if family == "copy":
            good = np.array_equal(out, inp)
        elif family == "recolor_map":
            # recover the mapping from the first train pair, then check
            ref_in, ref_out = task.train_pairs[0]
            lut = np.full(tk.NUM_COLOURS, -1)
            lut[ref_in.ravel()] = ref_out.ravel()
            seen = lut[inp.ravel()]
            good = np.all((seen == out.ravel()) | (seen == -1))
        elif family == "hmirror":
            good = np.array_equal(out, np.fliplr(inp))
        elif family == "border_fill":
            c = out[0, 0]
            want = inp.copy()
            want[0, :] = want[-1, :] = want[:, 0] = want[:, -1] = c
            good = np.array_equal(out, want)
        elif family == "translate_object":
            good = np.count_nonzero(inp) == np.count_nonzero(out)
        elif family == "mini_sudoku4":
            sols = tk.solve_sudoku4(inp)
            good = len(sols) == 1 and np.array_equal(sols[0], out)
        else:
            raise tk.TaskError(f"unknown family {family!r}")
        if not good:
            return False
    return True


def save_tasks(tasks: list[tk.Task], out_dir) -> None:
    """Write each task as ARC JSON, <task_id>.json, under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in tasks:
        (out_dir / f"{t.task_id}.json").write_text(json.dumps(tk.serialize_task(t)))


def dihedral_compose(second: int, first: int) -> int:
    """Dihedral element equal to applying `first` then `second`."""
    k1, f1 = first % 4, first >= 4
    k2, f2 = second % 4, second >= 4
    k = (k2 - k1) % 4 if f2 else (k2 + k1) % 4
    return k + 4 * (f1 ^ f2)


def param_count(params) -> int:
    """Number of scalars across all parameter arrays."""
    return sum(v.size for v in params.values())


def whole_window(batch) -> tuple[int, int]:
    """`combined_loss`'s window when the batch is all of it: (valid
    tokens, items), a share of exactly 1."""
    return int(batch.loss_mask.sum()), batch.rows.size


def closure_arrays(fn):
    """Every ndarray a function's closure reaches, through nested closures
    and the lists, tuples and dicts they hold."""
    found, stack, seen = [], [fn], set()
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        objs = [cell.cell_contents for cell in f.__closure__ or ()]
        while objs:
            obj = objs.pop()
            if isinstance(obj, np.ndarray):
                found.append(obj)
            elif isinstance(obj, (list, tuple)):
                objs.extend(obj)
            elif isinstance(obj, dict):
                objs.extend(obj.values())
            elif callable(obj) and hasattr(obj, "__closure__"):
                stack.append(obj)
    return found


def spy_backward(monkeypatch) -> list[dict]:
    """Record each root `ad.backward` is called on, as its graph nodes and
    loss value, before running the real backward.  The record keeps every
    recorded graph's nodes alive, though not its values, which plain
    training does not."""
    seen: list[dict] = []
    backward = ad.backward

    def spy(root):
        seen.append({"nodes": ad.graph_nodes(root), "loss": float(root.value)})
        backward(root)

    monkeypatch.setattr(ad, "backward", spy)
    return seen


def vote(predictions) -> list[inf.VoteCandidate]:
    """Top two candidates; a pool with one distinct grid yields one."""
    return inf.ranked_candidates(predictions)[:2]


# ---------------------------------------------------------------------------
# permutation significance test over two regimes' per-task solved vectors


def _swap_stats(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise inf.InferenceError(
            f"permutation test needs equal-length vectors, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise inf.InferenceError("permutation test over zero tasks")
    return a - b, float((a - b).mean())


def permutation_test(solved_a, solved_b, num_perms: int,
                     rng: np.random.Generator) -> float:
    """One-sided Monte-Carlo p for mean(a) - mean(b), swapping the pair
    labels independently per task; add-one smoothed."""
    d, observed = _swap_stats(solved_a, solved_b)
    if num_perms < 1:
        raise inf.InferenceError("num_perms must be >= 1")
    flips = rng.integers(0, 2, size=(num_perms, d.size))
    stats = ((1.0 - 2.0 * flips) * d).mean(axis=1)
    hits = int(np.sum(stats >= observed))
    return (1 + hits) / (1 + num_perms)


def permutation_test_exhaustive(solved_a, solved_b) -> float:
    """Exact enumeration of all 2^n label swaps; n capped at 20."""
    d, observed = _swap_stats(solved_a, solved_b)
    n = d.size
    if n > 20:
        raise inf.InferenceError(f"exhaustive enumeration over {n} tasks is too large")
    patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    stats = ((1.0 - 2.0 * patterns) * d).mean(axis=1)
    return float(np.mean(stats >= observed))


# ---------------------------------------------------------------------------
# the gradient oracle: analytic gradients from the engine, central finite
# differences in float64 as the reference

BuildFn = Callable[[dict], ad.Tensor]


def evaluate(build: BuildFn, bindings: dict[str, np.ndarray]) -> np.ndarray:
    """Run a graph-building function on plain arrays; return the root value.

    Pure: identical bindings give byte-identical results.
    """
    leaves = {name: ad.tensor(arr, op=name) for name, arr in bindings.items()}
    root = build(leaves)
    if not np.all(np.isfinite(root.value)):
        raise ad.AutodiffError("evaluate: result is not finite")
    return root.value


def gradient(build: BuildFn, bindings: dict[str, np.ndarray],
             wrt: Sequence[str]) -> dict[str, np.ndarray]:
    """Gradients of a scalar-valued build function with respect to `wrt` leaves.

    Leaves not reached by backward get exact zeros.
    """
    wanted = set(wrt)
    missing = wanted - set(bindings)
    if missing:
        raise ad.AutodiffError(f"gradient: unknown leaves {sorted(missing)}")
    leaves = {name: ad.tensor(arr, requires_grad=(name in wanted), op=name)
              for name, arr in bindings.items()}
    root = build(leaves)
    if root.value.size != 1:
        raise ad.AutodiffError(f"gradient: build function must return a scalar, got {root.shape}")
    ad.backward(root)
    out = {}
    for name in sorted(wanted):
        leaf = leaves[name]
        out[name] = leaf.adjoint if leaf.adjoint is not None else np.zeros_like(leaf.value)
    return out


def finite_difference_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                               h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a
    time, in float64 and with no attempt to be fast."""
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


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference over the larger of the two peak magnitudes."""
    denom = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0), 1e-12)
    return float(np.abs(got - want).max(initial=0.0) / denom)


def check_gradients(build: BuildFn, bindings: dict, wrt=None, tol: float = 1e-6,
                    h: float = 1e-5) -> dict[str, np.ndarray]:
    """Assert that the engine's gradient of each `wrt` leaf (all leaves by
    default) is within relative error `tol` of central finite differences
    in float64; return the engine's gradients."""
    bindings = {k: np.asarray(v, dtype=np.float64) for k, v in bindings.items()}
    names = sorted(bindings) if wrt is None else list(wrt)
    got = gradient(build, bindings, names)
    for name in names:
        def f(arr, name=name):
            return float(evaluate(build, {**bindings, name: arr}))

        err = rel_err(got[name], finite_difference_gradient(f, bindings[name], h=h))
        assert err <= tol, f"gradient of {name!r} off by {err:.3e} (tol {tol:.0e})"
    return got


def multiply(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Elementwise product, the tests' weighting op, built on the engine's
    own node constructor like every shipped primitive."""
    try:
        value = a.value * b.value
    except ValueError:
        raise ad.AutodiffError(f"multiply: operands {a.shape} and {b.shape} do not broadcast")
    av, bv = a.value, b.value

    def vjp(g):
        return ad._unbroadcast(g * bv, av.shape), ad._unbroadcast(g * av, bv.shape)

    return ad._node(value, (a, b), vjp, "multiply")


def mean_all(a: ad.Tensor) -> ad.Tensor:
    """Mean of every entry, the tests' scalar loss: `masked_mean` over an
    all-true mask, as the training loss averages its BCE."""
    return ad.masked_mean(a, np.ones(a.shape, dtype=bool))


def stop_gradient(a: ad.Tensor) -> ad.Tensor:
    """Identity forward, zero backward.  The result is a leaf; the operand
    stays reachable through `.detached` for inspection only, which keeps
    the operand's whole graph alive for as long as the result lives."""
    out = ad.Tensor(a.value, op="stop_gradient")
    out.node.detached = a
    return out


def ref_attention(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, num_heads: int) -> ad.Tensor:
    """Multi-head self-attention over given q, k, v (B, M, d), one batch
    item at a time: the softmax core that `ad.attention` runs between its
    projections, as a node of its own.  The reference the fused sublayer
    is pinned to."""
    if not (q.shape == k.shape == v.shape) or q.value.ndim != 3:
        raise ad.AutodiffError(f"ref_attention: q/k/v shapes {q.shape}, {k.shape}, {v.shape}")
    B, M, d = q.shape
    hd = d // num_heads
    alpha = 1.0 / math.sqrt(hd)
    qv, kv, vv = q.value, k.value, v.value

    def heads(x):
        return x.reshape(M, num_heads, hd).transpose(1, 0, 2)

    def softmax_scores(b):
        qs, kh = heads(qv[b]) * alpha, heads(kv[b])
        p = np.matmul(qs, kh.swapaxes(-1, -2))
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        return qs, kh, p

    value = np.empty_like(qv)
    for b in range(B):
        heads(value[b])[...] = np.matmul(softmax_scores(b)[2], heads(vv[b]))

    def vjp(g):
        gq, gk, gv = np.empty_like(qv), np.empty_like(kv), np.empty_like(vv)
        for b in range(B):
            qs, kh, p = softmax_scores(b)
            gh = heads(g[b])
            heads(gv[b])[...] = np.matmul(p.swapaxes(-1, -2), gh)
            gp = np.matmul(gh, heads(vv[b]).swapaxes(-1, -2))
            inner = (g[b] * value[b]).reshape(M, num_heads, hd).sum(axis=-1)
            gp -= inner.T[..., None]
            gp *= p
            heads(gq[b])[...] = np.matmul(gp, kh) * alpha
            heads(gk[b])[...] = np.matmul(gp.swapaxes(-1, -2), qs)
        return gq, gk, gv

    return ad._node(value, (q, k, v), vjp, "ref_attention")


def ref_sublayer(h: ad.Tensor, wqkv: ad.Tensor, wo: ad.Tensor, num_heads: int) -> ad.Tensor:
    """The attention sublayer as separate nodes: h + ref_attention(rope(q),
    rope(k), v) wo for [q | k | v] = h wqkv."""
    d, qkv = h.shape[-1], ad.matmul(h, wqkv)
    q, k, v = (ad.slice_axis(qkv, i * d, (i + 1) * d) for i in range(3))
    att = ref_attention(ad.rope(q, num_heads), ad.rope(k, num_heads), v, num_heads)
    return ad.add(h, ad.matmul(att, wo))
