"""Span tracing of loopforge from outside the package.

The tracer replaces public functions with wrappers that record a span
(name, start, end, parent) around each call.  Every name is patched
where its caller looks it up: `training.rng_for` as well as
`seeding.rng_for`, and `autodiff.matmul` on the module that model code
reaches through `ad.matmul`.  To time a backward closure, the wrapper of
each autodiff primitive swaps the `vjp` slot of the Tensor it returns
for a traced copy, so vjp spans nest under `autodiff.backward`.

Spans stay in memory; the caller writes them out when the run ends.
Nothing here changes a value the program computes.  `Tracer.restore`
puts every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

PRIMITIVES = ("matmul", "attention", "rope", "rms_norm", "silu", "add", "gather",
              "concat", "slice_axis", "reshape", "scale", "softmax_cross_entropy",
              "sigmoid_bce", "masked_mean")

# Spans that mark a unit of benchmark work; all per-layer figures are
# averaged over the roots of one kind.
REP = "bench.rep"
SETUP = "bench.setup"


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[int, dict] = {}   # root span index -> counters
        self._patches: list[tuple] = []
        self._carry: tuple = ()          # detached state the current window started from

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self.stack.append(idx)
        if parent < 0:
            self.counters[idx] = defaultdict(float)
        return idx

    def end(self, idx: int) -> None:
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.spans[idx][2] = self.clock()

    def count(self, key: str, value: float = 1.0) -> None:
        if self.stack:
            self.counters[self.stack[0]][key] += value

    def peak(self, key: str, value: float) -> None:
        if self.stack:
            c = self.counters[self.stack[0]]
            c[key] = max(c[key], value)

    def wrap(self, fn, name, pre=None, post=None):
        """`fn` inside a span.  `name` may be a callable evaluated per call;
        `pre(args, kwargs)` runs before the span opens and `post(out)`
        after it closes, so neither is charged to `fn`."""
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = self.begin(name() if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if post is not None:
                post(out)
            return out
        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, name, pre=None, post=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, pre, post))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, lf) -> None:
        """Patch every traced layer of the loopforge modules in `lf`, a
        namespace with attributes autodiff, model, training, inference,
        corruption, seeding and tasks."""
        ad, md, tr, inf = lf.autodiff, lf.model, lf.training, lf.inference

        for op in PRIMITIVES:
            self.patch(ad, op, f"autodiff.{op}.fwd", post=self._primitive_post(op))
        self.patch(ad, "backward", "autodiff.backward", pre=self._backward_pre(ad))

        for fn in ("embed_input", "embed_label", "init_state", "label_state"):
            self.patch(md, fn, "model.embed")
        self.patch(md, "run_cycles", lambda: ("model.run_cycles.grad" if ad.grad_enabled()
                                              else "model.run_cycles.warm"))
        self.patch(md, "decode_state", "model.decode_state")
        self.patch(md, "phi_apply", "model.phi_apply")
        self.patch(md, "run_window", "model.run_window", pre=self._window_pre)
        self.patch(md, "save_checkpoint", "model.checkpoint")
        self.patch(md, "load_checkpoint", "model.checkpoint")

        self.patch(tr, "train_step", "training.train_step")
        self.patch(tr, "collate", "training.collate")
        self.patch(tr, "corrupt_batch", "training.corrupt_batch")
        self.patch(tr, "combined_loss", "training.combined_loss")
        self.patch(tr.AdamW, "apply", "training.adamw", post=self._adamw_post)

        self.patch(inf, "collect_predictions", "inference.collect_predictions")
        self.patch(inf, "remask_batch", "inference.remask_batch")
        self.patch(inf, "halting_batch", "inference.halting_batch")
        self.patch(inf, "pass_at_k", "inference.pass_at_k")

        for owner in (lf.corruption, tr):
            self.patch(owner, "corrupt_target", "corruption.corrupt_target")
        for owner in (lf.seeding, tr, inf, lf.tasks):
            self.patch(owner, "rng_for", "seeding.rng_for")
        self.patch(lf.tasks, "generate_synthetic", "tasks.generate_synthetic")
        self.patch(lf.tasks, "build_dataset", "tasks.build_dataset")

    def _primitive_post(self, op: str):
        vjp_name = f"autodiff.{op}.vjp"

        def post(out):
            if out.value.dtype != np.float32:
                self.count("autodiff.non_f32_outputs")
            if out.vjp is not None:
                out.vjp = self.wrap(out.vjp, vjp_name)
        return post

    def _window_pre(self, args, kwargs):
        state = args[3] if len(args) > 3 else kwargs["state"]
        self._carry = tuple(t for t in (state.y, state.z) if t.detached is not None)

    def _backward_pre(self, ad):
        """Graph size at each backward.  Retained bytes follow .detached
        edges from the loss and from the carried state the window started
        from, which keeps the previous window's graph alive even when
        warm-up cycles cut it off from the loss."""
        def pre(args, kwargs):
            root = args[0] if args else kwargs["root"]
            idx = self.begin("trace.graph_audit")
            try:
                self.count("autodiff.graph_nodes", len(ad.graph_nodes(root)))
                nodes = {}
                for start in (root,) + self._carry:
                    nodes.update((id(n), n) for n in ad.graph_nodes(start, follow_detached=True))
                self.peak("autodiff.retained_graph_mb", retained_bytes(nodes.values()) / 2**20)
                self._carry = ()
            finally:
                self.end(idx)
        return pre

    def _adamw_post(self, out):
        self.count("training.adamw.attempted")
        if out[1]:
            self.count("training.adamw.applied")


def retained_bytes(nodes) -> int:
    """Bytes of the distinct buffers behind the node values; views and
    stop_gradient aliases count once, at the size of their base array."""
    seen: dict[int, int] = {}
    for node in nodes:
        base = node.value
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        seen[id(base)] = getattr(base, "nbytes", 0)
    return sum(seen.values())


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Children of one parent never overlap in a single-threaded run, so the
    self times of a tree sum to the duration of its root."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def roots_of(spans) -> list[int]:
    """Index of the root span above each span (parents precede children)."""
    roots: list[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots


def layer_table(spans, root_name: str) -> tuple[dict, int]:
    """Per span name, over the trees under roots named `root_name`:
    calls, inclusive seconds (outermost spans of that name only, so a
    name nested in itself is not counted twice) and self seconds.
    Returns (table, number of roots)."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for i, root in enumerate(roots_of(spans)):
        if spans[root][0] != root_name:
            continue
        name, start, end, parent = spans[i]
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if not _has_ancestor_named(spans, parent, name):
            row["s"] += end - start
    n_roots = sum(1 for s in spans if s[3] < 0 and s[0] == root_name)
    return table, n_roots


def _has_ancestor_named(spans, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
