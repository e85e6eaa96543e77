"""The weight-tied transition network and everything attached to it.

One transition operator (a couple of post-norm transformer blocks) is
applied over and over to a latent pair (y, z): z is a scratchpad updated
from x + y + z, y is the answer carrier updated from y + z.  A recursion
window runs several of those cycles, mostly without gradient, and ends by
decoding y into per-cell logits plus a scalar halting/correctness logit.

Sequences carry one extra leading position holding the task embedding; it
is dropped again before decoding, so logits stay M x vocab.

Checkpoints are a small binary container: magic "LTRM", a version, a JSON
header, then the raw float32 arrays in sorted name order.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad

VOCAB_SIZE = 11          # colours + PAD; the decoder never predicts MASK
LABEL_ROWS = VOCAB_SIZE + 1   # label embeddings additionally know MASK
STATE_NOISE_STD = 0.02

CHECKPOINT_MAGIC = b"LTRM"
CHECKPOINT_VERSION = 1


class ModelError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class ModelConfig:
    hidden_size: int = 128
    num_heads: int = 4
    num_layers: int = 2
    expansion: int = 4
    vocab_size: int = VOCAB_SIZE
    seq_len: int = 64
    inner_steps: int = 6         # latent steps per cycle (n)
    # cycles per recursion window (T); `make_configs` stores the window
    # training runs (warm-up + gradient cycles), which inference replays
    cycles_per_window: int = 3
    max_halt_steps: int = 16
    single_z: bool = False
    num_tasks: int = 1
    untied_depth: int = 0        # 0 = weight-tied; else one weight set per application

    def __post_init__(self):
        # types and ranges first: the checks below divide by these sizes
        if not isinstance(self.single_z, bool):
            raise ModelError(f"single_z must be true or false, got {self.single_z!r}")
        for name in (f.name for f in fields(self) if f.name != "single_z"):
            v, least = getattr(self, name), 0 if name == "untied_depth" else 1
            if not isinstance(v, int) or isinstance(v, bool):
                raise ModelError(f"{name} must be an integer, got {v!r}")
            if v < least:
                raise ModelError(f"{name} must be >= {least}, got {v}")
        if self.hidden_size % self.num_heads != 0:
            raise ModelError(f"hidden_size {self.hidden_size} not divisible by "
                             f"{self.num_heads} heads")
        if (self.hidden_size // self.num_heads) % 2 != 0:
            raise ModelError("head dimension must be even for rotary positions")
        if self.vocab_size != VOCAB_SIZE:
            raise ModelError(f"vocab_size is fixed at {VOCAB_SIZE} (colours + PAD)")

    @property
    def apps_per_cycle(self) -> int:
        return self.inner_steps if self.single_z else self.inner_steps + 1


@dataclass
class LatentState:
    """The latent pair; `run_cycles` takes y and z out and leaves it empty."""
    y: ad.Tensor
    z: ad.Tensor


# task rows and initial state rows start at zero, and so do both read-out
# heads: logits begin exactly uniform, which keeps early gradient in the
# signal path instead of spending it on collapsing the state to fix
# miscalibrated random logits
_ZERO_INIT = ("embed/task", "decode/w", "q/w", "state/y0", "state/z0")


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order `Parameters.init`
    draws them."""
    d, e = cfg.hidden_size, cfg.expansion
    shapes: dict[str, tuple[int, ...]] = {}
    for s in range(max(1, cfg.untied_depth)):
        p = "phi" if cfg.untied_depth == 0 else f"phi{s}"
        for i in range(cfg.num_layers):
            base = f"{p}/l{i}"
            shapes[f"{base}/attn/wqkv"] = (d, 3 * d)
            shapes[f"{base}/attn/wo"] = (d, d)
            shapes[f"{base}/attn/gain"] = (d,)
            shapes[f"{base}/mlp/w1"] = (d, e * d)
            shapes[f"{base}/mlp/w2"] = (e * d, d)
            shapes[f"{base}/mlp/gain"] = (d,)
    shapes.update({"embed/input": (VOCAB_SIZE, d), "embed/label": (LABEL_ROWS, d),
                   "embed/task": (cfg.num_tasks, d), "decode/w": (d, cfg.vocab_size),
                   "q/w": (d, 1), "q/b": (1,), "state/y0": (d,), "state/z0": (d,)})
    return shapes


class Parameters(dict):
    """Named float arrays, a dict; the single owner of all trainable
    state.  `copy()` copies the arrays too: the EMA shadow shares no
    buffer with the weights that AdamW updates in place."""

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator,
             dtype=np.float32) -> "Parameters":
        params = cls()
        for name, shape in parameter_shapes(cfg).items():
            if name.endswith("/gain"):
                arr = np.ones(shape)
            elif name == "q/b":
                arr = np.full(shape, -5.0)  # start far from halting
            elif name in _ZERO_INIT:
                arr = np.zeros(shape)
            else:
                # linear maps draw N(0, 1/fan_in); embedding rows N(0, 1/d)
                fan = shape[1] if name.startswith("embed/") else shape[0]
                arr = rng.normal(size=shape) / np.sqrt(fan)
            params[name] = arr.astype(dtype)
        return params

    def copy(self) -> "Parameters":
        return Parameters({k: v.copy() for k, v in self.items()})

    def names(self) -> list[str]:
        return sorted(self)


def wrap_parameters(params: Parameters) -> dict[str, ad.Tensor]:
    """Fresh leaf tensors over the parameter arrays, one graph's worth."""
    return {name: ad.Tensor(arr, requires_grad=True, op=name)
            for name, arr in params.items()}


# ---------------------------------------------------------------------------
# transition network


def _phi_prefix(cfg: ModelConfig, app_index: int) -> str:
    if cfg.untied_depth == 0:
        return "phi"
    if app_index >= cfg.untied_depth:
        raise ModelError(f"application {app_index} exceeds untied depth "
                         f"{cfg.untied_depth}")
    return f"phi{app_index}"


def phi_apply(pt: dict, cfg: ModelConfig, h: ad.Tensor, app_index: int = 0) -> ad.Tensor:
    """One application of the transition operator: num_layers post-norm
    blocks, each an attention node and an MLP node that end in their own
    residual add and rms_norm."""
    p = _phi_prefix(cfg, app_index)
    for i in range(cfg.num_layers):
        base = f"{p}/l{i}"
        attn = [pt[f"{base}/attn/{w}"] for w in ("wqkv", "wo", "gain")]
        mlp = [pt[f"{base}/mlp/{w}"] for w in ("w1", "w2", "gain")]
        h = ad.mlp(ad.attention(h, *attn, cfg.num_heads), *mlp)
    return h


# ---------------------------------------------------------------------------
# embeddings and state initialisation


def embed_input(pt: dict, cfg: ModelConfig, tokens: np.ndarray,
                task_rows: np.ndarray) -> ad.Tensor:
    """Token + task embedding, shape (B, M+1, d); task sits at position 0.

    Rows are initialised at norm ~1 but the post-norm blocks keep the
    latent pair at norm ~sqrt(d) per position, so the lookup is scaled by
    sqrt(d) to enter the recursion at state magnitude.  Without the scale
    the operator settles into an input-blind fixed point.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] != cfg.seq_len:
        raise ModelError(f"expected tokens (batch, {cfg.seq_len}), got {tokens.shape}")
    if tokens.size and tokens.max() >= VOCAB_SIZE:
        raise ModelError("input tokens must be colours or PAD; MASK belongs to labels")
    tok = ad.gather(pt["embed/input"], tokens)
    task = ad.reshape(ad.gather(pt["embed/task"], np.asarray(task_rows)),
                      (tokens.shape[0], 1, cfg.hidden_size))
    return ad.scale(ad.concat([task, tok], axis=1), math.sqrt(cfg.hidden_size))


def embed_label(pt: dict, cfg: ModelConfig, tokens: np.ndarray) -> ad.Tensor:
    """Label-table lookup scaled like embed_input, shape (B, M, d)."""
    tokens = np.asarray(tokens)
    if tokens.size and tokens.max() >= LABEL_ROWS:
        raise ModelError(f"label token {tokens.max()} outside the label table")
    return ad.scale(ad.gather(pt["embed/label"], tokens),
                    math.sqrt(cfg.hidden_size))


def _noisy_state(pt: dict, cfg: ModelConfig, y: ad.Tensor,
                 streams: Sequence[np.random.Generator]) -> LatentState:
    """Add small noise to y and to the learned z row.  Each item draws from
    its own stream, y noise then z noise, so an item's state never depends
    on which other items share its batch."""
    shape = (cfg.seq_len + 1, cfg.hidden_size)
    dtype = pt["state/z0"].value.dtype
    noise = np.stack([[(g.standard_normal(shape) * STATE_NOISE_STD).astype(dtype)
                       for _ in range(2)] for g in streams])
    y = ad.add(y, ad.tensor(noise[:, 0]))
    z = ad.add(ad.reshape(pt["state/z0"], (1, 1, cfg.hidden_size)),
               ad.tensor(noise[:, 1]))
    return LatentState(y=y, z=z)


def init_state(pt: dict, cfg: ModelConfig,
               streams: Sequence[np.random.Generator]) -> LatentState:
    """Learned initial rows broadcast over positions, plus small noise;
    one generator per item."""
    return _noisy_state(pt, cfg, ad.reshape(pt["state/y0"], (1, 1, cfg.hidden_size)),
                        streams)


def label_state(pt: dict, cfg: ModelConfig, label_tokens: np.ndarray,
                streams: Sequence[np.random.Generator]) -> LatentState:
    """Initial state for denoising: y embeds the (corrupted) target behind
    the learned y row at the task position; one generator per item."""
    body = embed_label(pt, cfg, label_tokens)
    zeros = ad.tensor(np.zeros((body.shape[0], 1, 1), dtype=body.value.dtype))
    head = ad.add(ad.reshape(pt["state/y0"], (1, 1, cfg.hidden_size)), zeros)
    return _noisy_state(pt, cfg, ad.concat([head, body], axis=1), streams)


# ---------------------------------------------------------------------------
# recursion


def run_cycles(pt: dict, cfg: ModelConfig, x: ad.Tensor, state: LatentState,
               cycles: int, app_start: int = 0) -> tuple[LatentState, int]:
    """Full cycles with no decode; gradient behaviour follows the ambient
    grad mode.  A cycle is n latent steps z <- phi(x + y + z), then one
    answer step y <- phi(y + z); with single_z the y pathway does not
    exist, so z <- phi(x + z) and y passes through.  Returns the state and
    the next application index.

    It empties `state`, and the graph holds no values: the input y and z,
    a replaced y or z and each array an application made outlive their
    last use only if the caller or a vjp closure holds them."""
    y, z, app = state.y, state.z, app_start
    state.y = state.z = None
    for _ in range(cycles):
        for _ in range(cfg.inner_steps):
            h = ad.add(x, z) if cfg.single_z else ad.add(ad.add(x, y), z)
            z = phi_apply(pt, cfg, h, app)
            app += 1
        if not cfg.single_z:
            y = phi_apply(pt, cfg, ad.add(y, z), app)
            app += 1
    return LatentState(y=y, z=z), app


def decode_state(pt: dict, cfg: ModelConfig, state: LatentState) -> tuple[ad.Tensor, ad.Tensor]:
    """Per-position logits (B, M, vocab) and halting logit (B,) from y (or z)."""
    carrier = state.z if cfg.single_z else state.y
    body = ad.slice_axis(carrier, 1, cfg.seq_len + 1, axis=1)
    logits = ad.matmul(body, pt["decode/w"])
    pool_w = ad.tensor(np.full((1, cfg.seq_len), 1.0 / cfg.seq_len,
                               dtype=carrier.value.dtype))
    # (B, 1, d) @ (d, 1) keeps q one dot product per item; a (B, d) @ (d, 1)
    # product sums in a batch-size-dependent order under BLAS
    q = ad.add(ad.matmul(ad.matmul(pool_w, body), pt["q/w"]), pt["q/b"])
    return logits, ad.reshape(q, (body.shape[0],))


def run_window(pt: dict, cfg: ModelConfig, x: ad.Tensor, state: LatentState,
               warm_cycles: int, grad_cycles: int) -> tuple[LatentState, ad.Tensor, ad.Tensor]:
    """warm_cycles without gradient, then grad_cycles carrying gradient
    (unless the caller runs under `ad.no_grad`), then decode.  Returns
    (state', logits, q_logit) and, like `run_cycles`, empties `state`."""
    if grad_cycles < 1:
        raise ModelError(f"need at least one gradient cycle, got {grad_cycles}")
    app = 0
    if warm_cycles > 0:
        with ad.no_grad():
            state, app = run_cycles(pt, cfg, x, state, warm_cycles, app)
    state, app = run_cycles(pt, cfg, x, state, grad_cycles, app)
    logits, q = decode_state(pt, cfg, state)
    return state, logits, q


def _carry(t: ad.Tensor, staying: np.ndarray) -> ad.Tensor:
    """The surviving rows of t as a fresh leaf: a stop_gradient boundary
    with no back-edge, so the window that made t can be freed."""
    value = t.value if staying.all() else t.value[staying]
    return ad.Tensor(value, op="stop_gradient")


def halting_windows(pt: dict, cfg: ModelConfig, inputs: np.ndarray, rows: np.ndarray,
                    ids: np.ndarray, state: LatentState, windows: int,
                    warm_cycles: int, grad_cycles: int, *, halt_early: bool = True,
                    perturb: Callable | None = None) -> Iterator[tuple]:
    """The recursion that training runs and both generators replay.

    The caller owns what the windows run on: the parameter leaves `pt`,
    which every window reads (an update made between windows is seen by
    the next), the items' first `state`, which window 0 empties, and the
    items' ids, which name them to the caller.  Each of up to `windows`
    windows embeds the items still active and runs `run_window`, then
    yields (ids, logits, q_logit, exiting) for those items; the caller
    takes its loss or its predictions before resuming.

    Every item exits at the last window.  With halt_early an item also
    exits once its q logit is positive, and every window carries gradient;
    without it only the last window does, since no item can exit earlier,
    and the others run wholly under `ad.no_grad`.
    Survivors carry (y, z) across a stop_gradient boundary, passed through
    perturb(y, z, w, ids) when given.  Nothing carried points back at
    the window's graph.  Across the yield the generator holds no embedding,
    and the final state only while some item stays; it drops logits and q
    before the next window runs, so once the caller has dropped its
    references too only one window's graph is alive at a time.
    """
    inputs, rows = np.asarray(inputs), np.asarray(rows)
    for w in range(windows):
        last = w == windows - 1
        with contextlib.nullcontext() if halt_early or last else ad.no_grad():
            x = embed_input(pt, cfg, inputs, rows)
            state, logits, q = run_window(pt, cfg, x, state, warm_cycles, grad_cycles)
            del x
        exiting = (q.value > 0) | last if halt_early else np.full(ids.size, last)
        staying = ~exiting
        if not staying.any():
            state = None
        yield ids, logits, q, exiting
        del logits, q
        if state is None:
            return
        ids, inputs, rows = ids[staying], inputs[staying], rows[staying]
        state = LatentState(_carry(state.y, staying), _carry(state.z, staying))
        if perturb is not None:
            state = LatentState(*perturb(state.y, state.z, w, ids))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, cfg: ModelConfig, params: Parameters,
                    ema: Parameters | None, metadata: dict | None = None) -> None:
    named: dict[str, np.ndarray] = dict(params)
    if ema is not None:
        named.update({f"ema/{k}": v for k, v in ema.items()})
    order = sorted(named)
    header = {
        "config": asdict(cfg),
        "metadata": metadata or {},
        "arrays": [{"name": n, "shape": list(named[n].shape)} for n in order],
    }
    blob = json.dumps(header).encode("utf-8")
    head = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)), blob]
    arrays = (np.ascontiguousarray(named[n], dtype="<f4").tobytes() for n in order)
    write_atomic(path, itertools.chain(head, arrays))


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write chunks to a temp file beside path, then rename it over path:
    a crash leaves the old file or the new one, never a partial one.  The
    temp name ends in .tmp, so it matches no *.ltrm glob."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[ModelConfig, Parameters, Parameters | None, dict]:
    """Read a checkpoint; any malformed content raises CheckpointError,
    and so do arrays whose names or shapes differ from what the config
    builds (see parameter_shapes) or that hold a NaN or infinity."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated header")
    version, hlen = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        offset = 12 + hlen
        plain: dict[str, np.ndarray] = {}
        ema: dict[str, np.ndarray] = {}
        for spec in header["arrays"]:
            shape = tuple(spec["shape"])
            size = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(raw, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            arr = arr.reshape(shape).astype(np.float32)
            name = spec["name"]
            into, key = (ema, name[4:]) if name.startswith("ema/") else (plain, name)
            if key in into:
                raise ValueError(f"array {name} listed twice")
            into[key] = arr
        metadata = header.get("metadata", {})
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError, RecursionError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint "
                              f"({type(e).__name__}: {e})") from e
    if not isinstance(metadata, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after arrays")
    if max(1, cfg.untied_depth) * cfg.num_layers > len(plain):
        # every layer has arrays: refuse before parameter_shapes lists them all
        raise CheckpointError(f"{path}: config needs more layers than the file holds arrays")
    want = parameter_shapes(cfg)
    for kind, arrays in (("params", plain), ("ema", ema)):
        if kind == "ema" and not arrays:
            continue
        for name in sorted(want.keys() | arrays.keys()):
            got = arrays[name].shape if name in arrays else None
            if got != want.get(name):
                raise CheckpointError(f"{path}: {kind} {name} has shape {got}, "
                                      f"config needs {want.get(name)}")
            if not np.all(np.isfinite(arrays[name])):
                raise CheckpointError(f"{path}: {kind} {name} holds non-finite values")
    return (cfg, Parameters(plain), Parameters(ema) if ema else None, metadata)
