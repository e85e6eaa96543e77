"""Training regimes for the looped model.

All seven objectives run one loop, `md.halting_windows`, which both
generators replay.  The recursive objectives (trm, trm_no_deep_sup, sprm,
stacked_deep_sup) start from the learned initial state and run up to
max_halt_steps recursion windows, detaching the state at every boundary;
deep supervision means one loss and one optimizer step per window, and an
item leaves once its q logit is positive.  The denoising objectives
(diffusion, drm, stacked_transformer) corrupt the target, embed it as the
initial answer state, and run a single window with a single step.

The state-perturbation regime is trm with the carried (y, z) passed
through perturb_latent at each boundary; with beta = 0 it is bit-for-bit
trm.  Likewise drm with one gradient cycle and no warm-up is bit-for-bit
the one-step denoiser, which the tests lean on.

Optimization is AdamW with decoupled weight decay, a linear warmup on
the learning rate, a separate learning rate for the task-embedding
table, and an EMA shadow of the weights used for evaluation.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import model as md
from .corruption import BetaSchedule, NoiseSchedule, corrupt_target, perturb_latent
from .seeding import rng_for
from .tasks import DeskDataset, PackedExample

OBJECTIVES = (
    "trm",
    "trm_no_deep_sup",
    "diffusion",
    "drm",
    "sprm",
    "stacked_transformer",
    "stacked_deep_sup",
)
DENOISE_OBJECTIVES = ("diffusion", "drm", "stacked_transformer")

ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8
# this many updates in a row with non-finite gradients end the run
MAX_SKIPPED_IN_A_ROW = 8
# what one window's gradient cycles may keep alive for backward; a step
# runs its batch in micro-batches small enough for it (micro_batch_size)
RETAINED_BYTES_BUDGET = 16 * 2 ** 20


class TrainingError(RuntimeError):
    pass


class DivergenceError(TrainingError):
    """Loss or parameters went non-finite, or the optimizer skipped
    MAX_SKIPPED_IN_A_ROW updates in a row; the run cannot continue."""


@dataclass
class TrainConfig:
    objective: str = "trm"
    lr: float = 1e-4
    task_embedding_lr: float = 1e-2
    weight_decay: float = 0.1
    warmup_steps: int = 100
    batch_size: int = 32
    ema_decay: float = 0.999
    max_halt_steps: int = 16
    gradient_cycles: int = 1
    warmup_cycles: int | None = None
    epochs: int = 1

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise TrainingError(
                f"unknown objective {self.objective!r}; pick one of {', '.join(OBJECTIVES)}")
        for name in ("lr", "task_embedding_lr", "weight_decay", "ema_decay"):
            if not math.isfinite(getattr(self, name)):
                raise TrainingError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0 or self.task_embedding_lr <= 0:
            raise TrainingError("learning rates must be positive")
        if self.gradient_cycles < 1:
            raise TrainingError(f"gradient_cycles must be >= 1, got {self.gradient_cycles}")
        if self.warmup_cycles is not None and self.warmup_cycles < 0:
            raise TrainingError("warmup_cycles cannot be negative")
        if not 0.0 <= self.ema_decay < 1.0:
            raise TrainingError(f"ema_decay must lie in [0, 1), got {self.ema_decay}")
        if self.weight_decay < 0:
            raise TrainingError("weight_decay cannot be negative")
        for name in ("batch_size", "max_halt_steps", "epochs"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")
        if self.warmup_steps < 0:
            raise TrainingError("warmup_steps cannot be negative")


@dataclass
class StepMetrics:
    step: int
    objective: str
    ce_loss: float
    q_loss: float
    token_accuracy: float
    exact_match_rate: float
    halt_histogram: list[int]
    grad_norm: float
    skipped_updates: int

    def __post_init__(self):
        for name in ("ce_loss", "q_loss", "token_accuracy", "exact_match_rate", "grad_norm"):
            if not math.isfinite(getattr(self, name)):
                raise TrainingError(f"metric {name} is not finite")
        for name in ("token_accuracy", "exact_match_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise TrainingError(f"metric {name} = {v} outside [0, 1]")


# ---------------------------------------------------------------------------
# batches


@dataclass
class Batch:
    rows: np.ndarray       # (B,) task-embedding rows
    inputs: np.ndarray     # (B, M) colour/PAD tokens
    targets: np.ndarray    # (B, M)
    loss_mask: np.ndarray  # (B, M) bool


def collate(examples: Sequence[PackedExample]) -> Batch:
    if not examples:
        raise TrainingError("cannot collate an empty batch")
    return Batch(
        rows=np.array([e.row for e in examples], dtype=np.int64),
        inputs=np.stack([e.input_tokens for e in examples]),
        targets=np.stack([e.target_tokens for e in examples]),
        loss_mask=np.stack([e.loss_mask for e in examples]),
    )


# ---------------------------------------------------------------------------
# loss


@dataclass
class LossParts:
    ce: float
    q: float
    match: np.ndarray      # (B,) 0/1 exact-match indicator
    correct: np.ndarray    # (B,) correct valid tokens per item
    valid_tokens: int


def combined_loss(logits: ad.Tensor, q_logit: ad.Tensor, targets: np.ndarray,
                  loss_mask: np.ndarray, window: tuple[int, int]
                  ) -> tuple[ad.Tensor, LossParts]:
    """Masked cross entropy plus BCE between the halting logit and the
    per-item indicator that every valid position is already correct.

    `window` is (valid tokens, items) of the whole window these items are
    part of: each mean is weighted by this part's share, so the parts'
    losses sum to the window's.  When the items are the whole window the
    share is exactly 1."""
    targets = np.asarray(targets)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    valid = int(loss_mask.sum())
    tokens, items = window
    ce = ad.masked_mean(ad.softmax_cross_entropy(logits, targets), loss_mask)
    pred = np.argmax(logits.value, axis=-1)
    hit = (pred == targets) & loss_mask
    match = (hit | ~loss_mask).all(axis=-1).astype(np.float64)
    q = ad.masked_mean(ad.sigmoid_bce(q_logit, match), np.ones(match.shape, dtype=bool))
    loss = ad.add(ad.scale(ce, valid / tokens), ad.scale(q, len(targets) / items))
    parts = LossParts(ce=float(ce.value), q=float(q.value), match=match,
                      correct=hit.sum(axis=-1), valid_tokens=valid)
    return loss, parts


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """AdamW with decoupled weight decay, linear lr warmup, a separate lr
    for the task-embedding table, and an EMA shadow updated per step."""

    def __init__(self, params: md.Parameters, ema: md.Parameters, tcfg: TrainConfig):
        self.params = params
        self.ema = ema
        self.tcfg = tcfg
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.skipped = 0
        self.skipped_in_a_row = 0

    def _warm_factor(self, t: int) -> float:
        if self.tcfg.warmup_steps <= 0:
            return 1.0
        return min(1.0, t / self.tcfg.warmup_steps)

    def apply(self, grads: dict[str, np.ndarray]) -> tuple[float, bool]:
        """One update from a full set of named gradients.  Returns the
        global gradient norm and whether the step was applied; non-finite
        gradients skip the step entirely."""
        sq = 0.0
        for g in grads.values():
            sq += float(np.sum(g.astype(np.float64) ** 2))
        norm = math.sqrt(sq) if math.isfinite(sq) else float("inf")
        if not math.isfinite(norm):
            self.skipped += 1
            self.skipped_in_a_row += 1
            return norm, False
        self.skipped_in_a_row = 0
        self.t += 1
        b1, b2 = ADAM_BETAS
        factor = self._warm_factor(self.t)
        wd = self.tcfg.weight_decay
        for name, p in self.params.items():
            g = grads[name]
            lr = (self.tcfg.task_embedding_lr if name == "embed/task"
                  else self.tcfg.lr) * factor
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS) + lr * wd * p
        d = self.tcfg.ema_decay
        for name, e in self.ema.items():
            e *= d
            e += (1.0 - d) * self.params[name]
        return norm, True


def _collect_grads(pt: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    """Each leaf's gradient, zeros where backward did not reach it.  It
    clears the leaves it reads: backward adds into a leaf's adjoint, and
    every micro-batch and window of a step shares the leaves."""
    grads = {}
    for name, leaf in pt.items():
        grads[name] = leaf.adjoint if leaf.adjoint is not None else np.zeros_like(leaf.value)
        leaf.adjoint = None
    return grads


# ---------------------------------------------------------------------------
# window arithmetic and objective validation


def window_plan(cfg: md.ModelConfig, tcfg: TrainConfig) -> tuple[int, int]:
    """(warm_cycles, gradient_cycles) for one window of this objective."""
    grad = tcfg.gradient_cycles
    if tcfg.objective == "diffusion":
        # one-step denoising is a single gradient cycle by definition
        if grad != 1 or (tcfg.warmup_cycles or 0) != 0:
            raise TrainingError("the one-step objective runs exactly one "
                                "gradient cycle and no warm-up")
        return 0, 1
    if tcfg.warmup_cycles is not None:
        return tcfg.warmup_cycles, grad
    if tcfg.objective in ("trm", "trm_no_deep_sup", "sprm"):
        return max(0, cfg.cycles_per_window - grad), grad
    if tcfg.objective == "drm":
        return 2, grad
    return 0, grad      # stacked baselines: the stack is the whole window


def check_objective(cfg: md.ModelConfig, tcfg: TrainConfig) -> tuple[int, int]:
    warm, grad = window_plan(cfg, tcfg)
    stacked = tcfg.objective.startswith("stacked")
    apps = (warm + grad) * cfg.apps_per_cycle
    if stacked and cfg.untied_depth != apps:
        raise TrainingError(
            f"objective {tcfg.objective} needs untied_depth == {apps} "
            f"(one weight set per application), got {cfg.untied_depth}")
    if not stacked and cfg.untied_depth != 0:
        raise TrainingError(
            f"objective {tcfg.objective} uses the weight-tied operator; "
            f"set untied_depth = 0")
    return warm, grad


# ---------------------------------------------------------------------------
# corruption and state perturbation


def corrupt_batch(batch: Batch, schedule: NoiseSchedule, seed: int,
                  step_index: int) -> np.ndarray:
    """Per-item tau ~ U(0,1) and masking, each from its own (step, item)
    stream so batch composition never couples the draws."""
    out = np.empty_like(batch.targets)
    for i in range(batch.rows.size):
        tau = float(rng_for(seed, "tau", step_index, i).uniform())
        out[i] = corrupt_target(batch.targets[i], batch.loss_mask[i], tau, schedule,
                                rng_for(seed, "mask", step_index, i))
    return out


def _sprm_perturber(sched: BetaSchedule, seed: int, step_index: int) -> Callable:
    def perturber(y: ad.Tensor, z: ad.Tensor, boundary: int, items: np.ndarray):
        yv = y.value.copy()
        zv = z.value.copy()
        for j, item in enumerate(items):
            s = rng_for(seed, "sprm", step_index, boundary, int(item))
            tau = int(s.integers(1, sched.num_steps + 1))
            yv[j] = perturb_latent(y.value[j], tau, sched, s)
            tau = int(s.integers(1, sched.num_steps + 1))
            zv[j] = perturb_latent(z.value[j], tau, sched, s)
        return ad.Tensor(yv, op="perturb"), ad.Tensor(zv, op="perturb")
    return perturber


# ---------------------------------------------------------------------------
# one training step


def micro_batch_size(cfg: md.ModelConfig, grad_cycles: int, dtype) -> int:
    """Items per micro-batch: as many as keep the sublayer inputs that a
    window's gradient cycles retain for backward, two (seq_len + 1,
    hidden_size) arrays per block application and item, within
    RETAINED_BYTES_BUDGET; at least one."""
    per_item = (grad_cycles * cfg.apps_per_cycle * cfg.num_layers * 2
                * (cfg.seq_len + 1) * cfg.hidden_size * np.dtype(dtype).itemsize)
    return max(1, RETAINED_BYTES_BUDGET // per_item)


def train_step(batch: Batch, params: md.Parameters, cfg: md.ModelConfig,
               tcfg: TrainConfig, opt: AdamW, seed: int, step_index: int,
               *, noise_schedule: NoiseSchedule = NoiseSchedule(),
               beta_schedule: BetaSchedule = BetaSchedule()) -> StepMetrics:
    """Run the objective's windows over one batch, with one optimizer step
    per supervised window.

    The batch runs as micro-batches of `micro_batch_size` items, one
    `halting_windows` generator each, in lockstep: in every window each
    micro-batch runs its forward, loss and backward before the next one
    starts, so only one micro-batch's graph is alive and the memory a step
    retains for backward is bounded by the budget, not by B.  A
    micro-batch builds its first state when it starts and names its items
    by their batch ids.  Every generator reads one set of parameter
    leaves, wrapped once per step: AdamW updates the arrays in place, so
    the micro-batches' summed gradients make the window's one update, which
    every micro-batch's next window sees.  Items keep their own noise,
    corruption and perturbation streams; with one micro-batch (B within
    the budget) the step is the whole batch's, byte for byte."""
    warm, grad_cycles = check_objective(cfg, tcfg)
    obj = tcfg.objective
    B = batch.rows.size
    streams = [rng_for(seed, "state", step_index, i) for i in range(B)]
    pt = md.wrap_parameters(params)
    denoise = obj in DENOISE_OBJECTIVES
    if denoise:
        corrupted = corrupt_batch(batch, noise_schedule, seed, step_index)
    windows = 1 if denoise else tcfg.max_halt_steps
    perturb = _sprm_perturber(beta_schedule, seed, step_index) if obj == "sprm" else None
    halt_early = obj != "trm_no_deep_sup"

    def run(idx):
        # the first state is built when the micro-batch starts, so only
        # one micro-batch's is alive at a time
        own = [streams[i] for i in idx]
        state = (md.label_state(pt, cfg, corrupted[idx], own) if denoise
                 else md.init_state(pt, cfg, own))
        yield from md.halting_windows(pt, cfg, batch.inputs[idx], batch.rows[idx], idx,
                                      state, windows, warm, grad_cycles,
                                      halt_early=halt_early, perturb=perturb)

    m = micro_batch_size(cfg, grad_cycles, params["state/z0"].dtype)
    runs = [run(idx) for idx in np.split(np.arange(B), range(m, B, m))]
    alive = np.ones(B, dtype=bool)      # the items that enter the next window

    ce_sum = 0.0
    ce_mass = 0
    q_sum = 0.0
    q_mass = 0
    correct = 0
    exact = 0
    hist = [0] * windows
    norms: list[float] = []
    for w in range(windows):
        supervised = halt_early or w == windows - 1
        totals = (int(batch.loss_mask[alive].sum()), int(alive.sum()))
        grads = None
        for gen in runs:
            out = next(gen, None)
            if out is None:
                continue        # every item of this micro-batch has exited
            items, logits, q, exiting = out
            alive[items[exiting]] = False
            hist[w] += int(exiting.sum())
            if not supervised:
                continue        # no loss, and no item can exit here
            loss, parts = combined_loss(logits, q, batch.targets[items],
                                        batch.loss_mask[items], totals)
            if not np.all(np.isfinite(loss.value)):
                raise DivergenceError(f"non-finite loss at step {step_index}, window {w}")
            ad.backward(loss)
            part = _collect_grads(pt)
            grads = part if grads is None else {k: g + part[k] for k, g in grads.items()}
            ce_sum += parts.ce * parts.valid_tokens
            ce_mass += parts.valid_tokens
            q_sum += parts.q * items.size
            q_mass += items.size
            correct += int(parts.correct[exiting].sum())
            exact += int(parts.match[exiting].sum())
            del out, loss, logits, q, part
        if grads is None:
            continue
        norm, applied = opt.apply(grads)
        if opt.skipped_in_a_row >= MAX_SKIPPED_IN_A_ROW:
            raise DivergenceError(f"{opt.skipped_in_a_row} updates in a row skipped for "
                                  f"non-finite gradients, at step {step_index}")
        if applied and not all(np.isfinite(v).all() for v in params.values()):
            raise DivergenceError(f"non-finite parameters after step {step_index}, window {w}")
        norms.append(norm if applied else 0.0)

    return StepMetrics(
        step=step_index,
        objective=obj,
        ce_loss=ce_sum / max(1, ce_mass),
        q_loss=q_sum / max(1, q_mass),
        token_accuracy=correct / max(1, int(batch.loss_mask.sum())),
        exact_match_rate=exact / B,
        halt_histogram=hist,
        grad_norm=float(np.mean(norms)) if norms else 0.0,
        skipped_updates=opt.skipped,
    )


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainResult:
    params: md.Parameters
    ema: md.Parameters
    history: list[StepMetrics]


def run_training(dataset: DeskDataset, cfg: md.ModelConfig, tcfg: TrainConfig,
                 seed: int, *,
                 noise_schedule: NoiseSchedule = NoiseSchedule(),
                 beta_schedule: BetaSchedule = BetaSchedule(),
                 metrics_path=None,
                 checkpoint_path=None,
                 checkpoint_every: int = 0,
                 max_steps: int | None = None,
                 progress: Callable[[StepMetrics], None] | None = None) -> TrainResult:
    """max_steps steps when given, else tcfg.epochs epochs, of batches
    from an endless stream of (seed, "data", epoch) permutations of the
    packed examples; a checkpoint with the EMA shadow is written every
    checkpoint_every steps and at the last."""
    check_objective(cfg, tcfg)
    if max_steps is not None and max_steps < 1:
        raise TrainingError(f"max_steps must be >= 1, got {max_steps}")
    if cfg.num_tasks < dataset.num_rows:
        raise TrainingError(
            f"model has {cfg.num_tasks} task rows but the dataset needs "
            f"{dataset.num_rows}")
    if cfg.seq_len != dataset.seq_len:
        raise TrainingError(
            f"model seq_len {cfg.seq_len} != dataset template {dataset.seq_len}")

    params = md.Parameters.init(cfg, rng_for(seed, "init"))
    ema = params.copy()
    opt = AdamW(params, ema, tcfg)

    examples = dataset.train_examples
    if not examples:
        raise TrainingError("dataset has no training examples")

    history: list[StepMetrics] = []
    total = max_steps or tcfg.epochs * math.ceil(len(examples) / tcfg.batch_size)
    orders = (rng_for(seed, "data", epoch).permutation(len(examples))
              for epoch in itertools.count())
    batches = (order[lo:lo + tcfg.batch_size] for order in orders
               for lo in range(0, len(order), tcfg.batch_size))
    # line-buffered, so a killed run keeps every step it finished
    with (open(metrics_path, "w", encoding="utf-8", buffering=1) if metrics_path
          else contextlib.nullcontext()) as out:
        for step, picked in enumerate(itertools.islice(batches, total), 1):
            metrics = train_step(collate([examples[i] for i in picked]), params,
                                 cfg, tcfg, opt, seed, step - 1,
                                 noise_schedule=noise_schedule,
                                 beta_schedule=beta_schedule)
            history.append(metrics)
            if out is not None:
                out.write(json.dumps(asdict(metrics)) + "\n")
            if progress is not None:
                progress(metrics)
            if checkpoint_path and (step == total or checkpoint_every
                                    and step % checkpoint_every == 0):
                md.save_checkpoint(str(checkpoint_path).format(step=step),
                                   cfg, params, ema,
                                   {"step": step, "objective": tcfg.objective})
    return TrainResult(params=params, ema=ema, history=history)
