"""Training regimes for the looped model.

All seven objectives run one loop, `md.halting_windows`, which halting
inference replays.  The recursive objectives (trm, trm_no_deep_sup, sprm,
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

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import model as md
from .corruption import BetaSchedule, NoiseSchedule, corrupt_target, perturb_latent
from .seeding import rng_for
from .tasks import DeskDataset, PackedExample, TokenSeq

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

    def record(self) -> dict:
        """The line-delimited JSON record; deliberately only these keys."""
        return {
            "step": self.step,
            "objective": self.objective,
            "ce_loss": self.ce_loss,
            "q_loss": self.q_loss,
            "token_accuracy": self.token_accuracy,
            "exact_match_rate": self.exact_match_rate,
            "skipped_updates": self.skipped_updates,
        }


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
                  loss_mask: np.ndarray) -> tuple[ad.Tensor, LossParts]:
    """Masked cross entropy plus BCE between the halting logit and the
    per-item indicator that every valid position is already correct."""
    targets = np.asarray(targets)
    loss_mask = np.asarray(loss_mask, dtype=bool)
    ce = ad.masked_mean(ad.softmax_cross_entropy(logits, targets), loss_mask)
    pred = np.argmax(logits.value, axis=-1)
    hit = (pred == targets) & loss_mask
    match = (hit | ~loss_mask).all(axis=-1).astype(np.float64)
    q = ad.mean_all(ad.sigmoid_bce(q_logit, match))
    loss = ad.add(ce, q)
    parts = LossParts(ce=float(ce.value), q=float(q.value), match=match,
                      correct=hit.sum(axis=-1), valid_tokens=int(loss_mask.sum()))
    return loss, parts


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """AdamW with decoupled weight decay, linear lr warmup, a separate lr
    for the task-embedding table, and an EMA shadow updated per step."""

    def __init__(self, params: md.Parameters, ema: md.Parameters | None,
                 tcfg: TrainConfig):
        self.params = params
        self.ema = ema
        self.tcfg = tcfg
        self.m = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.arrays.items()}
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
        for name, p in self.params.arrays.items():
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
        if self.ema is not None:
            d = self.tcfg.ema_decay
            for name, e in self.ema.arrays.items():
                e *= d
                e += (1.0 - d) * self.params.arrays[name]
        return norm, True


def _collect_grads(pt: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    return {name: (leaf.adjoint if leaf.adjoint is not None
                   else np.zeros_like(leaf.value))
            for name, leaf in pt.items()}


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
        seq = corrupt_target(TokenSeq(batch.targets[i], batch.loss_mask[i]),
                             tau, schedule, rng_for(seed, "mask", step_index, i))
        out[i] = seq.tokens
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
        return (ad.Tensor(yv, op="perturb", detached=y.detached),
                ad.Tensor(zv, op="perturb", detached=z.detached))
    return perturber


# ---------------------------------------------------------------------------
# one training step


def train_step(batch: Batch, params: md.Parameters, cfg: md.ModelConfig,
               tcfg: TrainConfig, opt: AdamW, seed: int, step_index: int,
               *, noise_schedule: NoiseSchedule | None = None,
               beta_schedule: BetaSchedule | None = None,
               audit: list | None = None) -> StepMetrics:
    """Run the objective's windows over one batch, with one optimizer step
    per supervised window.  `audit`, when given, collects each supervised
    window's graph nodes, loss and active count."""
    warm, grad_cycles = check_objective(cfg, tcfg)
    obj = tcfg.objective
    B = batch.rows.size
    streams = [rng_for(seed, "state", step_index, i) for i in range(B)]
    perturb = None
    if obj in DENOISE_OBJECTIVES:
        sched = noise_schedule if noise_schedule is not None else NoiseSchedule()
        corrupted = corrupt_batch(batch, sched, seed, step_index)
        windows = 1
        first_state = lambda pt: md.label_state(pt, cfg, corrupted, streams)
    else:
        windows = tcfg.max_halt_steps
        first_state = lambda pt: md.init_state(pt, cfg, streams)
        if obj == "sprm":
            sched = beta_schedule if beta_schedule is not None else BetaSchedule()
            perturb = _sprm_perturber(sched, seed, step_index)
    halt_early = obj != "trm_no_deep_sup"

    ce_sum = 0.0
    ce_mass = 0
    q_sum = 0.0
    q_mass = 0
    correct = 0
    exact = 0
    hist = [0] * windows
    norms: list[float] = []
    for w, active, pt, logits, q, exiting in md.halting_windows(
            params, cfg, batch.inputs, batch.rows, first_state, windows, warm,
            grad_cycles, halt_early=halt_early, perturb=perturb):
        hist[w] = int(exiting.sum())
        if not (halt_early or w == windows - 1):
            continue        # no loss, and no item can exit here
        loss, parts = combined_loss(logits, q, batch.targets[active],
                                    batch.loss_mask[active])
        if not np.all(np.isfinite(loss.value)):
            raise DivergenceError(f"non-finite loss at step {step_index}, window {w}")
        ad.backward(loss)
        norm, applied = opt.apply(_collect_grads(pt))
        if opt.skipped_in_a_row >= MAX_SKIPPED_IN_A_ROW:
            raise DivergenceError(f"{opt.skipped_in_a_row} updates in a row skipped for "
                                  f"non-finite gradients, at step {step_index}")
        if applied and not all(np.isfinite(v).all() for v in params.arrays.values()):
            raise DivergenceError(f"non-finite parameters after step {step_index}, window {w}")
        norms.append(norm if applied else 0.0)
        ce_sum += parts.ce * parts.valid_tokens
        ce_mass += parts.valid_tokens
        q_sum += parts.q * active.size
        q_mass += active.size
        correct += int(parts.correct[exiting].sum())
        exact += int(parts.match[exiting].sum())
        if audit is not None:
            nodes = ad.graph_nodes(loss)
            audit.append({"window": w, "nodes": nodes,
                          "loss": float(loss.value), "active": int(active.size)})
            for node in nodes:
                node.adjoint = None

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
    steps: int
    final_eval: float | None


def run_training(dataset: DeskDataset, cfg: md.ModelConfig, tcfg: TrainConfig,
                 seed: int, *,
                 noise_schedule: NoiseSchedule | None = None,
                 beta_schedule: BetaSchedule | None = None,
                 metrics_path=None,
                 checkpoint_path=None,
                 checkpoint_every: int = 0,
                 eval_fn: Callable[[md.Parameters], float] | None = None,
                 eval_every: int = 0,
                 eval_target: float | None = None,
                 max_steps: int | None = None,
                 progress: Callable[[StepMetrics], None] | None = None) -> TrainResult:
    """Epochs over the packed training examples.  Evaluation (and the
    optional early stop on eval_target) always sees the EMA weights."""
    check_objective(cfg, tcfg)
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
    out = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    final_eval = None
    step = 0
    try:
        done = False
        for epoch in range(tcfg.epochs):
            order = rng_for(seed, "data", epoch).permutation(len(examples))
            for lo in range(0, len(order), tcfg.batch_size):
                picked = [examples[i] for i in order[lo:lo + tcfg.batch_size]]
                metrics = train_step(collate(picked), params, cfg, tcfg, opt,
                                     seed, step,
                                     noise_schedule=noise_schedule,
                                     beta_schedule=beta_schedule)
                history.append(metrics)
                if out is not None:
                    out.write(json.dumps(metrics.record()) + "\n")
                if progress is not None:
                    progress(metrics)
                step += 1
                if checkpoint_path and checkpoint_every and step % checkpoint_every == 0:
                    md.save_checkpoint(str(checkpoint_path).format(step=step),
                                       cfg, params, ema,
                                       {"step": step, "objective": tcfg.objective})
                if eval_fn is not None and eval_every and step % eval_every == 0:
                    final_eval = float(eval_fn(ema))
                    if eval_target is not None and final_eval >= eval_target:
                        done = True
                        break
                if max_steps is not None and step >= max_steps:
                    done = True
                    break
            if done:
                break
    finally:
        if out is not None:
            out.close()
    if checkpoint_path:
        md.save_checkpoint(str(checkpoint_path).format(step=step), cfg, params,
                           ema, {"step": step, "objective": tcfg.objective})
    return TrainResult(params=params, ema=ema, history=history, steps=step,
                       final_eval=final_eval)
