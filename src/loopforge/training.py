"""Training regimes for the looped model.

Two data paths cover all seven objectives.  The backward path (trm,
trm_no_deep_sup, sprm, stacked_deep_sup) starts from a learned initial
state and runs up to max_halt_steps recursion windows, detaching the
state at every boundary; deep supervision means one loss and one
optimizer step per window.  The denoising path (diffusion, drm,
stacked_transformer) corrupts the target, embeds it as the initial
answer state, runs a single window, and takes a single step.

The state-perturbation regime is the backward path with the carried
(y, z) passed through perturb_latent at each boundary; with beta = 0 it
is bit-for-bit the plain backward path.  Likewise drm with one gradient
cycle and no warm-up is bit-for-bit the one-step denoiser, which the
tests lean on.

Optimization is AdamW with decoupled weight decay, a linear warmup on
the learning rate, a separate learning rate for the task-embedding
table, and an EMA shadow of the weights used for evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
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


class TrainingError(RuntimeError):
    pass


class DivergenceError(TrainingError):
    """Loss went non-finite; the run cannot continue."""


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
    correct_tokens: int
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
                      correct_tokens=int(hit.sum()), valid_tokens=int(loss_mask.sum()))
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
            return norm, False
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
# backward path: trm, trm_no_deep_sup, sprm, stacked_deep_sup


def _step_backward(batch: Batch, params: md.Parameters, cfg: md.ModelConfig,
                   tcfg: TrainConfig, opt: AdamW, seed: int, step_index: int,
                   *, deep_supervision: bool,
                   perturber: Callable | None = None,
                   audit: list | None = None) -> StepMetrics:
    warm, grad_cycles = check_objective(cfg, tcfg)
    B = batch.rows.size
    windows = tcfg.max_halt_steps

    active = np.arange(B)
    y_carry = z_carry = None
    ce_sum = 0.0
    ce_mass = 0
    q_sum = 0.0
    q_mass = 0
    correct = 0
    exact = 0
    hist = [0] * windows
    norms: list[float] = []

    for w in range(windows):
        pt = md.wrap_parameters(params)
        x = md.embed_input(pt, cfg, batch.inputs[active], batch.rows[active])
        if w == 0:
            streams = [rng_for(seed, "state", step_index, i) for i in range(B)]
            state = md.init_state(pt, cfg, streams)
        else:
            state = md.LatentState(y=y_carry, z=z_carry, window_index=w)
        supervise = deep_supervision or w == windows - 1
        state, logits, q = md.run_window(pt, cfg, x, state, warm, grad_cycles,
                                         with_gradient=supervise)

        if supervise:
            loss, parts = combined_loss(logits, q, batch.targets[active],
                                        batch.loss_mask[active])
            if not np.all(np.isfinite(loss.value)):
                raise DivergenceError(
                    f"non-finite loss at step {step_index}, window {w}")
            ad.backward(loss)
            grads = _collect_grads(pt)
            norm, applied = opt.apply(grads)
            norms.append(norm if applied else 0.0)
            n_valid = parts.valid_tokens
            ce_sum += parts.ce * n_valid
            ce_mass += n_valid
            q_sum += parts.q * active.size
            q_mass += active.size

        # halting: the pre-sigmoid logit decides; everyone exits at the end
        if w == windows - 1:
            exiting = np.ones(active.size, dtype=bool)
        elif deep_supervision:
            exiting = q.value > 0
        else:
            exiting = np.zeros(active.size, dtype=bool)

        if exiting.any():
            pred = np.argmax(logits.value[exiting], axis=-1)
            tgt = batch.targets[active[exiting]]
            msk = batch.loss_mask[active[exiting]]
            hit = (pred == tgt) & msk
            correct += int(hit.sum())
            exact += int((hit | ~msk).all(axis=-1).sum())
            hist[w] += int(exiting.sum())

        if audit is not None and supervise:
            nodes = ad.graph_nodes(loss)
            audit.append({"window": w, "nodes": nodes,
                          "loss": float(loss.value), "active": int(active.size)})
            for node in nodes:
                node.adjoint = None

        staying = ~exiting
        if not staying.any():
            break
        active = active[staying]
        y_carry = ad.stop_gradient(state.y)
        z_carry = ad.stop_gradient(state.z)
        if staying.size != staying.sum():
            y_carry = ad.Tensor(y_carry.value[staying], op="stop_gradient",
                                detached=state.y)
            z_carry = ad.Tensor(z_carry.value[staying], op="stop_gradient",
                                detached=state.z)
        if perturber is not None:
            y_carry, z_carry = perturber(y_carry, z_carry, w, active)

    total_valid = int(batch.loss_mask.sum())
    return StepMetrics(
        step=step_index,
        objective=tcfg.objective,
        ce_loss=ce_sum / max(1, ce_mass),
        q_loss=q_sum / max(1, q_mass),
        token_accuracy=correct / max(1, total_valid),
        exact_match_rate=exact / B,
        halt_histogram=hist,
        grad_norm=float(np.mean(norms)) if norms else 0.0,
    )


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
# denoising path: diffusion, drm, stacked_transformer


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


def _step_denoise(batch: Batch, params: md.Parameters, cfg: md.ModelConfig,
                  tcfg: TrainConfig, opt: AdamW, seed: int, step_index: int,
                  noise_schedule: NoiseSchedule) -> StepMetrics:
    warm, grad_cycles = check_objective(cfg, tcfg)
    B = batch.rows.size
    corrupted = corrupt_batch(batch, noise_schedule, seed, step_index)
    pt = md.wrap_parameters(params)
    x = md.embed_input(pt, cfg, batch.inputs, batch.rows)
    streams = [rng_for(seed, "state", step_index, i) for i in range(B)]
    state = md.label_state(pt, cfg, corrupted, streams)
    state, logits, q = md.run_window(pt, cfg, x, state, warm, grad_cycles)
    loss, parts = combined_loss(logits, q, batch.targets, batch.loss_mask)
    if not np.all(np.isfinite(loss.value)):
        raise DivergenceError(f"non-finite loss at step {step_index}")
    ad.backward(loss)
    norm, applied = opt.apply(_collect_grads(pt))
    return StepMetrics(
        step=step_index,
        objective=tcfg.objective,
        ce_loss=parts.ce,
        q_loss=parts.q,
        token_accuracy=parts.correct_tokens / max(1, parts.valid_tokens),
        exact_match_rate=float(parts.match.mean()),
        halt_histogram=[B],
        grad_norm=norm if applied else 0.0,
    )


def train_step(batch: Batch, params: md.Parameters, cfg: md.ModelConfig,
               tcfg: TrainConfig, opt: AdamW, seed: int, step_index: int,
               *, noise_schedule: NoiseSchedule | None = None,
               beta_schedule: BetaSchedule | None = None,
               audit: list | None = None) -> StepMetrics:
    obj = tcfg.objective
    if obj in DENOISE_OBJECTIVES:
        sched = noise_schedule if noise_schedule is not None else NoiseSchedule()
        return _step_denoise(batch, params, cfg, tcfg, opt, seed, step_index, sched)
    perturber = None
    if obj == "sprm":
        sched = beta_schedule if beta_schedule is not None else BetaSchedule()
        perturber = _sprm_perturber(sched, seed, step_index)
    return _step_backward(batch, params, cfg, tcfg, opt, seed, step_index,
                          deep_supervision=obj != "trm_no_deep_sup",
                          perturber=perturber, audit=audit)


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
