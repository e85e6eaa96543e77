"""Test-time generation, voting, and scoring.

Two generators, one per kind of objective, both replaying the training
loop (`md.halting_windows`) without gradient, in windows of
`cfg.cycles_per_window` cycles.  Each wraps the parameters once per
call, builds the items' first state itself and names the items by their
position in the batch.  Generate-and-remask, for
the denoising objectives, starts from a fully masked answer; each
iteration is one drm training window from the label state of the current
answer, whose full-grid prediction is then partly remasked along a
descending timestep ladder.  The halting generator, for the recursive
objectives, carries (y, z) through recursion windows until the Q-head
goes positive.

Per-item randomness comes from one generator per case with a fixed
consumption order (timesteps, then per iteration noise and remask
picks), so results do not depend on how cases are batched.

Scoring follows the augmentation-voting protocol: undo each
prediction's augmentation, group identical grids, rank by vote count,
then mean predicted q, then grid bytes for determinism.  A task's solve
rank is the smallest k at which every test input has a correct grid
among its top k, or inf when some test input has none; pass@2, pass@k
and pass@pool are all read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import model as md
from .corruption import NoiseSchedule, corrupt_target, sample_timesteps
from .seeding import rng_for
from .tasks import (MASK, NUM_COLOURS, PAD, Augmentation, DeskDataset,
                    from_template, undo_augmentation)
from .training import DENOISE_OBJECTIVES


class InferenceError(ValueError):
    pass


def _colour_argmax(logits: np.ndarray) -> np.ndarray:
    # MASK is not a decoder class and PAD is never a valid answer; the
    # prediction is always the best colour
    return np.argmax(logits[..., :NUM_COLOURS], axis=-1)


# ---------------------------------------------------------------------------
# generate-and-remask


def remask_batch(inputs: np.ndarray, masks: np.ndarray, rows: np.ndarray,
                 params: md.Parameters, cfg: md.ModelConfig,
                 num_steps: int, schedule: NoiseSchedule,
                 streams: Sequence[np.random.Generator], *,
                 trace: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Denoise a batch; returns (tokens (B, M), final sigmoid q (B,)).

    `trace`, when given, collects one frame per iteration for item 0:
    its timestep, the full prediction, the remasked indices and the q value.
    """
    masks = np.asarray(masks, dtype=bool)
    steps = [sample_timesteps(num_steps, g) for g in streams]
    if any(len(s) != num_steps + 1 for s in steps):
        raise InferenceError("timestep draws collided; re-seed the run")

    current = np.where(masks, MASK, PAD).astype(np.int64)
    pt = md.wrap_parameters(params)
    ids = np.arange(masks.shape[0])
    with ad.no_grad():
        for it in range(num_steps):
            # the drm training window, cycles_per_window - 1 warm-up cycles
            # and one more, from the label state of the current answer
            state = md.label_state(pt, cfg, current, streams)
            [(_, logits, q_logit, _)] = md.halting_windows(
                pt, cfg, inputs, rows, ids, state, 1, cfg.cycles_per_window - 1, 1)
            pred = _colour_argmax(logits.value)
            q_out = ad.sigmoid(q_logit.value)
            # re-corrupt the prediction as training corrupts its targets
            current = np.stack([
                corrupt_target(p, m, float(s[it + 1]), schedule, g)
                for p, m, s, g in zip(np.where(masks, pred, PAD), masks, steps, streams)])
            if trace is not None:
                trace.append({"timestep": float(steps[0][it]),
                              "prediction": np.where(masks[0], pred[0], PAD),
                              "remasked": np.flatnonzero(current[0] == MASK).tolist(),
                              "q": float(q_out[0])})
    if np.any(current == MASK):
        raise InferenceError("mask tokens survived the final denoise step")
    return current, q_out


def generate_remask(tokens: np.ndarray, loss_mask: np.ndarray, row: int,
                    params: md.Parameters, cfg: md.ModelConfig,
                    num_steps: int, rng: np.random.Generator, *,
                    schedule: NoiseSchedule = NoiseSchedule(),
                    trace: list | None = None) -> tuple[np.ndarray, float]:
    """Single-case generate-and-remask; all randomness from `rng`."""
    out, q = remask_batch(np.asarray(tokens)[None, :],
                          np.asarray(loss_mask)[None, :],
                          np.array([row], dtype=np.int64),
                          params, cfg, num_steps, schedule, [rng], trace=trace)
    return out[0], float(q[0])


# ---------------------------------------------------------------------------
# halting recursion


def halting_batch(inputs: np.ndarray, masks: np.ndarray, rows: np.ndarray,
                  params: md.Parameters, cfg: md.ModelConfig,
                  streams: Sequence[np.random.Generator], *,
                  max_steps: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Replay the training recursion (`md.halting_windows`) until each
    item's q goes positive or the budget runs out.

    Returns (tokens (B, M), final sigmoid q (B,), per-item q traces).
    """
    budget = cfg.max_halt_steps if max_steps is None else max_steps
    if budget < 1:
        raise InferenceError(f"halting needs a budget >= 1, got {budget}")
    masks = np.asarray(masks, dtype=bool)

    out = np.zeros(masks.shape, dtype=np.int64)
    traces: list[list[float]] = [[] for _ in range(masks.shape[0])]
    pt = md.wrap_parameters(params)
    with ad.no_grad():
        state = md.init_state(pt, cfg, streams)
        for active, logits, q_logit, halted in md.halting_windows(
                pt, cfg, inputs, rows, np.arange(masks.shape[0]), state,
                budget, cfg.cycles_per_window - 1, 1):
            for item, sq in zip(active, ad.sigmoid(q_logit.value)):
                traces[item].append(float(sq))
            done = active[halted]
            out[done] = np.where(masks[done], _colour_argmax(logits.value[halted]), PAD)
    return out, np.array([t[-1] for t in traces]), traces


def generate_halting(tokens: np.ndarray, loss_mask: np.ndarray, row: int,
                     params: md.Parameters, cfg: md.ModelConfig,
                     rng: np.random.Generator, *,
                     max_steps: int | None = None
                     ) -> tuple[np.ndarray, list[float]]:
    out, _, traces = halting_batch(np.asarray(tokens)[None, :],
                                   np.asarray(loss_mask)[None, :],
                                   np.array([row], dtype=np.int64),
                                   params, cfg, [rng], max_steps=max_steps)
    return out[0], traces[0]


# ---------------------------------------------------------------------------
# voting


@dataclass
class VoteCandidate:
    canonical_grid: np.ndarray
    q_values: list[float]      # one per vote

    @property
    def vote_count(self) -> int:
        return len(self.q_values)

    @property
    def mean_q(self) -> float:
        # summed in sorted order so the ranking cannot depend on the
        # arrival order of pool entries
        return sum(sorted(self.q_values)) / len(self.q_values)


def ranked_candidates(predictions: Sequence[tuple[np.ndarray, float, Augmentation]]
                      ) -> list[VoteCandidate]:
    """De-augment, group identical grids, and order the full pool."""
    if not predictions:
        raise InferenceError("vote over an empty prediction pool")
    groups: dict[tuple, VoteCandidate] = {}
    for grid, q, aug in predictions:
        canon = undo_augmentation(np.asarray(grid, dtype=np.int8), aug)
        groups.setdefault((canon.shape, canon.tobytes()),
                          VoteCandidate(canon, [])).q_values.append(float(q))
    return sorted(groups.values(),
                  key=lambda c: (-c.vote_count, -c.mean_q,
                                 c.canonical_grid.tobytes()))


# ---------------------------------------------------------------------------
# evaluation reports


@dataclass
class PoolEntry:
    task_index: int
    test_index: int
    grid: np.ndarray        # prediction still in augmented space
    q: float
    aug: Augmentation


@dataclass
class EvalReport:
    ks: list[int]
    ranks: dict[str, float]             # task id -> solve rank, inf if unsolved
    top2: dict[str, list[np.ndarray]]   # task id -> first test input's top 2

    def accuracy(self, k: int | None = None) -> float:
        """Share of tasks solved at pass@k; k=None is pass@pool."""
        solved = [r <= k if k is not None else math.isfinite(r)
                  for r in self.ranks.values()]
        return sum(solved) / max(1, len(solved))

    def to_json(self) -> dict:
        return {task_id: {"pass2": r <= 2,
                          "passk": {str(k): r <= k for k in self.ks},
                          "top2": [g.tolist() for g in self.top2[task_id]]}
                for task_id, r in self.ranks.items()}


def collect_predictions(dataset: DeskDataset, params: md.Parameters,
                        cfg: md.ModelConfig, objective: str, seed: int, *,
                        num_denoise_steps: int = 16,
                        schedule: NoiseSchedule = NoiseSchedule(),
                        max_steps: int | None = None,
                        batch_size: int = 32) -> list[PoolEntry]:
    """Run the right generator over every eval case, in batches."""
    th, tw = dataset.template
    cases = dataset.eval_cases
    entries: list[PoolEntry] = []
    for lo in range(0, len(cases), batch_size):
        chunk = cases[lo:lo + batch_size]
        inputs = np.stack([c.input_tokens for c in chunk])
        masks = np.stack([c.loss_mask for c in chunk])
        rows = np.array([c.row for c in chunk], dtype=np.int64)
        streams = [rng_for(seed, "eval", lo + i) for i in range(len(chunk))]
        if objective in DENOISE_OBJECTIVES:
            tokens, q = remask_batch(inputs, masks, rows, params, cfg,
                                     num_denoise_steps, schedule, streams)
        else:
            tokens, q, _ = halting_batch(inputs, masks, rows, params, cfg,
                                         streams, max_steps=max_steps)
        for i, case in enumerate(chunk):
            h, w = case.shape
            grid = from_template(tokens[i], h, w, th, tw, case.aug.offset)
            entries.append(PoolEntry(case.task_index, case.test_index,
                                     grid, float(q[i]), case.aug))
    return entries


def pass_at_k(dataset: DeskDataset, entries: Sequence[PoolEntry],
              ks: Sequence[int] = (2,)) -> EvalReport:
    """Score pooled predictions by each task's solve rank: the largest,
    over its test inputs, of the 1-based position of the first correct
    grid among the ranked candidates (inf when none is correct)."""
    ks = sorted(set(int(k) for k in ks))
    if any(k < 1 for k in ks):
        raise InferenceError("pass@k needs k >= 1")
    truth = {(c.task_index, c.test_index): c.target_grid for c in dataset.eval_cases}
    pools: dict[tuple[int, int], list] = {key: [] for key in truth}
    for e in entries:
        key = (e.task_index, e.test_index)
        if key not in pools:
            raise InferenceError(f"prediction for unknown case {key}")
        pools[key].append((e.grid, e.q, e.aug))

    ranks: dict[str, float] = {}
    top2: dict[str, list[np.ndarray]] = {}
    for key in sorted(pools):
        if not pools[key]:
            raise InferenceError(f"no predictions for case {key}")
        ranked = ranked_candidates(pools[key])
        hit = next((i for i, c in enumerate(ranked, 1)
                    if np.array_equal(c.canonical_grid, truth[key])), math.inf)
        task_id = dataset.tasks[key[0]].task_id
        ranks[task_id] = max(ranks.get(task_id, 0), hit)
        top2.setdefault(task_id, [c.canonical_grid for c in ranked[:2]])
    return EvalReport(ks, ranks, top2)

