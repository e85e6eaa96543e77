"""Test-time generation, voting, and scoring.

Two generators, one per kind of objective, both without gradient.
Generate-and-remask, for the denoising objectives, starts from a fully
masked answer; each iteration embeds the current answer as the training
label state, predicts the full grid, and remasks part of it along a
descending timestep ladder.  The halting generator, for the recursive
objectives, runs the training loop itself (`md.halting_windows`),
carrying (y, z) through recursion windows until the Q-head goes
positive.

Per-item randomness comes from one generator per case with a fixed
consumption order (timesteps, then per iteration noise and remask
picks), so results do not depend on how cases are batched.

Scoring follows the augmentation-voting protocol: undo each
prediction's augmentation, group identical grids, rank by vote count,
then mean predicted q, then grid bytes for determinism.  pass@k marks a
task solved when every test input has a correct grid among its top k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import model as md
from .corruption import NoiseSchedule, num_masked, sample_timesteps
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
                 cycles: int | None = None,
                 trace: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Denoise a batch; returns (tokens (B, M), final sigmoid q (B,)).

    `trace`, when given, collects one frame per iteration for item 0:
    the full prediction, the remasked indices, and the q value.
    """
    B, M = np.asarray(inputs).shape
    cycles = cfg.cycles_per_window if cycles is None else cycles
    masks = np.asarray(masks, dtype=bool)
    valid = [np.flatnonzero(masks[i]) for i in range(B)]

    steps = [sample_timesteps(num_steps, g) for g in streams]
    if any(len(s) != num_steps + 1 for s in steps):
        raise InferenceError("timestep draws collided; re-seed the run")

    current = np.where(masks, MASK, PAD).astype(np.int64)
    pt = md.wrap_parameters(params, requires_grad=False)
    q_out = np.zeros(B)
    with ad.no_grad():
        x = md.embed_input(pt, cfg, inputs, rows)
        for it in range(num_steps):
            state = md.label_state(pt, cfg, current, streams)
            state, _ = md.run_cycles(pt, cfg, x, state, cycles)
            logits, q_logit = md.decode_state(pt, cfg, state)
            pred = _colour_argmax(logits.value)
            q_out = ad.sigmoid(q_logit.value)
            remasked = []
            for i in range(B):
                current[i, valid[i]] = pred[i, valid[i]]
                s_next = float(steps[i][it + 1])
                j = num_masked(schedule, s_next, valid[i].size)
                if j > valid[i].size:
                    raise InferenceError("remask count exceeds the grid")
                if j > 0:
                    picks = streams[i].choice(valid[i], size=j, replace=False)
                    current[i, picks] = MASK
                    if i == 0:
                        remasked = picks.tolist()
            if trace is not None:
                trace.append({"step": it, "timestep": float(steps[0][it]),
                              "prediction": np.where(masks[0], pred[0], PAD).copy(),
                              "remasked": remasked, "q": float(q_out[0])})
    if np.any(current == MASK):
        raise InferenceError("mask tokens survived the final denoise step")
    return current, q_out


def generate_remask(tokens: np.ndarray, loss_mask: np.ndarray, row: int,
                    params: md.Parameters, cfg: md.ModelConfig,
                    num_steps: int, rng: np.random.Generator, *,
                    schedule: NoiseSchedule | None = None,
                    cycles: int | None = None,
                    trace: list | None = None) -> tuple[np.ndarray, float]:
    """Single-case generate-and-remask; all randomness from `rng`."""
    sched = schedule if schedule is not None else NoiseSchedule()
    out, q = remask_batch(np.asarray(tokens)[None, :],
                          np.asarray(loss_mask)[None, :],
                          np.array([row], dtype=np.int64),
                          params, cfg, num_steps, sched, [rng],
                          cycles=cycles, trace=trace)
    return out[0], float(q[0])


# ---------------------------------------------------------------------------
# halting recursion


def halting_batch(inputs: np.ndarray, masks: np.ndarray, rows: np.ndarray,
                  params: md.Parameters, cfg: md.ModelConfig,
                  streams: Sequence[np.random.Generator], *,
                  cycles: int | None = None,
                  max_steps: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Replay the training recursion (`md.halting_windows`) until each
    item's q goes positive or the budget runs out.

    Returns (tokens (B, M), final sigmoid q (B,), per-item q traces).
    """
    cycles = cfg.cycles_per_window if cycles is None else cycles
    budget = cfg.max_halt_steps if max_steps is None else max_steps
    if budget < 1 or cycles < 1:
        raise InferenceError(f"halting needs a budget and cycles >= 1, got "
                             f"{budget} and {cycles}")
    masks = np.asarray(masks, dtype=bool)

    out = np.zeros(masks.shape, dtype=np.int64)
    traces: list[list[float]] = [[] for _ in range(masks.shape[0])]
    with ad.no_grad():
        for _, active, _, logits, q_logit, halted in md.halting_windows(
                params, cfg, inputs, rows, lambda pt: md.init_state(pt, cfg, streams),
                budget, cycles - 1, 1):
            for item, sq in zip(active, ad.sigmoid(q_logit.value)):
                traces[item].append(float(sq))
            done = active[halted]
            out[done] = np.where(masks[done], _colour_argmax(logits.value[halted]), PAD)
    return out, np.array([t[-1] for t in traces]), traces


def generate_halting(tokens: np.ndarray, loss_mask: np.ndarray, row: int,
                     params: md.Parameters, cfg: md.ModelConfig,
                     rng: np.random.Generator, *,
                     cycles: int | None = None,
                     max_steps: int | None = None
                     ) -> tuple[np.ndarray, list[float]]:
    out, _, traces = halting_batch(np.asarray(tokens)[None, :],
                                   np.asarray(loss_mask)[None, :],
                                   np.array([row], dtype=np.int64),
                                   params, cfg, [rng],
                                   cycles=cycles, max_steps=max_steps)
    return out[0], traces[0]


# ---------------------------------------------------------------------------
# voting


@dataclass
class VoteCandidate:
    canonical_grid: np.ndarray
    vote_count: int
    q_values: list[float]

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
    groups: dict[bytes, VoteCandidate] = {}
    for grid, q, aug in predictions:
        canon = undo_augmentation(np.asarray(grid, dtype=np.int8), aug)
        key = canon.shape, canon.tobytes()
        if key in groups:
            groups[key].vote_count += 1
            groups[key].q_values.append(float(q))
        else:
            groups[key] = VoteCandidate(canon, 1, [float(q)])
    return sorted(groups.values(),
                  key=lambda c: (-c.vote_count, -c.mean_q,
                                 c.canonical_grid.tobytes()))


def vote(predictions: Sequence[tuple[np.ndarray, float, Augmentation]]
         ) -> list[VoteCandidate]:
    """Top two candidates; a pool with one distinct grid yields one."""
    return ranked_candidates(predictions)[:2]


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
class TaskResult:
    pass2: bool
    passk: dict[int, bool]
    pool: bool
    top2: list[np.ndarray] = field(default_factory=list)


@dataclass
class EvalReport:
    tasks: dict[str, TaskResult]
    pass2_accuracy: float
    passk_accuracy: dict[int, float]
    pool_accuracy: float

    def to_json(self) -> dict:
        return {task_id: {"pass2": r.pass2,
                          "passk": {str(k): v for k, v in r.passk.items()},
                          "top2": [g.tolist() for g in r.top2]}
                for task_id, r in self.tasks.items()}


def collect_predictions(dataset: DeskDataset, params: md.Parameters,
                        cfg: md.ModelConfig, objective: str, seed: int, *,
                        num_denoise_steps: int = 16,
                        schedule: NoiseSchedule | None = None,
                        cycles: int | None = None,
                        max_steps: int | None = None,
                        batch_size: int = 32) -> list[PoolEntry]:
    """Run the right generator over every eval case, in batches."""
    sched = schedule if schedule is not None else NoiseSchedule()
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
                                     num_denoise_steps, sched, streams,
                                     cycles=cycles)
        else:
            tokens, q, _ = halting_batch(inputs, masks, rows, params, cfg,
                                         streams, cycles=cycles,
                                         max_steps=max_steps)
        for i, case in enumerate(chunk):
            h, w = case.shape
            grid = from_template(tokens[i], h, w, th, tw, case.aug.offset)
            entries.append(PoolEntry(case.task_index, case.test_index,
                                     grid, float(q[i]), case.aug))
    return entries


def pass_at_k(dataset: DeskDataset, entries: Sequence[PoolEntry],
              ks: Sequence[int] = (2,)) -> EvalReport:
    """Score pooled predictions; a task is solved at k when every test
    input has a correct grid among its top-k candidates."""
    ks = sorted(set(int(k) for k in ks))
    if any(k < 1 for k in ks):
        raise InferenceError("pass@k needs k >= 1")
    truth: dict[tuple[int, int], np.ndarray] = {}
    for case in dataset.eval_cases:
        truth[(case.task_index, case.test_index)] = case.target_grid
    pools: dict[tuple[int, int], list] = {key: [] for key in truth}
    for e in entries:
        key = (e.task_index, e.test_index)
        if key not in pools:
            raise InferenceError(f"prediction for unknown case {key}")
        pools[key].append((e.grid, e.q, e.aug))

    per_task: dict[int, dict[tuple[int, int], list[VoteCandidate]]] = {}
    for key, pool in pools.items():
        if not pool:
            raise InferenceError(f"no predictions for case {key}")
        per_task.setdefault(key[0], {})[key] = ranked_candidates(pool)

    results: dict[str, TaskResult] = {}
    for t_idx in sorted(per_task):
        solved_k = {k: True for k in ks}
        solved_2 = True
        solved_pool = True
        top2: list[np.ndarray] = []
        for key in sorted(per_task[t_idx]):
            ranked = per_task[t_idx][key]
            want = truth[key]
            hits = [np.array_equal(c.canonical_grid, want) for c in ranked]
            for k in ks:
                solved_k[k] &= any(hits[:k])
            solved_2 &= any(hits[:2])
            solved_pool &= any(hits)
            if not top2:
                top2 = [c.canonical_grid for c in ranked[:2]]
        results[dataset.tasks[t_idx].task_id] = TaskResult(
            pass2=solved_2, passk=solved_k, pool=solved_pool, top2=top2)

    n = max(1, len(results))
    return EvalReport(
        tasks=results,
        pass2_accuracy=sum(r.pass2 for r in results.values()) / n,
        passk_accuracy={k: sum(r.passk[k] for r in results.values()) / n
                        for k in ks},
        pool_accuracy=sum(r.pool for r in results.values()) / n,
    )


def evaluate(dataset: DeskDataset, params: md.Parameters, cfg: md.ModelConfig,
             objective: str, seed: int, *,
             num_denoise_steps: int = 16,
             schedule: NoiseSchedule | None = None,
             cycles: int | None = None,
             max_steps: int | None = None,
             batch_size: int = 32,
             ks: Sequence[int] = (2,)) -> EvalReport:
    entries = collect_predictions(dataset, params, cfg, objective, seed,
                                  num_denoise_steps=num_denoise_steps,
                                  schedule=schedule, cycles=cycles,
                                  max_steps=max_steps, batch_size=batch_size)
    return pass_at_k(dataset, entries, ks)


# ---------------------------------------------------------------------------
# permutation significance test


def _swap_stats(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InferenceError(
            f"permutation test needs equal-length vectors, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise InferenceError("permutation test over zero tasks")
    return a - b, float((a - b).mean())


def permutation_test(solved_a, solved_b, num_perms: int,
                     rng: np.random.Generator) -> float:
    """One-sided Monte-Carlo p for mean(a) - mean(b), swapping the pair
    labels independently per task; add-one smoothed."""
    d, observed = _swap_stats(solved_a, solved_b)
    if num_perms < 1:
        raise InferenceError("num_perms must be >= 1")
    flips = rng.integers(0, 2, size=(num_perms, d.size))
    stats = ((1.0 - 2.0 * flips) * d).mean(axis=1)
    hits = int(np.sum(stats >= observed))
    return (1 + hits) / (1 + num_perms)


def permutation_test_exhaustive(solved_a, solved_b) -> float:
    """Exact enumeration of all 2^n label swaps; n capped at 20."""
    d, observed = _swap_stats(solved_a, solved_b)
    n = d.size
    if n > 20:
        raise InferenceError(f"exhaustive enumeration over {n} tasks is too large")
    patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    stats = ((1.0 - 2.0 * patterns) * d).mean(axis=1)
    return float(np.mean(stats >= observed))
