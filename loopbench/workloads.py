"""The three benchmark workloads, driven through loopforge's public functions.

- `train_drm`: `train_step` with objective drm on batches in
  `run_training`'s data order: 2 warm-up cycles under no_grad, one
  gradient cycle, backward, AdamW and the target corruption.
- `train_trm`: `train_step` with objective trm and max_halt_steps pinned
  to 2, so every step runs two windows joined by detached state.
- `eval_vote`: what `loopforge eval` does for one checkpoint: seeded
  parameters with random read-out heads, a checkpoint round-trip, then
  `collect_predictions` through remask and through halting, and pass@k.

A workload object is built by its set-up (repeated to time it) and then
runs one unit of timed work per `rep()`: one train call, or one eval round
over every eval case with both generators.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scale:
    """Problem size.  DESK is the pinned desk config; TINY runs in seconds."""
    hidden_size: int
    num_heads: int
    num_layers: int
    inner_steps: int          # n
    cycles: int               # T
    grid: int
    template: int
    tasks: int
    augmentations: int
    drm_batch: int
    trm_batch: int
    eval_tasks: int           # eval cases come from the first tasks only
    remask_batch: int         # eval batch sizes, see EvalWorkload
    halting_batch: int
    halt_steps: int           # max_halt_steps in training, max_steps in eval
    denoise_steps: int
    family: str = "recolor_map"


DESK = Scale(hidden_size=128, num_heads=4, num_layers=2, inner_steps=6, cycles=3,
             grid=8, template=12, tasks=16, augmentations=4,
             drm_batch=32, trm_batch=16, eval_tasks=2, remask_batch=4, halting_batch=8,
             halt_steps=2, denoise_steps=2)

TINY = Scale(hidden_size=16, num_heads=4, num_layers=1, inner_steps=1, cycles=2,
             grid=3, template=4, tasks=2, augmentations=2,
             drm_batch=2, trm_batch=2, eval_tasks=2, remask_batch=2, halting_batch=2,
             halt_steps=2, denoise_steps=2)


# how far a case's q alone may be from its batched q: summation-order
# error in a d=128 dot product, with room for float32, and far below the
# gaps between the q of different cases
Q_TOL = 1e-5


class CheckFailed(Exception):
    """A benchmark output check did not hold."""


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name in params.names():
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


def entries_digest(entries) -> str:
    h = hashlib.sha256()
    for e in entries:
        h.update(np.ascontiguousarray(e.grid).tobytes())
        h.update(np.float64(e.q).tobytes())
    return h.hexdigest()


def _dataset(lf, sc: Scale, seed: int):
    tasks = lf.tasks.generate_synthetic(sc.family, sc.grid, sc.tasks, seed)
    return lf.tasks.build_dataset(tasks, sc.augmentations, sc.template, sc.template, seed)


def _model_config(lf, sc: Scale, ds):
    return lf.model.ModelConfig(hidden_size=sc.hidden_size, num_heads=sc.num_heads,
                                num_layers=sc.num_layers, seq_len=ds.seq_len,
                                inner_steps=sc.inner_steps, cycles_per_window=sc.cycles,
                                max_halt_steps=sc.halt_steps, num_tasks=ds.num_rows)


# ---------------------------------------------------------------------------
# training


class TrainWorkload:
    """One `train_step` per rep, batches in `run_training`'s order."""

    # the first step is slower than later ones (13.6 s against 11.3 s for
    # drm); with two or three calls in a run, timing it would make the
    # metrics depend on how many calls fit
    WARM_UP = True

    def __init__(self, lf, sc: Scale, seed: int, objective: str):
        tr, md = lf.training, lf.model
        self.lf, self.seed = lf, seed
        self.ds = _dataset(lf, sc, seed)
        self.cfg = _model_config(lf, sc, self.ds)
        batch = sc.drm_batch if objective == "drm" else sc.trm_batch
        self.tcfg = tr.TrainConfig(objective=objective, batch_size=batch,
                                   max_halt_steps=sc.halt_steps)
        self.params = md.Parameters.init(self.cfg, lf.seeding.rng_for(seed, "init"))
        self.opt = tr.AdamW(self.params, self.params.copy(), self.tcfg)
        self.noise = lf.corruption.NoiseSchedule()
        self.step = 0
        self.order = np.empty(0, dtype=np.int64)
        self.digests: list[str] = []

    def _next_examples(self):
        B = self.tcfg.batch_size
        examples = self.ds.train_examples
        per_epoch = math.ceil(len(examples) / B)
        epoch, k = divmod(self.step, per_epoch)
        if k == 0:
            self.order = self.lf.training.rng_for(self.seed, "data", epoch).permutation(
                len(examples))
        return [examples[i] for i in self.order[k * B:(k + 1) * B]]

    def rep(self, record) -> None:
        tr = self.lf.training
        skipped = self.opt.skipped
        picked = self._next_examples()
        ok = True
        t0 = time.perf_counter()
        try:
            metrics = tr.train_step(tr.collate(picked), self.params, self.cfg, self.tcfg,
                                    self.opt, self.seed, self.step,
                                    noise_schedule=self.noise)
        except (tr.TrainingError, self.lf.autodiff.AutodiffError) as e:
            ok = False
            record.notes.append(f"train_step {self.step}: {type(e).__name__}: {e}")
        t1 = time.perf_counter()
        if ok and not (math.isfinite(metrics.ce_loss) and math.isfinite(metrics.q_loss)):
            ok = False
            record.notes.append(f"train_step {self.step}: non-finite loss")
        if self.opt.skipped != skipped:
            ok = False
            record.notes.append(f"train_step {self.step}: optimizer skipped an update")
        record.call(t1 - t0, len(picked), ok)
        record.rep_s.append(t1 - t0)
        self.step += 1
        self.digests.append(params_digest(self.params))

    def finish(self, record) -> None:
        record.digests["params_after_call"] = self.digests


# ---------------------------------------------------------------------------
# evaluation


class EvalWorkload:
    """One eval round per rep: every eval case through remask (drm) and
    through halting (trm), each pool scored with pass@k."""

    KS = (1, 2)
    WARM_UP = False           # the first round is not slower than later ones

    def __init__(self, lf, sc: Scale, seed: int, out_dir, q_bias: float):
        md, rng_for = lf.model, lf.seeding.rng_for
        self.lf, self.sc = lf, sc
        ds = _dataset(lf, sc, seed)
        cfg = _model_config(lf, sc, ds)
        params = md.Parameters.init(cfg, rng_for(seed, "init"))
        # read-out heads start at zero; random heads make the votes and
        # the halting decisions depend on the input
        heads = rng_for(seed, "heads")
        d = cfg.hidden_size
        params["decode/w"] = (heads.normal(size=(d, cfg.vocab_size)) / np.sqrt(d)).astype(np.float32)
        params["q/w"] = (heads.normal(size=(d, 1)) / np.sqrt(d)).astype(np.float32)
        params["q/b"] = np.full(1, q_bias, dtype=np.float32)
        path = os.path.join(out_dir, f"eval-{os.getpid()}.ltrm")
        try:
            md.save_checkpoint(path, cfg, params, None, {"objective": "drm"})
            self.cfg, self.params, _, _ = md.load_checkpoint(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        self.ds = lf.tasks.DeskDataset(ds.tasks, ds.train_examples,
                                       [c for c in ds.eval_cases if c.task_index < sc.eval_tasks],
                                       ds.num_rows, ds.template)
        self.sub_seed = int(rng_for(seed, "ckpt", 0).integers(2 ** 31))
        self.noise = lf.corruption.NoiseSchedule()
        self.first_round: dict[str, list] = {}
        self.round_digests: list[dict] = []

    def _passes(self):
        """(objective, batch size, generator keywords) per pass.  Remask
        batches are half the size of halting ones, so that two thirds of
        the timed calls are alike and the median call is one of them: with
        one call of each kind per round, it would fall between the two."""
        return (("drm", self.sc.remask_batch,
                 {"num_denoise_steps": self.sc.denoise_steps, "schedule": self.noise}),
                ("trm", self.sc.halting_batch, {"max_steps": self.sc.halt_steps}))

    def rep(self, record) -> None:
        inf = self.lf.inference
        digests = {}
        t0 = time.perf_counter()
        for objective, batch_size, kw in self._passes():
            first = len(record.calls)
            try:
                with _BatchTimer(self.lf, record):
                    entries = inf.collect_predictions(self.ds, self.params, self.cfg, objective,
                                                      self.sub_seed, batch_size=batch_size,
                                                      **kw)
                _check_pool(entries, self.ds.eval_cases)
                inf.pass_at_k(self.ds, entries, ks=self.KS)
            except (inf.InferenceError, self.lf.tasks.TaskError, CheckFailed) as e:
                record.notes.append(f"{objective} pass: {type(e).__name__}: {e}")
                if not any(not c["ok"] for c in record.calls[first:]):
                    record.fail_since(first)
                continue
            digests[objective] = entries_digest(entries)
            self.first_round.setdefault(objective, entries)
        record.rep_s.append(time.perf_counter() - t0)
        self.round_digests.append(digests)

    def finish(self, record) -> None:
        first = self.round_digests[0] if self.round_digests else {}
        record.digests["predictions"] = first
        record.checks["rounds_identical"] = all(d == first for d in self.round_digests)
        record.checks["single_case_matches_batch"] = self._single_case_matches(record)

    def _single_case_matches(self, record) -> bool:
        """Re-run one case alone per generator.  Its grid must equal its
        batched result bit for bit, and its q must agree within Q_TOL.

        Whether q is bitwise equal too is recorded as a finding, not as a
        check: the q read-out `matmul(pooled, q/w)` is a dot product
        for one case and a matrix-vector product for a batch, and at d=128
        the BLAS sums those in different orders, so q moves in its last
        bits with the batch size.  Outside the q tolerance, that would be a
        wrong result rather than a reordered sum."""
        inf = self.lf.inference
        cases = self.ds.eval_cases
        if len(self.first_round) != 2:
            return False
        idx = record.seed % len(cases)
        case = cases[idx]
        th, tw = self.ds.template
        rng = self.lf.seeding.rng_for
        ok = True
        for objective, _, kw in self._passes():
            stream = rng(self.sub_seed, "eval", idx)
            if objective == "drm":
                tokens, q = inf.generate_remask(case.input_tokens, case.loss_mask, case.row,
                                                self.params, self.cfg, kw["num_denoise_steps"],
                                                stream, schedule=kw["schedule"])
            else:
                tokens, trace = inf.generate_halting(case.input_tokens, case.loss_mask,
                                                     case.row, self.params, self.cfg, stream,
                                                     max_steps=kw["max_steps"])
                q = trace[-1]
            grid = self.lf.tasks.from_template(tokens, *case.shape, th, tw, case.aug.offset)
            batched = self.first_round[objective][idx]
            same_grid = np.array_equal(grid, batched.grid) and grid.dtype == batched.grid.dtype
            q_gap = abs(float(q) - batched.q)
            record.findings[f"{objective}.single_case_q_bitwise"] = q_gap == 0.0
            if q_gap:
                record.notes.append(f"{objective}: case {idx} alone gives q {float(q)!r}, "
                                    f"batched {batched.q!r}")
            if not (same_grid and q_gap <= Q_TOL):
                record.notes.append(f"{objective}: case {idx} alone differs from its batched "
                                    f"result (grid {'equal' if same_grid else 'differs'}, "
                                    f"q gap {q_gap!r})")
                ok = False
        return ok


def _check_pool(entries, cases) -> None:
    if len(entries) != len(cases):
        raise CheckFailed(f"pool holds {len(entries)} predictions for {len(cases)} cases")
    for e in entries:
        if e.grid.size and (e.grid.min() < 0 or e.grid.max() > 9):
            raise CheckFailed("a predicted grid holds a non-colour token")


class _BatchTimer:
    """Times each generator batch (a timed call) by wrapping the names
    `collect_predictions` looks up, and checks each batch's tokens."""

    NAMES = ("remask_batch", "halting_batch")

    def __init__(self, lf, record):
        self.inf, self.tasks, self.record = lf.inference, lf.tasks, record
        self.saved = {}

    def __enter__(self):
        for name in self.NAMES:
            self.saved[name] = getattr(self.inf, name)
            setattr(self.inf, name, self._timed(name, self.saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.inf, name, fn)
        return False

    def _timed(self, name, fn):
        inf, tasks, record = self.inf, self.tasks, self.record

        def timed(inputs, masks, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(inputs, masks, *args, **kwargs)
            except inf.InferenceError:
                record.call(time.perf_counter() - t0, 0, False, batch=len(inputs))
                raise
            seconds = time.perf_counter() - t0
            tokens = out[0]
            B = tokens.shape[0]
            if name == "remask_batch":
                steps = kwargs["num_steps"] if "num_steps" in kwargs else args[3]
                iters, early = B * steps, None
            else:
                lengths = [len(t) for t in out[2]]
                budget = kwargs.get("max_steps") or args[2].max_halt_steps
                iters = sum(lengths)
                early = sum(n < budget for n in lengths)
            m = np.asarray(masks, dtype=bool)
            ok = (tokens.shape == np.shape(inputs)
                  and not np.any(tokens == tasks.MASK)
                  and bool(np.all((tokens[m] >= 0) & (tokens[m] < tasks.NUM_COLOURS))))
            if not ok:
                record.notes.append(f"{name}: output tokens failed the colour/MASK check")
            record.call(seconds, iters, ok, batch=B, halted_early=early)
            return out
        return timed


# ---------------------------------------------------------------------------
# the run


class Record:
    """What a run measured: timed calls with their check results, rep
    times, once-per-run checks, digests, and findings (properties that are
    reported but do not decide `correct`)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.warm_up_s = 0.0
        self.calls: list[dict] = []
        self.rep_s: list[float] = []
        self.checks: dict[str, bool] = {}
        self.digests: dict[str, object] = {}
        self.notes: list[str] = []
        self.findings: dict[str, object] = {}

    def call(self, seconds, items, ok, batch=0, halted_early=None):
        self.calls.append({"s": seconds, "items": items, "ok": ok,
                           "batch": batch, "halted_early": halted_early})

    def fail_since(self, first: int) -> None:
        """Mark the calls from index `first` on as failed (their pass broke
        off after they returned), or one more failed call if none remain."""
        if first == len(self.calls):
            self.call(0.0, 0, False)
        for c in self.calls[first:]:
            c["ok"] = False

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.calls)

    @property
    def items(self) -> int:
        return sum(c["items"] for c in self.calls if c["ok"])


WORKLOADS = ("train_drm", "train_trm", "eval_vote")


def halting_bias(lf, sc: Scale, seed: int, out_dir) -> float:
    """The q/b that makes exactly half of the eval cases halt after their
    first window, so that on every seed the halting batch shrinks by the
    same share.  q/b does not change the state, so one window over every
    case with q/b = 0 gives the logits to split."""
    work = EvalWorkload(lf, sc, seed, out_dir, q_bias=0.0)
    cases = work.ds.eval_cases
    streams = [lf.seeding.rng_for(work.sub_seed, "eval", i) for i in range(len(cases))]
    _, q, _ = lf.inference.halting_batch(np.stack([c.input_tokens for c in cases]),
                                         np.stack([c.loss_mask for c in cases]),
                                         np.array([c.row for c in cases], dtype=np.int64),
                                         work.params, work.cfg, streams, max_steps=1)
    logits = np.sort(np.log(q) - np.log1p(-q))
    k = len(logits) // 2
    return float(-(logits[k - 1] + logits[k]) / 2)


def make(lf, name: str, sc: Scale, seed: int, out_dir):
    """The workload's set-up as a function of no arguments.  What set-up
    needs that a user of the system would not redo (the halting bias of the
    eval checkpoint) is prepared here, once."""
    if name in ("train_drm", "train_trm"):
        return lambda: TrainWorkload(lf, sc, seed, name[len("train_"):])
    if name == "eval_vote":
        bias = halting_bias(lf, sc, seed, out_dir)
        return lambda: EvalWorkload(lf, sc, seed, out_dir, bias)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def run(lf, name: str, sc: Scale, seed: int, out_dir, *, seconds: float | None,
        reps: int | None = None, setups: int = 9, tracer=None):
    """Set the workload up `setups` times (timing each), make one untimed
    warm-up call if the workload has one, then run reps until `seconds`
    have passed or, when `reps` is given, exactly `reps` reps.  With a
    tracer, every set-up, the warm-up and every rep is a root span."""
    record = Record(seed)
    setup = make(lf, name, sc, seed, out_dir)
    setup_s = []
    work = None
    for _ in range(setups):
        idx = tracer.begin("bench.setup") if tracer else None
        t0 = time.perf_counter()
        work = setup()
        setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(idx)
    if work.WARM_UP:
        warm = Record(seed)
        idx = tracer.begin("bench.warm_up") if tracer else None
        t0 = time.perf_counter()
        work.rep(warm)
        record.warm_up_s = time.perf_counter() - t0
        if tracer:
            tracer.end(idx)
        record.checks["warm_up_call_ok"] = warm.failed == 0
        record.notes += warm.notes
    start = time.perf_counter()
    done = 0
    while True:
        idx = tracer.begin("bench.rep") if tracer else None
        work.rep(record)
        if tracer:
            tracer.end(idx)
        done += 1
        if reps is not None:
            if done >= reps:
                break
        elif time.perf_counter() - start >= seconds:
            break
    work.finish(record)
    return record, statistics.median(setup_s)
