import json
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from conftest import (check_gradients, closure_arrays, gradient, param_count, rel_err,
                      spy_backward)
import loopforge.autodiff as ad
import loopforge.model as md
import loopforge.training as tr
from loopforge.corruption import BetaSchedule, NoiseSchedule, perturb_latent
from loopforge.seeding import rng_for
from loopforge.tasks import build_dataset, generate_synthetic
from loopforge.training import (AdamW, Batch, DivergenceError, StepMetrics,
                                TrainConfig, TrainingError, collate,
                                combined_loss, run_training)


def tiny_cfg(**kw):
    base = dict(hidden_size=16, num_heads=2, num_layers=1, seq_len=6,
                inner_steps=2, cycles_per_window=2, max_halt_steps=3,
                num_tasks=4)
    base.update(kw)
    return md.ModelConfig(**base)


def toy_batch(seed=0, B=3, M=6, rows_max=4):
    rng = rng_for(seed, "batch")
    inputs = rng.integers(0, 10, size=(B, M))
    targets = rng.integers(0, 10, size=(B, M))
    mask = np.ones((B, M), dtype=bool)
    mask[:, -1] = False
    inputs[:, -1] = 10
    targets[:, -1] = 10
    return Batch(rows=rng.integers(0, rows_max, size=B).astype(np.int64),
                 inputs=inputs, targets=targets, loss_mask=mask)


def state_streams(seed, batch):
    """One state-noise generator per item, as the trainer draws them."""
    return [rng_for(seed, "state", i) for i in range(batch)]


def live_heads(params, seed):
    # read-out heads init at zero; randomize them so window losses differ
    # and gradients reach the operator in single-step tests
    rng = rng_for(seed, "heads")
    for name in ("decode/w", "q/w"):
        arr = params[name]
        params[name] = (rng.normal(size=arr.shape)
                        / np.sqrt(arr.shape[0])).astype(arr.dtype)
    return params


def fresh(cfg, tcfg, seed=3):
    params = live_heads(md.Parameters.init(cfg, rng_for(seed, "init")), seed)
    ema = params.copy()
    return params, ema, AdamW(params, ema, tcfg)


# ---------------------------------------------------------------------------
# combined loss


def test_combined_loss_perfect_limit():
    B, M, V = 2, 5, 11
    targets = rng_for(1).integers(0, 10, size=(B, M))
    logits_val = np.full((B, M, V), -30.0, dtype=np.float32)
    np.put_along_axis(logits_val, targets[..., None], 30.0, axis=-1)
    loss, parts = combined_loss(ad.tensor(logits_val),
                                ad.tensor(np.full(B, 30.0, dtype=np.float32)),
                                targets, np.ones((B, M), dtype=bool))
    assert float(loss.value) < 1e-8
    assert parts.match.tolist() == [1.0, 1.0]


def test_combined_loss_uniform_is_log_vocab():
    B, M = 2, 4
    targets = np.ones((B, M), dtype=np.int64)
    loss, parts = combined_loss(ad.tensor(np.zeros((B, M, 11), dtype=np.float64)),
                                ad.tensor(np.zeros(B, dtype=np.float64)),
                                targets, np.ones((B, M), dtype=bool))
    assert abs(parts.ce - math.log(11)) < 1e-12
    # uniform logits argmax to class 0, so the match target is 0 and the
    # halting term is bce(0, 0) = ln 2
    assert abs(parts.q - math.log(2)) < 1e-12


def test_combined_loss_one_wrong_cell_flips_match():
    targets = rng_for(2).integers(0, 10, size=(1, 4))
    logits = np.full((1, 4, 11), -5.0, dtype=np.float32)
    np.put_along_axis(logits, targets[..., None], 5.0, axis=-1)
    mask = np.array([[True, True, True, False]])
    _, parts = combined_loss(ad.tensor(logits), ad.tensor(np.zeros(1, np.float32)),
                             targets, mask)
    assert parts.match.tolist() == [1.0]

    wrong = logits.copy()
    wrong[0, 1] = -5.0
    wrong[0, 1, (targets[0, 1] + 1) % 10] = 5.0
    _, parts = combined_loss(ad.tensor(wrong), ad.tensor(np.zeros(1, np.float32)),
                             targets, mask)
    assert parts.match.tolist() == [0.0]

    # flipping the masked-out cell leaves the target alone
    masked_flip = logits.copy()
    masked_flip[0, 3] = -5.0
    masked_flip[0, 3, (targets[0, 3] + 1) % 10] = 5.0
    _, parts = combined_loss(ad.tensor(masked_flip), ad.tensor(np.zeros(1, np.float32)),
                             targets, mask)
    assert parts.match.tolist() == [1.0]


def test_combined_loss_empty_mask_rejected():
    with pytest.raises(ad.AutodiffError, match="masked_mean: mask selects no positions"):
        combined_loss(ad.tensor(np.zeros((1, 3, 11))), ad.tensor(np.zeros(1)),
                      np.zeros((1, 3), dtype=np.int64),
                      np.zeros((1, 3), dtype=bool))


# ---------------------------------------------------------------------------
# optimizer


def toy_params(**arrays):
    return md.Parameters({k: np.asarray(v, dtype=np.float32) for k, v in arrays.items()})


def test_optimizer_first_warmup_step_scales_lr():
    p0 = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    params = toy_params(w=p0.copy())
    tcfg = TrainConfig(lr=1e-2, weight_decay=0.0, warmup_steps=10)
    opt = AdamW(params, None, tcfg)
    g = np.array([0.5, -0.5, 1.0], dtype=np.float32)
    norm, applied = opt.apply({"w": g})
    assert applied
    assert norm == pytest.approx(np.sqrt((g.astype(np.float64) ** 2).sum()))
    want = p0 - (1e-2 / 10) * g / (np.abs(g) + tr.ADAM_EPS)
    np.testing.assert_allclose(params["w"], want, rtol=1e-5)


def test_optimizer_zero_grads_zero_decay_is_identity():
    params = toy_params(w=[1.0, 2.0])
    before = params["w"].copy()
    opt = AdamW(params, None, TrainConfig(weight_decay=0.0, warmup_steps=0))
    opt.apply({"w": np.zeros(2, dtype=np.float32)})
    assert np.array_equal(params["w"], before)


def test_optimizer_decay_only_shrinks_analytically():
    params = toy_params(w=[4.0, -8.0])
    tcfg = TrainConfig(lr=1e-3, weight_decay=0.1, warmup_steps=0)
    opt = AdamW(params, None, tcfg)
    opt.apply({"w": np.zeros(2, dtype=np.float32)})
    np.testing.assert_allclose(params["w"],
                               np.array([4.0, -8.0]) * (1 - 1e-3 * 0.1),
                               rtol=1e-6)


def test_optimizer_task_table_uses_its_own_lr():
    params = toy_params(**{"embed/task": [1.0], "w": [1.0]})
    tcfg = TrainConfig(lr=1e-4, task_embedding_lr=1e-2, weight_decay=0.0,
                       warmup_steps=0)
    opt = AdamW(params, None, tcfg)
    g = np.ones(1, dtype=np.float32)
    opt.apply({"embed/task": g, "w": g})
    d_task = 1.0 - params["embed/task"][0]
    d_w = 1.0 - params["w"][0]
    assert d_task / d_w == pytest.approx(100.0, rel=1e-3)


def test_optimizer_updates_ema_shadow():
    params = toy_params(w=[1.0, 2.0])
    p0 = params["w"].copy()
    ema = params.copy()
    tcfg = TrainConfig(lr=1e-2, weight_decay=0.0, warmup_steps=0, ema_decay=0.9)
    opt = AdamW(params, ema, tcfg)
    opt.apply({"w": np.ones(2, dtype=np.float32)})
    np.testing.assert_allclose(ema["w"], 0.9 * p0 + 0.1 * params["w"], rtol=1e-6)


def test_optimizer_skips_nonfinite_grads():
    params = toy_params(w=[1.0])
    before = params["w"].copy()
    opt = AdamW(params, None, TrainConfig())
    norm, applied = opt.apply({"w": np.array([np.inf], dtype=np.float32)})
    assert not applied
    assert not math.isfinite(norm)
    assert opt.skipped == 1 and opt.t == 0
    assert np.array_equal(params["w"], before)


# ---------------------------------------------------------------------------
# config plumbing


def test_collate_refuses_empty():
    with pytest.raises(TrainingError):
        collate([])


def test_train_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(objective="adversarial")
    with pytest.raises(TrainingError):
        TrainConfig(lr=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(gradient_cycles=0)
    with pytest.raises(TrainingError):
        TrainConfig(ema_decay=1.0)


def test_window_plan_defaults():
    cfg = tiny_cfg(cycles_per_window=3)
    assert tr.window_plan(cfg, TrainConfig(objective="trm")) == (2, 1)
    assert tr.window_plan(cfg, TrainConfig(objective="trm", gradient_cycles=3)) == (0, 3)
    assert tr.window_plan(cfg, TrainConfig(objective="trm", gradient_cycles=4)) == (0, 4)
    assert tr.window_plan(cfg, TrainConfig(objective="drm", gradient_cycles=4)) == (2, 4)
    assert tr.window_plan(cfg, TrainConfig(objective="diffusion")) == (0, 1)
    assert tr.window_plan(cfg, TrainConfig(objective="stacked_deep_sup")) == (0, 1)
    with pytest.raises(TrainingError):
        tr.window_plan(cfg, TrainConfig(objective="diffusion", gradient_cycles=2))


def test_check_objective_untied_depth():
    # tied objectives refuse untied weights and vice versa
    with pytest.raises(TrainingError):
        tr.check_objective(tiny_cfg(untied_depth=3), TrainConfig(objective="trm"))
    with pytest.raises(TrainingError):
        tr.check_objective(tiny_cfg(), TrainConfig(objective="stacked_transformer"))
    with pytest.raises(TrainingError):
        tr.check_objective(tiny_cfg(untied_depth=5),
                           TrainConfig(objective="stacked_transformer"))
    # one gradient cycle of inner_steps=2 is three applications
    tr.check_objective(tiny_cfg(untied_depth=3),
                       TrainConfig(objective="stacked_transformer"))


# ---------------------------------------------------------------------------
# backward-path steps


def test_step_trm_single_window_no_carry():
    cfg = tiny_cfg(max_halt_steps=1)
    tcfg = TrainConfig(objective="trm", max_halt_steps=1, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=11, step_index=0)
    assert m.halt_histogram == [3]
    assert opt.t == 1
    assert m.grad_norm > 0


def test_step_trm_two_window_detach_audit(monkeypatch):
    # no warm-up cycle, so the carried state feeds window 1's gradient
    # cycle directly and only the carry's boundary can cut the path
    cfg = tiny_cfg(max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, warmup_steps=0,
                       warmup_cycles=0)
    params, _, opt = fresh(cfg, tcfg)
    audit = spy_backward(monkeypatch)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=5, step_index=0)
    # the q bias starts at -5, so nothing halts before the last window:
    # one backward for window 0, one for window 1
    assert len(audit) == 2
    assert opt.t == 2
    assert m.halt_histogram == [0, 3]
    # no node of the first window's graph is reachable from the second
    # window's loss: the detach boundary held
    first = {id(n) for n in audit[0]["nodes"]}
    assert not any(id(n) in first for n in audit[1]["nodes"])


def test_step_trm_frees_each_window_before_the_next(monkeypatch):
    # a weakref to an array that only a window's graph holds: the MLP
    # node's input inside the last block of y, which its vjp keeps; it must
    # be gone when the next window's forward starts
    cfg = tiny_cfg(max_halt_steps=3)
    tcfg = TrainConfig(objective="trm", max_halt_steps=3, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    refs: list = []
    alive: list = []
    last_mlp_input: list = []
    run_window, mlp = md.run_window, ad.mlp

    def mlp_spy(h, *args):
        last_mlp_input[:] = [weakref.ref(h.value)]
        return mlp(h, *args)

    def spy(*args, **kwargs):
        alive.append([r() is not None for r in refs])
        state, logits, q = run_window(*args, **kwargs)
        refs.extend(last_mlp_input)
        return state, logits, q

    monkeypatch.setattr(md, "run_window", spy)
    monkeypatch.setattr(ad, "mlp", mlp_spy)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=5, step_index=0)
    assert m.halt_histogram == [0, 0, 3]
    assert alive == [[], [False], [False, False]]
    assert refs[-1]() is None


def test_step_trm_early_exit_on_positive_q():
    cfg = tiny_cfg(max_halt_steps=3)
    tcfg = TrainConfig(objective="trm", max_halt_steps=3, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    params["q/b"][:] = 5.0
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=6, step_index=0)
    assert m.halt_histogram == [3, 0, 0]
    assert opt.t == 1


def test_step_trm_no_deep_sup_trains_final_window_only():
    cfg = tiny_cfg(max_halt_steps=3)
    tcfg = TrainConfig(objective="trm_no_deep_sup", max_halt_steps=3,
                       warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=7, step_index=0)
    assert opt.t == 1
    assert m.halt_histogram == [0, 0, 3]


def test_step_trm_divergence_raises():
    cfg = tiny_cfg(max_halt_steps=1)
    tcfg = TrainConfig(objective="trm", max_halt_steps=1)
    params, _, opt = fresh(cfg, tcfg)
    params["decode/w"][:] = np.nan
    with pytest.raises(DivergenceError):
        tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=8, step_index=0)


def test_step_raises_after_a_run_of_skipped_updates(monkeypatch):
    # gradients that are non-finite while the loss stays finite: every
    # update is skipped, and the run must not go on silently
    cfg = tiny_cfg(max_halt_steps=1)
    tcfg = TrainConfig(objective="trm", max_halt_steps=1, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    collect = tr._collect_grads
    monkeypatch.setattr(tr, "_collect_grads", lambda pt: {
        k: np.full_like(g, np.inf) for k, g in collect(pt).items()})
    before = params.copy()
    bound = tr.MAX_SKIPPED_IN_A_ROW
    for s in range(bound - 1):
        m = tr.train_step(toy_batch(s), params, cfg, tcfg, opt, seed=9, step_index=s)
        assert m.skipped_updates == s + 1 and asdict(m)["skipped_updates"] == s + 1
    with pytest.raises(DivergenceError, match="in a row"):
        tr.train_step(toy_batch(bound - 1), params, cfg, tcfg, opt, seed=9,
                      step_index=bound - 1)
    assert opt.skipped == bound and opt.t == 0
    for name in params.names():
        assert np.array_equal(params[name], before[name]), name


def test_applied_update_resets_the_skip_run(monkeypatch):
    cfg = tiny_cfg(max_halt_steps=1)
    tcfg = TrainConfig(objective="trm", max_halt_steps=1, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    collect = tr._collect_grads
    run = [True] * (tr.MAX_SKIPPED_IN_A_ROW - 1)
    poison = iter(run + [False] * 2 + run)

    def grads(pt):
        bad = next(poison)
        return {k: np.full_like(g, np.nan) if bad else g for k, g in collect(pt).items()}

    monkeypatch.setattr(tr, "_collect_grads", grads)
    steps = 2 * len(run) + 2
    for s in range(steps):
        m = tr.train_step(toy_batch(s), params, cfg, tcfg, opt, seed=9, step_index=s)
    assert m.skipped_updates == opt.skipped == steps - 2
    assert opt.t == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_raises_when_an_update_makes_params_non_finite():
    # a task row no item reads keeps the loss and gradients finite, and a
    # decay factor of 1 - lr * wd = -99 overflows it in one applied update
    cfg = tiny_cfg(max_halt_steps=1, num_tasks=5)
    tcfg = TrainConfig(objective="trm", max_halt_steps=1, warmup_steps=0,
                       task_embedding_lr=1000.0, weight_decay=0.1)
    params, _, opt = fresh(cfg, tcfg)
    params["embed/task"][4] = 1e37
    with pytest.raises(DivergenceError, match="non-finite parameters"):
        tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=8, step_index=0)


@pytest.mark.parametrize("objective", ["drm", "trm"])
def test_train_step_stays_float32(objective, monkeypatch):
    cfg = tiny_cfg(max_halt_steps=2)
    tcfg = TrainConfig(objective=objective, max_halt_steps=2, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    grads: list = []
    apply = opt.apply
    monkeypatch.setattr(opt, "apply", lambda g: (grads.append(g), apply(g))[1])
    made: list = []
    node = ad._node

    def node_spy(*args):
        out = node(*args)
        made.append((out.op, str(out.value.dtype)))
        return out

    monkeypatch.setattr(ad, "_node", node_spy)
    tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=4, step_index=0)
    assert made and grads
    wrong = {m for m in made if m[1] != "float32"}
    assert not wrong, sorted(wrong)
    for g in grads:
        assert {str(a.dtype) for a in g.values()} == {"float32"}
    assert {str(a.dtype) for a in params.values()} == {"float32"}


def run_steps(objective, seed, steps=2, beta=None, **cfg_kw):
    cfg = tiny_cfg(**cfg_kw)
    tcfg = TrainConfig(objective=objective, max_halt_steps=cfg.max_halt_steps,
                       warmup_steps=2)
    params, _, opt = fresh(cfg, tcfg, seed=99)
    out = []
    for s in range(steps):
        out.append(tr.train_step(toy_batch(seed + s), params, cfg, tcfg, opt,
                                 seed, s, beta_schedule=beta))
    return out, params


def test_step_metrics_deterministic_across_runs():
    a, pa = run_steps("trm", seed=21)
    b, pb = run_steps("trm", seed=21)
    assert a == b
    for name in pa.names():
        assert np.array_equal(pa[name], pb[name]), name
    c, _ = run_steps("trm", seed=22)
    assert a != c


# ---------------------------------------------------------------------------
# state perturbation


def zero_beta():
    return BetaSchedule(beta_start=0.0, beta_end=0.0, num_steps=1000)


def same_numbers(a: StepMetrics, b: StepMetrics) -> bool:
    # everything except the objective label
    return (a.ce_loss == b.ce_loss and a.q_loss == b.q_loss
            and a.token_accuracy == b.token_accuracy
            and a.exact_match_rate == b.exact_match_rate
            and a.grad_norm == b.grad_norm
            and a.halt_histogram == b.halt_histogram)


def test_sprm_beta_zero_is_trm_bit_for_bit():
    a, pa = run_steps("trm", seed=31, steps=2)
    b, pb = run_steps("sprm", seed=31, steps=2, beta=zero_beta())
    assert all(same_numbers(ma, mb) for ma, mb in zip(a, b))
    for name in pa.names():
        assert np.array_equal(pa[name], pb[name]), name


def test_sprm_beta_positive_changes_the_run():
    _, pa = run_steps("trm", seed=31, steps=2)
    _, pb = run_steps("sprm", seed=31, steps=2,
                      beta=BetaSchedule(0.05, 0.2, 50))
    assert any(not np.array_equal(pa[name], pb[name]) for name in pa.names())


def test_sprm_single_window_has_no_boundary_to_perturb():
    a, pa = run_steps("trm", seed=33, steps=1, max_halt_steps=1)
    b, pb = run_steps("sprm", seed=33, steps=1, max_halt_steps=1,
                      beta=BetaSchedule(0.05, 0.2, 50))
    assert all(same_numbers(ma, mb) for ma, mb in zip(a, b))
    for name in pa.names():
        assert np.array_equal(pa[name], pb[name]), name


def test_perturbed_recursion_stays_finite_over_many_windows():
    # a thousand perturb-then-recurse rounds at the top of the beta schedule;
    # the normalisation inside the operator must keep the state bounded
    cfg = tiny_cfg(seq_len=6)
    params = md.Parameters.init(cfg, rng_for(40, "init"))
    pt = md.wrap_parameters(params)
    sched = BetaSchedule()
    rng = rng_for(40, "soak")
    tokens = rng_for(40, "tok").integers(0, 10, size=(1, 6))
    with ad.no_grad():
        x = md.embed_input(pt, cfg, tokens, np.zeros(1, dtype=np.int64))
        state = md.init_state(pt, cfg, [rng])
        for _ in range(1000):
            state, _ = md.run_cycles(pt, cfg, x, state, 1)
            y = perturb_latent(state.y.value, sched.num_steps, sched, rng)
            z = perturb_latent(state.z.value, sched.num_steps, sched, rng)
            state = md.LatentState(ad.tensor(y.astype(np.float32)),
                                   ad.tensor(z.astype(np.float32)))
    assert np.all(np.isfinite(state.y.value))
    assert np.all(np.isfinite(state.z.value))
    assert np.abs(state.y.value).max() < 1e3


# ---------------------------------------------------------------------------
# denoising-path steps


def test_corrupt_batch_items_draw_independently():
    tgt = rng_for(50).integers(0, 10, size=(1, 36))
    batch = Batch(rows=np.zeros(2, dtype=np.int64),
                  inputs=np.zeros((2, 36), dtype=np.int64),
                  targets=np.vstack([tgt, tgt]),
                  loss_mask=np.ones((2, 36), dtype=bool))
    out = tr.corrupt_batch(batch, NoiseSchedule(), seed=51, step_index=0)
    assert not np.array_equal(out[0], out[1])
    # and the same (seed, step, item) always corrupts the same way
    again = tr.corrupt_batch(batch, NoiseSchedule(), seed=51, step_index=0)
    assert np.array_equal(out, again)


def denoise_setup(objective, seed, **tcfg_kw):
    cfg = tiny_cfg(cycles_per_window=1)
    tcfg = TrainConfig(objective=objective, warmup_steps=2, **tcfg_kw)
    params, _, opt = fresh(cfg, tcfg, seed=77)
    metrics = [tr.train_step(toy_batch(seed + s), params, cfg, tcfg, opt, seed, s)
               for s in range(2)]
    return metrics, params


def test_drm_degenerates_to_one_step_diffusion():
    # one gradient cycle, no warm-up, one cycle per window: the same code
    # path, so losses and updates agree to the last bit
    a, pa = denoise_setup("diffusion", seed=60)
    b, pb = denoise_setup("drm", seed=60, gradient_cycles=1, warmup_cycles=0)
    assert all(same_numbers(ma, mb) for ma, mb in zip(a, b))
    for name in pa.names():
        assert np.array_equal(pa[name], pb[name]), name


def test_drm_warmup_changes_the_computation():
    a, _ = denoise_setup("drm", seed=61, gradient_cycles=1, warmup_cycles=0)
    b, _ = denoise_setup("drm", seed=61, gradient_cycles=1, warmup_cycles=2)
    assert a != b


def test_drm_single_optimizer_step_per_batch():
    cfg = tiny_cfg()
    tcfg = TrainConfig(objective="drm", gradient_cycles=2, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=62, step_index=0)
    assert opt.t == 1
    assert m.halt_histogram == [3]


# ---------------------------------------------------------------------------
# micro-batches


def retained_per_item(cfg, tcfg):
    """What a step charges an item against the budget: two (seq_len + 1, d)
    float32 sublayer inputs per gradient-mode block application."""
    grad_cycles = tr.window_plan(cfg, tcfg)[1]
    return (grad_cycles * cfg.apps_per_cycle * cfg.num_layers * 2
            * (cfg.seq_len + 1) * cfg.hidden_size * 4)


def test_default_budget_micro_batch_sizes():
    # the desk config runs drm and trm in micro-batches of 8 and a k = 4
    # drm step in micro-batches of 2; the toy configs and the 4x4
    # mini_sudoku4 template fit a desk batch of 32 in one
    desk = md.ModelConfig(hidden_size=128, num_heads=4, num_layers=2, seq_len=144,
                          inner_steps=6, cycles_per_window=3)
    assert tr.micro_batch_size(desk, 1, np.float32) == 8
    assert tr.micro_batch_size(desk, 4, np.float32) == 2
    sudoku = md.ModelConfig(hidden_size=128, num_heads=4, num_layers=2, seq_len=16,
                            inner_steps=6, cycles_per_window=3)
    assert tr.micro_batch_size(sudoku, 1, np.float32) >= 32
    assert tr.micro_batch_size(tiny_cfg(hidden_size=32, seq_len=9), 2, np.float32) >= 32
    assert tr.micro_batch_size(desk, 10 ** 6, np.float32) == 1
    assert (tr.micro_batch_size(desk, 1, np.float32)
            == tr.RETAINED_BYTES_BUDGET // retained_per_item(desk, TrainConfig(objective="drm")))


def spied_step(monkeypatch, objective, m=None, q_bias=None, **tcfg_kw):
    """One step over a 5-item toy batch in micro-batches of m items (None:
    the default budget, one micro-batch).  Returns its metrics, params and
    optimizer, every (window, logits, q) yielded in order, and the
    gradients of each update."""
    cfg = tiny_cfg(max_halt_steps=3)
    tcfg = TrainConfig(objective=objective, max_halt_steps=3, warmup_steps=2, **tcfg_kw)
    params, _, opt = fresh(cfg, tcfg)
    if q_bias is not None:
        params["q/b"][:] = q_bias
    yielded, updates = [], []
    halting, apply = md.halting_windows, opt.apply

    def windows_spy(*args, **kwargs):
        for out in halting(*args, **kwargs):
            w, _, _, logits, q, _ = out
            yielded.append((w, logits.value.copy(), q.value.copy()))
            yield out

    with monkeypatch.context() as patch:
        if m is not None:
            patch.setattr(tr, "RETAINED_BYTES_BUDGET", m * retained_per_item(cfg, tcfg))
        patch.setattr(md, "halting_windows", windows_spy)
        patch.setattr(opt, "apply", lambda g: (updates.append(g), apply(g))[1])
        metrics = tr.train_step(toy_batch(B=5), params, cfg, tcfg, opt, seed=5, step_index=0,
                                beta_schedule=BetaSchedule(0.05, 0.2, 50))
    return metrics, params, opt, yielded, updates


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("objective, q_bias", [
    ("drm", None), ("diffusion", None), ("trm", None), ("trm", 0.0),
    ("trm_no_deep_sup", None), ("sprm", None), ("sprm", 0.0)])
def test_micro_batches_match_the_full_batch(monkeypatch, objective, q_bias, m):
    # a q bias of 0 lets some items exit in window 0 and others run on,
    # so micro-batches leave the lockstep at different windows
    full, full_params, full_opt, full_out, full_updates = spied_step(
        monkeypatch, objective, q_bias=q_bias)
    got, params, opt, out, updates = spied_step(monkeypatch, objective, m, q_bias=q_bias)
    assert sum(w == 0 for w, _, _ in full_out) == 1
    assert sum(w == 0 for w, _, _ in out) == -(-5 // m)
    # window 0 runs on the same parameters: each item's logits and q are
    # the full batch's, byte for byte
    for i in (1, 2):
        want = np.concatenate([o[i] for o in full_out if o[0] == 0])
        assert np.concatenate([o[i] for o in out if o[0] == 0]).tobytes() == want.tobytes()
    # one update per supervised window, from the window's whole gradient
    assert got.halt_histogram == full.halt_histogram
    assert opt.t == full_opt.t == len(full_updates) == len(updates)
    assert opt.t == (1 if objective in ("drm", "diffusion", "trm_no_deep_sup")
                     else 1 + max(w for w, n in enumerate(full.halt_histogram) if n))
    for g, want in zip(updates, full_updates):
        assert g.keys() == want.keys()
        for name in want:
            assert rel_err(g[name], want[name]) <= 1e-5, name
    for name in full_params:
        assert rel_err(params[name], full_params[name]) <= 1e-5, name
    assert math.isclose(got.ce_loss, full.ce_loss, rel_tol=1e-5)
    assert math.isclose(got.grad_norm, full.grad_norm, rel_tol=1e-5)


@pytest.mark.parametrize("m", [1, 2])
def test_degeneracies_hold_under_micro_batches(monkeypatch, m):
    per_item = retained_per_item(tiny_cfg(), TrainConfig(objective="trm"))
    assert per_item == retained_per_item(tiny_cfg(cycles_per_window=1),
                                         TrainConfig(objective="diffusion"))
    monkeypatch.setattr(tr, "RETAINED_BYTES_BUDGET", m * per_item)
    a, pa = run_steps("trm", seed=31, steps=2)
    b, pb = run_steps("sprm", seed=31, steps=2, beta=zero_beta())
    again, pagain = run_steps("trm", seed=31, steps=2)
    c, pc = denoise_setup("diffusion", seed=60)
    d, pd = denoise_setup("drm", seed=60, gradient_cycles=1, warmup_cycles=0)
    assert all(same_numbers(x, y) for x, y in zip(a, b))
    assert all(same_numbers(x, y) for x, y in zip(c, d))
    assert a == again
    for name in pa.names():
        assert pa[name].tobytes() == pb[name].tobytes() == pagain[name].tobytes(), name
        assert pc[name].tobytes() == pd[name].tobytes(), name


def test_micro_batches_retain_at_most_the_budget(monkeypatch):
    # at each backward, the arrays the vjp closures keep hold one
    # micro-batch's sublayer inputs, the per-item figure times its items,
    # and nothing the closures keep has more rows than a micro-batch
    cfg = tiny_cfg(max_halt_steps=2)
    tcfg = TrainConfig(objective="drm", gradient_cycles=2, warmup_cycles=1, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    per_item, m = retained_per_item(cfg, tcfg), 2
    monkeypatch.setattr(tr, "RETAINED_BYTES_BUDGET", m * per_item)
    inputs_bytes, rows = [], []
    backward = ad.backward

    def spy(root):
        kept = {id(a): a for node in ad.graph_nodes(root) if node.vjp is not None
                for a in closure_arrays(node.vjp)}
        kept = [a for a in kept.values() if not any(a is p for p in params.values())]
        inputs_bytes.append(sum(a.nbytes for a in kept
                                if a.shape[1:] == (cfg.seq_len + 1, cfg.hidden_size)))
        rows.append(max(len(a) for a in kept if a.ndim))
        backward(root)

    monkeypatch.setattr(ad, "backward", spy)
    tr.train_step(toy_batch(B=5), params, cfg, tcfg, opt, seed=5, step_index=0)
    assert rows == [2, 2, 1]
    assert inputs_bytes == [n * per_item for n in rows]
    assert max(inputs_bytes) <= tr.RETAINED_BYTES_BUDGET
    assert opt.t == 1


# ---------------------------------------------------------------------------
# stacked baselines


def test_stacked_transformer_runs_untied():
    cfg = tiny_cfg(untied_depth=3)
    tcfg = TrainConfig(objective="stacked_transformer", warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    phi1_before = params["phi1/l0/attn/wqkv"].copy()
    params["phi0/l0/attn/wqkv"][0, 0] += 1.0
    assert np.array_equal(params["phi1/l0/attn/wqkv"], phi1_before)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=70, step_index=0)
    assert opt.t == 1 and m.grad_norm > 0


def test_stacked_parameter_count_scales_with_depth():
    tied = param_count(md.Parameters.init(tiny_cfg(), rng_for(71)))
    untied = param_count(md.Parameters.init(tiny_cfg(untied_depth=3), rng_for(71)))
    cfg = tiny_cfg()
    d, e = cfg.hidden_size, cfg.expansion
    per_phi = cfg.num_layers * (4 * d * d + d + d * e * d + e * d * d + d)
    assert untied - tied == 2 * per_phi


def test_stacked_deep_sup_supervises_each_application():
    cfg = tiny_cfg(untied_depth=3, max_halt_steps=2)
    tcfg = TrainConfig(objective="stacked_deep_sup", max_halt_steps=2,
                       warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=72, step_index=0)
    assert opt.t == 2
    assert sum(m.halt_histogram) == 3


# ---------------------------------------------------------------------------
# gradients of the full objective losses


def margin_guard(logits):
    # finite differencing treats the exact-match bce target as locally
    # constant; a healthy argmax margin guarantees that at h = 1e-5
    top2 = np.sort(logits, axis=-1)[..., -2:]
    assert (top2[..., 1] - top2[..., 0]).min() > 1e-3


def test_trm_window_loss_full_gradient_matches_fd():
    # no warm-up cycles, so the whole window is differentiated and plain
    # central differences apply
    cfg = tiny_cfg(seq_len=4, max_halt_steps=1)
    base = live_heads(md.Parameters.init(cfg, rng_for(80, "init"),
                                         dtype=np.float64), 80)
    batch = toy_batch(seed=81, B=2, M=4)

    def build(leaves):
        pt = dict(leaves)
        x = md.embed_input(pt, cfg, batch.inputs, batch.rows)
        state = md.init_state(pt, cfg, state_streams(80, 2))
        _, logits, q = md.run_window(pt, cfg, x, state, 0, cfg.cycles_per_window)
        loss, _ = combined_loss(logits, q, batch.targets, batch.loss_mask)
        return loss

    margin_guard(_probe_logits(cfg, base, batch))

    wrt = ["phi/l0/attn/wqkv", "phi/l0/mlp/w1", "embed/input", "embed/task",
           "decode/w", "q/w", "state/y0"]
    check_gradients(build, dict(base), wrt)


def _probe_logits(cfg, base, batch):
    pt = {k: ad.tensor(v, op=k) for k, v in base.items()}
    with ad.no_grad():
        x = md.embed_input(pt, cfg, batch.inputs, batch.rows)
        state = md.init_state(pt, cfg, state_streams(80, batch.rows.size))
        _, logits, _ = md.run_window(pt, cfg, x, state, 0, cfg.cycles_per_window)
    return logits.value


def test_drm_loss_with_warmup_matches_fd_of_truncated_function():
    cfg = tiny_cfg(seq_len=4, cycles_per_window=1)
    base = live_heads(md.Parameters.init(cfg, rng_for(84, "init"),
                                         dtype=np.float64), 84)
    batch = toy_batch(seed=85, B=2, M=4)
    corrupted = tr.corrupt_batch(batch, NoiseSchedule(), seed=86, step_index=0)
    warm_cycles, grad_cycles = 2, 1

    def loss_from(pt, state, warm):
        x = md.embed_input(pt, cfg, batch.inputs, batch.rows)
        _, logits, q = md.run_window(pt, cfg, x, state, warm, grad_cycles)
        loss, _ = combined_loss(logits, q, batch.targets, batch.loss_mask)
        return loss

    def build_full(leaves):
        pt = dict(leaves)
        state = md.label_state(pt, cfg, corrupted, state_streams(86, 2))
        return loss_from(pt, state, warm_cycles)

    base_pt = {k: ad.tensor(v, op=k) for k, v in base.items()}
    with ad.no_grad():
        x0 = md.embed_input(base_pt, cfg, batch.inputs, batch.rows)
        st0 = md.label_state(base_pt, cfg, corrupted, state_streams(86, 2))
        warm_state, _ = md.run_cycles(base_pt, cfg, x0, st0, warm_cycles)
    frozen_y, frozen_z = warm_state.y.value, warm_state.z.value

    def build_frozen(leaves):
        pt = dict(leaves)
        state = md.LatentState(ad.tensor(frozen_y), ad.tensor(frozen_z))
        return loss_from(pt, state, 0)

    # the label table feeds only the warm-up, so truncation zeroes it
    wrt = ["phi/l0/attn/wqkv", "phi/l0/mlp/w2", "embed/input", "embed/label",
           "decode/w", "q/b"]
    grads = gradient(build_full, dict(base), wrt)
    frozen = check_gradients(build_frozen, dict(base), wrt)
    assert not np.any(grads["embed/label"])
    for name in wrt:
        assert np.array_equal(grads[name], frozen[name]), name


# ---------------------------------------------------------------------------
# the loop


def desk_dataset(family="recolor_map", num_tasks=2, grid=3, augs=1, seed=90):
    tasks = generate_synthetic(family, grid, num_tasks, seed)
    return build_dataset(tasks, augs, grid, grid, seed)


def test_run_training_writes_metrics_and_checkpoint(tmp_path):
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, batch_size=4,
                       warmup_steps=2)
    metrics_path = tmp_path / "metrics.jsonl"
    ckpt = tmp_path / "model.ltrm"
    result = run_training(ds, cfg, tcfg, seed=91, metrics_path=metrics_path,
                          checkpoint_path=ckpt, max_steps=4)
    assert len(result.history) == 4
    lines = metrics_path.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        assert sorted(rec) == ["ce_loss", "exact_match_rate", "grad_norm", "halt_histogram",
                               "objective", "q_loss", "skipped_updates", "step",
                               "token_accuracy"]
        assert rec["skipped_updates"] == 0
        assert rec["objective"] == "trm"
    cfg2, params2, ema2, meta = md.load_checkpoint(ckpt)
    assert cfg2 == cfg
    assert ema2 is not None
    assert meta["step"] == 4 and meta["objective"] == "trm"


def test_run_training_metrics_are_on_disk_at_each_step(tmp_path):
    # a run killed after any step must keep that step's metrics line
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, batch_size=4,
                       warmup_steps=2)
    metrics_path = tmp_path / "metrics.jsonl"
    seen = []

    def progress(metrics):
        lines = metrics_path.read_text().splitlines()
        assert len(lines) == metrics.step + 1
        assert json.loads(lines[-1])["step"] == metrics.step
        seen.append(metrics.step)

    run_training(ds, cfg, tcfg, seed=91, metrics_path=metrics_path,
                 max_steps=4, progress=progress)
    assert seen == [0, 1, 2, 3]


def test_run_training_is_deterministic(tmp_path):
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, batch_size=4,
                       warmup_steps=2)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        run_training(ds, cfg, tcfg, seed=92, metrics_path=p, max_steps=3)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_max_steps_sets_the_run_length(monkeypatch):
    # 6 examples in batches of 4 make 2 batches an epoch: 5 steps walk
    # into a third epoch, although the config asks for one
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, batch_size=4, epochs=1)
    seen = []
    real_collate = tr.collate
    monkeypatch.setattr(tr, "collate", lambda examples: seen.append(
        [id(e) for e in examples]) or real_collate(examples))
    result = run_training(ds, cfg, tcfg, seed=93, max_steps=5)
    ids = [id(e) for e in ds.train_examples]
    want = [[ids[i] for i in order[lo:lo + 4]]
            for order in (rng_for(93, "data", epoch).permutation(6) for epoch in range(3))
            for lo in (0, 4)]
    assert len(result.history) == 5 and seen == want[:5]


@pytest.mark.parametrize("max_steps, epochs, batch_size, steps_saved", [
    pytest.param(4, 1, 1, [2, 4], id="4-steps_saved0"),
    pytest.param(5, 1, 1, [2, 4, 5], id="5-steps_saved1"),
    # without max_steps the run is epochs * ceil(6 / batch_size) steps
    pytest.param(None, 3, 4, [2, 4, 6], id="epochs_3-batch_4_partial"),
    pytest.param(None, 1, 5, [2], id="epochs_1-batch_5_partial"),
    pytest.param(None, 3, 2, [2, 4, 6, 8, 9], id="epochs_3-batch_2"),
])
def test_final_checkpoint_is_written_once(tmp_path, monkeypatch, max_steps, epochs,
                                          batch_size, steps_saved):
    # 6 examples; with max_steps every run here fits in one epoch
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, batch_size=batch_size,
                       epochs=epochs)
    written = []
    real_save = md.save_checkpoint
    monkeypatch.setattr(md, "save_checkpoint", lambda path, *a: written.append(
        path) or real_save(path, *a))
    result = run_training(ds, cfg, tcfg, seed=91, checkpoint_path=tmp_path / "s{step}.ltrm",
                          checkpoint_every=2, max_steps=max_steps)
    assert written == [str(tmp_path / f"s{step}.ltrm") for step in steps_saved]
    assert len(result.history) == steps_saved[-1]


def test_run_training_validates_dataset_fit():
    ds = desk_dataset()
    with pytest.raises(TrainingError):
        run_training(ds, tiny_cfg(seq_len=9, num_tasks=1), TrainConfig(), seed=1)
    with pytest.raises(TrainingError):
        run_training(ds, tiny_cfg(seq_len=4, num_tasks=ds.num_rows),
                     TrainConfig(), seed=1)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_run_training_rejects_non_positive_max_steps(tmp_path, max_steps):
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    metrics_path = tmp_path / "metrics.jsonl"
    with pytest.raises(TrainingError, match="max_steps"):
        run_training(ds, cfg, TrainConfig(max_halt_steps=2), seed=1,
                     metrics_path=metrics_path, max_steps=max_steps)
    assert not metrics_path.exists()


# ---------------------------------------------------------------------------
# every objective can memorize one task


OVERFIT_SETTINGS = {
    "trm": {},
    "trm_no_deep_sup": {},
    "diffusion": {},
    "drm": dict(gradient_cycles=2, warmup_cycles=1),
    "sprm": {},
    "stacked_transformer": dict(untied=3),
    "stacked_deep_sup": dict(untied=3),
}


@pytest.mark.parametrize("objective", sorted(OVERFIT_SETTINGS))
def test_objective_overfits_single_task(objective):
    setting = dict(OVERFIT_SETTINGS[objective])
    untied = setting.pop("untied", 0)
    ds = desk_dataset(num_tasks=1, seed=94)
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, hidden_size=32,
                   max_halt_steps=2, untied_depth=untied)
    tcfg = TrainConfig(objective=objective, lr=3e-3, warmup_steps=10,
                       batch_size=3, max_halt_steps=2, **setting)
    result = run_training(ds, cfg, tcfg, seed=95, max_steps=400)
    best = max(m.token_accuracy for m in result.history[-100:])
    assert best >= 0.99, f"{objective} peaked at {best:.3f}"
