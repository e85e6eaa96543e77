import json
import math

import numpy as np
import pytest

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
    with pytest.raises(ad.ContractError):
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


def test_step_trm_two_window_detach_audit():
    cfg = tiny_cfg(max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    audit: list = []
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=5, step_index=0,
                      audit=audit)
    # the q bias starts at -5, so nothing halts before the last window
    assert [a["window"] for a in audit] == [0, 1]
    assert opt.t == 2
    assert m.halt_histogram == [0, 3]
    # every node of the first window's graph kept a zero adjoint while the
    # second window trained: the detach boundary held
    for node in audit[0]["nodes"]:
        assert node.adjoint is None or not np.any(node.adjoint)


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
        assert m.skipped_updates == s + 1 and m.record()["skipped_updates"] == s + 1
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
    audit: list = []
    tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=4, step_index=0,
                  audit=audit)
    assert audit and grads
    for entry in audit:
        wrong = {(n.op, str(n.value.dtype)) for n in entry["nodes"]
                 if n.value.dtype != np.float32}
        assert not wrong, f"window {entry['window']}: {sorted(wrong)}"
    for g in grads:
        assert {str(a.dtype) for a in g.values()} == {"float32"}
    assert {str(a.dtype) for a in params.arrays.values()} == {"float32"}


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
    pt = md.wrap_parameters(params, requires_grad=False)
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
            state = md.LatentState(ad.constant(y.astype(np.float32)),
                                   ad.constant(z.astype(np.float32)))
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
# stacked baselines


def test_stacked_transformer_runs_untied():
    cfg = tiny_cfg(untied_depth=3)
    tcfg = TrainConfig(objective="stacked_transformer", warmup_steps=0)
    params, _, opt = fresh(cfg, tcfg)
    phi1_before = params["phi1/l0/attn/wq"].copy()
    params["phi0/l0/attn/wq"][0, 0] += 1.0
    assert np.array_equal(params["phi1/l0/attn/wq"], phi1_before)
    m = tr.train_step(toy_batch(), params, cfg, tcfg, opt, seed=70, step_index=0)
    assert opt.t == 1 and m.grad_norm > 0


def test_stacked_parameter_count_scales_with_depth():
    tied = md.Parameters.init(tiny_cfg(), rng_for(71)).count()
    untied = md.Parameters.init(tiny_cfg(untied_depth=3), rng_for(71)).count()
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


def rel_err(got, want):
    denom = max(np.abs(got).max(), np.abs(want).max(), 1e-12)
    return np.abs(got - want).max() / denom


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

    wrt = ["phi/l0/attn/wq", "phi/l0/mlp/w1", "embed/input", "embed/task",
           "decode/w", "q/w", "state/y0"]
    grads = ad.gradient(build, dict(base.arrays), wrt)
    for name in wrt:
        def f(arr, name=name):
            b = dict(base.arrays)
            b[name] = arr
            return float(ad.evaluate(build, b))
        want = ad.finite_difference_gradient(f, base.arrays[name])
        assert rel_err(grads[name], want) <= 1e-6, name


def _probe_logits(cfg, base, batch):
    pt = {k: ad.tensor(v, op=k) for k, v in base.arrays.items()}
    with ad.no_grad():
        x = md.embed_input(pt, cfg, batch.inputs, batch.rows)
        state = md.init_state(pt, cfg, state_streams(80, batch.rows.size))
        _, logits, _ = md.run_window(pt, cfg, x, state, 0, cfg.cycles_per_window,
                                     with_gradient=False)
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

    base_pt = {k: ad.tensor(v, op=k) for k, v in base.arrays.items()}
    with ad.no_grad():
        x0 = md.embed_input(base_pt, cfg, batch.inputs, batch.rows)
        st0 = md.label_state(base_pt, cfg, corrupted, state_streams(86, 2))
        warm_state, _ = md.run_cycles(base_pt, cfg, x0, st0, warm_cycles)
    frozen_y, frozen_z = warm_state.y.value, warm_state.z.value

    def build_frozen(leaves):
        pt = dict(leaves)
        state = md.LatentState(ad.constant(frozen_y), ad.constant(frozen_z))
        return loss_from(pt, state, 0)

    # the label table feeds only the warm-up, so truncation zeroes it
    wrt = ["phi/l0/attn/wk", "phi/l0/mlp/w2", "embed/input", "embed/label",
           "decode/w", "q/b"]
    grads = ad.gradient(build_full, dict(base.arrays), wrt)
    frozen = ad.gradient(build_frozen, dict(base.arrays), wrt)
    assert not np.any(grads["embed/label"])
    for name in wrt:
        assert np.array_equal(grads[name], frozen[name]), name

        def f(arr, name=name):
            b = dict(base.arrays)
            b[name] = arr
            return float(ad.evaluate(build_frozen, b))
        want = ad.finite_difference_gradient(f, base.arrays[name])
        assert rel_err(grads[name], want) <= 1e-6, name


# ---------------------------------------------------------------------------
# the loop


def desk_dataset(family="recolor_map", num_tasks=2, grid=3, augs=1, seed=90):
    tasks = generate_synthetic(family, grid, num_tasks, seed)
    return build_dataset(tasks, augs, grid, grid, seed)


def test_run_training_writes_metrics_and_checkpoint(tmp_path):
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, batch_size=4,
                       epochs=10, warmup_steps=2)
    metrics_path = tmp_path / "metrics.jsonl"
    ckpt = tmp_path / "model.ltrm"
    result = run_training(ds, cfg, tcfg, seed=91, metrics_path=metrics_path,
                          checkpoint_path=ckpt, max_steps=4)
    assert result.steps == 4
    lines = metrics_path.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        assert sorted(rec) == ["ce_loss", "exact_match_rate", "objective",
                               "q_loss", "skipped_updates", "step", "token_accuracy"]
        assert rec["skipped_updates"] == 0
        assert rec["objective"] == "trm"
    cfg2, params2, ema2, meta = md.load_checkpoint(ckpt)
    assert cfg2 == cfg
    assert ema2 is not None
    assert meta["step"] == 4 and meta["objective"] == "trm"


def test_run_training_is_deterministic(tmp_path):
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=2)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, batch_size=4,
                       epochs=2, warmup_steps=2)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        run_training(ds, cfg, tcfg, seed=92, metrics_path=p, max_steps=3)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_training_early_stops_on_eval_target():
    ds = desk_dataset()
    cfg = tiny_cfg(seq_len=9, num_tasks=ds.num_rows, max_halt_steps=1)
    tcfg = TrainConfig(objective="trm", max_halt_steps=1, batch_size=4,
                       epochs=50, warmup_steps=2)
    seen = []

    def eval_fn(p):
        seen.append(p)
        return 1.0

    result = run_training(ds, cfg, tcfg, seed=93, eval_fn=eval_fn, eval_every=2,
                          eval_target=0.9)
    assert result.steps == 2
    assert result.final_eval == 1.0
    assert seen[0] is result.ema


def test_run_training_validates_dataset_fit():
    ds = desk_dataset()
    with pytest.raises(TrainingError):
        run_training(ds, tiny_cfg(seq_len=9, num_tasks=1), TrainConfig(), seed=1)
    with pytest.raises(TrainingError):
        run_training(ds, tiny_cfg(seq_len=4, num_tasks=ds.num_rows),
                     TrainConfig(), seed=1)


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
                       batch_size=3, max_halt_steps=2, epochs=400, **setting)
    result = run_training(ds, cfg, tcfg, seed=95, max_steps=400)
    best = max(m.token_accuracy for m in result.history[-100:])
    assert best >= 0.99, f"{objective} peaked at {best:.3f}"
