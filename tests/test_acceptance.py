"""Acceptance gate: one test per shipped guarantee.

Each test here pins down one externally visible property of the engine,
at the tolerance we are prepared to promise. The -v report doubles as
the checklist: one pass/fail line per guarantee. The gate holds no
learning runs: those are the overfit tests in test_training.py and the
copy-model fixtures in test_inference.py. Everything here is property
checking on small models.
"""

import time
import xml.etree.ElementTree as ET
from dataclasses import asdict

import numpy as np
import pytest

from conftest import (check_gradients, dihedral_compose, evaluate, gradient,
                      mean_all, multiply, permutation_test,
                      permutation_test_exhaustive, spy_backward, stop_gradient,
                      vote, whole_window)
import loopforge.autodiff as ad
import loopforge.cli as cli
import loopforge.model as md
import loopforge.training as tr
from loopforge.corruption import (BetaSchedule, NoiseSchedule, corrupt_target,
                                  mask_fraction, perturb_latent,
                                  sample_timesteps)
from loopforge.inference import (generate_remask, halting_batch,
                                 ranked_candidates, remask_batch)
from loopforge.seeding import rng_for
from loopforge.tasks import (MASK, NUM_COLOURS, PAD, Augmentation,
                             apply_augmentation, apply_dihedral, build_dataset,
                             dihedral_inverse, generate_synthetic,
                             identity_augmentation, undo_augmentation)
from loopforge.training import Batch, TrainConfig, combined_loss

IDENT = identity_augmentation()


# ---------------------------------------------------------------------------
# gradient oracle: every primitive and every objective loss against central
# finite differences, 64-bit, h = 1e-5, relative error <= 1e-6


FD_TOL = 1e-6
INSTANCES = 20


def _weighted(out, i, op, slot=0):
    # a fixed random cotangent so a vjp that mangles per-element structure
    # cannot hide behind a uniform mean; re-derived from the case id, so
    # every finite-difference evaluation sees the same weights
    w = rng_for(1999, "w", i, op, slot).standard_normal(out.shape)
    return mean_all(multiply(out, ad.tensor(w)))


def _primitive_cases(i):
    """One instance of every differentiable primitive, seeded by i."""
    rng = rng_for(1000, "fd", i)
    n = lambda *s: rng.standard_normal(s)
    # the sublayer nodes' gains draw from their own stream, which leaves
    # every other case's draws as they were
    gains = rng_for(1000, "fd-gain", i)
    gain = lambda d: gains.standard_normal(d)
    m, k, p = 2 + i % 3, 3 + i % 2, 2 + i % 4

    def case(build, wrt=("a",), **bindings):
        return build, bindings, list(wrt)

    yield "add", case(lambda t: _weighted(ad.add(t["a"], t["b"]), i, "add"),
                      ("a", "b"), a=n(m, k), b=n(m, k))
    yield "add_broadcast", case(
        lambda t: _weighted(ad.add(t["a"], t["b"]), i, "addb"),
        ("a", "b"), a=n(m, 1, k), b=n(p, k))
    yield "multiply", case(
        lambda t: _weighted(multiply(t["a"], t["b"]), i, "mul"),
        ("a", "b"), a=n(m, k), b=n(k))
    s = float(rng.uniform(0.3, 2.0))
    yield "scale", case(lambda t: _weighted(ad.scale(t["a"], s), i, "scale"),
                        a=n(m, k))
    yield "matmul", case(
        lambda t: _weighted(ad.matmul(t["a"], t["b"]), i, "mm"),
        ("a", "b"), a=n(m, k), b=n(k, p))
    yield "matmul_batched", case(
        lambda t: _weighted(ad.matmul(t["a"], t["b"]), i, "bmm"),
        ("a", "b"), a=n(2, m, k), b=n(k, p))
    yield "reshape", case(
        lambda t: _weighted(ad.reshape(t["a"], (k, m)), i, "reshape"),
        a=n(m, k))
    yield "slice_axis", case(
        lambda t: _weighted(ad.slice_axis(t["a"], 1, k, axis=-1), i, "slice"),
        a=n(m, k + 1))
    yield "concat", case(
        lambda t: _weighted(ad.concat([t["a"], t["b"]], axis=0), i, "cat"),
        ("a", "b"), a=n(m, k), b=n(p, k))
    yield "silu", case(lambda t: _weighted(ad.silu(t["a"]), i, "silu"),
                       a=n(m, k))
    yield "mlp", case(
        lambda t: _weighted(ad.mlp(t["a"], t["w1"], t["w2"], t["g"]), i, "mlp"),
        ("a", "w1", "w2", "g"), a=n(2, m, k), w1=n(k, p), w2=n(p, k), g=gain(k))
    yield "rms_norm", case(
        lambda t: _weighted(ad.rms_norm(t["a"], t["g"]), i, "rms"),
        ("a", "g"), a=n(m, 2, 6), g=n(6))

    idx = rng.integers(0, 5, size=(m, k))   # repeats force accumulation
    yield "gather", case(lambda t: _weighted(ad.gather(t["a"], idx), i, "gat"),
                         a=n(5, k))
    yield "rope", case(lambda t: _weighted(ad.rope(t["a"], 2), i, "rope"),
                       a=n(2, m + 1, 8))
    yield "attention", case(
        lambda t: _weighted(ad.attention(t["a"], t["wqkv"], t["wo"], t["g"], 2), i, "att"),
        ("a", "wqkv", "wo", "g"), a=n(2, m + 1, 8),
        wqkv=n(8, 24) / np.sqrt(8), wo=n(8, 8) / np.sqrt(8), g=gain(8))

    tgt = rng.integers(0, 5, size=(m, k))
    yield "softmax_cross_entropy", case(
        lambda t: _weighted(ad.softmax_cross_entropy(t["a"], tgt), i, "ce"),
        a=n(m, k, 5))
    bt = rng.integers(0, 2, size=m).astype(np.float64)
    yield "sigmoid_bce", case(
        lambda t: _weighted(ad.sigmoid_bce(t["a"], bt), i, "bce"), a=n(m))
    mask = rng.uniform(size=(m, k)) < 0.5
    mask.flat[0] = True
    yield "masked_mean", case(lambda t: ad.masked_mean(t["a"], mask),
                              a=n(m, k))
    yield "mean_all", case(lambda t: mean_all(t["a"]), a=n(m, k))


def state_streams(seed, batch):
    """One state-noise generator per item, as the trainer draws them."""
    return [rng_for(seed, "state", i) for i in range(batch)]


def oracle_cfg(**kw):
    base = dict(hidden_size=8, num_heads=2, num_layers=1, expansion=2,
                seq_len=4, inner_steps=2, cycles_per_window=2,
                max_halt_steps=1, num_tasks=3)
    base.update(kw)
    return md.ModelConfig(**base)


def oracle_batch(seed, B=2, M=4):
    rng = rng_for(seed, "batch")
    inputs = rng.integers(0, 10, size=(B, M))
    targets = rng.integers(0, 10, size=(B, M))
    mask = np.ones((B, M), dtype=bool)
    mask[:, -1] = False
    inputs[:, -1] = PAD
    targets[:, -1] = PAD
    return Batch(rows=rng.integers(0, 3, size=B).astype(np.int64),
                 inputs=inputs, targets=targets, loss_mask=mask)


def live_params(cfg, tag, dtype=np.float64):
    """Fresh parameters with the zero-initialised read-out heads replaced
    by generic values, so losses depend on every leaf under test."""
    params = md.Parameters.init(cfg, rng_for(tag, "init"), dtype=dtype)
    rng = rng_for(tag, "heads")
    for name in ("decode/w", "q/w"):
        arr = params[name]
        params[name] = (rng.normal(size=arr.shape)
                        / np.sqrt(arr.shape[0])).astype(dtype)
    return params


def margin_guard(logits, q_logit=None):
    # finite differencing treats the argmax-derived bce targets and the
    # q > 0 exit rule as locally constant; healthy margins keep them
    # constant across the h = 1e-5 probes
    top2 = np.sort(logits, axis=-1)[..., -2:]
    assert (top2[..., 1] - top2[..., 0]).min() > 1e-3
    if q_logit is not None:
        assert np.abs(q_logit).min() > 1e-3


def _window_loss(pt, cfg, batch, state, warm, grad):
    x = md.embed_input(pt, cfg, batch.inputs, batch.rows)
    _, logits, q = md.run_window(pt, cfg, x, state, warm, grad)
    loss, _ = combined_loss(logits, q, batch.targets, batch.loss_mask, whole_window(batch))
    return loss


def _frozen_state(base_pt, cfg, batch, make_state, warm):
    """Run the warm-up (and any preceding windows) outside the graph and
    return plain carry arrays, i.e. the function truncation differentiates."""
    with ad.no_grad():
        x = md.embed_input(base_pt, cfg, batch.inputs, batch.rows)
        state = make_state(base_pt)
        if warm:
            state, _ = md.run_cycles(base_pt, cfg, x, state, warm)
    return state.y.value, state.z.value


def _guard_frozen(cfg, bindings, batch, y, z, grad):
    """Margin-check the decode at the exact point finite differences probe."""
    pt = {k: ad.tensor(v, op=k) for k, v in bindings.items()}
    with ad.no_grad():
        x = md.embed_input(pt, cfg, batch.inputs, batch.rows)
        st = md.LatentState(ad.tensor(y), ad.tensor(z))
        _, logits, _ = md.run_window(pt, cfg, x, st, 0, grad)
    margin_guard(logits.value)


def _objective_loss_cases():
    """(name, build_full, build_frozen, bindings, wrt) per objective.

    build_full is the loss graph the trainer differentiates; build_frozen
    is the same function with everything before the gradient horizon
    pinned at its base-parameter value. Finite differences are taken on
    the frozen function, because the trainer's truncation is part of the
    loss definition, not an approximation of something longer.
    """
    wrt = ["phi/l0/attn/wqkv", "state/y0", "q/b"]

    # trm: deep supervision, warm-up cycles inside each window
    cfg = oracle_cfg()
    base = live_params(cfg, 1001)
    batch = oracle_batch(1002)
    base_pt = {k: ad.tensor(v, op=k) for k, v in base.items()}
    fy, fz = _frozen_state(base_pt, cfg, batch,
                           lambda pt: md.init_state(pt, cfg, state_streams(1033, 2)),
                           warm=1)

    def trm_full(t):
        state = md.init_state(t, cfg, state_streams(1033, 2))
        return _window_loss(t, cfg, batch, state, 1, 1)

    def trm_frozen(t):
        state = md.LatentState(ad.tensor(fy), ad.tensor(fz))
        return _window_loss(t, cfg, batch, state, 0, 1)

    _guard_frozen(cfg, base, batch, fy, fz, 1)
    yield "trm", trm_full, trm_frozen, dict(base), wrt

    # trm_no_deep_sup: only the last window is supervised; earlier windows
    # run without gradient, so the carry is a constant by construction
    cfg2 = oracle_cfg(max_halt_steps=2)
    base2 = live_params(cfg2, 1004)
    batch2 = oracle_batch(1005)
    pt2 = {k: ad.tensor(v, op=k) for k, v in base2.items()}
    with ad.no_grad():
        x = md.embed_input(pt2, cfg2, batch2.inputs, batch2.rows)
        st = md.init_state(pt2, cfg2, state_streams(1006, 2))
        st, _, _ = md.run_window(pt2, cfg2, x, st, 1, 1)
    cy, cz = st.y.value, st.z.value
    ncy, ncz = _frozen_state(
        {k: ad.tensor(v, op=k) for k, v in base2.items()}, cfg2, batch2,
        lambda pt: md.LatentState(ad.tensor(cy), ad.tensor(cz)), warm=1)

    def nds_full(t):
        state = md.LatentState(ad.tensor(cy), ad.tensor(cz))
        return _window_loss(t, cfg2, batch2, state, 1, 1)

    def nds_frozen(t):
        state = md.LatentState(ad.tensor(ncy), ad.tensor(ncz))
        return _window_loss(t, cfg2, batch2, state, 0, 1)

    _guard_frozen(cfg2, base2, batch2, ncy, ncz, 1)
    yield "trm_no_deep_sup", nds_full, nds_frozen, dict(base2), wrt

    # sprm: the carry entering the supervised window has been perturbed at
    # the boundary; the perturbation itself is sampled outside the graph
    beta = BetaSchedule(1e-3, 5e-3, 10)
    prng = rng_for(1007, "perturb")
    py = np.stack([perturb_latent(cy[j], 3, beta, prng) for j in range(2)])
    pz = np.stack([perturb_latent(cz[j], 3, beta, prng) for j in range(2)])
    spy, spz = _frozen_state(
        {k: ad.tensor(v, op=k) for k, v in base2.items()}, cfg2, batch2,
        lambda pt: md.LatentState(ad.tensor(py), ad.tensor(pz)), warm=1)

    def sprm_full(t):
        state = md.LatentState(ad.tensor(py), ad.tensor(pz))
        return _window_loss(t, cfg2, batch2, state, 1, 1)

    def sprm_frozen(t):
        state = md.LatentState(ad.tensor(spy), ad.tensor(spz))
        return _window_loss(t, cfg2, batch2, state, 0, 1)

    _guard_frozen(cfg2, base2, batch2, spy, spz, 1)
    yield "sprm", sprm_full, sprm_frozen, dict(base2), wrt

    # drm: label-initialised state, two warm-up cycles ahead of the
    # gradient cycle
    cfg3 = oracle_cfg(cycles_per_window=3)
    base3 = live_params(cfg3, 1008)
    batch3 = oracle_batch(1009)
    corrupted = tr.corrupt_batch(batch3, NoiseSchedule(), seed=1010, step_index=0)
    pt3 = {k: ad.tensor(v, op=k) for k, v in base3.items()}
    dy, dz = _frozen_state(
        pt3, cfg3, batch3,
        lambda pt: md.label_state(pt, cfg3, corrupted, state_streams(1011, 2)),
        warm=2)

    def drm_full(t):
        state = md.label_state(t, cfg3, corrupted, state_streams(1011, 2))
        return _window_loss(t, cfg3, batch3, state, 2, 1)

    def drm_frozen(t):
        state = md.LatentState(ad.tensor(dy), ad.tensor(dz))
        return _window_loss(t, cfg3, batch3, state, 0, 1)

    _guard_frozen(cfg3, base3, batch3, dy, dz, 1)
    yield "drm", drm_full, drm_frozen, dict(base3), wrt

    # diffusion: no warm-up at all, so full and frozen coincide
    cfg4 = oracle_cfg(cycles_per_window=1)
    base4 = live_params(cfg4, 1012)
    batch4 = oracle_batch(1013)
    corr4 = tr.corrupt_batch(batch4, NoiseSchedule(), seed=1014, step_index=0)

    def diff_full(t):
        state = md.label_state(t, cfg4, corr4, state_streams(1015, 2))
        return _window_loss(t, cfg4, batch4, state, 0, 1)

    vy, vz = _frozen_state(
        {k: ad.tensor(v, op=k) for k, v in base4.items()}, cfg4, batch4,
        lambda pt: md.label_state(pt, cfg4, corr4, state_streams(1015, 2)),
        warm=0)
    _guard_frozen(cfg4, base4, batch4, vy, vz, 1)
    yield "diffusion", diff_full, diff_full, dict(base4), wrt

    # stacked baselines: untied weights, one set per operator application
    wrt_stacked = ["phi0/l0/attn/wqkv", "phi2/l0/mlp/w1", "state/y0", "q/b"]
    cfg5 = oracle_cfg(cycles_per_window=1, untied_depth=3)
    base5 = live_params(cfg5, 1016)
    batch5 = oracle_batch(1017)
    corr5 = tr.corrupt_batch(batch5, NoiseSchedule(), seed=1018, step_index=0)

    def stk_full(t):
        state = md.label_state(t, cfg5, corr5, state_streams(1019, 2))
        return _window_loss(t, cfg5, batch5, state, 0, 1)

    wy, wz = _frozen_state(
        {k: ad.tensor(v, op=k) for k, v in base5.items()}, cfg5, batch5,
        lambda pt: md.label_state(pt, cfg5, corr5, state_streams(1019, 2)),
        warm=0)
    _guard_frozen(cfg5, base5, batch5, wy, wz, 1)
    yield ("stacked_transformer", stk_full, stk_full,
           dict(base5), wrt_stacked)

    cfg6 = oracle_cfg(cycles_per_window=1, untied_depth=3, max_halt_steps=2)
    base6 = live_params(cfg6, 1020)
    batch6 = oracle_batch(1021)
    pt6 = {k: ad.tensor(v, op=k) for k, v in base6.items()}
    with ad.no_grad():
        x = md.embed_input(pt6, cfg6, batch6.inputs, batch6.rows)
        st = md.init_state(pt6, cfg6, state_streams(1022, 2))
        st, _, _ = md.run_window(pt6, cfg6, x, st, 0, 1)
    sy, sz = st.y.value, st.z.value

    def sds_full(t):
        state = md.LatentState(ad.tensor(sy), ad.tensor(sz))
        return _window_loss(t, cfg6, batch6, state, 0, 1)

    _guard_frozen(cfg6, base6, batch6, sy, sz, 1)
    yield ("stacked_deep_sup", sds_full, sds_full,
           dict(base6), wrt_stacked)


def test_gradient_oracle_primitives_and_objective_losses():
    start = time.monotonic()

    for i in range(INSTANCES):
        for name, (build, bindings, wrt) in _primitive_cases(i):
            check_gradients(build, bindings, wrt, tol=FD_TOL)

    # stop_gradient: the contract IS the zero gradient, so the oracle is
    # analytic rather than numeric; the forward value must pass through
    rng = rng_for(1000, "sg")
    a = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))
    build = lambda t: mean_all(multiply(stop_gradient(t["a"]), ad.tensor(w)))
    g = gradient(build, {"a": a}, ["a"])
    assert np.array_equal(g["a"], np.zeros_like(a))
    assert float(evaluate(build, {"a": a})) == pytest.approx(float((a * w).mean()))

    seen = []
    for name, build_full, build_frozen, bindings, wrt in _objective_loss_cases():
        seen.append(name)
        full = gradient(build_full, bindings, wrt)
        frozen = check_gradients(build_frozen, bindings, wrt, tol=FD_TOL)
        for p in wrt:
            assert np.array_equal(full[p], frozen[p]), (name, p)
        if name == "diffusion":
            # with no warm-up, every probed parameter reaches the loss
            assert all(np.any(frozen[p]) for p in wrt)
    assert seen == ["trm", "trm_no_deep_sup", "sprm", "drm", "diffusion",
                    "stacked_transformer", "stacked_deep_sup"]

    assert time.monotonic() - start < 120.0


def test_vjps_read_no_value_slot(monkeypatch):
    # backward must read only what each vjp captured at forward time: the
    # graph holds no values, and gradients once the interior values are
    # gone equal those of the same graph with every primitive result held
    # alive; every binding enters through a reshape, so the operands of
    # the op under test are interior results too
    def grads(build, bindings, wrt, hold):
        leaves = {k: ad.tensor(v, requires_grad=True, op=k) for k, v in bindings.items()}
        held: list = []
        node = ad._node

        def holding(*args):
            held.append(node(*args))
            return held[-1]

        with monkeypatch.context() as m:
            if hold:
                m.setattr(ad, "_node", holding)
            root = build({k: ad.reshape(t, t.shape) for k, t in leaves.items()})
        assert len(held) > len(bindings) if hold else held == []
        assert all(n.value is None for n in ad.graph_nodes(root))
        ad.backward(root)
        return [leaves[k].adjoint for k in wrt]

    for i in range(INSTANCES):
        for name, (build, bindings, wrt) in _primitive_cases(i):
            want = grads(build, bindings, wrt, hold=True)
            got = grads(build, bindings, wrt, hold=False)
            for k, g, w in zip(wrt, got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (name, k)


# ---------------------------------------------------------------------------
# stop-gradient semantics at window boundaries


def test_stop_gradient_blocks_adjoints_across_windows(monkeypatch):
    # without warm-up cycles nothing but the carry's boundary stands
    # between window 1's gradient cycle and window 0's graph
    cfg = oracle_cfg(max_halt_steps=2, num_tasks=4)
    tcfg = TrainConfig(objective="trm", max_halt_steps=2, warmup_steps=0,
                       batch_size=3, warmup_cycles=0)
    params = live_params(cfg, 1100, dtype=np.float32)
    opt = tr.AdamW(params, params.copy(), tcfg)
    batch = oracle_batch(1101, B=3)

    audit = spy_backward(monkeypatch)
    tr.train_step(batch, params, cfg, tcfg, opt, seed=1102, step_index=0)
    assert len(audit) == 2
    assert audit[0]["loss"] != audit[1]["loss"]

    # if the detach at the carry leaked, window 1's backward would run
    # through window 0's interior nodes, so they would sit in window 1's
    # graph; the parameter leaves are the step's and sit in both
    first = {id(n) for n in audit[0]["nodes"] if n.parents}
    leaked = [n.op for n in audit[1]["nodes"] if id(n) in first]
    assert leaked == []


# ---------------------------------------------------------------------------
# corruption schedule exactness


def test_corruption_schedule_exactness():
    kinds = ("linear", "cosine", "sigmoid")
    for kind in kinds:
        sched = NoiseSchedule(kind=kind)
        assert mask_fraction(sched, 0.0) == 0.0
        assert mask_fraction(sched, 1.0) == 1.0
        grid = np.linspace(0.0, 1.0, 1001)
        vals = np.array([mask_fraction(sched, float(t)) for t in grid])
        assert np.all(np.diff(vals) >= 0.0), kind
    assert abs(mask_fraction(NoiseSchedule(kind="cosine"), 0.5) - 0.5) <= 1e-12

    sched = NoiseSchedule()
    for i in range(1000):
        rng = rng_for(1200, "draw", i)
        m = int(rng.integers(1, 30))
        total = m + int(rng.integers(0, 6))
        tokens = np.full(total, PAD, dtype=np.int64)
        tokens[:m] = rng.integers(0, NUM_COLOURS, size=m)
        mask = np.zeros(total, dtype=bool)
        mask[:m] = True
        tau = float(rng.uniform())
        out = corrupt_target(tokens, mask, tau, sched, rng)
        want = int(np.floor(mask_fraction(sched, tau) * m))
        assert int((out == MASK).sum()) == want
        assert np.array_equal(out[~mask], tokens[~mask])
        untouched = (out == tokens) | (out == MASK)
        assert untouched.all()


# ---------------------------------------------------------------------------
# degeneracy equivalences between objectives


def _degen_dataset(seed=1300):
    tasks = generate_synthetic("recolor_map", 3, 2, seed)
    return build_dataset(tasks, 1, 3, 3, seed)


def test_degenerate_configs_reduce_to_equivalent_objectives():
    ds = _degen_dataset()

    # state-perturbed recursion with zero noise variance is plain
    # backward training, step for step
    cfg = md.ModelConfig(hidden_size=16, num_heads=2, num_layers=1,
                         inner_steps=2, cycles_per_window=2, max_halt_steps=2,
                         seq_len=ds.seq_len, num_tasks=ds.num_rows)
    kw = dict(warmup_steps=0, batch_size=4, max_halt_steps=2)
    a = tr.run_training(ds, cfg, TrainConfig(objective="trm", **kw), seed=7,
                        max_steps=4)
    b = tr.run_training(ds, cfg, TrainConfig(objective="sprm", **kw), seed=7,
                        max_steps=4, beta_schedule=BetaSchedule(0.0, 0.0, 50))
    recs_a = [asdict(m) for m in a.history]
    recs_b = [asdict(m) for m in b.history]
    for ra, rb in zip(recs_a, recs_b):
        # the objective field is the regime's name; everything measured
        # must agree to the last bit
        assert ra.pop("objective") == "trm"
        assert rb.pop("objective") == "sprm"
    assert recs_a == recs_b
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k]), k

    # denoising recursion with no warm-up and a single gradient cycle on a
    # one-cycle window is one-step denoising, loss for loss
    cfg1 = md.ModelConfig(hidden_size=16, num_heads=2, num_layers=1,
                          inner_steps=2, cycles_per_window=1,
                          seq_len=ds.seq_len, num_tasks=ds.num_rows)
    kw1 = dict(warmup_steps=0, batch_size=4, gradient_cycles=1)
    c = tr.run_training(ds, cfg1, TrainConfig(objective="drm", warmup_cycles=0,
                                              **kw1), seed=9, max_steps=3)
    d = tr.run_training(ds, cfg1, TrainConfig(objective="diffusion", **kw1),
                        seed=9, max_steps=3)
    for mc, md_ in zip(c.history, d.history):
        assert mc.ce_loss == md_.ce_loss
        assert mc.q_loss == md_.q_loss
        assert mc.exact_match_rate == md_.exact_match_rate
    for k in c.params:
        assert np.array_equal(c.params[k], d.params[k]), k


# ---------------------------------------------------------------------------
# remask inference contract, on an actually trained checkpoint


@pytest.fixture(scope="module")
def trained_drm_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "drm_run"
    code = cli.main([
        "train", "--out", str(out), "--objective", "drm", "--steps", "400",
        "--family", "copy", "--grid", "3", "--seed", "11",
        "--augmentations", "1",
        "--set", "tasks=4", "--set", "template_h=4", "--set", "template_w=4",
        "--set", "hidden_size=32", "--set", "num_heads=2",
        "--set", "num_layers=1", "--set", "inner_steps=2",
        "--set", "cycles_per_window=2", "--set", "gradient_cycles=2",
        "--set", "warmup_cycles=1", "--set", "batch_size=8",
        "--set", "lr=3e-3", "--set", "warmup_steps=20",
        "--set", "checkpoint_interval=400",
    ])
    assert code == 0
    return out


def _run_params(run_dir):
    manifest, _, dataset, cfg, _ = cli._load_run(run_dir)
    path = sorted((run_dir / "checkpoints").glob("*.ltrm"))[-1]
    params, _ = cli._load_weights(path, cfg, manifest["objective"])
    return dataset, cfg, params


def test_remask_inference_contract(trained_drm_run):
    dataset, cfg, params = _run_params(trained_drm_run)
    case = dataset.eval_cases[0]
    runs = 1000
    step_counts = np.array([1, 3, 16])[rng_for(1400).integers(0, 3, size=runs)]

    checked = 0
    for lo in range(0, runs, 250):
        idx = range(lo, min(lo + 250, runs))
        for ns in (1, 3, 16):
            sub = [i for i in idx if step_counts[i] == ns]
            if not sub:
                continue
            streams = [rng_for(1401, "run", i) for i in sub]
            # the generator draws its timesteps first, from the same
            # stream; a parallel draw reproduces them exactly
            for i in sub:
                ts = sample_timesteps(ns, rng_for(1401, "run", i))
                assert ts.shape == (ns + 1,)
                assert np.all(np.diff(ts) < 0)
                assert ts[-1] == 0.0
            B = len(sub)
            tokens, q = remask_batch(
                np.tile(case.input_tokens, (B, 1)),
                np.tile(case.loss_mask, (B, 1)),
                np.full(B, case.row, dtype=np.int64),
                params, cfg, ns, NoiseSchedule(), streams)
            assert not np.any(tokens == MASK)
            assert np.all(tokens[:, ~case.loss_mask] == PAD)
            assert np.all(tokens[:, case.loss_mask] >= 0)
            assert np.all(tokens[:, case.loss_mask] < NUM_COLOURS)
            checked += B
    assert checked == runs

    # the single-case entry point obeys the same contract
    out, q = generate_remask(case.input_tokens, case.loss_mask, case.row,
                             params, cfg, 16, rng_for(1402))
    assert not np.any(out == MASK)
    assert np.all(out[~case.loss_mask] == PAD)
    assert 0.0 <= q <= 1.0


# ---------------------------------------------------------------------------
# halting inference runs the recursion that training ran


def test_halting_inference_replays_the_training_recursion(monkeypatch):
    cfg = oracle_cfg(max_halt_steps=3, num_tasks=4)
    tcfg = TrainConfig(objective="trm_no_deep_sup", max_halt_steps=3,
                       warmup_steps=0, batch_size=3)
    params = live_params(cfg, 1600, dtype=np.float32)
    params["q/b"][:] = -50.0      # no item halts before the last window
    frozen = params.copy()        # the step updates params in place
    batch = oracle_batch(1601, B=3)

    decoded: list = []
    decode = md.decode_state

    def spy(pt, cfg_, state):
        logits, q = decode(pt, cfg_, state)
        decoded.append(q.value.copy())
        return logits, q

    monkeypatch.setattr(md, "decode_state", spy)
    tr.train_step(batch, params, cfg, tcfg, tr.AdamW(params, params.copy(), tcfg),
                  seed=1602, step_index=5)
    trained, decoded[:] = decoded[:], []
    streams = [rng_for(1602, "state", 5, i) for i in range(3)]
    _, _, traces = halting_batch(batch.inputs, batch.loss_mask, batch.rows,
                                 frozen, cfg, streams)

    assert [len(t) for t in traces] == [3, 3, 3]
    assert len(trained) == len(decoded) == 3
    for w, (a, b) in enumerate(zip(trained, decoded)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), w


# ---------------------------------------------------------------------------
# voting rules on hand-built pools


def _cand(grid, q, aug=None):
    return np.asarray(grid, dtype=np.int8), float(q), aug or IDENT


def test_vote_ranking_rules():
    g1 = [[1, 1], [2, 2]]
    g2 = [[3, 3], [4, 4]]
    g3 = [[5, 5], [6, 6]]

    # 1: raw majority wins regardless of confidence
    pool = [_cand(g1, 0.1), _cand(g1, 0.1), _cand(g2, 0.99)]
    top = vote(pool)
    assert np.array_equal(top[0].canonical_grid, np.asarray(g1, dtype=np.int8))

    # 2: equal counts fall back to mean confidence
    pool = [_cand(g1, 0.2), _cand(g1, 0.4), _cand(g2, 0.9), _cand(g2, 0.8)]
    assert np.array_equal(vote(pool)[0].canonical_grid, np.asarray(g2, dtype=np.int8))

    # 3: exact tie in count and confidence resolves by grid bytes, so the
    # outcome is a pure function of the pool's contents
    pool = [_cand(g2, 0.5), _cand(g1, 0.5)]
    first = vote(pool)[0]
    assert np.array_equal(first.canonical_grid, np.asarray(g1, dtype=np.int8))

    # 4: a single candidate fills the only slot
    assert len(vote([_cand(g1, 0.3)])) == 1

    # 5: augmented duplicates collapse onto one canonical grid
    base = np.asarray(g1, dtype=np.int8)
    pool = []
    for e in range(8):
        aug = Augmentation(tuple(range(10)), e, (0, 0))
        pool.append((apply_dihedral(base, e), 0.5, aug))
    ranked = ranked_candidates(pool)
    assert len(ranked) == 1 and ranked[0].vote_count == 8

    # 6: three-way ranking follows (count, mean q)
    pool = ([_cand(g1, 0.1)] * 3 + [_cand(g2, 0.9)] * 2 + [_cand(g3, 0.95)])
    ranked = ranked_candidates(pool)
    assert [c.vote_count for c in ranked] == [3, 2, 1]
    top = vote(pool)
    assert np.array_equal(top[0].canonical_grid, np.asarray(g1, dtype=np.int8))
    assert np.array_equal(top[1].canonical_grid, np.asarray(g2, dtype=np.int8))

    # 7: mean confidence, not max, breaks the tie
    pool = [_cand(g1, 0.99), _cand(g1, 0.01),    # mean 0.5
            _cand(g2, 0.6), _cand(g2, 0.6)]      # mean 0.6
    assert np.array_equal(vote(pool)[0].canonical_grid, np.asarray(g2, dtype=np.int8))

    # 8: an empty pool is a caller error
    with pytest.raises(Exception):
        vote([])

    # 9: shape differences never merge
    pool = [_cand([[1, 1]], 0.5), _cand([[1], [1]], 0.5)]
    assert len(ranked_candidates(pool)) == 2

    # 10: ranking is invariant under pool order
    pool = ([_cand(g1, 0.3)] * 2 + [_cand(g2, 0.7)] * 2 + [_cand(g3, 0.5)])
    want = [np.array(c.canonical_grid) for c in ranked_candidates(pool)]
    rng = rng_for(1500)
    for _ in range(5):
        shuffled = [pool[j] for j in rng.permutation(len(pool))]
        got = ranked_candidates(shuffled)
        assert len(got) == len(want)
        for c, w in zip(got, want):
            assert np.array_equal(c.canonical_grid, w)


# ---------------------------------------------------------------------------
# augmentation group structure


def test_augmentation_group_structure():
    rng = rng_for(1600)
    for _ in range(1000):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        grid = rng.integers(0, NUM_COLOURS, size=(h, w)).astype(np.int8)
        aug = Augmentation(tuple(int(v) for v in rng.permutation(10)),
                           int(rng.integers(8)), (0, 0))
        gi, go = apply_augmentation((grid, grid.copy()), aug)
        assert np.array_equal(undo_augmentation(gi, aug), grid)
        assert np.array_equal(undo_augmentation(go, aug), grid)

    grid = rng_for(1601).integers(0, 10, size=(4, 6)).astype(np.int8)
    once = apply_dihedral(grid, 1)
    assert not np.array_equal(once, grid)
    four = grid
    for _ in range(4):
        four = apply_dihedral(four, 1)
    assert np.array_equal(four, grid)

    # colour permutations: applying p then q equals applying q∘p
    for i in range(50):
        r = rng_for(1602, i)
        p = r.permutation(10)
        q = r.permutation(10)
        g = r.integers(0, 10, size=(3, 5)).astype(np.int8)
        ap = Augmentation(tuple(int(v) for v in p), 0, (0, 0))
        aq = Augmentation(tuple(int(v) for v in q), 0, (0, 0))
        comp = Augmentation(tuple(int(v) for v in q[p]), 0, (0, 0))
        step1, _ = apply_augmentation((g, g), ap)
        step2, _ = apply_augmentation((step1, step1), aq)
        direct, _ = apply_augmentation((g, g), comp)
        assert np.array_equal(step2, direct)

    # inversion table is consistent with composition
    for e in range(8):
        assert dihedral_compose(dihedral_inverse(e), e) == 0


# ---------------------------------------------------------------------------
# permutation test


def test_permutation_test_monte_carlo_matches_exhaustive():
    rng = rng_for(1700)
    for i in range(3):
        n = 11
        a = (rng.uniform(size=n) < 0.7).astype(float)
        b = (rng.uniform(size=n) < 0.4).astype(float)
        p_mc = permutation_test(a, b, num_perms=100_000, rng=rng_for(1701, i))
        p_ex = permutation_test_exhaustive(a, b)
        assert abs(p_mc - p_ex) <= 0.01, (p_mc, p_ex)

    same = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    assert permutation_test(same, same, num_perms=100_000,
                            rng=rng_for(1702)) >= 0.5
    assert permutation_test_exhaustive(same, same) >= 0.5


# ---------------------------------------------------------------------------
# renderer output


def test_renderer_emits_one_frame_per_step(trained_drm_run, tmp_path):
    out = tmp_path / "frames"
    code = cli.main(["render", str(trained_drm_run), "--num-denoise-steps",
                     "16", "--seed", "5", "--out", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.glob("*.svg"))
    assert files == ["header.svg"] + [f"step_{i:03d}.svg" for i in range(1, 17)]
    for p in out.glob("*.svg"):
        root = ET.fromstring(p.read_text())
        assert root.tag.endswith("svg")
