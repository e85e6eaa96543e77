"""Transition network, embeddings, recursion windows, checkpoints."""

from __future__ import annotations

import json
import math
import struct
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_gradients, gradient, mean_all, multiply, param_count,
                      ref_sublayer, rel_err)
from loopforge import autodiff as ad
from loopforge import model as md
from loopforge.seeding import rng_for


def tiny_cfg(**kw):
    base = dict(hidden_size=16, num_heads=2, num_layers=1, expansion=2,
                seq_len=9, inner_steps=2, cycles_per_window=2, max_halt_steps=4,
                num_tasks=3)
    base.update(kw)
    return md.ModelConfig(**base)


def live_heads(params, seed):
    # fresh models start with zeroed read-out heads; give them generic
    # values so losses actually depend on the rest of the network
    rng = rng_for(seed, "heads")
    for name in ("decode/w", "q/w"):
        arr = params[name]
        params[name] = (rng.normal(size=arr.shape)
                        / np.sqrt(arr.shape[0])).astype(arr.dtype)
    return params


def tiny_setup(seed=0, dtype=np.float32, **kw):
    cfg = tiny_cfg(**kw)
    params = md.Parameters.init(cfg, rng_for(seed, "init"), dtype=dtype)
    return cfg, live_heads(params, seed)


def test_config_validation():
    with pytest.raises(md.ModelError):
        tiny_cfg(hidden_size=15)
    with pytest.raises(md.ModelError):
        tiny_cfg(num_heads=16)  # head dim 1 is odd, rotary needs pairs
    with pytest.raises(md.ModelError):
        tiny_cfg(vocab_size=12)
    with pytest.raises(md.ModelError):
        tiny_cfg(inner_steps=0)
    with pytest.raises(md.ModelError):
        tiny_cfg(cycles_per_window=0)  # a window, remask's included, needs a cycle


def test_parameter_count_near_seven_million():
    cfg = md.ModelConfig(hidden_size=512, num_heads=8, num_layers=2, expansion=4,
                         seq_len=900, num_tasks=1000)
    params = md.Parameters.init(cfg, rng_for(0, "big"))
    count = param_count(params)
    print(f"parameter count at d=512/heads=8/layers=2/expansion=4 "
          f"with 1000 task rows: {count}")
    assert count == 6_824_449  # exact; and within 10% of 7M:
    assert 0.9 * 7_000_000 <= count <= 1.1 * 7_000_000


def test_label_table_has_mask_row():
    cfg, params = tiny_setup()
    assert params["embed/label"].shape[0] == cfg.vocab_size + 1
    assert params["embed/input"].shape[0] == cfg.vocab_size


def test_embed_input_symmetry_and_task_isolation():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    tokens = np.full((1, cfg.seq_len), 10, dtype=np.int64)  # all PAD
    rows0 = np.zeros(1, dtype=np.int64)
    out = md.embed_input(pt, cfg, tokens, rows0).value
    # identical tokens embed identically at every non-task position
    assert np.all(out[0, 1:] == out[0, 1])
    out2 = md.embed_input(pt, cfg, tokens, np.ones(1, dtype=np.int64)).value
    diff = np.any(out != out2, axis=-1)
    assert diff[0, 0] or np.array_equal(out, out2)  # task slot only
    assert not diff[0, 1:].any()
    again = md.embed_input(pt, cfg, tokens, rows0).value
    assert out.tobytes() == again.tobytes()


def test_embed_input_rejects_mask_tokens():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    tokens = np.full((1, cfg.seq_len), 11, dtype=np.int64)
    with pytest.raises(md.ModelError):
        md.embed_input(pt, cfg, tokens, np.zeros(1, dtype=np.int64))


def test_embed_input_unknown_task():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    tokens = np.zeros((1, cfg.seq_len), dtype=np.int64)
    with pytest.raises(ad.AutodiffError, match="gather: index out of range"):
        md.embed_input(pt, cfg, tokens, np.array([99]))


def test_embed_label_mask_rows():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    all_mask = np.full((1, cfg.seq_len), 11, dtype=np.int64)
    out = md.embed_label(pt, cfg, all_mask).value
    assert np.all(out == params["embed/label"][11] * math.sqrt(cfg.hidden_size))
    # one masked cell -> exactly one row differs from the clean embedding
    clean = np.zeros((1, cfg.seq_len), dtype=np.int64)
    one = clean.copy()
    one[0, 4] = 11
    a = md.embed_label(pt, cfg, clean).value
    b = md.embed_label(pt, cfg, one).value
    differing = np.any(a != b, axis=-1)
    assert differing.sum() == 1 and differing[0, 4]


def test_label_and_input_tables_are_separate():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    tokens = np.zeros((1, cfg.seq_len), dtype=np.int64)
    lab = md.embed_label(pt, cfg, tokens).value
    inp = md.embed_input(pt, cfg, tokens, np.zeros(1, dtype=np.int64)).value[:, 1:]
    assert not np.array_equal(lab, inp)


def batch_inputs(cfg, batch=2, seed=1):
    rng = rng_for(seed, "bi")
    tokens = rng.integers(0, 10, size=(batch, cfg.seq_len))
    rows = rng.integers(0, cfg.num_tasks, size=batch)
    return tokens, rows


def cycle_setup(seed=0, **kw):
    cfg, params = tiny_setup(seed, **kw)
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(0, "st", i) for i in range(2)])
    return cfg, pt, x, state


def test_latent_step_deterministic_and_tied():
    cfg, pt, x, state = cycle_setup()
    s1, apps = md.run_cycles(pt, cfg, x, md.LatentState(state.y, state.z), 1)
    s2, _ = md.run_cycles(pt, cfg, x, md.LatentState(state.y, state.z), 1)
    assert apps == cfg.inner_steps + 1
    assert s1.z.value.tobytes() == s2.z.value.tobytes()
    assert s1.y.value.tobytes() == s2.y.value.tobytes()
    # all n + 1 applications read the very same weight tensors (tying is
    # structural): one shared leaf, not per-step copies
    nodes = ad.graph_nodes(s1.y)
    leaves = [n for n in nodes if n.op == "phi/l0/attn/wqkv"]
    assert len(leaves) == 1
    readers = [n for n in nodes if any(p is leaves[0] for p in n.parents)]
    assert len(readers) == cfg.inner_steps + 1


def test_gradients_reach_all_step_inputs():
    cfg, pt, x, state = cycle_setup(dtype=np.float64)
    out, _ = md.run_cycles(pt, cfg, x, state, 1)
    loss = ad.add(mean_all(multiply(out.y, out.y)),
                  mean_all(multiply(out.z, out.z)))
    ad.backward(loss)
    for name in ("phi/l0/attn/wqkv", "phi/l0/mlp/w1", "embed/input", "embed/task",
                 "state/y0", "state/z0"):
        adj = pt[name].adjoint
        assert adj is not None and np.any(adj != 0), name


def test_run_cycles_releases_values_no_vjp_reads(monkeypatch):
    # weakrefs to forward arrays, taken as ad.attention and its per-item
    # kernels, ad.mlp and ad.add see them: the graph holds no values, so an
    # array outlives run_cycles only if a vjp captured it or the caller
    # holds it
    cfg, pt, x, state = cycle_setup()
    refs = {k: [] for k in ("attn_in", "qk", "v", "scores", "att", "res", "mlp_in",
                            "silu", "xy", "z", "y")}
    attention, turn, attend, mlp, add = ad.attention, ad._turn, ad._attend, ad.mlp, ad.add

    def attention_spy(h, *args):
        refs["attn_in"].append(weakref.ref(h.value))
        return attention(h, *args)

    def turn_spy(a, phases):
        refs["qk"].append(weakref.ref(a))         # the q|k projection, rotated in place
        return turn(a, phases)

    def attend_spy(x, state, res, num_heads):
        out = attend(x, state, res, num_heads)
        _, _, v, e, _, o = out
        refs["v"].append(weakref.ref(v.base))
        refs["scores"].append(weakref.ref(e))
        refs["att"].append(weakref.ref(o))        # the merged output
        refs["res"].append(weakref.ref(res.base))  # the output whose row the sum fills
        return out

    def mlp_spy(h, *args):
        out = mlp(h, *args)
        refs["mlp_in"].append(weakref.ref(h.value))
        return out

    def add_spy(a, b):
        out = add(a, b)
        if a is x:                                       # x + y
            refs["xy"].append(weakref.ref(out.value))
        elif a.op == "add" and a.parents[0] is x.node:   # (x + y) + z
            refs["z"].append(weakref.ref(b.value))
        else:                                            # y + z
            refs["y"].append(weakref.ref(a.value))
        return out

    with monkeypatch.context() as m:
        m.setattr(ad, "attention", attention_spy)
        m.setattr(ad, "_turn", turn_spy)
        m.setattr(ad, "_attend", attend_spy)
        m.setattr(ad, "mlp", mlp_spy)
        m.setattr(ad, "silu", lambda a: refs["silu"].append(a))
        m.setattr(ad, "add", add_spy)
        out, _ = md.run_cycles(pt, cfg, x, md.LatentState(state.y, state.z), 2)
    alive = {k: [r() is not None for r in v] for k, v in refs.items()}
    blocks = 2 * cfg.apps_per_cycle * cfg.num_layers
    items = blocks * len(x.value)
    assert [len(alive[k]) for k in ("qk", "v", "scores", "att", "mlp_in")] == [
        items, items, items, items, blocks]
    # the MLP's hidden arrays and residual sum never leave ad.mlp, which
    # builds no silu, add or rms_norm node; its vjp rebuilds them from the
    # MLP's input, which it keeps.  Attention's vjp rebuilds each item's
    # q, k, v, scores, output and residual sum from its input
    assert refs["silu"] == [] and all(alive["mlp_in"]) and all(alive["attn_in"])
    # every array no vjp reads dies with its forward
    for key in ("qk", "v", "scores", "att", "xy"):
        assert not any(alive[key]), key
    # each residual sum fills a row of its node's output, the MLP's input,
    # which the MLP's vjp keeps: attention makes no other (B, M, d) buffer
    outputs = [r() for r in refs["mlp_in"]]
    assert len(refs["res"]) == items
    assert all(any(r() is a for a in outputs) for r in refs["res"])
    # a replaced z or y dies too; run_cycles' own inputs, which the caller
    # holds, do not
    assert alive["z"] == [True] + [False] * (2 * cfg.inner_steps - 1)
    assert alive["y"] == [True, False]


def test_run_cycles_input_state_dies_at_its_last_use(monkeypatch):
    # run_cycles owns the state it is given: when the caller holds only the
    # LatentState, the input z dies once the first latent step has replaced
    # it and the input y once the answer step has, and the state is empty
    cfg, pt, x, state = cycle_setup()
    y_in, z_in = weakref.ref(state.y.value), weakref.ref(state.z.value)
    alive = []
    phi_apply = md.phi_apply

    def spy(pt, cfg, h, app):
        alive.append((y_in() is not None, z_in() is not None))
        return phi_apply(pt, cfg, h, app)

    monkeypatch.setattr(md, "phi_apply", spy)
    md.run_cycles(pt, cfg, x, state, 2)
    apps = cfg.apps_per_cycle
    assert [y for y, _ in alive] == [True] * apps + [False] * apps
    assert [z for _, z in alive] == [True] + [False] * (2 * apps - 1)
    assert state.y is None and state.z is None


def test_last_window_yields_without_x_or_final_state(monkeypatch):
    # at the yield of the last window the generator holds neither the
    # window's embedding x nor its final state; the caller's logits, q and
    # pt still give the values and gradients of a run that holds both
    def run(hold):
        cfg, params = tiny_setup()
        tokens, rows = batch_inputs(cfg)
        streams = [rng_for(7, "st", i) for i in range(len(rows))]
        made: list = []
        embed_input, run_window = md.embed_input, md.run_window

        def embed_spy(*args):
            x = embed_input(*args)
            made.append(x.value if hold else weakref.ref(x.value))
            return x

        def window_spy(*args):
            out = run_window(*args)
            made.append(out[0].z.value if hold else weakref.ref(out[0].z.value))
            return out

        with monkeypatch.context() as m:
            m.setattr(md, "embed_input", embed_spy)
            m.setattr(md, "run_window", window_spy)
            for w, _, pt, logits, q, exiting in md.halting_windows(
                    params, cfg, tokens, rows, lambda pt: md.init_state(pt, cfg, streams),
                    2, 1, 1, halt_early=False):
                if not exiting.all():
                    continue
                dead = None if hold else [r() is None for r in made[2:]]
                ad.backward(ad.add(mean_all(logits), mean_all(q)))
                grads = {k: t.adjoint for k, t in pt.items()}
                values = logits.value.tobytes() + q.value.tobytes()
        assert w == 1 and len(made) == 4
        return dead, values, grads

    dead, values, grads = run(hold=False)
    assert dead == [True, True]
    _, want_values, want = run(hold=True)
    assert values == want_values
    for name, g in grads.items():
        w = want[name]
        assert (g is None) == (w is None), name
        assert g is None or g.tobytes() == w.tobytes(), name


def test_embedding_values_die_once_forward_drops_them(monkeypatch):
    # no vjp reads the gather and concat outputs of embed_input and
    # label_state, so they die when the embedding returns, long before
    # backward; the gradients equal those of a run that holds them
    def run(hold):
        cfg, params = tiny_setup()
        pt = md.wrap_parameters(params)
        tokens, rows = batch_inputs(cfg)
        made: list = []
        with monkeypatch.context() as m:
            for op in ("gather", "concat"):
                def spy(*args, _fn=getattr(ad, op), **kwargs):
                    out = _fn(*args, **kwargs)
                    made.append(out.value if hold else weakref.ref(out.value))
                    return out
                m.setattr(ad, op, spy)
            x = md.embed_input(pt, cfg, tokens, rows)
            state = md.label_state(pt, cfg, tokens, [rng_for(0, "st", i) for i in range(2)])
        out, _ = md.run_cycles(pt, cfg, x, state, 1)
        assert len(made) == 5
        dead = None if hold else [r() is None for r in made]
        ad.backward(ad.add(mean_all(multiply(out.y, out.y)),
                           mean_all(multiply(out.z, out.z))))
        return dead, {k: t.adjoint for k, t in pt.items()}

    dead, grads = run(hold=False)
    assert all(dead)
    _, want = run(hold=True)
    for name, g in grads.items():
        w = want[name]
        assert (g is None) == (w is None), name
        assert g is None or g.tobytes() == w.tobytes(), name


def _fused_gradients_match_stored_graph(monkeypatch, op, stored, probe, tol=None):
    # float32 gradients of one phi_apply, and of a whole cycle's tied
    # applications, equal the ones the op's stored graph gives.  With `tol`,
    # for a node whose kernels are not the graph's ops, float32 ones repeat
    # their bytes, and float64 ones are within tol of the graph's under a
    # random weighting of the output: mean(out * out) of a post-norm output
    # barely depends on its input's scale, so its gradients are mostly
    # cancellation, and their last digits depend on the order of the ops
    def grads(build, fused, dtype=np.float32):
        cfg, pt, x, state = cycle_setup(num_layers=2, dtype=dtype)
        with monkeypatch.context() as m:
            if not fused:
                m.setattr(ad, op, stored)
            out = build(cfg, pt, x, state)
        w = out if dtype == np.float32 else ad.tensor(rng_for(9, "w").normal(size=out.shape))
        ad.backward(mean_all(multiply(out, w)))
        return out.value, {k: t.adjoint for k, t in pt.items()}

    def one_apply(cfg, pt, x, state):
        return md.phi_apply(pt, cfg, ad.add(ad.add(x, state.y), state.z))

    def one_cycle(cfg, pt, x, state):
        return md.run_cycles(pt, cfg, x, state, 1)[0].y

    for build in (one_apply, one_cycle):
        (value, got), (want_value, want) = grads(build, True), grads(build, tol is not None)
        if tol is not None:
            (value64, got64), (want_value64, want64) = (grads(build, fused, np.float64)
                                                       for fused in (True, False))
            assert rel_err(value64, want_value64) <= tol
            assert got64.keys() == want64.keys() and got64[probe].dtype == np.float64
            for name, g in got64.items():
                w = want64[name]
                assert (g is None) == (w is None), name
                assert g is None or rel_err(g, w) <= tol, (build.__name__, name)
        assert value.tobytes() == want_value.tobytes()
        assert got.keys() == want.keys()
        assert got[probe] is not None and got[probe].dtype == np.float32
        for name, g in got.items():
            w = want[name]
            assert (g is None) == (w is None), name
            assert g is None or g.tobytes() == w.tobytes(), (build.__name__, name)


def test_mlp_recompute_gradients_match_stored_graph_bitwise(monkeypatch):
    def stored(h, w1, w2, gain):
        return ad.rms_norm(ad.add(h, ad.matmul(ad.silu(ad.matmul(h, w1)), w2)), gain)

    _fused_gradients_match_stored_graph(monkeypatch, "mlp", stored, "phi/l1/mlp/w1")


def test_attention_node_gradients_match_stored_graph_bitwise(monkeypatch):
    def stored(h, wqkv, wo, gain, num_heads):
        return ad.rms_norm(ref_sublayer(h, wqkv, wo, num_heads), gain)

    _fused_gradients_match_stored_graph(monkeypatch, "attention", stored, "phi/l1/attn/wqkv",
                                        tol=1e-12)


def test_answer_step_single_z_identity():
    cfg, pt, x, state = cycle_setup(single_z=True)
    y0 = state.y
    out, apps = md.run_cycles(pt, cfg, x, state, 1)
    assert out.y is y0
    assert apps == cfg.inner_steps


def test_cycle_is_n_latent_steps_then_one_answer_step():
    cfg, pt, x, state = cycle_setup()
    y, z = state.y, state.z
    out, _ = md.run_cycles(pt, cfg, x, md.LatentState(y, z), 1)
    for i in range(cfg.inner_steps):
        z = md.phi_apply(pt, cfg, ad.add(ad.add(x, y), z), i)
    y = md.phi_apply(pt, cfg, ad.add(y, z), cfg.inner_steps)
    assert out.z.value.tobytes() == z.value.tobytes()
    assert out.y.value.tobytes() == y.value.tobytes()


def test_single_z_window_ignores_y_pathway():
    cfg, params = tiny_setup(single_z=True, dtype=np.float64)
    tokens, rows = batch_inputs(cfg, batch=1)

    def build(leaves):
        pt = dict(leaves)
        x = md.embed_input(pt, cfg, tokens, rows)
        state = md.init_state(pt, cfg, [rng_for(3, "st")])
        _, logits, q = md.run_window(pt, cfg, x, state, warm_cycles=0, grad_cycles=1)
        return ad.add(mean_all(logits), mean_all(q))

    grads = gradient(build, dict(params), ["state/y0", "state/z0"])
    assert np.all(grads["state/y0"] == 0.0)
    assert np.any(grads["state/z0"] != 0.0)


def test_window_shapes_and_t1_boundary():
    cfg, params = tiny_setup(cycles_per_window=1)
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg, batch=3)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(1, "st", i) for i in range(3)])
    _, logits, q = md.run_window(pt, cfg, x, md.LatentState(state.y, state.z),
                                 cfg.cycles_per_window - 1, 1)
    assert logits.shape == (3, cfg.seq_len, cfg.vocab_size)
    assert q.shape == (3,)
    # T=1 means zero warm-up cycles: bitwise equal to an explicit (0, 1) window
    out2, logits2, q2 = md.run_window(pt, cfg, x, state, 0, 1)
    assert logits.value.tobytes() == logits2.value.tobytes()
    assert q.value.tobytes() == q2.value.tobytes()


def test_window_without_gradient_gives_zero_grads():
    cfg, _ = tiny_setup()
    tokens, rows = batch_inputs(cfg, batch=1)
    base = live_heads(md.Parameters.init(cfg, rng_for(5, "init"),
                                         dtype=np.float64), 5)

    def build(leaves):
        pt = dict(leaves)
        x = md.embed_input(pt, cfg, tokens, rows)
        state = md.init_state(pt, cfg, [rng_for(5, "st")])
        with ad.no_grad():
            _, logits, _ = md.run_window(pt, cfg, x, state, cfg.cycles_per_window - 1, 1)
        return mean_all(logits)

    grads = gradient(build, dict(base), ["phi/l0/attn/wqkv", "phi/l0/mlp/w2"])
    assert np.all(grads["phi/l0/attn/wqkv"] == 0.0)
    assert np.all(grads["phi/l0/mlp/w2"] == 0.0)


def test_warmup_cycles_carry_zero_gradient():
    # perturbing weights changes warm-up outputs, but backward through the
    # window assigns adjoints only along the gradient-bearing cycle
    cfg, params = tiny_setup(cycles_per_window=3, dtype=np.float64)
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg, batch=1)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(2, "st")])
    out, logits, q = md.run_window(pt, cfg, x, state, cfg.cycles_per_window - 1, 1)
    ad.backward(mean_all(logits))
    # warm-up products enter the gradient cycle as plain leaves
    nodes = ad.graph_nodes(logits)
    no_grad_leaves = [n for n in nodes if n.parents == () and not n.requires_grad
                      and n.op in ("mlp", "add")]
    assert no_grad_leaves, "expected warm-up outputs to enter the graph as leaves"
    for n in no_grad_leaves:
        assert n.adjoint is None


def test_decoding_is_position_local():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    rng = rng_for(4, "dec")
    y = rng.normal(size=(1, cfg.seq_len + 1, cfg.hidden_size)).astype(np.float32)
    state = md.LatentState(ad.tensor(y), ad.tensor(np.zeros_like(y)))
    logits, _ = md.decode_state(pt, cfg, state)
    bumped = y.copy()
    bumped[0, 3] += 1.0  # position 3 of the carrier = template cell 2
    logits2, _ = md.decode_state(pt, cfg, md.LatentState(ad.tensor(bumped),
                                                         ad.tensor(np.zeros_like(y))))
    changed = np.any(logits.value != logits2.value, axis=-1)
    assert changed.sum() == 1 and changed[0, 2]


def test_q_readout_is_batch_invariant():
    # at d=128 a (B, d) @ (d, 1) product sums in a different order than
    # one item's dot product; each item's q must not depend on its batch
    cfg, params = tiny_setup(hidden_size=128, num_heads=4)
    params["q/b"][:] = 0.0  # the -5 start bias would round the last bit away
    pt = md.wrap_parameters(params)
    rng = rng_for(6, "q")
    y = rng.standard_normal((8, cfg.seq_len + 1, 128)).astype(np.float32)
    with ad.no_grad():
        _, q = md.decode_state(pt, cfg, md.LatentState(ad.tensor(y), ad.tensor(y)))
        for i in range(8):
            one = ad.tensor(y[i:i + 1])
            _, qi = md.decode_state(pt, cfg, md.LatentState(one, one))
            assert qi.value.tobytes() == q.value[i:i + 1].tobytes(), i


def test_untied_depth_uses_distinct_sets():
    cfg, params = tiny_setup(untied_depth=6, cycles_per_window=2)
    assert "phi0/l0/attn/wqkv" in params
    assert "phi5/l0/attn/wqkv" in params
    assert "phi/l0/attn/wqkv" not in params
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg, batch=1)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(0, "st")])
    out, logits, q = md.run_window(pt, cfg, x, md.LatentState(state.y, state.z), 1, 1)
    assert logits.shape == (1, cfg.seq_len, cfg.vocab_size)
    with pytest.raises(md.ModelError, match="exceeds untied depth"):
        md.run_window(pt, cfg, x, state, 1, 3)  # would need 9 sets


def test_window_count_validation():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg, batch=1)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(0, "st")])
    with pytest.raises(md.ModelError):
        md.run_window(pt, cfg, x, state, 1, 0)


# ---------------------------------------------------------------------------
# finite differences through a full window


def test_window_loss_matches_finite_differences():
    # The window's gradient is defined with warm-up truncation, so the
    # finite-difference reference must differentiate the same function:
    # warm-up outputs frozen at their base-parameter values.
    cfg, _ = tiny_setup(seq_len=4, inner_steps=2, cycles_per_window=2, hidden_size=8)
    base = live_heads(md.Parameters.init(cfg, rng_for(7, "init"),
                                         dtype=np.float64), 7)
    tokens = rng_for(7, "tk").integers(0, 10, size=(1, 4))
    rows = np.zeros(1, dtype=np.int64)
    targets = rng_for(7, "tg").integers(0, 10, size=(1, 4))

    def loss_from(pt, state, warm_cycles):
        x = md.embed_input(pt, cfg, tokens, rows)
        _, logits, q = md.run_window(pt, cfg, x, state, warm_cycles, 1)
        ce = ad.masked_mean(ad.softmax_cross_entropy(logits, targets),
                            np.ones((1, 4), dtype=bool))
        return ad.add(ce, mean_all(ad.sigmoid_bce(q, np.ones(1))))

    def build_full(leaves):
        pt = dict(leaves)
        return loss_from(pt, md.init_state(pt, cfg, [rng_for(7, "st")]),
                         warm_cycles=cfg.cycles_per_window - 1)

    # freeze the warm-up at the base parameters
    base_pt = {k: ad.tensor(v, op=k) for k, v in base.items()}
    with ad.no_grad():
        x0 = md.embed_input(base_pt, cfg, tokens, rows)
        st0 = md.init_state(base_pt, cfg, [rng_for(7, "st")])
        warm, _ = md.run_cycles(base_pt, cfg, x0, st0, cfg.cycles_per_window - 1)
    warm_y, warm_z = warm.y.value, warm.z.value

    def build_frozen(leaves):
        pt = dict(leaves)
        state = md.LatentState(ad.tensor(warm_y), ad.tensor(warm_z))
        return loss_from(pt, state, warm_cycles=0)

    wrt = ["phi/l0/attn/wqkv", "phi/l0/mlp/w1", "embed/task", "decode/w", "q/w"]
    grads = gradient(build_full, dict(base), wrt)
    frozen = check_gradients(build_frozen, dict(base), wrt)
    for name in wrt:
        # truncation makes these the same function of the parameters
        assert np.array_equal(grads[name], frozen[name]), name


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg, params = tiny_setup(seed=9)
    ema = params.copy()
    ema["q/b"] = ema["q/b"] + 1.0
    meta = {"step": 123, "seed": 7}
    p = tmp_path / "model.ltrm"
    md.save_checkpoint(p, cfg, params, ema, meta)
    cfg2, params2, ema2, meta2 = md.load_checkpoint(p)
    assert cfg2 == cfg
    assert meta2 == meta
    assert params2.names() == params.names()
    for name in params.names():
        assert params2[name].tobytes() == params[name].tobytes(), name
    assert ema2 is not None
    assert ema2["q/b"].tobytes() == ema["q/b"].tobytes()


def test_checkpoint_magic_and_layout(tmp_path):
    cfg, params = tiny_setup()
    p = tmp_path / "m.ltrm"
    md.save_checkpoint(p, cfg, params, None, {})
    raw = p.read_bytes()
    assert raw[:4] == b"LTRM"
    assert int.from_bytes(raw[4:8], "little") == 1


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk.ltrm"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(md.CheckpointError, match="magic"):
        md.load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    cfg, params = tiny_setup()
    p = tmp_path / "m.ltrm"
    md.save_checkpoint(p, cfg, params, None, {})
    raw = p.read_bytes()
    (tmp_path / "cut.ltrm").write_bytes(raw + b"\x00\x00")
    with pytest.raises(md.CheckpointError, match="trailing"):
        md.load_checkpoint(tmp_path / "cut.ltrm")


def _checkpoint_bytes(header) -> bytes:
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    return b"LTRM" + struct.pack("<II", 1, len(blob)) + blob


def _header(**config):
    return {"config": {**asdict(tiny_cfg()), **config}, "metadata": {},
            "arrays": [{"name": "q/b", "shape": [1]}]}


def _full_checkpoint(shapes=None, ema_value=None, metadata=None, config=None,
                     repeat=()) -> bytes:
    """Every array the tiny config builds, zero-filled, with `shapes`
    overriding some shapes, adding arrays or, for None, dropping them,
    given `ema_value`, an ema copy filled with it,
    `metadata` in the header (default {}), `config` overriding some of
    the header's config values and the arrays named in `repeat` listed a
    second time at the end."""
    cfg = tiny_cfg()
    named = {n: np.zeros(s) for n, s in {**md.parameter_shapes(cfg),
                                         **(shapes or {})}.items() if s is not None}
    if ema_value is not None:
        named.update({f"ema/{n}": np.full(a.shape, ema_value)
                      for n, a in list(named.items())})
    order = sorted(named) + list(repeat)
    header = {"config": {**asdict(cfg), **(config or {})},
              "metadata": {} if metadata is None else metadata,
              "arrays": [{"name": n, "shape": list(named[n].shape)} for n in order]}
    return _checkpoint_bytes(header) + b"".join(named[n].astype("<f4").tobytes()
                                                for n in order)


def test_checkpoint_with_every_array_loads(tmp_path):
    # the control for the wrong_shape and nan_value inputs below
    p = tmp_path / "full.ltrm"
    p.write_bytes(_full_checkpoint(ema_value=1.0))
    cfg, params, ema, _ = md.load_checkpoint(p)
    assert params.names() == sorted(md.parameter_shapes(cfg))
    assert ema is not None and np.all(ema["q/b"] == 1.0)


@pytest.mark.parametrize("raw", [
    b"LTRM\x01\x00",
    _checkpoint_bytes(b"{not json"),
    _checkpoint_bytes(b"\xff\xfe"),
    _checkpoint_bytes([1, 2, 3]),
    _checkpoint_bytes({"config": asdict(tiny_cfg())}),
    _checkpoint_bytes({"arrays": []}),
    _checkpoint_bytes(_header(bogus=1)),
    _checkpoint_bytes(_header(hidden_size=7)),
    _checkpoint_bytes(_header()) + b"\x00\x00",
    _checkpoint_bytes(_header()) + struct.pack("<f", -5.0),
    _full_checkpoint(shapes={"q/w": (16, 2)}),
    _full_checkpoint(ema_value=np.nan),
    _full_checkpoint(metadata=["drm"]),
    _checkpoint_bytes(_header(num_heads=0)),
    _checkpoint_bytes(_header(num_layers=1e9)) + struct.pack("<f", -5.0),
    _checkpoint_bytes(_header(num_layers=10 ** 9)) + struct.pack("<f", -5.0),
    _full_checkpoint(config={"hidden_size": 16.0}),
    _full_checkpoint(config={"single_z": 0}),
    _checkpoint_bytes(b"[" * 100_000),
    _checkpoint_bytes({**_header(), "arrays": [{"name": "q/b", "shape": [2 ** 64]}]}),
    _full_checkpoint(repeat=["q/b"]),
    _full_checkpoint(shapes={"phi/l0/attn/wqkv": None, "phi/l0/attn/wq": (16, 16),
                             "phi/l0/attn/wk": (16, 16), "phi/l0/attn/wv": (16, 16)}),
], ids=["short", "bad_json", "bad_utf8", "header_not_dict", "no_arrays",
        "no_config", "unknown_key", "invalid_config", "truncated_array",
        "only_q_bias", "wrong_shape", "nan_value", "metadata_list", "zero_heads",
        "float_layers", "more_layers_than_arrays", "float_hidden_size", "int_single_z",
        "too_deep", "dim_beyond_int64", "repeated_name", "split_attention_weights"])
def test_checkpoint_malformed_bytes_raise_checkpoint_error(tmp_path, raw):
    p = tmp_path / "bad.ltrm"
    p.write_bytes(raw)
    with pytest.raises(md.CheckpointError):
        md.load_checkpoint(p)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(asdict(tiny_cfg()))), JSON_SCALARS,
                       max_size=4))
def test_checkpoint_config_values_load_or_raise_checkpoint_error(tmp_path_factory, config):
    # any JSON scalar in a header's config either loads, as a config whose
    # arrays the file holds, or raises CheckpointError; nothing else escapes
    p = tmp_path_factory.mktemp("ck") / "m.ltrm"
    p.write_bytes(_full_checkpoint(config=config))
    try:
        cfg, params, _, _ = md.load_checkpoint(p)
    except md.CheckpointError:
        return
    assert params.names() == sorted(md.parameter_shapes(cfg))


# a valid checkpoint of the tiny config with an EMA, and where its JSON
# header ends and its arrays begin
VALID_CHECKPOINT = _full_checkpoint(ema_value=1.0)
ARRAYS_AT = 12 + struct.unpack_from("<I", VALID_CHECKPOINT, 8)[0]

JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


@st.composite
def mutated_checkpoints(draw) -> bytes:
    """VALID_CHECKPOINT truncated, with 1-4 bytes overwritten, with its
    header replaced by any JSON value, or with one config value or one
    array's name or shape replaced; an edited header is re-packed with
    its new length."""
    raw = VALID_CHECKPOINT
    kind = draw(st.sampled_from(["truncate", "overwrite", "header", "field"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "overwrite":
        out = bytearray(raw)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    header = json.loads(raw[12:ARRAYS_AT])
    if kind == "header":
        header = draw(JSON_VALUES)
    elif draw(st.booleans()):
        config = header["config"]
        config[draw(st.sampled_from(sorted(config)))] = draw(JSON_VALUES)
    else:
        names = [spec["name"] for spec in header["arrays"]]
        spec = draw(st.sampled_from(header["arrays"]))
        spec[draw(st.sampled_from(["name", "shape"]))] = draw(
            JSON_VALUES | st.sampled_from(names) | st.lists(st.integers(-1, 40), max_size=3))
    return _checkpoint_bytes(header) + raw[ARRAYS_AT:]


@settings(max_examples=300, deadline=None)
@given(mutated_checkpoints())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(tmp_path_factory, raw):
    # whatever the damage, a checkpoint loads, as a config whose arrays it
    # holds, or raises CheckpointError; nothing else escapes
    p = tmp_path_factory.mktemp("ck") / "m.ltrm"
    p.write_bytes(raw)
    try:
        cfg, params, ema, _ = md.load_checkpoint(p)
    except md.CheckpointError:
        return
    assert params.names() == sorted(md.parameter_shapes(cfg))
    assert ema is None or ema.names() == params.names()
