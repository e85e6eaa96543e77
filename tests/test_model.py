"""Transition network, embeddings, recursion windows, checkpoints."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest

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


def test_parameter_count_near_seven_million():
    cfg = md.ModelConfig(hidden_size=512, num_heads=8, num_layers=2, expansion=4,
                         seq_len=900, num_tasks=1000)
    params = md.Parameters.init(cfg, rng_for(0, "big"))
    count = params.count()
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
    pt = md.wrap_parameters(params, requires_grad=False)
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
    pt = md.wrap_parameters(params, requires_grad=False)
    tokens = np.full((1, cfg.seq_len), 11, dtype=np.int64)
    with pytest.raises(md.ModelError):
        md.embed_input(pt, cfg, tokens, np.zeros(1, dtype=np.int64))


def test_embed_input_unknown_task():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params, requires_grad=False)
    tokens = np.zeros((1, cfg.seq_len), dtype=np.int64)
    with pytest.raises(ad.ContractError):
        md.embed_input(pt, cfg, tokens, np.array([99]))


def test_embed_label_mask_rows():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params, requires_grad=False)
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
    pt = md.wrap_parameters(params, requires_grad=False)
    tokens = np.zeros((1, cfg.seq_len), dtype=np.int64)
    lab = md.embed_label(pt, cfg, tokens).value
    inp = md.embed_input(pt, cfg, tokens, np.zeros(1, dtype=np.int64)).value[:, 1:]
    assert not np.array_equal(lab, inp)


def batch_inputs(cfg, batch=2, seed=1):
    rng = rng_for(seed, "bi")
    tokens = rng.integers(0, 10, size=(batch, cfg.seq_len))
    rows = rng.integers(0, cfg.num_tasks, size=batch)
    return tokens, rows


def test_latent_step_deterministic_and_tied():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(0, "st", i) for i in range(2)])
    s1 = md.latent_step(pt, cfg, x, state)
    s2 = md.latent_step(pt, cfg, x, state)
    assert s1.z.value.tobytes() == s2.z.value.tobytes()
    assert s1.y is state.y
    # both steps read the very same weight tensors (tying is structural)
    chain = md.latent_step(pt, cfg, x, s1)
    nodes = ad.graph_nodes(chain.z)
    leaves = [n for n in nodes if n.op == "phi/l0/attn/wq"]
    assert len(leaves) == 1  # one shared leaf, not per-step copies


def test_gradients_reach_all_step_inputs():
    cfg, params = tiny_setup(dtype=np.float64)
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(0, "st", i) for i in range(2)])
    out = md.latent_step(pt, cfg, x, state)
    loss = ad.mean_all(ad.multiply(out.z, out.z))
    ad.backward(loss)
    for name in ("phi/l0/attn/wq", "phi/l0/mlp/w1", "embed/input", "embed/task",
                 "state/y0", "state/z0"):
        adj = pt[name].adjoint
        assert adj is not None and np.any(adj != 0), name


def test_answer_step_single_z_identity():
    cfg, params = tiny_setup(single_z=True)
    pt = md.wrap_parameters(params)
    state = md.init_state(pt, cfg, [rng_for(0, "st")])
    out = md.answer_step(pt, cfg, state)
    assert out is state


def test_single_z_window_ignores_y_pathway():
    cfg, params = tiny_setup(single_z=True, dtype=np.float64)
    tokens, rows = batch_inputs(cfg, batch=1)

    def build(leaves):
        pt = dict(leaves)
        x = md.embed_input(pt, cfg, tokens, rows)
        state = md.init_state(pt, cfg, [rng_for(3, "st")])
        _, logits, q = md.run_window(pt, cfg, x, state, warm_cycles=0, grad_cycles=1)
        return ad.add(ad.mean_all(logits), ad.mean_all(q))

    grads = ad.gradient(build, dict(params.arrays), ["state/y0", "state/z0"])
    assert np.all(grads["state/y0"] == 0.0)
    assert np.any(grads["state/z0"] != 0.0)


def test_window_shapes_and_t1_boundary():
    cfg, params = tiny_setup(cycles_per_window=1)
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg, batch=3)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(1, "st", i) for i in range(3)])
    _, logits, q = md.run_window(pt, cfg, x, state, cfg.cycles_per_window - 1, 1)
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
        _, logits, _ = md.run_window(pt, cfg, x, state, cfg.cycles_per_window - 1, 1,
                                      with_gradient=False)
        return ad.mean_all(logits)

    grads = ad.gradient(build, dict(base.arrays), ["phi/l0/attn/wq", "phi/l0/mlp/w2"])
    assert np.all(grads["phi/l0/attn/wq"] == 0.0)
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
    ad.backward(ad.mean_all(logits))
    # warm-up products enter the gradient cycle as plain leaves
    nodes = ad.graph_nodes(logits)
    no_grad_leaves = [n for n in nodes if n.parents == () and not n.requires_grad
                      and n.op in ("rms_norm", "add")]
    assert no_grad_leaves, "expected warm-up outputs to enter the graph as leaves"
    for n in no_grad_leaves:
        assert n.adjoint is None


def test_decoding_is_position_local():
    cfg, params = tiny_setup()
    pt = md.wrap_parameters(params, requires_grad=False)
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
    pt = md.wrap_parameters(params, requires_grad=False)
    rng = rng_for(6, "q")
    y = rng.standard_normal((8, cfg.seq_len + 1, 128)).astype(np.float32)
    with ad.no_grad():
        _, q = md.decode_state(pt, cfg, md.LatentState(ad.constant(y), ad.constant(y)))
        for i in range(8):
            one = ad.constant(y[i:i + 1])
            _, qi = md.decode_state(pt, cfg, md.LatentState(one, one))
            assert qi.value.tobytes() == q.value[i:i + 1].tobytes(), i


def test_untied_depth_uses_distinct_sets():
    cfg, params = tiny_setup(untied_depth=6, cycles_per_window=2)
    assert "phi0/l0/attn/wq" in params.arrays
    assert "phi5/l0/attn/wq" in params.arrays
    assert "phi/l0/attn/wq" not in params.arrays
    pt = md.wrap_parameters(params)
    tokens, rows = batch_inputs(cfg, batch=1)
    x = md.embed_input(pt, cfg, tokens, rows)
    state = md.init_state(pt, cfg, [rng_for(0, "st")])
    out, logits, q = md.run_window(pt, cfg, x, state, 1, 1)
    assert logits.shape == (1, cfg.seq_len, cfg.vocab_size)
    with pytest.raises(md.ModelError):
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
        return ad.add(ce, ad.mean_all(ad.sigmoid_bce(q, np.ones(1))))

    def build_full(leaves):
        pt = dict(leaves)
        return loss_from(pt, md.init_state(pt, cfg, [rng_for(7, "st")]),
                         warm_cycles=cfg.cycles_per_window - 1)

    # freeze the warm-up at the base parameters
    base_pt = {k: ad.tensor(v, op=k) for k, v in base.arrays.items()}
    with ad.no_grad():
        x0 = md.embed_input(base_pt, cfg, tokens, rows)
        st0 = md.init_state(base_pt, cfg, [rng_for(7, "st")])
        warm, _ = md.run_cycles(base_pt, cfg, x0, st0, cfg.cycles_per_window - 1)
    warm_y, warm_z = warm.y.value, warm.z.value

    def build_frozen(leaves):
        pt = dict(leaves)
        state = md.LatentState(ad.constant(warm_y), ad.constant(warm_z))
        return loss_from(pt, state, warm_cycles=0)

    wrt = ["phi/l0/attn/wq", "phi/l0/mlp/w1", "embed/task", "decode/w", "q/w"]
    grads = ad.gradient(build_full, dict(base.arrays), wrt)
    frozen = ad.gradient(build_frozen, dict(base.arrays), wrt)
    for name in wrt:
        # truncation makes these the same function of the parameters
        assert np.array_equal(grads[name], frozen[name]), name

        def f(arr, name=name):
            b = dict(base.arrays)
            b[name] = arr
            return float(ad.evaluate(build_frozen, b))

        want = ad.finite_difference_gradient(f, base.arrays[name])
        denom = max(np.abs(grads[name]).max(), np.abs(want).max(), 1e-12)
        err = np.abs(grads[name] - want).max() / denom
        assert err <= 1e-6, f"{name}: {err:.2e}"


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
    return {"config": {**tiny_cfg().to_dict(), **config}, "metadata": {},
            "arrays": [{"name": "q/b", "shape": [1]}]}


def _full_checkpoint(shapes=None, ema_value=None) -> bytes:
    """Every array the tiny config builds, zero-filled, with `shapes`
    overriding some shapes and, given `ema_value`, an ema copy filled
    with it."""
    cfg = tiny_cfg()
    named = {n: np.zeros(s) for n, s in {**md.parameter_shapes(cfg),
                                         **(shapes or {})}.items()}
    if ema_value is not None:
        named.update({f"ema/{n}": np.full(a.shape, ema_value)
                      for n, a in list(named.items())})
    order = sorted(named)
    header = {"config": cfg.to_dict(), "metadata": {},
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
    _checkpoint_bytes({"config": tiny_cfg().to_dict()}),
    _checkpoint_bytes({"arrays": []}),
    _checkpoint_bytes(_header(bogus=1)),
    _checkpoint_bytes(_header(hidden_size=7)),
    _checkpoint_bytes(_header()) + b"\x00\x00",
    _checkpoint_bytes(_header()) + struct.pack("<f", -5.0),
    _full_checkpoint(shapes={"q/w": (16, 2)}),
    _full_checkpoint(ema_value=np.nan),
], ids=["short", "bad_json", "bad_utf8", "header_not_dict", "no_arrays",
        "no_config", "unknown_key", "invalid_config", "truncated_array",
        "only_q_bias", "wrong_shape", "nan_value"])
def test_checkpoint_malformed_bytes_raise_checkpoint_error(tmp_path, raw):
    p = tmp_path / "bad.ltrm"
    p.write_bytes(raw)
    with pytest.raises(md.CheckpointError):
        md.load_checkpoint(p)
