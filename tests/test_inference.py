"""Generation, voting, scoring, and the permutation test."""

import numpy as np
import pytest

from loopforge import autodiff as ad
from loopforge import inference as inf
from loopforge import model as md
from loopforge.corruption import NoiseSchedule, sample_timesteps
from loopforge.seeding import rng_for
from loopforge.tasks import (MASK, PAD, Augmentation, Task, apply_augmentation,
                             build_dataset, generate_synthetic)
from loopforge.training import TrainConfig, run_training

IDENT = Augmentation(tuple(range(10)), 0, (0, 0))


def grid(rows):
    return np.asarray(rows, dtype=np.int8)


def tiny_setup(family="recolor_map", num_tasks=2, seed=5):
    tasks = generate_synthetic(family, 3, num_tasks, seed=seed)
    ds = build_dataset(tasks, 2, 4, 4, seed=seed)
    cfg = md.ModelConfig(hidden_size=16, num_heads=2, num_layers=1,
                         seq_len=ds.seq_len, inner_steps=2, cycles_per_window=2,
                         max_halt_steps=3, num_tasks=ds.num_rows)
    params = md.Parameters.init(cfg, rng_for(seed, "init"))
    rng = rng_for(seed, "heads")  # heads init at zero; these tests want
    for name in ("decode/w", "q/w"):  # arbitrary non-degenerate outputs
        arr = params[name]
        params[name] = (rng.normal(size=arr.shape)
                        / np.sqrt(arr.shape[0])).astype(arr.dtype)
    return ds, cfg, params


@pytest.fixture(scope="module")
def copy_setup():
    # the test pair is pinned to a training pair: these fixtures probe the
    # generation machinery against a memorised function, not generalisation
    tasks = [Task(t.task_id, t.train_pairs, [t.train_pairs[0]])
             for t in generate_synthetic("copy", 3, 4, seed=11)]
    ds = build_dataset(tasks, 1, 3, 3, seed=11)
    cfg = md.ModelConfig(hidden_size=32, num_heads=2, num_layers=1,
                         seq_len=ds.seq_len, inner_steps=2, cycles_per_window=2,
                         max_halt_steps=4, num_tasks=ds.num_rows)
    return ds, cfg


@pytest.fixture(scope="module")
def drm_copy(copy_setup):
    ds, cfg = copy_setup
    tcfg = TrainConfig(objective="drm", lr=3e-3, warmup_steps=10, batch_size=12,
                       gradient_cycles=2, warmup_cycles=1, epochs=100000)
    result = run_training(ds, cfg, tcfg, seed=3, max_steps=2000)
    assert max(m.exact_match_rate for m in result.history[-50:]) == 1.0
    return result


@pytest.fixture(scope="module")
def trm_copy(copy_setup):
    ds, cfg = copy_setup
    tcfg = TrainConfig(objective="trm", lr=3e-3, warmup_steps=10, batch_size=12,
                       epochs=100000)
    result = run_training(ds, cfg, tcfg, seed=4, max_steps=1000)
    assert max(m.exact_match_rate for m in result.history[-50:]) == 1.0
    return result


# ---------------------------------------------------------------------------
# voting


class TestVote:
    def test_count_rules(self):
        a, b, c = grid([[1]]), grid([[2]]), grid([[3]])
        pool = [(a, 0.1, IDENT), (b, 0.9, IDENT), (a, 0.2, IDENT),
                (c, 0.99, IDENT), (a, 0.3, IDENT), (b, 0.8, IDENT)]
        top = inf.vote(pool)
        assert len(top) == 2
        assert np.array_equal(top[0].canonical_grid, a)
        assert top[0].vote_count == 3 and len(top[0].q_values) == 3
        assert np.array_equal(top[1].canonical_grid, b)

    def test_mean_q_breaks_count_ties(self):
        a, b = grid([[1]]), grid([[2]])
        pool = [(a, 0.4, IDENT), (a, 0.4, IDENT),
                (b, 0.9, IDENT), (b, 0.9, IDENT)]
        top = inf.vote(pool)
        assert np.array_equal(top[0].canonical_grid, b)

    def test_byte_order_breaks_full_ties(self):
        lo, hi = grid([[1, 2]]), grid([[1, 3]])
        pool = [(hi, 0.5, IDENT), (lo, 0.5, IDENT)]
        top = inf.vote(pool)
        assert np.array_equal(top[0].canonical_grid, lo)

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        grids = [grid([[i, (i * 3) % 7]]) for i in range(5)]
        pool = [(grids[rng.integers(5)], float(rng.uniform()), IDENT)
                for _ in range(40)]
        base = inf.vote(pool)
        for s in range(5):
            shuffled = [pool[i] for i in np.random.default_rng(s).permutation(40)]
            top = inf.vote(shuffled)
            for x, y in zip(base, top):
                assert np.array_equal(x.canonical_grid, y.canonical_grid)
                assert x.vote_count == y.vote_count
                assert x.mean_q == y.mean_q

    def test_empty_pool_raises(self):
        with pytest.raises(inf.InferenceError):
            inf.vote([])

    def test_single_candidate_yields_one_slot(self):
        top = inf.vote([(grid([[4]]), 0.7, IDENT)])
        assert len(top) == 1 and top[0].vote_count == 1

    def test_augmented_constant_predictor_collapses(self):
        canon = grid([[1, 2], [3, 4]])
        rng = np.random.default_rng(7)
        pool = []
        for k in range(8):
            perm = tuple(rng.permutation(10).tolist())
            aug = Augmentation(perm, k, (0, 0))
            seen, _ = apply_augmentation((canon, canon), aug)
            pool.append((seen, 0.5, aug))
        top = inf.vote(pool)
        assert len(top) == 1
        assert top[0].vote_count == 8
        assert np.array_equal(top[0].canonical_grid, canon)


# ---------------------------------------------------------------------------
# generate-and-remask


class TestRemask:
    def test_contract_random_params(self):
        ds, cfg, params = tiny_setup()
        case = ds.eval_cases[0]
        for s in range(25):
            out, q = inf.generate_remask(case.input_tokens, case.loss_mask,
                                         case.row, params, cfg, 3,
                                         rng_for(s, "contract"))
            assert not np.any(out == MASK)
            assert np.all(out[~case.loss_mask] == PAD)
            assert out[case.loss_mask].min() >= 0
            assert out[case.loss_mask].max() < 10
            assert 0.0 <= q <= 1.0

    def test_single_step_is_one_shot(self):
        ds, cfg, params = tiny_setup()
        case = ds.eval_cases[0]
        trace = []
        out, _ = inf.generate_remask(case.input_tokens, case.loss_mask,
                                     case.row, params, cfg, 1,
                                     rng_for(0, "one"), trace=trace)
        assert len(trace) == 1
        assert trace[0]["remasked"] == []
        assert np.array_equal(np.where(case.loss_mask, trace[0]["prediction"], PAD),
                              out)

    def test_trace_covers_every_step(self):
        ds, cfg, params = tiny_setup()
        case = ds.eval_cases[0]
        trace = []
        inf.generate_remask(case.input_tokens, case.loss_mask, case.row,
                            params, cfg, 5, rng_for(1, "tr"), trace=trace)
        assert len(trace) == 5
        times = [f["timestep"] for f in trace]
        assert times == sorted(times, reverse=True)
        assert trace[-1]["remasked"] == []
        for f in trace[:-1]:
            assert all(case.loss_mask[j] for j in f["remasked"])

    def test_batch_matches_single(self):
        ds, cfg, params = tiny_setup()
        cases = ds.eval_cases[:3]
        inputs = np.stack([c.input_tokens for c in cases])
        masks = np.stack([c.loss_mask for c in cases])
        rows = np.array([c.row for c in cases])
        streams = [rng_for(9, "b", i) for i in range(3)]
        out_b, q_b = inf.remask_batch(inputs, masks, rows, params, cfg, 3,
                                      NoiseSchedule(), streams)
        for i, case in enumerate(cases):
            out_s, q_s = inf.generate_remask(case.input_tokens, case.loss_mask,
                                             case.row, params, cfg, 3,
                                             rng_for(9, "b", i))
            assert np.array_equal(out_b[i], out_s)
            assert q_b[i] == q_s

    def test_first_state_is_the_training_label_state(self, monkeypatch):
        # the generator must start from the state training refines from:
        # md.label_state of the all-MASK board, sqrt(d) scale included
        ds, cfg, params = tiny_setup()
        cases = ds.eval_cases[:2]
        inputs = np.stack([c.input_tokens for c in cases])
        masks = np.stack([c.loss_mask for c in cases])
        rows = np.array([c.row for c in cases])
        seen = []
        run_cycles = md.run_cycles

        def spy(pt, cfg, x, state, cycles, app_start=0):
            seen.append((state.y.value.copy(), state.z.value.copy()))
            return run_cycles(pt, cfg, x, state, cycles, app_start)

        monkeypatch.setattr(md, "run_cycles", spy)
        inf.remask_batch(inputs, masks, rows, params, cfg, 2, NoiseSchedule(),
                         [rng_for(4, "s", i) for i in range(2)])
        streams = [rng_for(4, "s", i) for i in range(2)]
        for g in streams:  # the timestep ladder is drawn first
            sample_timesteps(2, g)
        pt = md.wrap_parameters(params, requires_grad=False)
        with ad.no_grad():
            want = md.label_state(pt, cfg, np.where(masks, MASK, PAD), streams)
        assert seen[0][0].tobytes() == want.y.value.tobytes()
        assert seen[0][1].tobytes() == want.z.value.tobytes()

    def test_copy_model_returns_input(self, copy_setup, drm_copy):
        ds, cfg = copy_setup
        case = ds.eval_cases[0]
        want = case.target_grid
        for steps in (1, 2, 4):
            out, _ = inf.generate_remask(case.input_tokens, case.loss_mask,
                                         case.row, drm_copy.ema, cfg, steps,
                                         rng_for(steps, "copy"), cycles=3)
            got = out.reshape(ds.template)[:want.shape[0], :want.shape[1]]
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# halting recursion


class TestHalting:
    def test_budget_exhausted_when_q_never_fires(self):
        ds, cfg, params = tiny_setup()
        params["q/b"][...] = -5.0
        case = ds.eval_cases[0]
        out, trace = inf.generate_halting(case.input_tokens, case.loss_mask,
                                          case.row, params, cfg, rng_for(0, "h"))
        assert len(trace) == cfg.max_halt_steps
        assert all(t < 0.5 for t in trace)
        assert np.all(out[~case.loss_mask] == PAD)
        assert out[case.loss_mask].max() < 10

    def test_immediate_halt(self):
        ds, cfg, params = tiny_setup()
        params["q/b"][...] = 5.0
        case = ds.eval_cases[0]
        _, trace = inf.generate_halting(case.input_tokens, case.loss_mask,
                                        case.row, params, cfg, rng_for(0, "h"))
        assert len(trace) == 1 and trace[0] > 0.5

    def test_prefix_determinism(self):
        ds, cfg, params = tiny_setup()
        params["q/b"][...] = -5.0
        case = ds.eval_cases[0]
        _, t1 = inf.generate_halting(case.input_tokens, case.loss_mask, case.row,
                                     params, cfg, rng_for(2, "h"), max_steps=1)
        _, t3 = inf.generate_halting(case.input_tokens, case.loss_mask, case.row,
                                     params, cfg, rng_for(2, "h"), max_steps=3)
        assert t3[0] == t1[0]
        assert len(t1) == 1 and len(t3) == 3

    def test_batch_matches_single(self):
        ds, cfg, params = tiny_setup()
        cases = ds.eval_cases[:3]
        inputs = np.stack([c.input_tokens for c in cases])
        masks = np.stack([c.loss_mask for c in cases])
        rows = np.array([c.row for c in cases])
        streams = [rng_for(9, "hb", i) for i in range(3)]
        out_b, q_b, traces = inf.halting_batch(inputs, masks, rows, params,
                                               cfg, streams)
        for i, case in enumerate(cases):
            out_s, trace_s = inf.generate_halting(case.input_tokens,
                                                  case.loss_mask, case.row,
                                                  params, cfg, rng_for(9, "hb", i))
            assert np.array_equal(out_b[i], out_s)
            assert traces[i] == trace_s
            assert q_b[i] == trace_s[-1]

    def test_zero_budget_rejected(self):
        ds, cfg, params = tiny_setup()
        case = ds.eval_cases[0]
        with pytest.raises(inf.InferenceError):
            inf.generate_halting(case.input_tokens, case.loss_mask, case.row,
                                 params, cfg, rng_for(0, "h"), max_steps=0)


@pytest.mark.parametrize("generator", ["remask", "halting"])
def test_generators_decode_float32_states(generator, monkeypatch):
    ds, cfg, params = tiny_setup()
    cases = ds.eval_cases[:2]
    inputs = np.stack([c.input_tokens for c in cases])
    masks = np.stack([c.loss_mask for c in cases])
    rows = np.array([c.row for c in cases])
    streams = [rng_for(6, "f32", i) for i in range(2)]
    seen = []
    decode = md.decode_state

    def spy(pt, cfg_, state):
        seen.append((state.y.value.dtype, state.z.value.dtype))
        return decode(pt, cfg_, state)

    monkeypatch.setattr(md, "decode_state", spy)
    if generator == "remask":
        inf.remask_batch(inputs, masks, rows, params, cfg, 2, NoiseSchedule(), streams)
    else:
        params["q/b"][...] = -5.0
        inf.halting_batch(inputs, masks, rows, params, cfg, streams, max_steps=2)
    assert len(seen) == 2
    assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}


# ---------------------------------------------------------------------------
# scoring


class TestPassAtK:
    def build_entries(self, ds, ranked_grids):
        """One task, one test input; ranked_grids as (grid, copies, q)."""
        entries = []
        for g, copies, q in ranked_grids:
            for _ in range(copies):
                entries.append(inf.PoolEntry(0, 0, g, q, IDENT))
        return entries

    def test_monotone_in_k(self):
        ds, _, _ = tiny_setup(num_tasks=1)
        truth = ds.eval_cases[0].target_grid
        wrong1 = (truth + 1) % 10
        wrong2 = (truth + 2) % 10
        entries = self.build_entries(ds, [(wrong1, 3, 0.9), (wrong2, 2, 0.8),
                                          (truth, 1, 0.7)])
        report = inf.pass_at_k(ds, entries, ks=(1, 2, 3))
        task = next(iter(report.tasks.values()))
        assert not task.pass2
        assert not task.passk[1] and not task.passk[2]
        assert task.passk[3] and task.pool
        assert report.pass2_accuracy == 0.0
        assert report.passk_accuracy[3] == 1.0
        assert report.pool_accuracy == 1.0

    def test_top2_hit_counts_for_pass2(self):
        ds, _, _ = tiny_setup(num_tasks=1)
        truth = ds.eval_cases[0].target_grid
        wrong = (truth + 1) % 10
        entries = self.build_entries(ds, [(wrong, 3, 0.9), (truth, 2, 0.5)])
        report = inf.pass_at_k(ds, entries, ks=(2,))
        assert report.pass2_accuracy == 1.0

    def test_missing_case_rejected(self):
        ds, _, _ = tiny_setup(num_tasks=2)
        truth = ds.eval_cases[0].target_grid
        entries = self.build_entries(ds, [(truth, 1, 0.5)])
        with pytest.raises(inf.InferenceError):
            inf.pass_at_k(ds, entries)

    def test_pooling_snapshots_never_hurts(self):
        ds, _, _ = tiny_setup(num_tasks=1)
        truth = ds.eval_cases[0].target_grid
        wrong = (truth + 1) % 10
        weak = self.build_entries(ds, [(wrong, 4, 0.9)])
        strong = self.build_entries(ds, [(truth, 1, 0.2)])
        before = inf.pass_at_k(ds, weak).pool_accuracy
        after = inf.pass_at_k(ds, weak + strong).pool_accuracy
        assert after >= before
        assert before == 0.0 and after == 1.0

    def test_report_json_shape(self):
        ds, _, _ = tiny_setup(num_tasks=1)
        truth = ds.eval_cases[0].target_grid
        report = inf.pass_at_k(ds, self.build_entries(ds, [(truth, 2, 0.5)]))
        doc = report.to_json()
        (task_id, body), = doc.items()
        assert task_id == ds.tasks[0].task_id
        assert body["pass2"] is True
        assert set(body["passk"]) == {"2"}
        assert body["top2"] == [truth.tolist()]


class TestEvaluate:
    def test_copy_drm_end_to_end(self, copy_setup, drm_copy):
        ds, cfg = copy_setup
        report = inf.evaluate(ds, drm_copy.ema, cfg, "drm", seed=1,
                              num_denoise_steps=4, cycles=3)
        assert report.pass2_accuracy == 1.0
        assert report.pool_accuracy == 1.0

    def test_copy_trm_end_to_end(self, copy_setup, trm_copy):
        ds, cfg = copy_setup
        report = inf.evaluate(ds, trm_copy.ema, cfg, "trm", seed=1)
        assert report.pass2_accuracy == 1.0

    def test_batch_size_does_not_change_predictions(self):
        ds, cfg, params = tiny_setup()
        a = inf.collect_predictions(ds, params, cfg, "trm", seed=6, batch_size=2)
        b = inf.collect_predictions(ds, params, cfg, "trm", seed=6, batch_size=5)
        assert len(a) == len(b) == len(ds.eval_cases)
        for x, y in zip(a, b):
            assert np.array_equal(x.grid, y.grid)
            assert x.q == y.q

    def test_same_seed_reproduces(self):
        ds, cfg, params = tiny_setup()
        a = inf.collect_predictions(ds, params, cfg, "drm", seed=2,
                                    num_denoise_steps=2)
        b = inf.collect_predictions(ds, params, cfg, "drm", seed=2,
                                    num_denoise_steps=2)
        for x, y in zip(a, b):
            assert np.array_equal(x.grid, y.grid) and x.q == y.q


# ---------------------------------------------------------------------------
# permutation test


class TestPermutation:
    def test_identical_vectors_give_p_one(self):
        v = np.array([1.0, 0, 1, 1, 0])
        assert inf.permutation_test(v, v.copy(), 500, rng_for(0, "p")) == 1.0
        assert inf.permutation_test_exhaustive(v, v.copy()) == 1.0

    def test_extreme_separation(self):
        a, b = np.ones(16), np.zeros(16)
        p = inf.permutation_test(a, b, 5000, rng_for(1, "p"))
        assert p <= 2 / 5000
        assert inf.permutation_test_exhaustive(a, b) == 2.0 ** -16

    def test_monte_carlo_tracks_exhaustive(self):
        a = np.array([1, 1, 1, 0, 1, 0, 1, 1, 0, 1], dtype=float)
        b = np.array([0, 1, 0, 0, 1, 0, 0, 1, 0, 0], dtype=float)
        exact = inf.permutation_test_exhaustive(a, b)
        mc = inf.permutation_test(a, b, 40000, rng_for(2, "p"))
        assert abs(mc - exact) < 0.01

    def test_sign_flip_symmetry(self):
        a = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=float)
        b = np.array([0, 0, 1, 0, 0, 1, 1, 0], dtype=float)
        d = a - b
        n = d.size
        patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        stats = ((1.0 - 2.0 * patterns) * d).mean(axis=1)
        tie = float(np.mean(stats == d.mean()))
        p_ab = inf.permutation_test_exhaustive(a, b)
        p_ba = inf.permutation_test_exhaustive(b, a)
        assert abs((p_ab + p_ba) - (1.0 + tie)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(inf.InferenceError):
            inf.permutation_test(np.ones(3), np.ones(4), 10, rng_for(0, "p"))
