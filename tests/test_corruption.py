"""Schedule exactness, corruption counting, and latent perturbation checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from loopforge import corruption as cor
from loopforge.seeding import rng_for
from loopforge.tasks import MASK, PAD

ALL_KINDS = [cor.NoiseSchedule(k) for k in cor.NOISE_KINDS]


def ref_sigmoid(x: float) -> float:
    # independent implementation for cross-checking (exp form, not tanh)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def test_endpoints_exact_all_kinds():
    for sched in ALL_KINDS:
        assert cor.mask_fraction(sched, 0.0) == 0.0
        assert cor.mask_fraction(sched, 1.0) == 1.0


def test_cosine_midpoint():
    assert abs(cor.mask_fraction(cor.NoiseSchedule("cosine"), 0.5) - 0.5) < 1e-12


def test_frozen_interior_values():
    # expected values computed from the closed forms independently
    assert abs(cor.mask_fraction(cor.NoiseSchedule("cosine"), 0.25)
               - (1.0 - math.cos(math.pi / 4)) / 2.0) < 1e-12
    assert cor.mask_fraction(cor.NoiseSchedule("linear"), 0.3) == 0.3
    a = 10.0
    lo, hi = ref_sigmoid(-a / 2), ref_sigmoid(a / 2)
    want = (ref_sigmoid(a * (0.25 - 0.5)) - lo) / (hi - lo)
    assert abs(cor.mask_fraction(cor.NoiseSchedule("sigmoid"), 0.25) - want) < 1e-12


def test_strictly_increasing_on_grid():
    taus = np.linspace(0.0, 1.0, 1001)
    for sched in ALL_KINDS:
        vals = np.array([cor.mask_fraction(sched, t) for t in taus])
        assert np.all(np.diff(vals) > 0), f"{sched.kind} not strictly increasing"


def test_tau_outside_domain():
    with pytest.raises(cor.CorruptionError):
        cor.mask_fraction(cor.NoiseSchedule("cosine"), -0.01)
    with pytest.raises(cor.CorruptionError):
        cor.mask_fraction(cor.NoiseSchedule("cosine"), 1.01)


def test_unknown_kind():
    with pytest.raises(cor.CorruptionError):
        cor.NoiseSchedule("quadratic")


def _random_target(rng, m=64):
    mask = rng.uniform(size=m) > 0.3
    if not mask.any():
        mask[0] = True
    tokens = np.where(mask, rng.integers(0, 10, size=m), PAD).astype(np.int64)
    return tokens, mask


def test_mask_count_exact_over_seeds():
    sched = cor.NoiseSchedule("cosine")
    for seed in range(1000):
        rng = rng_for(seed, "count")
        tokens, mask = _random_target(rng)
        tau = float(rng.uniform())
        out = cor.corrupt_target(tokens, mask, tau, sched, rng)
        valid = int(mask.sum())
        want = math.floor(cor.mask_fraction(sched, tau) * valid)
        assert int((out == MASK).sum()) == want
        # masking confined to valid cells of a copy; everything else untouched
        changed = out != tokens
        assert np.all(mask[changed])
        assert np.all(out[changed] == MASK)
        assert not np.shares_memory(out, tokens)


def test_corrupt_tau_zero_is_identity():
    rng = rng_for(7, "zero")
    tokens, mask = _random_target(rng)
    out = cor.corrupt_target(tokens, mask, 0.0, cor.NoiseSchedule("cosine"), rng)
    assert out.tobytes() == tokens.tobytes()


def test_corrupt_tau_one_masks_everything_valid():
    rng = rng_for(8, "one")
    tokens, mask = _random_target(rng)
    out = cor.corrupt_target(tokens, mask, 1.0, cor.NoiseSchedule("linear"), rng)
    assert np.all(out[mask] == MASK)
    assert np.all(out[~mask] == PAD)


def test_sample_timesteps_contract():
    for seed in range(1000):
        rng = rng_for(seed, "times")
        n = 1 + seed % 20
        times = cor.sample_timesteps(n, rng)
        assert times[-1] == 0.0
        assert np.all(np.diff(times) < 0)
        assert times[0] < 1.0
        assert len(times) <= n + 1


def test_sample_timesteps_rejects_zero_steps():
    with pytest.raises(cor.CorruptionError):
        cor.sample_timesteps(0, rng_for(0, "x"))


# ---------------------------------------------------------------------------
# beta schedule and latent perturbation


def test_beta_endpoints():
    sched = cor.BetaSchedule(1e-4, 0.02, 10)
    assert sched.beta(1) == 1e-4
    assert sched.beta(10) == 0.02
    mid = sched.beta(5)
    assert 1e-4 < mid < 0.02
    # linear interpolation halfway
    sched5 = cor.BetaSchedule(0.0, 1e-2, 5)
    assert abs(sched5.beta(3) - 0.005) < 1e-15


def test_beta_validation():
    with pytest.raises(cor.CorruptionError):
        cor.BetaSchedule(0.5, 0.2, 10)
    with pytest.raises(cor.CorruptionError):
        cor.BetaSchedule(-0.1, 0.2, 10)
    with pytest.raises(cor.CorruptionError):
        cor.BetaSchedule(1e-4, 1.0, 10)
    with pytest.raises(cor.CorruptionError):
        cor.BetaSchedule(1e-4, 0.02, 10).beta(0)
    with pytest.raises(cor.CorruptionError):
        cor.BetaSchedule(1e-4, 0.02, 10).beta(11)


def test_perturb_beta_zero_bit_identity():
    rng = rng_for(1, "p")
    H = rng.normal(size=(5, 8)).astype(np.float32)
    out = cor.perturb_latent(H, 3, cor.BetaSchedule(0.0, 0.0, 10), rng)
    assert out is H


def test_perturb_zeros_stay_zero():
    rng = rng_for(2, "p")
    H = np.zeros((6, 4), dtype=np.float32)
    out = cor.perturb_latent(H, 1, cor.BetaSchedule(0.02, 0.02, 1), rng)
    assert np.array_equal(out, H)


def test_perturb_mean_monte_carlo():
    # E[out] = sqrt(1-b)*mu + sqrt(b)*E[eps], and eps is centred on mu(H)
    rng = rng_for(3, "mc")
    H = rng.normal(loc=2.0, scale=0.5, size=(8, 8))
    b = 0.02
    sched = cor.BetaSchedule(b, b, 1)
    draws = np.array([cor.perturb_latent(H, 1, sched, rng).mean() for _ in range(10_000)])
    expected = (math.sqrt(1 - b) + math.sqrt(b)) * H.mean()
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - expected) <= 3 * se + 1e-12


def test_perturb_variance_preserving_scale():
    # with H ~ N(0,1) entries, output variance stays near 1
    rng = rng_for(4, "vp")
    H = rng.normal(size=(64, 64))
    out = cor.perturb_latent(H, 1, cor.BetaSchedule(0.02, 0.02, 1), rng)
    assert 0.9 < out.std() < 1.1


def test_perturb_preserves_dtype():
    rng = rng_for(5, "dt")
    H = rng.normal(size=(4, 4)).astype(np.float32)
    out = cor.perturb_latent(H, 2, cor.BetaSchedule(1e-4, 0.02, 4), rng)
    assert out.dtype == np.float32
