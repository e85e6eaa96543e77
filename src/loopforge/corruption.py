"""Forward corruption: masking schedules over targets, latent perturbation.

Two unrelated noise families live here.  Discrete masking replaces target
cells with MASK at a schedule-controlled rate r(tau); it drives denoising
training and the generate-and-remask loop.  The latent perturbation is a
variance-preserving Gaussian mix applied to carried recursion states at
window boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import sigmoid
from .tasks import MASK

NOISE_KINDS = ("cosine", "linear", "sigmoid")


class CorruptionError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    kind: str = "cosine"
    sigmoid_a: float = 10.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise CorruptionError(f"unknown schedule kind {self.kind!r}, "
                                  f"choose from {NOISE_KINDS}")
        # a negative a gives |a|'s schedule; an a so near 0 that both ends
        # of the sigmoid round to 1/2 gives none (0 / 0)
        a = self.sigmoid_a
        if not math.isfinite(a) or sigmoid(0.5 * a) == sigmoid(-0.5 * a):
            raise CorruptionError(f"sigmoid_a must be finite and not 0, got {a}")


def mask_fraction(schedule: NoiseSchedule, tau: float) -> float:
    """Fraction of cells masked at time tau; 0 at tau=0, 1 at tau=1, monotone."""
    if not 0.0 <= tau <= 1.0:
        raise CorruptionError(f"tau {tau} outside [0, 1]")
    if schedule.kind == "cosine":
        # survival cos^2(pi*tau/2), so the masked share is sin^2
        return float(np.sin(0.5 * np.pi * tau) ** 2)
    if schedule.kind == "linear":
        return float(tau)
    a = schedule.sigmoid_a
    lo, hi = sigmoid(-0.5 * a), sigmoid(0.5 * a)
    return float((sigmoid(a * (tau - 0.5)) - lo) / (hi - lo))


def corrupt_target(tokens: np.ndarray, valid: np.ndarray, tau: float,
                   schedule: NoiseSchedule, rng: np.random.Generator) -> np.ndarray:
    """Mask floor(r(tau) * valid) valid cells of a copy of tokens, chosen uniformly.

    PAD positions are never touched; tau=0 returns an unchanged copy.
    """
    cells = np.flatnonzero(valid)
    count = int(np.floor(mask_fraction(schedule, tau) * cells.size))
    out = tokens.copy()
    if count > 0:
        out[rng.choice(cells, size=count, replace=False)] = MASK
    return out


def sample_timesteps(num_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Strictly descending timesteps for remask inference, final entry 0."""
    if num_steps < 1:
        raise CorruptionError(f"num_steps must be >= 1, got {num_steps}")
    draws = np.unique(rng.uniform(size=num_steps))[::-1]
    return np.concatenate([draws, [0.0]])


@dataclass(frozen=True)
class BetaSchedule:
    """Linear variance schedule beta_start..beta_end over num_steps indices.

    beta_start = beta_end = 0 is allowed as the degenerate no-noise case.
    """
    beta_start: float = 1e-4
    beta_end: float = 0.02
    num_steps: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.beta_start <= self.beta_end < 1.0:
            raise CorruptionError(
                f"need 0 <= beta_start <= beta_end < 1, got "
                f"({self.beta_start}, {self.beta_end})")
        if self.num_steps < 1:
            raise CorruptionError(f"num_steps must be >= 1, got {self.num_steps}")

    def beta(self, tau_index: int) -> float:
        if not 1 <= tau_index <= self.num_steps:
            raise CorruptionError(
                f"tau_index {tau_index} outside [1, {self.num_steps}]")
        if self.num_steps == 1:
            return self.beta_start
        frac = (tau_index - 1) / (self.num_steps - 1)
        return self.beta_start + (self.beta_end - self.beta_start) * frac


def perturb_latent(H: np.ndarray, tau_index: int, schedule: BetaSchedule,
                   rng: np.random.Generator) -> np.ndarray:
    """Variance-preserving mix sqrt(1-b)*H + sqrt(b)*eps.

    eps = mu(H) + sigma(H) * n with n standard normal and mu, sigma the
    scalar mean / population standard deviation over all entries of H.
    beta = 0 returns H itself, bit for bit.
    """
    b = schedule.beta(tau_index)
    if b == 0.0:
        return H
    mu = H.mean(dtype=np.float64)
    sigma = H.std(dtype=np.float64)
    eps = mu + sigma * rng.standard_normal(H.shape)
    out = np.sqrt(1.0 - b) * H + np.sqrt(b) * eps
    return out.astype(H.dtype, copy=False)
