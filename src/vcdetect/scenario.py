"""Synthetic problem instances: target/clutter subspaces and the sampling law.

A scenario consists of a known target subspace (dimension d2), an unknown
clutter subspace (dimension d1) with trivial intersection, and white
Gaussian noise. Samples are

    y = Qs @ alpha + Qc @ beta + w        (target present)
    y = Qc @ beta + w                     (target absent)

with alpha, beta standard normal and w ~ N(0, sigma^2 I).

SNR convention
--------------
``snr_db = 10 * log10(E||x||^2 / E||w||^2)`` where x is the noise-free part
of a sample. With unit-variance coefficients ``E||x||^2`` equals d1+d2
(target present) or d1 (absent) and ``E||w||^2 = n * sigma^2``, so

    sigma^2 = power * 10**(-snr_db / 10) / n,   power = d1+d2 or d1.

``snr_db = inf`` encodes the noiseless regime (sigma = 0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import SubspaceBasis, orthonormalize, principal_angles

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "random_subspace",
    "make_scenario",
    "draw_sample",
    "sample_stream",
    "population_eigenvalues",
]

# Smallest admissible principal angle between target and clutter bases.
MIN_SEPARATION_ANGLE = 1e-6


@dataclass(frozen=True)
class ScenarioConfig:
    ambient_dim: int
    clutter_dim: int
    target_dim: int
    snr_db: float
    target_present: bool
    seed: int

    def __post_init__(self):
        # Types first, since a comparison below raises TypeError on a string;
        # numpy integers pass, and bool, an int subclass, is ruled out by name.
        for name in ("ambient_dim", "clutter_dim", "target_dim", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.clutter_dim < 1 or self.target_dim < 1:
            raise ValueError("subspace dimensions must be >= 1")
        if self.clutter_dim + self.target_dim > self.ambient_dim:
            raise ValueError("d1 + d2 must not exceed the ambient dimension")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        # NaN fails the comparison too; +inf is the noiseless code.
        snr = self.snr_db
        if isinstance(snr, bool) or not isinstance(snr, (int, float)) or not snr > -math.inf:
            raise ValueError(f"snr_db must be a number or inf, got {snr!r}")
        # 10.0 ** x raises OverflowError past the float range; power * 10.0 ** x
        # may round to inf instead.
        try:
            variance = self.noise_variance
        except OverflowError:
            variance = math.inf
        if not variance < math.inf:
            raise ValueError(f"snr_db gives a noise variance that is not finite, got {snr!r}")

    @property
    def noise_variance(self) -> float:
        if math.isinf(self.snr_db):
            return 0.0
        power = self.clutter_dim + (self.target_dim if self.target_present else 0)
        return power * 10.0 ** (-self.snr_db / 10.0) / self.ambient_dim


@dataclass(frozen=True)
class Scenario:
    target_basis: SubspaceBasis
    clutter_basis: SubspaceBasis
    noise_std: float
    config: ScenarioConfig


def random_subspace(n: int, d: int, rng: np.random.Generator) -> SubspaceBasis:
    """Orthonormalize d i.i.d. standard Gaussian vectors in R^n."""
    if d > n:
        raise ValueError("subspace dimension exceeds ambient dimension")
    return orthonormalize(rng.standard_normal((n, d)), tol=1e-12)


def make_scenario(cfg: ScenarioConfig) -> Scenario:
    """Draw target and clutter bases; redraw on (probability-zero) near-intersection."""
    rng = np.random.default_rng(cfg.seed)
    while True:
        target = random_subspace(cfg.ambient_dim, cfg.target_dim, rng)
        clutter = random_subspace(cfg.ambient_dim, cfg.clutter_dim, rng)
        if principal_angles(target, clutter)[0] > MIN_SEPARATION_ANGLE:
            break
    return Scenario(
        target_basis=target,
        clutter_basis=clutter,
        noise_std=math.sqrt(cfg.noise_variance),
        config=cfg,
    )


def draw_sample(sc: Scenario, rng: np.random.Generator) -> np.ndarray:
    """One sample under the scenario's hypothesis."""
    cfg = sc.config
    y = sc.clutter_basis.basis @ rng.standard_normal(cfg.clutter_dim)
    if cfg.target_present:
        y = y + sc.target_basis.basis @ rng.standard_normal(cfg.target_dim)
    if sc.noise_std > 0.0:
        y = y + sc.noise_std * rng.standard_normal(cfg.ambient_dim)
    return y


def sample_stream(sc: Scenario, rng: np.random.Generator, count: int):
    """Yield ``count`` consecutive samples from the scenario."""
    for _ in range(count):
        yield draw_sample(sc, rng)


def population_eigenvalues(sc: Scenario) -> np.ndarray:
    """Eigenvalues of the exact population covariance E{y y^T}, descending."""
    cfg = sc.config
    Qc = sc.clutter_basis.basis
    R = Qc @ Qc.T
    if cfg.target_present:
        Qs = sc.target_basis.basis
        R = R + Qs @ Qs.T
    R = R + sc.noise_std**2 * np.eye(cfg.ambient_dim)
    return np.linalg.eigvalsh(R)[::-1]
