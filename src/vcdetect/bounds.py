"""Sample-complexity and deviation bound calculators, and the plateau tau.

The calculators evaluate the non-asymptotic sample-size expressions for the
streaming detector: given the population covariance eigenvalues, noise
variance and accuracy parameters (delta, epsilon), they return how many
samples guarantee the stated deviation of the squared test statistic.
The probability floor contains an unspecified universal constant, so only
the exponent argument k * n * epsilon^2 is reported, never a numeric
probability.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import SubspaceBasis, elementary_symmetric, volume_correlation

__all__ = [
    "BoundInputs",
    "BoundReport",
    "sample_bound_target_present",
    "sample_bound_target_absent",
    "tau",
]


@dataclass(frozen=True)
class BoundInputs:
    eigenvalues: tuple
    noise_variance: float
    ambient_dim: int
    signal_rank: int
    delta: float
    epsilon: float
    target_dim: int | None = None

    def __post_init__(self):
        lam = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", lam)
        if not all(math.isfinite(v) for v in lam):
            raise ValueError(f"eigenvalues must be finite, got {lam}")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError(
                f"noise_variance must be positive and finite, got {self.noise_variance}"
            )
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.ambient_dim < len(lam):
            raise ValueError(
                f"ambient_dim must be >= the {len(lam)} eigenvalues, got {self.ambient_dim}"
            )
        if self.target_dim is not None and self.target_dim < 1:
            raise ValueError(f"target_dim must be >= 1 when given, got {self.target_dim}")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 1 <= self.signal_rank <= len(lam):
            raise ValueError("signal_rank must index into the eigenvalue list")
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError("eigenvalues must be sorted descending")
        above = sum(1 for v in lam if v > self.noise_variance)
        if above != self.signal_rank:
            raise ValueError(
                f"expected exactly {self.signal_rank} eigenvalues above the "
                f"noise variance, found {above}"
            )
        top = lam[: self.signal_rank]
        if len(set(top)) != len(top):
            raise ValueError("signal eigenvalues must be pairwise distinct")
        if any(v == self.noise_variance for v in top):
            raise ValueError("signal eigenvalues must differ from the noise variance")


@dataclass(frozen=True)
class BoundReport:
    m_required: int
    deviation_bound: float | None
    exponent_argument: float
    deviation_note: str = "leading-order"

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _eigen_sums(inputs: BoundInputs) -> float:
    k = inputs.signal_rank
    lam = inputs.eigenvalues[:k]
    s2 = inputs.noise_variance
    pair = 0.0
    for i in range(k):
        for j in range(k):
            if i != j:
                pair += lam[i] * lam[j] / (lam[i] - lam[j]) ** 2
    noise = (inputs.ambient_dim - k) * sum(v * s2 / (s2 - v) ** 2 for v in lam)
    return pair + noise


def _report(inputs: BoundInputs, deviation: float | None, note="leading-order") -> BoundReport:
    """The report with the sample count and exponent argument of both bounds."""
    multiplier = (1.0 + inputs.epsilon) / (math.sqrt(inputs.delta + 1.0) - 1.0) ** 2
    m = max(1, math.ceil(multiplier * _eigen_sums(inputs)))
    exponent = inputs.signal_rank * inputs.ambient_dim * inputs.epsilon**2
    return BoundReport(m_required=m, deviation_bound=deviation, exponent_argument=exponent,
                       deviation_note=note)


def sample_bound_target_present(inputs: BoundInputs) -> BoundReport:
    """Samples guaranteeing T^2 <= delta^d2 (leading order), target present.

    ``signal_rank`` must be d1 + d2. The deviation bound needs the target
    dimension; it is left as None when ``target_dim`` is not supplied.
    """
    deviation = None if inputs.target_dim is None else inputs.delta**inputs.target_dim
    return _report(inputs, deviation)


def sample_bound_target_absent(
    inputs: BoundInputs,
    target: SubspaceBasis | None = None,
    clutter: SubspaceBasis | None = None,
) -> BoundReport:
    """Samples guaranteeing |T^2 - tau^2| stays within the stated deviation.

    ``signal_rank`` must be d1. The deviation coefficient is the
    (d1-1)-th elementary symmetric function of the singular values of
    Qc^T P_s_perp Qc; it is evaluated only when both bases are supplied and
    reported as None (symbolic) otherwise.
    """
    if target is None or clutter is None:
        return _report(inputs, None, "leading-order; s-factor symbolic (bases not supplied)")
    Qc = clutter.basis
    Qs = target.basis
    M = Qc.T @ Qc - (Qs.T @ Qc).T @ (Qs.T @ Qc)
    sing = np.linalg.svd(M, compute_uv=False)
    return _report(inputs, elementary_symmetric(sing, inputs.signal_rank - 1) * inputs.delta)


def tau(target: SubspaceBasis, clutter: SubspaceBasis) -> float:
    """Volume correlation between target and clutter bases.

    This is the finite value 1/T levels off at when no target is present.
    Raises on (near-)intersecting geometry, where the detector is degenerate.
    """
    value = volume_correlation(target, clutter)
    if value < 1e-12:
        raise ValueError("target and clutter subspaces (nearly) intersect")
    return value
