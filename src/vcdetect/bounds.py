"""Sample-complexity and deviation bound calculators, plus Monte Carlo checks.

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
from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectorConfig
from .experiment import run_trial, summarize
from .geometry import SubspaceBasis, elementary_symmetric, volume_correlation
from .scenario import Scenario, make_scenario, with_hypothesis

__all__ = [
    "BoundInputs",
    "BoundReport",
    "sample_bound_target_present",
    "sample_bound_target_absent",
    "tau",
    "validate_convergence",
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
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
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
        return json.dumps(
            {
                "m_required": self.m_required,
                "deviation_bound": self.deviation_bound,
                "exponent_argument": self.exponent_argument,
                "deviation_note": self.deviation_note,
            }
        )


def _multiplier(delta: float, epsilon: float) -> float:
    return (1.0 + epsilon) / (math.sqrt(delta + 1.0) - 1.0) ** 2


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


def sample_bound_target_present(inputs: BoundInputs) -> BoundReport:
    """Samples guaranteeing T^2 <= delta^d2 (leading order), target present.

    ``signal_rank`` must be d1 + d2. The deviation bound needs the target
    dimension; it is left as None when ``target_dim`` is not supplied.
    """
    m = max(1, math.ceil(_multiplier(inputs.delta, inputs.epsilon) * _eigen_sums(inputs)))
    deviation = None
    if inputs.target_dim is not None:
        deviation = inputs.delta**inputs.target_dim
    return BoundReport(
        m_required=m,
        deviation_bound=deviation,
        exponent_argument=inputs.signal_rank * inputs.ambient_dim * inputs.epsilon**2,
    )


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
    m = max(1, math.ceil(_multiplier(inputs.delta, inputs.epsilon) * _eigen_sums(inputs)))
    deviation = None
    note = "leading-order; s-factor symbolic (bases not supplied)"
    if target is not None and clutter is not None:
        Qc = clutter.basis
        Qs = target.basis
        M = Qc.T @ Qc - (Qs.T @ Qc).T @ (Qs.T @ Qc)
        sing = np.linalg.svd(M, compute_uv=False)
        deviation = elementary_symmetric(sing, inputs.signal_rank - 1) * inputs.delta
        note = "leading-order"
    return BoundReport(
        m_required=m,
        deviation_bound=deviation,
        exponent_argument=inputs.signal_rank * inputs.ambient_dim * inputs.epsilon**2,
        deviation_note=note,
    )


def tau(target: SubspaceBasis, clutter: SubspaceBasis) -> float:
    """Volume correlation between target and clutter bases.

    This is the finite value 1/T levels off at when no target is present.
    Raises on (near-)intersecting geometry, where the detector is degenerate.
    """
    value = volume_correlation(target, clutter)
    if value < 1e-12:
        raise ValueError("target and clutter subspaces (nearly) intersect")
    return value


def validate_convergence(
    sc: Scenario,
    cfg: DetectorConfig,
    trials: int,
    max_samples: int | None = None,
    master_seed: int = 0,
) -> dict:
    """Run seeded detector trials under both hypotheses and summarize 1/T.

    Each trial is ``experiment.run_trial``, seeded as ``run_experiment``
    seeds it. Returns ``summarize``'s block for each hypothesis (decision
    counts, median final 1/T, per-sample-index quantiles), with the gap
    between the absent-hypothesis median and 1/tau added to the absent one.
    Deterministic for a fixed master seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_samples is not None:
        cfg = replace(cfg, max_samples=max_samples)
    plateau = 1.0 / tau(sc.target_basis, sc.clutter_basis)
    records = []
    for present in (True, False):
        scenario = make_scenario(with_hypothesis(sc.config, present))
        for trial in range(trials):
            records += run_trial((scenario, cfg, master_seed, trial))
    summary = summarize(records)
    ratio = summary.pop("median_final_ratio")
    absent = summary["target_absent"]
    absent["plateau_gap"] = abs(absent["median_final_inv_t"] - plateau)
    return {"inv_tau": plateau, "hypotheses": summary, "median_ratio": ratio}
