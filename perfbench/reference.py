"""Frozen reference for the benchmark's output check.

A transcription of the arithmetic of vcdetect 0.1.0 (the first release of
the library): scenario draw, per-trial seeding, the streaming detector with a
noise-variance hint, and the simulate/detect loops. It performs the same numpy
operations in the same order, so on the same machine and BLAS thread count it
reproduces that release's 1/T trajectories bit for bit; ``selftest.py``
checks it against outputs recorded from that release.

It imports nothing from ``vcdetect``: the program under test may change, the
reference may not. It also generates the benchmark's inputs, so a change to
the program's scenario code cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INV_T_CAP = 1e308
SINGULAR_VALUE_FLOOR = 1e-12
MIN_SEPARATION_ANGLE = 1e-6


@dataclass(frozen=True)
class Geometry:
    n: int
    d1: int
    d2: int
    snr_db: float
    seed: int

    def noise_variance(self, present: bool) -> float:
        power = self.d1 + (self.d2 if present else 0)
        return power * 10.0 ** (-self.snr_db / 10.0) / self.n


@dataclass(frozen=True)
class Thresholds:
    rank_gap_factor: float
    divergence_threshold: float
    stall_epsilon: float
    stall_patience: int
    max_samples: int


@dataclass(frozen=True)
class Scenario:
    target: np.ndarray
    clutter: np.ndarray
    noise_std: float
    present: bool


@dataclass(frozen=True)
class Trajectory:
    """One stream's outcome: decision label ("" if undecided) and 1/T per sample."""

    decision: str
    decided_at: int | None
    inv_t: list[float]


def orthonormalize(X: np.ndarray, tol: float) -> np.ndarray:
    n = X.shape[0]
    scale = np.linalg.norm(X)
    cols: list[np.ndarray] = []
    if scale == 0.0:
        return np.empty((n, 0))
    for j in range(X.shape[1]):
        v = X[:, j].copy()
        for _ in range(2):
            if cols:
                Q = np.column_stack(cols)
                v -= Q @ (Q.T @ v)
        nrm = np.linalg.norm(v)
        if nrm >= tol * scale:
            cols.append(v / nrm)
    return np.column_stack(cols) if cols else np.empty((n, 0))


def make_scenario(geo: Geometry, present: bool) -> Scenario:
    rng = np.random.default_rng(geo.seed)
    while True:
        target = orthonormalize(rng.standard_normal((geo.n, geo.d2)), tol=1e-12)
        clutter = orthonormalize(rng.standard_normal((geo.n, geo.d1)), tol=1e-12)
        c = np.clip(np.linalg.svd(target.T @ clutter, compute_uv=False), 0.0, 1.0)
        if np.sort(np.arccos(c))[0] > MIN_SEPARATION_ANGLE:
            break
    return Scenario(target, clutter, math.sqrt(geo.noise_variance(present)), present)


def draw_sample(sc: Scenario, rng: np.random.Generator) -> np.ndarray:
    y = sc.clutter @ rng.standard_normal(sc.clutter.shape[1])
    if sc.present:
        y = y + sc.target @ rng.standard_normal(sc.target.shape[1])
    if sc.noise_std > 0.0:
        y = y + sc.noise_std * rng.standard_normal(sc.clutter.shape[0])
    return y


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial_id: int, present: bool) -> int:
    s = _splitmix64(master_seed & 0xFFFFFFFFFFFFFFFF)
    s = _splitmix64(s ^ trial_id)
    return _splitmix64(s ^ (1 if present else 2))


def _log_t(vecs: np.ndarray, k: int, target: np.ndarray) -> float:
    if k == 0:
        return 0.0
    if k + target.shape[1] > target.shape[0]:
        return float("-inf")
    A = vecs[:, :k]
    c = np.clip(np.linalg.svd(A.T @ target, compute_uv=False), 0.0, 1.0)
    sin2 = np.clip(1.0 - c * c, 0.0, 1.0)
    if np.any(sin2 < SINGULAR_VALUE_FLOOR**2):
        return float("-inf")
    return float(0.5 * np.sum(np.log(sin2)))


def run_detector(samples, target: np.ndarray, hint: float, th: Thresholds) -> Trajectory:
    """Ingest until a decision or ``th.max_samples`` samples, as the detector did."""
    n = target.shape[0]
    # While i < n the covariance is never read, so it is only kept when the
    # budget reaches n; the update order is that of the release.
    cov = np.zeros((n, n)) if th.max_samples >= n else None
    block: list[np.ndarray] = []
    inv_ts: list[float] = []
    streak = 0
    i = 0
    for y in samples:
        vec = np.asarray(y, dtype=float)
        i += 1
        if cov is not None:
            cov *= (i - 1) / i
            cov += np.outer(vec, vec) / i
        if i <= n:
            block.append(vec)
        elif block:
            block.clear()
        if i < n and block:
            U, s, _ = np.linalg.svd(np.column_stack(block) / math.sqrt(i), full_matrices=False)
            lam = np.zeros(n)
            lam[: s.size] = s**2
            vecs = U
        else:
            w, V = np.linalg.eigh((cov + cov.T) / 2.0)
            lam, vecs = w[::-1].copy(), V[:, ::-1].copy()
        floor = 1e-10 * max(lam[0], 0.0)
        k = int(np.sum(lam > max(th.rank_gap_factor * hint, floor)))
        k = max(0, min(k, min(i, n - 1)))
        log_t = _log_t(vecs, k, target)
        inv_t = min(math.exp(-log_t), INV_T_CAP) if log_t > -710 else INV_T_CAP
        inv_ts.append(inv_t)
        if inv_t > th.divergence_threshold:
            return Trajectory("target_present", i, inv_ts)
        if len(inv_ts) >= 2:
            streak = streak + 1 if abs(inv_t - inv_ts[-2]) < th.stall_epsilon * inv_t else 0
            if streak >= th.stall_patience:
                return Trajectory("target_absent", i, inv_ts)
        if i >= th.max_samples:
            break
    return Trajectory("", None, inv_ts)


def simulate(geo: Geometry, th: Thresholds, trials: int, master_seed: int) -> dict:
    """``{(hypothesis, trial_id): Trajectory}`` for both hypotheses, as ``simulate`` ran them."""
    out = {}
    for present in (True, False):
        sc = make_scenario(geo, present)
        hyp = "target_present" if present else "target_absent"
        for trial in range(trials):
            rng = np.random.default_rng(trial_seed(master_seed, trial, present))
            stream = (draw_sample(sc, rng) for _ in range(th.max_samples))
            out[(hyp, trial)] = run_detector(stream, sc.target, sc.noise_std**2, th)
    return out
