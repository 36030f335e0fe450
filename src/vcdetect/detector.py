"""Volume-correlation subspace detector.

Two regimes are implemented:

* ``noiseless_breakpoint`` -- accumulate noiseless samples and watch the
  volume of the parallelotope spanned by the samples together with the known
  target basis. The first sample count at which that volume vanishes is the
  breakpoint (d1 + 1); whether the samples alone still span a full-volume
  parallelotope there decides the hypothesis.

* the streaming detector (``detector_init`` / ``ingest`` / ``run_stream``)
  -- track the spectrum of the running sample covariance, estimate the signal
  rank from it, and track the test statistic

      T_i = Vol([Q_hat_i, Q_s])

  where Q_hat_i spans the top eigenvectors. 1/T diverges when the target is
  present and levels off at a finite value otherwise.

The spectral state depends on the sample count i and the ambient dimension
n. While i < n the detector stores the samples Y (n x i) and their Gram
matrix G = Y^T Y, bordered by one row and column per sample at O(n i) cost.
The eigenvalues of G / i are the nonzero eigenvalues of the covariance
Y Y^T / i, and only the top-k eigenvectors are formed, as Y V_k / s_k
followed by a Cholesky-QR step that keeps them orthonormal. At i = n the
n x n covariance is built once from Y; from then on it is updated by the
rank-one recursion R_i = ((i-1)/i) R_{i-1} + y y^T / i and fully
eigendecomposed on every sample.

The statistic is computed in the log domain; 1/T is capped at 1e308.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SubspaceBasis,
    incremental_volume_factor,
    projector_complement_apply,
    stacked_log_volume,
    symmetric_eig,
    volume,
)
from .scenario import Sample

__all__ = [
    "Outcome",
    "Decision",
    "DetectorConfig",
    "DetectorState",
    "detector_init",
    "ingest",
    "estimate_rank",
    "decide",
    "run_stream",
    "noiseless_breakpoint",
    "write_trajectory_csv",
]

INV_T_CAP = 1e308


class Outcome(enum.Enum):
    TARGET_PRESENT = "target_present"
    TARGET_ABSENT = "target_absent"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Decision:
    variant: Outcome
    decided_at: int | None = None

    def __post_init__(self):
        if (self.variant is Outcome.UNDECIDED) != (self.decided_at is None):
            raise ValueError("decided_at must be set exactly when a decision was made")


@dataclass(frozen=True)
class DetectorConfig:
    target_basis: SubspaceBasis
    noise_variance_hint: float | None = None
    rank_gap_factor: float = 2.0
    divergence_threshold: float = 1e6
    stall_epsilon: float = 1e-3
    stall_patience: int = 5
    max_samples: int = 512
    zero_volume_tol: float = 1e-8

    def __post_init__(self):
        # Each test is written so that NaN fails it. divergence_threshold may
        # be inf (a threshold that never fires).
        if not self.divergence_threshold > 1.0:
            raise ValueError(f"divergence_threshold must exceed 1, got {self.divergence_threshold}")
        if not (self.stall_epsilon > 0 and self.zero_volume_tol > 0):
            raise ValueError("stall_epsilon and zero_volume_tol must be positive numbers")
        if self.stall_patience < 1 or self.max_samples < 1:
            raise ValueError("stall_patience and max_samples must be >= 1")
        if not self.rank_gap_factor > 0:
            raise ValueError(f"rank_gap_factor must be positive, got {self.rank_gap_factor}")
        hint = self.noise_variance_hint
        if hint is not None and not (math.isfinite(hint) and hint >= 0):
            raise ValueError(f"noise_variance_hint must be finite and non-negative, got {hint}")


@dataclass
class DetectorState:
    config: DetectorConfig
    sample_count: int
    estimated_rank: int
    signal_basis: SubspaceBasis
    trajectory: list[tuple[int, float, float, int]]
    decision: Decision
    # While sample_count < n: the samples as rows of a buffer that grows by
    # doubling up to n - 1 rows, and their Gram matrix in a buffer of the same
    # capacity. At sample_count = n both are released and the n x n
    # covariance takes over.
    _samples: np.ndarray | None
    _gram: np.ndarray | None
    _cov: np.ndarray | None = None

    @property
    def covariance(self) -> np.ndarray:
        """Running sample covariance (1/i) sum_j y_j y_j^T, as a read-only array."""
        if self._cov is None:
            rows = self._samples[: self.sample_count]
            cov = rows.T @ rows / max(self.sample_count, 1)
        else:
            cov = self._cov.view()
        cov.flags.writeable = False
        return cov


_INITIAL_CAPACITY = 16


def detector_init(cfg: DetectorConfig) -> DetectorState:
    """Fresh state: no samples, empty trajectory, undecided."""
    n = cfg.target_basis.ambient_dim
    cap = min(n - 1, _INITIAL_CAPACITY)
    return DetectorState(
        config=cfg,
        sample_count=0,
        estimated_rank=0,
        signal_basis=SubspaceBasis(np.empty((n, 0))),
        trajectory=[],
        decision=Decision(Outcome.UNDECIDED),
        _samples=np.empty((cap, n)),
        _gram=np.empty((cap, cap)),
    )


def estimate_rank(eigenvalues, cfg: DetectorConfig, sample_count: int) -> int:
    """Number of above-noise eigenvalues.

    With a noise-variance hint: values exceeding ``rank_gap_factor * sigma^2``
    count (with a relative floor so exact zeros never count when sigma = 0).
    Without a hint: the split maximizing the gap ratio between consecutive
    eigenvalues. Capped at min(sample_count, n - 1).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        raise ValueError("eigenvalue list must be non-empty")
    n = lam.size
    cap = min(sample_count, n - 1)
    floor = 1e-10 * max(lam[0], 0.0)
    if cfg.noise_variance_hint is not None:
        threshold = max(cfg.rank_gap_factor * cfg.noise_variance_hint, floor)
        k = int(np.sum(lam > threshold))
    else:
        upper = min(sample_count - 1, n - 1)
        k = 0
        best = 0.0
        for j in range(1, upper + 1):
            if lam[j - 1] <= floor:
                break
            ratio = lam[j - 1] / max(lam[j], floor if floor > 0 else 1e-300)
            if ratio > best:
                best = ratio
                k = j
    return max(0, min(k, cap))


def _store_sample(state: DetectorState, vec: np.ndarray, i: int) -> np.ndarray:
    """Write sample i as row i - 1 of the buffer; return the i stored rows."""
    cap, n = state._samples.shape
    if i > cap:
        cap = min(2 * cap, n - 1)
        samples = np.empty((cap, n))
        samples[: i - 1] = state._samples[: i - 1]
        gram = np.empty((cap, cap))
        gram[: i - 1, : i - 1] = state._gram[: i - 1, : i - 1]
        state._samples, state._gram = samples, gram
    state._samples[i - 1] = vec
    return state._samples[:i]


def _gram_eig(state: DetectorState, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Border the Gram matrix with the newest sample and eigendecompose it.

    ``rows`` holds the i samples as rows (Y^T). Returns G = Y^T Y and the
    eigenvalues, descending, and eigenvectors of G / i. These eigenvalues
    are the nonzero part of the covariance spectrum.
    """
    i = rows.shape[0]
    border = rows @ rows[-1]
    state._gram[i - 1, :i] = border
    state._gram[:i, i - 1] = border
    G = state._gram[:i, :i]
    w, V = np.linalg.eigh(G / i)
    return G, w[::-1], V[:, ::-1]


# Orthonormality defect above which the top-k basis gets a second
# Cholesky-QR step; 100x below the 1e-10 that SubspaceBasis enforces.
_BASIS_DEFECT_TOL = 1e-12


def _top_basis(rows: np.ndarray, G: np.ndarray, V: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Orthonormal n x k basis of the covariance eigenvectors for V's columns.

    For an eigenpair (lam, v) of G / i, Y v / sqrt(i lam) is a unit
    eigenvector of the covariance, so the basis is Y C with
    C = V diag(1/sqrt(i lam)). Forming it squares the condition number of
    Y, so one Cholesky-QR step follows, taken on the i x k coefficients:
    with C^T G C = L L^T the basis is Y C L^{-T}. That step cannot see the
    rounding in G itself, which an ill-conditioned Y (a noiseless block at
    i = d1) amplifies past 1e-10; when the formed basis shows it, a second
    step is taken on the n x k columns.
    """
    C = V / np.sqrt(rows.shape[0] * lam)
    L = np.linalg.cholesky(C.T @ G @ C)
    U = rows.T @ (C @ np.linalg.inv(L).T)
    P = U.T @ U
    if np.max(np.abs(P - np.eye(P.shape[0])), initial=0.0) > _BASIS_DEFECT_TOL:
        U = U @ np.linalg.inv(np.linalg.cholesky(P)).T
    return U


def ingest(state: DetectorState, y: Sample | np.ndarray) -> DetectorState:
    """Fold one sample into the state: spectrum, rank, statistic, decision."""
    if state.decision.variant is not Outcome.UNDECIDED:
        raise RuntimeError("cannot ingest after a decision was reached")
    vec = y.vector if isinstance(y, Sample) else np.asarray(y, dtype=float)
    cfg = state.config
    n = cfg.target_basis.ambient_dim
    if vec.shape != (n,):
        raise ValueError(f"sample length {vec.shape} does not match ambient dim {n}")

    i = state.sample_count + 1
    state.sample_count = i
    if i < n:
        rows = _store_sample(state, vec, i)
        G, lam_i, V = _gram_eig(state, rows)
        lam = np.zeros(n)
        lam[:i] = np.maximum(lam_i, 0.0)
        k = estimate_rank(lam, cfg, i)
        basis = _top_basis(rows, G, V[:, :k], lam[:k])
    else:
        if i == n:
            rows = state._samples[: n - 1]
            state._cov = (rows.T @ rows + np.outer(vec, vec)) / n
            state._samples = state._gram = None
        else:
            state._cov *= (i - 1) / i
            state._cov += np.outer(vec, vec) / i
        pairs = symmetric_eig(state._cov)
        k = estimate_rank(pairs.values, cfg, i)
        basis = pairs.vectors[:, :k]
    state.estimated_rank = k
    state.signal_basis = SubspaceBasis(basis)

    if k == 0:
        log_t = 0.0
    else:
        log_t = stacked_log_volume(state.signal_basis, cfg.target_basis)
    t = math.exp(log_t) if log_t > -700 else 0.0
    inv_t = min(math.exp(-log_t), INV_T_CAP) if log_t > -710 else INV_T_CAP
    state.trajectory.append((i, t, inv_t, k))
    state.decision = decide(state)
    return state


def decide(state: DetectorState) -> Decision:
    """Threshold test on 1/T, then stall test, then budget check.

    Reads only the trajectory, so repeated calls give the same decision. The
    stall test fires when each of the last ``stall_patience`` steps of 1/T
    changed by less than ``stall_epsilon`` relative.
    """
    if not state.trajectory:
        raise ValueError("decide requires a non-empty trajectory")
    cfg = state.config
    i, _, inv_t, _ = state.trajectory[-1]
    if inv_t > cfg.divergence_threshold:
        return Decision(Outcome.TARGET_PRESENT, decided_at=i)
    if len(state.trajectory) > cfg.stall_patience:
        recent = [row[2] for row in state.trajectory[-(cfg.stall_patience + 1) :]]
        if all(abs(b - a) < cfg.stall_epsilon * b for a, b in zip(recent, recent[1:])):
            return Decision(Outcome.TARGET_ABSENT, decided_at=i)
    return Decision(Outcome.UNDECIDED)


def run_stream(cfg: DetectorConfig, samples) -> tuple[Decision, list]:
    """Ingest samples until a decision is reached or the budget runs out."""
    state = detector_init(cfg)
    for y in samples:
        ingest(state, y)
        if state.decision.variant is not Outcome.UNDECIDED:
            break
        if state.sample_count >= cfg.max_samples:
            break
    return state.decision, state.trajectory


def noiseless_breakpoint(
    target_basis: SubspaceBasis,
    samples,
    tol: float = 1e-8,
) -> tuple[int | None, bool | None]:
    """Breakpoint search for the noiseless regime.

    Tracks Vol([Q_y, Q_s]) through the one-column-at-a-time residual
    recursion. Returns ``(m, target_present)`` where m is the first sample
    count at which the stacked volume drops to ``tol`` or below, and the
    hypothesis is decided by whether the samples alone still have positive
    volume there. ``(None, None)`` if the stream ends first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = target_basis.ambient_dim
    sample_dirs = SubspaceBasis(np.empty((n, 0)))
    stacked_vol = 1.0
    raw: list[np.ndarray] = []
    for m, y in enumerate(samples, start=1):
        vec = y.vector if isinstance(y, Sample) else np.asarray(y, dtype=float)
        raw.append(vec)
        r = projector_complement_apply(sample_dirs, vec)
        if np.linalg.norm(r) <= tol * max(np.linalg.norm(vec), 1e-300):
            # Sample adds no new direction: column count exceeds the span
            # dimension, so the stacked volume at dimension m + d2 is zero.
            stacked_vol = 0.0
        else:
            q = r / np.linalg.norm(r)
            stacked_vol *= incremental_volume_factor(
                target_basis.basis, sample_dirs.basis, q
            )
            sample_dirs = SubspaceBasis(np.column_stack([sample_dirs.basis, q]))
        if stacked_vol <= tol:
            sample_vol = volume(np.column_stack(raw), m)
            return m, bool(sample_vol > tol)
    return None, None


def write_trajectory_csv(trajectory, decision: Decision, path) -> None:
    """Write one row per ingested sample: ``i,T,inv_T,k_i,decision``.

    The decision column stays empty until the deciding row. Floats use
    repr (shortest round-trip decimal), so output is byte-stable.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "T", "inv_T", "k_i", "decision"])
        for i, t, inv_t, k in trajectory:
            label = ""
            if decision.decided_at is not None and i == decision.decided_at:
                label = decision.variant.value
            writer.writerow([i, repr(t), repr(inv_t), k, label])
