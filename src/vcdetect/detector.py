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
n. While i < n the detector keeps the samples only in factored form,
Y = Q^T R (n x i): Q has orthonormal rows and grows by one two-pass
Gram-Schmidt step per sample at O(n i) cost, R is upper triangular. It also
keeps G = R^T R = Y^T Y and X = Q Q_s, each bordered by one row per sample.
The eigenvalues of G / i are the nonzero eigenvalues of the covariance
Y Y^T / i. The top-k eigenvectors are Q^T W for i x k coefficients W, so
the statistic is computed from W^T X without forming any n x k basis; the
basis itself is formed only when ``state.signal_basis`` is read. At i = n
the n x n covariance is built once from Q and R; from then on it is updated
by the rank-one recursion S_i = ((i-1)/i) S_{i-1} + y y^T / i and fully
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
    cross_gram_log_volume,
    gram_schmidt_step,
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
    trajectory: list[tuple[int, float, float, int]]
    decision: Decision
    # While sample_count = i < n: the samples as Y = Q^T R, with Q's
    # orthonormal rows (a zero row where a sample adds no new direction) and
    # the upper-triangular R, plus G = R^T R and X = Q Q_s, all in buffers
    # that grow by doubling up to n - 1 rows; _basis holds the i x k
    # coefficients W of the signal basis Q^T W. At i = n the n x n
    # covariance takes over, the buffers are released and _basis holds the
    # n x k top eigenvector block.
    _q: np.ndarray | None
    _r: np.ndarray | None
    _gram: np.ndarray | None
    _x: np.ndarray | None
    _basis: np.ndarray
    _cov: np.ndarray | None = None

    @property
    def signal_basis(self) -> SubspaceBasis:
        """Orthonormal basis of the estimated signal subspace, formed when read."""
        if self._cov is None:
            return SubspaceBasis(self._q[: self.sample_count].T @ self._basis)
        return SubspaceBasis(self._basis)

    @property
    def covariance(self) -> np.ndarray:
        """Running sample covariance (1/i) sum_j y_j y_j^T, as a read-only array."""
        if self._cov is None:
            rows = _sample_rows(self, self.sample_count)
            cov = rows.T @ rows / max(self.sample_count, 1)
        else:
            cov = self._cov.view()
        cov.flags.writeable = False
        return cov


_INITIAL_CAPACITY = 16

# Orthonormality budget of Q's rows and of W, the 1e-10 of SubspaceBasis.
_ORTHO_TOL = 1e-10
# A residual below this fraction of the sample's norm adds no direction (a
# zero sample, or a repeat of the span to rounding); its eigenvalue would sit
# far below the 1e-10 relative floor of estimate_rank.
_DEPENDENT_TOL = 1e-12


def detector_init(cfg: DetectorConfig) -> DetectorState:
    """Fresh state: no samples, empty trajectory, undecided."""
    n = cfg.target_basis.ambient_dim
    cap = min(n - 1, _INITIAL_CAPACITY)
    return DetectorState(
        config=cfg,
        sample_count=0,
        estimated_rank=0,
        trajectory=[],
        decision=Decision(Outcome.UNDECIDED),
        _q=np.empty((cap, n)),
        _r=np.zeros((cap, cap)),
        _gram=np.empty((cap, cap)),
        _x=np.empty((cap, cfg.target_basis.dim)),
        _basis=np.empty((0, 0)),
    )


def estimate_rank(eigenvalues, cfg: DetectorConfig, sample_count: int) -> int:
    """Number of above-noise eigenvalues.

    With a noise-variance hint: values exceeding ``rank_gap_factor * sigma^2``
    count (with a relative floor so exact zeros never count when sigma = 0).
    Without a hint: the split j maximizing the gap ratio lam[j-1] / lam[j]
    (the first one on ties), scanning only while lam[j-1] is above the floor.
    Capped at min(sample_count, n - 1).
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
        head = lam[: max(min(sample_count - 1, n - 1), 0)]
        below = np.flatnonzero(head <= floor)
        head = head[: below[0]] if below.size else head
        ratios = head / np.maximum(lam[1 : head.size + 1], floor if floor > 0 else 1e-300)
        k = int(np.argmax(ratios)) + 1 if ratios.size and ratios.max() > 0 else 0
    return max(0, min(k, cap))


def _sample_rows(state: DetectorState, count: int) -> np.ndarray:
    """The first ``count`` samples as rows, Y^T = R^T Q."""
    return state._r[:count, :count].T @ state._q[:count]


def _append_sample(state: DetectorState, vec: np.ndarray, i: int) -> None:
    """Extend Q, R, G and X by sample i, doubling the buffers when full.

    One two-pass Gram-Schmidt step gives the new column of R and, unless the
    residual is negligible, a new direction of Q, which must be orthogonal to
    the stored ones.
    """
    target = state.config.target_basis.basis
    if i > state._r.shape[0]:
        n, old = vec.size, i - 1
        cap = min(2 * state._r.shape[0], n - 1)
        q, r = np.empty((cap, n)), np.zeros((cap, cap))
        gram, x = np.empty((cap, cap)), np.empty((cap, target.shape[1]))
        q[:old], r[:old, :old] = state._q[:old], state._r[:old, :old]
        gram[:old, :old], x[:old] = state._gram[:old, :old], state._x[:old]
        state._q, state._r, state._gram, state._x = q, r, gram, x
    Q, R = state._q, state._r
    coef, resid = gram_schmidt_step(Q[: i - 1], vec)
    rho = float(np.linalg.norm(resid))
    if rho > _DEPENDENT_TOL * np.linalg.norm(vec):
        q = resid / rho
        if np.max(np.abs(Q[: i - 1] @ q), initial=0.0) > _ORTHO_TOL:
            raise ValueError("stored sample directions are not orthonormal")
    else:
        rho, q = 0.0, 0.0
    Q[i - 1] = q
    R[: i - 1, i - 1] = coef
    R[i - 1, i - 1] = rho
    state._x[i - 1] = Q[i - 1] @ target
    border = R[:i, :i].T @ R[:i, i - 1]
    state._gram[i - 1, :i] = border
    state._gram[:i, i - 1] = border


def _signal_coefficients(R: np.ndarray, V: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Coefficients W, in the rows of Q, of the covariance eigenvectors for V.

    For an eigenpair (lam, v) of G / i, Y v / sqrt(i lam) = Q^T R v / sqrt(i lam)
    is a unit eigenvector of the covariance, so Z = R V diag(1/sqrt(i lam))
    holds their coefficients. One Cholesky-QR step, computed from R rather
    than from the rounded G, makes them orthonormal: W = Z L^{-T} with
    Z^T Z = L L^T.
    """
    Z = R @ (V / np.sqrt(R.shape[0] * lam))
    L = np.linalg.cholesky(Z.T @ Z)
    W = np.linalg.solve(L, Z.T).T
    if np.max(np.abs(W.T @ W - np.eye(W.shape[1])), initial=0.0) > _ORTHO_TOL:
        raise ValueError("signal basis coefficients are not orthonormal")
    return W


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
        _append_sample(state, vec, i)
        w, V = np.linalg.eigh(state._gram[:i, :i] / i)
        lam = np.zeros(n)
        lam[:i] = np.maximum(w[::-1], 0.0)
        k = estimate_rank(lam, cfg, i)
        basis = _signal_coefficients(state._r[:i, :i], V[:, ::-1][:, :k], lam[:k])
        cross_gram = basis.T @ state._x[:i]
    else:
        if i == n:
            rows = _sample_rows(state, n - 1)
            state._cov = (rows.T @ rows + np.outer(vec, vec)) / n
            state._q = state._r = state._gram = state._x = None
        else:
            state._cov *= (i - 1) / i
            state._cov += np.outer(vec, vec) / i
        pairs = symmetric_eig(state._cov)
        k = estimate_rank(pairs.values, cfg, i)
        basis = pairs.vectors[:, :k]
        cross_gram = basis.T @ cfg.target_basis.basis
    state.estimated_rank = k
    state._basis = basis

    log_t = cross_gram_log_volume(cross_gram, n)
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
    recursion, keeping orthonormal rows for [Q_s, sample directions] so that
    each factor costs one Gram-Schmidt step. Returns ``(m, target_present)``
    where m is the first sample count at which the stacked volume drops to
    ``tol`` or below, and the hypothesis is decided by whether the samples
    alone still have positive volume there. ``(None, None)`` if the stream
    ends first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = target_basis.ambient_dim
    sample_dirs = np.empty((0, n))
    stacked_dirs = target_basis.basis.T
    stacked_vol = 1.0
    raw: list[np.ndarray] = []
    for m, y in enumerate(samples, start=1):
        vec = y.vector if isinstance(y, Sample) else np.asarray(y, dtype=float)
        raw.append(vec)
        _, r = gram_schmidt_step(sample_dirs, vec)
        r_norm = np.linalg.norm(r)
        if r_norm <= tol * max(np.linalg.norm(vec), 1e-300):
            # Sample adds no new direction: column count exceeds the span
            # dimension, so the stacked volume at dimension m + d2 is zero.
            stacked_vol = 0.0
        else:
            q = r / r_norm
            _, s = gram_schmidt_step(stacked_dirs, q)
            factor = np.linalg.norm(s)
            stacked_vol *= factor
            if stacked_vol > tol:
                sample_dirs = np.vstack([sample_dirs, q])
                stacked_dirs = np.vstack([stacked_dirs, s / factor])
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
