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

One spectral state serves every sample count i. Q holds, as orthonormal
rows, the r <= n directions the samples span; each sample takes one
two-pass Gram-Schmidt step against them at O(n r) cost and adds a row
unless it lies in their span. X = Q Q_s, and M = Q Y Y^T Q^T (r x r) is the
scatter in Q coordinates, updated as M <- diag(M, 0) + u u^T with u the
sample's coefficients (plus its residual norm when it adds a row). The
eigenvalues of M / i are the nonzero eigenvalues of the covariance
Y Y^T / i, and its top-k eigenvectors V_k are the orthonormal coefficients
of the signal basis Q^T V_k, so neither that n x k basis nor the n x n
covariance is formed unless ``state.signal_basis`` or ``state.covariance``
is read, nor any eigenpair when a Cholesky test shows the cut keeps all r (``ingest``).

The statistic is computed in the log domain; 1/T is capped at 1e308.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SubspaceBasis, gram_schmidt_step, residual_log_volume

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
    "decision_label",
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

    def __post_init__(self):
        # Each test is written so that NaN fails it. divergence_threshold may
        # be inf (a threshold that never fires).
        if not self.divergence_threshold > 1.0:
            raise ValueError(f"divergence_threshold must exceed 1, got {self.divergence_threshold}")
        if not self.stall_epsilon > 0:
            raise ValueError(f"stall_epsilon must be positive, got {self.stall_epsilon}")
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
    # The first _rank rows of _q are orthonormal directions Q spanning the
    # samples; _x holds X = Q Q_s and _m the scatter M = Q Y Y^T Q^T, in
    # buffers that grow by doubling up to n rows. _off is Q_s - Q^T X, the
    # part of the target basis off that span, and _basis holds the r x k
    # coefficients V_k of the signal basis Q^T V_k, or None when k = r and the
    # basis is Q^T itself.
    _q: np.ndarray
    _x: np.ndarray
    _m: np.ndarray
    _off: np.ndarray
    _basis: np.ndarray | None = None
    _rank: int = 0

    @property
    def signal_basis(self) -> SubspaceBasis:
        """Orthonormal basis of the estimated signal subspace, formed when read."""
        q = self._q[: self._rank]
        return SubspaceBasis(q.T.copy() if self._basis is None else q.T @ self._basis)

    @property
    def covariance(self) -> np.ndarray:
        """Running sample covariance (1/i) sum_j y_j y_j^T = Q^T M Q / i, read-only."""
        q = self._q[: self._rank]
        cov = q.T @ self._m[: self._rank, : self._rank] @ q / max(self.sample_count, 1)
        cov.flags.writeable = False
        return cov


_INITIAL_CAPACITY = 16

# Orthonormality budget of Q's rows and of V_k, the 1e-10 of SubspaceBasis.
_ORTHO_TOL = 1e-10
# A residual below this fraction of the sample's norm adds no direction (a
# zero sample, or a repeat of the span to rounding); its eigenvalue would sit
# far below the 1e-10 relative floor of estimate_rank.
_DEPENDENT_TOL = 1e-12


def detector_init(cfg: DetectorConfig) -> DetectorState:
    """Fresh state: no samples, empty trajectory, undecided."""
    n = cfg.target_basis.ambient_dim
    cap = min(n, _INITIAL_CAPACITY)
    return DetectorState(
        config=cfg,
        sample_count=0,
        estimated_rank=0,
        trajectory=[],
        decision=Decision(Outcome.UNDECIDED),
        _q=np.empty((cap, n)),
        _x=np.empty((cap, cfg.target_basis.dim)),
        _m=np.zeros((cap, cap)),
        _off=cfg.target_basis.basis.copy(),
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


def _append_sample(state: DetectorState, vec: np.ndarray) -> None:
    """Fold one sample into Q, X, M and the off-span part of Q_s.

    One two-pass Gram-Schmidt step gives the sample's coefficients u in Q
    and, unless the residual is negligible, a new direction of Q, which must
    be orthogonal to the stored ones; u then gains the residual norm. M, with
    a zero row and column for a new direction, gains u u^T.
    """
    r = state._rank
    u, resid = gram_schmidt_step(state._q[:r], vec)
    rho = float(np.linalg.norm(resid))
    if rho > _DEPENDENT_TOL * np.linalg.norm(vec):
        q = resid / rho
        if np.max(np.abs(state._q[:r] @ q), initial=0.0) > _ORTHO_TOL:
            raise ValueError("stored sample directions are not orthonormal")
        if r == state._q.shape[0]:
            cap = min(2 * r, vec.size)
            q_buf, x_buf = np.empty((cap, vec.size)), np.empty((cap, state._x.shape[1]))
            m_buf = np.zeros((cap, cap))
            q_buf[:r], x_buf[:r], m_buf[:r, :r] = state._q, state._x, state._m
            state._q, state._x, state._m = q_buf, x_buf, m_buf
        x = q @ state.config.target_basis.basis
        state._q[r], state._x[r] = q, x
        state._off -= np.outer(q, x)
        u = np.append(u, rho)
        r = state._rank = r + 1
    state._m[:r, :r] += np.outer(u, u)


def ingest(state: DetectorState, y) -> DetectorState:
    """Fold one sample into the state: spectrum, rank, statistic, decision.

    The eigenvalues of M / i give the spectrum; the top-k eigenvectors V_k
    are the orthonormal coefficients of the signal basis Q^T V_k. The sines
    of its principal angles with Q_s are the singular values of the part of
    Q_s off that basis, [Q_s - Q^T X; V_perp^T X] in orthonormal coordinates.
    When k = r that part is Q_s - Q^T X alone, so after a k = r step under the hint rule
    with r < n, a Cholesky factorization of M - t i I shows k = r with no spectrum:
    t = max(gamma sigma^2, 1e-10 tr(M) / i) is at least the rule's threshold, as
    tr(M) / i >= lambda_max. Otherwise ``eigh`` gives the spectrum and V_k.
    """
    if state.decision.variant is not Outcome.UNDECIDED:
        raise RuntimeError("cannot ingest after a decision was reached")
    vec = np.asarray(y, dtype=float)
    cfg = state.config
    n, d2 = cfg.target_basis.ambient_dim, cfg.target_basis.dim
    i = state.sample_count + 1
    if vec.shape != (n,):
        raise ValueError(f"sample length {vec.shape} does not match ambient dim {n}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"sample {i} has a non-finite entry")

    was_full = state.estimated_rank == state._rank
    _append_sample(state, vec)
    state.sample_count = i
    r = state._rank
    m = state._m[:r, :r]
    full = was_full and r < n and cfg.noise_variance_hint is not None
    if full:
        level = max(cfg.rank_gap_factor * cfg.noise_variance_hint, 1e-10 * np.trace(m) / i)
        try:
            np.linalg.cholesky(m - i * level * np.eye(r))
        except np.linalg.LinAlgError:
            full = False
    if full:
        k, V = r, None
    else:
        w, V = np.linalg.eigh(m)
        k = estimate_rank(np.concatenate([np.maximum(w[::-1] / i, 0.0), np.zeros(n - r)]), cfg, i)
        V = V[:, ::-1]
        if np.max(np.abs(V[:, :k].T @ V[:, :k] - np.eye(k)), initial=0.0) > _ORTHO_TOL:
            raise ValueError("signal basis coefficients are not orthonormal")
    state.estimated_rank = k
    state._basis = None if k == r else V[:, :k]

    if k == 0:
        log_t = 0.0
    elif k + d2 > n:
        log_t = float("-inf")
    else:
        off = state._off if k == r else np.vstack([state._off, V[:, k:].T @ state._x[:r]])
        log_t = residual_log_volume(off)
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

    Keeps orthonormal rows for the sample directions and for [Q_s, sample
    directions], so each sample costs two Gram-Schmidt steps. The breakpoint
    m is the first sample that adds no direction to one of them, and it
    decides the hypothesis:

    * its residual off the sample directions is at most ``tol * ||y||``: the
      samples alone lose rank, so the target is absent -> ``(m, False)``;
    * its new unit direction has a residual off [Q_s, sample directions] of
      at most ``tol``: the stacked volume Vol([Q_y, Q_s]) vanishes while the
      samples keep full rank, so the target is present -> ``(m, True)``.

    Both tests are relative to one step, so neither depends on the scale of
    the samples or on how many came before. ``(None, None)`` if the stream
    ends first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sample_dirs = np.empty((0, target_basis.ambient_dim))
    stacked_dirs = target_basis.basis.T
    for m, y in enumerate(samples, start=1):
        vec = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"sample {m} has a non-finite entry")
        _, r = gram_schmidt_step(sample_dirs, vec)
        r_norm = np.linalg.norm(r)
        if r_norm <= tol * np.linalg.norm(vec):
            return m, False
        q = r / r_norm
        _, s = gram_schmidt_step(stacked_dirs, q)
        factor = np.linalg.norm(s)
        if factor <= tol:
            return m, True
        sample_dirs = np.vstack([sample_dirs, q])
        stacked_dirs = np.vstack([stacked_dirs, s / factor])
    return None, None


def decision_label(decision: Decision, i: int) -> str:
    """The decision's value on the row of sample i that made it, else ""."""
    return decision.variant.value if i == decision.decided_at else ""


def write_trajectory_csv(trajectory, decision: Decision, path) -> None:
    """Write one row per ingested sample: ``i,T,inv_T,k_i,decision``.

    The decision column stays empty until the deciding row. Floats use
    repr (shortest round-trip decimal), so output is byte-stable.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "T", "inv_T", "k_i", "decision"])
        for i, t, inv_t, k in trajectory:
            writer.writerow([i, repr(t), repr(inv_t), k, decision_label(decision, i)])
