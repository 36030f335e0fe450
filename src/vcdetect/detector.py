"""Volume-correlation subspace detector.

Both regimes watch one quantity, the stacked volume Vol([Q_y, Q_s]) of the
sample span and the known target basis Q_s, on one streaming state:

* the streaming detector (``detector_init`` / ``ingest`` / ``run_stream``)
  -- track the spectrum of the running sample covariance, estimate the signal
  rank from it, and track the test statistic

      T_i = Vol([Q_hat_i, Q_s])

  where Q_hat_i spans the top eigenvectors. 1/T diverges when the target is
  present and levels off at a finite value otherwise.

* ``noiseless_breakpoint`` -- take each noiseless sample through the same
  checked Gram-Schmidt step. The first sample count at which the samples
  alone, or the samples stacked with Q_s, lose volume in one step is the
  breakpoint (d1 + 1), and which of the two collapses decides the hypothesis.

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

The state also keeps log Vol([Q^T, Q_s]), the statistic of a step that keeps
all r directions, by a rank-1 update per new direction (``_fold_volume``), so
such a step takes no SVD.

The statistic is computed in the log domain; 1/T is capped at 1e308.
"""

from __future__ import annotations

import collections
import contextlib
import enum
import functools
import itertools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .geometry import (_ORTHO_TOL, SubspaceBasis, _as_real, _sum_log_sines, gram_schmidt_step,
                       residual_log_volume)

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


# DetectorConfig's numeric fields: the type (numpy scalars satisfy it), a range
# test that NaN fails, and its words. divergence_threshold may be inf (a
# threshold that never fires); gamma may not, as inf * 0 is NaN.
_NUMERIC_FIELDS = {
    "noise_variance_hint": (numbers.Real, lambda v: 0 <= v < math.inf, "finite and non-negative"),
    "rank_gap_factor": (numbers.Real, lambda v: 0 < v < math.inf, "positive and finite"),
    "divergence_threshold": (numbers.Real, lambda v: v > 1, "greater than 1"),
    "stall_epsilon": (numbers.Real, lambda v: v > 0, "positive"),
    "stall_patience": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "max_samples": (numbers.Integral, lambda v: v >= 1, ">= 1"),
}
# The fields set by name: detect's flags, and an experiment's detector block.
_THRESHOLDS = ("rank_gap_factor", "divergence_threshold", "stall_epsilon", "stall_patience")


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
        if not isinstance(self.target_basis, SubspaceBasis):
            raise ValueError(
                f"target_basis must be a SubspaceBasis, got {type(self.target_basis).__name__}"
            )
        # The type comes first, as a range test raises TypeError on a string;
        # bool, an int subclass, is ruled out by name.
        for name, (kind, in_range, rule) in _NUMERIC_FIELDS.items():
            value = getattr(self, name)
            if value is None and name == "noise_variance_hint":
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {kind.__name__.lower()}, got {value!r}")
            if not in_range(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        # The rank threshold gamma * sigma^2 is formed as Python floats, which
        # overflow to inf without a warning.
        gamma, hint = self.rank_gap_factor, self.noise_variance_hint
        if hint is not None and not math.isfinite(float(gamma) * float(hint)):
            raise ValueError("rank_gap_factor * noise_variance_hint must be finite, "
                             f"got {gamma!r} * {hint!r}")


@dataclass
class DetectorState:
    config: DetectorConfig
    sample_count: int
    estimated_rank: int
    trajectory: list[tuple[int, float, float, int]]
    decision: Decision
    # The first _rank rows of _q are orthonormal directions Q spanning the
    # samples; _x holds X = Q Q_s and _m the scatter M = Q Y Y^T Q^T, in
    # buffers that grow by doubling up to n rows. _log_vol is log Vol([Q^T,
    # Q_s]) and _ginv the inverse of G = off^T off, off = Q_s - Q^T X, or
    # None once log Vol is -inf. _basis holds the r x k coefficients V_k of
    # the signal basis Q^T V_k, or None when k = r and the basis is Q^T itself.
    _q: np.ndarray
    _x: np.ndarray
    _m: np.ndarray
    _ginv: np.ndarray | None
    _log_vol: float = 0.0
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

# A residual below this fraction of the sample's norm adds no direction (a
# zero sample, or a repeat of the span to rounding); its eigenvalue would sit
# far below the 1e-10 relative floor of estimate_rank.
_DEPENDENT_TOL = 1e-12

# A rank-1 pivot 1 - x G^-1 x^T at most this has lost digits to cancellation.
_PIVOT_FLOOR = 0.1


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
        _ginv=np.eye(cfg.target_basis.dim),
    )


def estimate_rank(eigenvalues, cfg: DetectorConfig, sample_count: int) -> int:
    """Number of above-noise eigenvalues.

    With a noise-variance hint: values exceeding ``rank_gap_factor * sigma^2``
    count (with a relative floor so exact zeros never count when sigma = 0).
    Without a hint: the split j maximizing the gap ratio lam[j-1] / lam[j]
    (the first one on ties), scanning only while lam[j-1] is above the floor.
    Capped at min(sample_count, n - 1).
    """
    lam = _as_real(eigenvalues, "eigenvalue list")
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


def _append_sample(state: DetectorState, y) -> tuple[np.ndarray, float]:
    """Convert one sample, check it, and fold it into Q, X, M and log Vol.

    Every sample, on every path, enters here and passes one check before
    anything is written: real entries (``_as_real``), the right length, and
    tr(M) + |y|^2 below 1e308 (NaN and inf fail it too). No entry the fold
    writes exceeds that sum, so an admitted sample cannot overflow. One
    two-pass Gram-Schmidt step gives its coefficients u in Q and, unless the
    residual is negligible, a new direction of Q, which must be orthogonal
    to the stored ones; u then gains the residual norm, so |u| = |y| to
    rounding. M, with a zero row and column for a new direction, gains
    u u^T, and a new direction's row of X updates log Vol (``_fold_volume``).
    Every check precedes the first write, and the sample count moves last.
    Returns the converted sample and its residual norm.
    """
    n, i, r = state.config.target_basis.ambient_dim, state.sample_count + 1, state._rank
    vec = _as_real(y, f"sample {i}")
    if vec.shape != (n,):
        raise ValueError(f"sample length {vec.shape} does not match ambient dim {n}")
    # vdot, unlike dot, warns of no overflow; the difference cannot overflow.
    if not (yy := np.vdot(vec, vec)) < 1e308 - np.trace(state._m[:r, :r]):
        what = "overflows the scatter" if np.isfinite(vec).all() else "has a non-finite entry"
        raise ValueError(f"sample {i} {what}")
    u, resid = gram_schmidt_step(state._q[:r], vec)
    rho = float(np.linalg.norm(resid))
    if rho > _DEPENDENT_TOL * math.sqrt(yy):
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
        u = np.append(u, rho)
        r = state._rank = r + 1
        _fold_volume(state, x)
    state._m[:r, :r] += np.outer(u, u)
    state.sample_count = i
    return vec, rho


def _off_span(state: DetectorState, r: int) -> np.ndarray:
    """off = Q_s - Q^T X over the first r directions: the part of Q_s off their span."""
    return state.config.target_basis.basis - state._q[:r].T @ state._x[:r]


def _fold_volume(state: DetectorState, x: np.ndarray) -> None:
    """Update log Vol and G^-1 for the direction q just added, x = q Q_s.

    off loses q x, and off^T q = x^T, so G <- G - x^T x. With w = G^-1 x^T
    and pivot = 1 - x w, log Vol gains (1/2) log(pivot) (the determinant
    lemma) and G^-1 gains w w^T / pivot (Sherman-Morrison). A pivot at most
    ``_PIVOT_FLOOR`` recomputes both from the SVD of off, with
    ``residual_log_volume``'s arithmetic; a sine below its floor gives -inf,
    and every later direction takes the SVD too.
    """
    ginv = state._ginv
    if ginv is not None:
        w = ginv @ x
        pivot = 1.0 - x @ w
        if pivot > _PIVOT_FLOOR:
            state._log_vol += 0.5 * math.log(pivot)
            w /= math.sqrt(pivot)
            ginv += np.outer(w, w)
            return
    _, s, vt = np.linalg.svd(_off_span(state, state._rank), full_matrices=False)
    state._log_vol = _sum_log_sines(s)
    state._ginv = (vt.T / s**2) @ vt if ginv is not None and state._log_vol > -math.inf else None


def ingest(state: DetectorState, y) -> DetectorState:
    """Fold one sample into the state: spectrum, rank, statistic, decision.

    The eigenvalues of M / i give the spectrum; the top-k eigenvectors V_k
    are the orthonormal coefficients of the signal basis Q^T V_k. The sines
    of its principal angles with Q_s are the singular values of the part of
    Q_s off that basis, [Q_s - Q^T X; V_perp^T X] in orthonormal coordinates,
    and log T is the sum of their logs: an SVD when k < r. When k = r that
    part is off = Q_s - Q^T X alone, and log T is the stored log Vol. After a
    k = r step under the hint rule with r < n, a Cholesky factorization of
    M - t i I shows k = r with no spectrum: t = max(gamma sigma^2, 1e-10 tr(M)
    / i) is at least the rule's threshold, as tr(M) / i >= lambda_max.
    Otherwise ``eigh`` gives the spectrum and V_k.
    """
    if state.decision.variant is not Outcome.UNDECIDED:
        raise RuntimeError("cannot ingest after a decision was reached")
    _append_sample(state, y)
    return _step(state, state._m[: state._rank, : state._rank], state._log_vol, np.linalg.eigh)


def _step(state: DetectorState, m: np.ndarray, log_vol: float, eigh) -> DetectorState:
    """The next step of ``ingest``, from its scatter m (r x r), its log
    Vol([Q^T, Q_s]) over those r directions and the spectrum ``eigh(m)``.
    The last step kept all r directions exactly when ``state._basis`` is
    None, as on a fresh state."""
    cfg, i = state.config, len(state.trajectory) + 1
    n, d2, r = cfg.target_basis.ambient_dim, cfg.target_basis.dim, m.shape[0]
    full = state._basis is None and r < n and cfg.noise_variance_hint is not None
    if full:
        level = max(cfg.rank_gap_factor * cfg.noise_variance_hint, 1e-10 * np.trace(m) / i)
        shifted = m.copy()
        shifted.flat[:: r + 1] -= i * level  # m - i level I; the copy is C-contiguous
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            full = False
    if full:
        k, V = r, None
    else:
        w, V = eigh(m)
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
    elif k == r:
        log_t = log_vol
    else:
        log_t = residual_log_volume(np.vstack([_off_span(state, r), V[:, k:].T @ state._x[:r]]))
    t = math.exp(log_t)
    # exp overflows from -log_t ~ 709.78 on; exp(709.7) already exceeds the cap.
    inv_t = min(math.exp(-log_t), INV_T_CAP) if log_t > -709.7 else INV_T_CAP
    state.trajectory.append((i, t, inv_t, k))
    state.decision = decide(state)
    return state


def decide(state: DetectorState) -> Decision:
    """Threshold test on 1/T, then stall test; the budget is ``run_stream``'s.

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
    """Ingest samples until a decision is reached or the budget runs out.

    Any iterable is read one sample at a time, as ``ingest`` takes them; no
    row at or past ``max_samples`` is read. A 2-D array, while OpenBLAS runs
    one thread and the process may use w >= 2 CPUs, is read ahead on the one
    state (``_read_ahead``): a step that needs a spectrum starts the ``eigh``
    of the next w rows' scatters on a pool of w threads, and LAPACK releases
    the GIL, so up to w calls run at once. Outputs and errors are the
    one-at-a-time loop's, and the pool is gone when this returns or raises.
    """
    state = detector_init(cfg)
    step, pool = ingest, None
    threads = isinstance(samples, np.ndarray) and samples.ndim == 2 and _openblas_threads()
    # The CPUs in the affinity mask, or all where the OS keeps none (a CPU quota is
    # not seen), at most 2: the only width timed, and each call in flight copies M.
    affinity = getattr(os, "sched_getaffinity", None)
    width = min(len(affinity(0)) if affinity else os.cpu_count() or 1, 2)
    if threads and threads[0]() == 1 and width >= 2:
        from concurrent.futures import ThreadPoolExecutor

        samples, pool = samples[: cfg.max_samples], ThreadPoolExecutor(max_workers=width)
        step = _read_ahead(samples, width, pool)
    try:
        for y in itertools.islice(samples, cfg.max_samples):
            step(state, y)
            if state.decision.variant is not Outcome.UNDECIDED:
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return state.decision, state.trajectory


def _read_ahead(rows: np.ndarray, width: int, pool):
    """``ingest`` for ``run_stream``'s pool path over ``rows``, in order.

    Each row is folded once, by its own step as in ``ingest`` or up to
    ``width`` rows before it, and its step reads the M and log Vol kept at
    that fold; a k < r step forms its off-span block from the first r rows of
    Q and X, which later folds leave as they are. A row refused while folding
    ahead leaves the state as it was and ends the rows ahead; its own step
    tries it again, unguarded, and raises, unless the stream decided first.
    """
    ahead = collections.deque()  # (M, log Vol, future of eigh(M) or None) per row folded, not stepped

    def fold_to(state, end, spectra):
        for y in rows[state.sample_count : end]:
            _append_sample(state, y)
            m = state._m[: state._rank, : state._rank].copy()
            ahead.append((m, state._log_vol, pool.submit(np.linalg.eigh, m) if spectra else None))

    def step(state, y):  # y is rows[i - 1]
        i = len(state.trajectory) + 1
        fold_to(state, i, False)
        m, log_vol, future = ahead.popleft()

        def eigh(m):
            with contextlib.suppress(ValueError):
                fold_to(state, i + width, True)
            return np.linalg.eigh(m) if future is None else future.result()

        _step(state, m, log_vol, eigh)
        if future is not None:
            future.cancel()  # unused when the step took the Cholesky test

    return step


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy loaded, or None.

    None where no loaded library exports the OpenBLAS thread functions:
    another BLAS, or a system without ``/proc/self/maps``.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def noiseless_breakpoint(
    target_basis: SubspaceBasis,
    samples,
    tol: float = 1e-8,
) -> tuple[int | None, bool | None]:
    """Breakpoint search for the noiseless regime, on the detector's state.

    Each sample takes the streaming detector's checked Gram-Schmidt step. The
    breakpoint m is the first sample that adds no direction to Q or to
    [Q, Q_s], and it decides the hypothesis:

    * its residual off Q is at most ``tol * ||y||``: the samples alone lose
      rank, so the target is absent -> ``(m, False)``;
    * its new unit direction q has a residual off [Q, Q_s] of at most
      ``tol``: the stacked volume Vol([Q_y, Q_s]) vanishes while the samples
      keep full rank, so the target is present -> ``(m, True)``. As q is
      orthogonal to Q, that residual is Vol([Q, q, Q_s]) / Vol([Q, Q_s]), so
      the test reads the step's drop of the state's log Vol against
      log(tol). Near the breakpoint the rank-1 pivot cancels, so that drop
      ends on a value the SVD of the off-span block gave (``_fold_volume``).

    Both tests are relative to one step, so neither depends on how many
    samples came before, nor on their scale while ``_append_sample`` admits
    them. ``(None, None)`` if the stream ends first. ``tol`` must lie in (0, 1).
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    state = detector_init(DetectorConfig(target_basis))
    for m, y in enumerate(samples, start=1):
        prev = state._log_vol
        vec, rho = _append_sample(state, y)
        if rho <= tol * np.linalg.norm(vec):
            return m, False
        if state._log_vol - prev <= math.log(tol):
            return m, True
    return None, None


def decision_label(decision: Decision, i: int) -> str:
    """The decision's value on the row of sample i that made it, else ""."""
    return decision.variant.value if i == decision.decided_at else ""


def _write_csv(path, header, rows) -> None:
    """The CSV writer of every output file: LF line endings, no quoting.

    A float's str is its repr (shortest round-trip decimal), so output is byte-stable.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % row)


def write_trajectory_csv(trajectory, decision: Decision, path) -> None:
    """Write one row per ingested sample: ``i,T,inv_T,k_i,decision``.

    The decision column stays empty until the deciding row.
    """
    rows = ((i, t, inv_t, k, decision_label(decision, i)) for i, t, inv_t, k in trajectory)
    _write_csv(path, ("i", "T", "inv_T", "k_i", "decision"), rows)
