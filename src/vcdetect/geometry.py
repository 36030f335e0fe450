"""Dense-matrix subspace geometry: volumes, principal angles, volume correlation.

All routines work on plain numpy arrays (row-major, float64). Matrices hold
one basis/sample vector per column. Singular values below
``SINGULAR_VALUE_FLOOR`` times the largest one are treated as zero when
deciding numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative floor under which a singular value counts as zero.
SINGULAR_VALUE_FLOOR = 1e-12
# Largest entry of |B^T B - I| an orthonormal basis B may have, here and in the detector.
_ORTHO_TOL = 1e-10

__all__ = [
    "SINGULAR_VALUE_FLOOR",
    "SubspaceBasis",
    "orthonormalize",
    "volume",
    "principal_angles",
    "volume_correlation",
    "residual_log_volume",
    "gram_schmidt_step",
    "incremental_volume_factor",
    "elementary_symmetric",
]


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix entries must be finite")
    return X


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of R^n, one basis vector per column."""

    basis: np.ndarray

    def __post_init__(self):
        B = _as_matrix(self.basis)
        object.__setattr__(self, "basis", B)
        if B.shape[1] > B.shape[0]:
            raise ValueError("subspace dimension exceeds ambient dimension")
        if B.shape[1] > 0:
            off = np.abs(B.T @ B - np.eye(B.shape[1]))
            if np.max(off) > _ORTHO_TOL:
                col = int(np.unravel_index(np.argmax(off), off.shape)[1])
                raise ValueError(f"basis columns are not orthonormal (column {col})")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def orthonormalize(X, tol: float = 1e-8) -> SubspaceBasis:
    """Orthonormal basis of the column space of ``X``.

    Each column is reduced against the accepted directions by
    ``gram_schmidt_step`` and dropped if its residual falls below
    ``tol * ||X||_F``, so the resulting dimension is the numerical rank of
    ``X`` at ``tol``, which must lie in (0, 1).
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    X = _as_matrix(X)
    scale = np.linalg.norm(X)
    Q = np.empty((X.shape[0], 0))
    if scale == 0.0:
        return SubspaceBasis(Q)
    # Contiguous columns, and the rows passed as Q.T: a strided v or a
    # C-ordered row array makes the BLAS round differently.
    for v in X.T.copy():
        r = gram_schmidt_step(Q.T, v)[1]
        nrm = np.linalg.norm(r)
        if nrm >= tol * scale:
            Q = np.column_stack([Q, r / nrm])
    return SubspaceBasis(Q)


def volume(X, d: int) -> float:
    """Product of the ``d`` largest singular values of ``X``.

    Equals sqrt(det(X^T X)) for a full-column-rank X with d columns, and 0
    whenever rank(X) < d.
    """
    X = _as_matrix(X)
    if d < 1 or d > X.shape[1]:
        raise ValueError(f"d={d} out of range for {X.shape[1]} columns")
    s = np.linalg.svd(X, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0 or np.sum(s > SINGULAR_VALUE_FLOOR * s[0]) < d:
        return 0.0
    return float(np.prod(s[:d]))


def principal_angles(A: SubspaceBasis, B: SubspaceBasis) -> np.ndarray:
    """Principal angles between span(A) and span(B), ascending, in [0, pi/2].

    Each angle is arctan2(sine, cosine), with the cosines from A^T B and the
    sines from ``_sines``, so it is accurate near 0 and near pi/2 alike.
    """
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if A.dim < 1 or B.dim < 1:
        raise ValueError("both subspaces must have dimension >= 1")
    c = np.minimum(np.linalg.svd(A.basis.T @ B.basis, compute_uv=False), 1.0)
    return np.sort(np.arctan2(_sines(A, B), c))


def _sines(A: SubspaceBasis, B: SubspaceBasis) -> np.ndarray:
    """Sines of the principal angles, ascending: the singular values of the part of
    the smaller block off the larger one (~1e-16, not ~1e-8, for a shared direction)."""
    if A.dim < B.dim:
        A, B = B, A
    s = np.linalg.svd(B.basis - A.basis @ (A.basis.T @ B.basis), compute_uv=False)
    return np.minimum(s[::-1], 1.0)


def volume_correlation(A: SubspaceBasis, B: SubspaceBasis) -> float:
    """Stacked-basis volume of [A, B] normalized by the individual volumes.

    For orthonormal inputs the individual volumes are 1, and the value
    reduces to the product of sines of the principal angles. Lies in [0, 1];
    0 iff the subspaces intersect nontrivially.
    """
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if A.dim + B.dim > A.ambient_dim:
        return 0.0
    return float(np.prod(_sines(A, B)))


def residual_log_volume(residual) -> float:
    """log of the product of the singular values of ``residual``.

    ``residual`` holds, in any orthonormal coordinates, the part of an
    orthonormal block B off the span of another block A; its singular values
    are the sines of the principal angles between the spans, so the result is
    log Vol([A, B]). Taking the sines directly rather than as sqrt(1 - cos^2)
    keeps a vanishing angle at rounding level instead of ~1e-8. -inf if a
    sine is below ``SINGULAR_VALUE_FLOOR``.
    """
    return _sum_log_sines(np.linalg.svd(residual, compute_uv=False))


def _sum_log_sines(s: np.ndarray) -> float:
    """``residual_log_volume`` from the singular values ``s`` of the residual."""
    s = np.minimum(s, 1.0)
    if np.any(s < SINGULAR_VALUE_FLOOR):
        return float("-inf")
    return float(np.sum(np.log(s)))


def gram_schmidt_step(rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and residual of v against orthonormal rows, by two passes.

    Returns ``(c, r)`` with v = c @ rows + r. Classical Gram-Schmidt applied
    twice keeps r orthogonal to the rows to working precision ("twice is
    enough": Giraud, Langou & Rozloznik, 2005).
    """
    c = rows @ v
    r = v - c @ rows
    c2 = rows @ r
    r -= c2 @ rows
    return c + c2, r


def incremental_volume_factor(X, Yprev, y) -> float:
    """Residual norm of y off the column space of [X, Yprev].

    Satisfies Vol([X, Yprev, y]) = Vol([X, Yprev]) * factor, which makes the
    stacked volume maintainable one appended column at a time.
    """
    X = _as_matrix(X)
    Yprev = _as_matrix(Yprev) if np.asarray(Yprev).size else np.empty((X.shape[0], 0))
    y = np.asarray(y, dtype=float)
    if Yprev.shape[0] != X.shape[0] or y.shape != (X.shape[0],):
        raise ValueError("row dimensions are inconsistent")
    stacked = np.hstack([X, Yprev])
    base = orthonormalize(stacked, tol=1e-12)
    return float(np.linalg.norm(gram_schmidt_step(base.basis.T, y)[1]))


def elementary_symmetric(values, k: int) -> float:
    """k-th elementary symmetric function of the given values; s_0 = 1."""
    values = np.asarray(values, dtype=float)
    if k < 0 or k > values.size:
        raise ValueError(f"k={k} out of range for {values.size} values")
    e = np.zeros(k + 1)
    e[0] = 1.0
    for x in values:
        e[1:] = e[1:] + x * e[:-1]
    return float(e[k])
