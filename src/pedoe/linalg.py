"""Dense symmetric-matrix kernel for small configuration problems.

Everything here is sized for (n+2) x (n+2) matrices with small ambient
dimension n.  Inertia, inverse and condition estimate all come from one
LAPACK symmetric eigendecomposition (numpy's eigh).  It is backward
stable: the eigenvalues belong to a matrix within a small multiple of
machine epsilon times the norm of the input, the same scale the inertia
count's zero tolerance is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InconsistentSystemError, SingularMatrixError

DEFAULT_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Symmetric real matrix; input is symmetrized by averaging with its transpose."""

    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("SymMatrix requires a square matrix of dim >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("SymMatrix entries must be finite")
        a = 0.5 * (a + a.T)  # absorb round-off in nominally symmetric input
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __array__(self, dtype=None):
        return np.asarray(self.array, dtype=dtype)

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


class Inertia(NamedTuple):
    """Signature of a symmetric matrix: eigenvalue sign counts."""

    n_pos: int
    n_neg: int
    n_zero: int


def _decompose(
    m: SymMatrix, zero_tol: float | None = None, cond_limit: float = DEFAULT_COND_LIMIT
) -> tuple[Inertia, Optional[SymMatrix], float]:
    """Inertia, inverse and condition estimate from one eigendecomposition.

    The inverse is None when an eigenvalue vanishes or the condition
    estimate max|w|/min|w| exceeds cond_limit.
    """
    if zero_tol is None:
        zero_tol = 1e-9 * float(np.max(np.abs(m.array), initial=0.0))
    if zero_tol < 0.0:
        raise ValueError("zero_tol must be nonnegative")
    if cond_limit <= 1.0:
        raise ValueError("cond_limit must exceed 1")
    w, v = np.linalg.eigh(m.array)
    n_pos = int(np.sum(w > zero_tol))
    n_neg = int(np.sum(w < -zero_tol))
    amin = float(np.min(np.abs(w)))
    cond = float(np.max(np.abs(w))) / amin if amin else np.inf
    inverse = None if amin == 0.0 or cond > cond_limit else SymMatrix((v / w) @ v.T)
    return Inertia(n_pos, n_neg, m.dim - n_pos - n_neg), inverse, cond


def invert_symmetric(m: SymMatrix, cond_limit: float = DEFAULT_COND_LIMIT) -> SymMatrix:
    """Invert a symmetric matrix through its eigendecomposition.

    Raises SingularMatrixError when an eigenvalue vanishes or the estimated
    condition number max|w|/min|w| exceeds cond_limit.
    """
    _, inverse, cond = _decompose(m, cond_limit=cond_limit)
    if inverse is None:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (cond estimate "
            f"{cond:.3e} > {cond_limit:.3e})"
        )
    return inverse


def inertia(m: SymMatrix, zero_tol: float | None = None) -> Inertia:
    """Count eigenvalues above zero_tol, below -zero_tol, and in between.

    zero_tol defaults to 1e-9 times the largest absolute entry, suitable
    for circle data of magnitude O(1) to O(1e3).
    """
    return _decompose(m, zero_tol)[0]


def solve_affine(
    rows: Sequence[Sequence[float]] | np.ndarray,
    rhs: Sequence[float] | np.ndarray,
    rank_tol: float = 1e-12,
    residual_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a (possibly underdetermined) linear system row-by-row.

    Returns (particular, kernel_basis): the minimum-norm particular solution
    and an orthonormal basis of the null space as rows of a 2-D array.
    Rank deficiency simply enlarges the kernel.  Raises
    InconsistentSystemError when no exact solution exists, i.e. the
    least-squares residual exceeds residual_tol * (|rows|*|x| + |rhs|)
    in the max norm.
    """
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.asarray(rhs, dtype=float).ravel()
    if a.shape[0] != b.size:
        raise ValueError("rhs length must match the number of equations")
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > rank_tol * smax)) if smax > 0.0 else 0
    coeff = (u[:, :rank].T @ b) / s[:rank]
    particular = vt[:rank].T @ coeff
    kernel = vt[rank:].copy()
    residual = float(np.max(np.abs(a @ particular - b), initial=0.0))
    bound = residual_tol * (
        float(np.max(np.abs(a), initial=0.0)) * float(np.max(np.abs(particular), initial=0.0))
        + float(np.max(np.abs(b), initial=0.0))
    )
    if residual > bound:
        raise InconsistentSystemError(
            f"no exact solution: least-squares residual {residual:.3e} exceeds {bound:.3e}"
        )
    return particular, kernel
