"""Configuration (Gram) matrices of sphere systems and realizability tests.

A system of n+2 spheres in R^n has a data matrix A whose columns are the
unit Minkowski vectors of the spheres, and a configuration matrix
f = A^T g A of pairwise products.  When f is invertible with inverse F,
the identity A F A^T = G (G the inverse metric) ties curvatures,
co-curvatures and reduced positions of the system together.  Signature
(1, n+1, 0) of f is exactly realizability: hypothetical product tables
with any other inertia correspond to no actual circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, SingularMatrixError
from .geometry import GeneralizedSphere, pedoe_vector
from .linalg import Inertia, SymMatrix
from .minkowski import metric_inverse


class Realizability(Enum):
    REALIZABLE = "Realizable"
    NOT_REALIZABLE = "NotRealizable"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True, eq=False)
class ConfigurationMatrix:
    """Gram matrix f of a sphere system, its inverse when it exists, and its inertia."""

    f: SymMatrix
    inverse: Optional[SymMatrix]
    inertia: Inertia

    @property
    def singular(self) -> bool:
        return self.inverse is None


def data_matrix(spheres: Sequence[GeneralizedSphere]) -> np.ndarray:
    """The (n+2) x (n+2) array whose columns are the unit vectors of n+2 spheres in R^n."""
    cols = [pedoe_vector(s).components for s in spheres]
    if not cols:
        raise ValueError("empty data matrix")
    size = cols[0].size
    if any(c.size != size for c in cols):
        raise DimensionMismatchError("mixed ambient dimensions in data matrix")
    if len(cols) != size:
        raise DimensionMismatchError(
            f"need n+2 = {size} spheres in dimension {size - 2}, got {len(cols)}"
        )
    return np.column_stack(cols)


def gram(spheres: Sequence[GeneralizedSphere]) -> ConfigurationMatrix:
    """Configuration matrix of n+2 spheres: all pairwise products.

    A singular Gram matrix is not an error here; the inverse is simply
    absent and operations that need it raise SingularMatrixError.
    """
    a = data_matrix(spheres)
    # A^T g A with g's two blocks written out, so each entry rounds exactly as inner() does
    fm = SymMatrix(0.5 * (np.outer(a[0], a[1]) + np.outer(a[1], a[0])) - a[2:].T @ a[2:])
    ine, inverse, _ = linalg._decompose(fm)
    return ConfigurationMatrix(fm, inverse, ine)


def dual_products(
    spheres: Sequence[GeneralizedSphere], f_inverse: Optional[SymMatrix] = None
) -> SymMatrix:
    """The matrix A F A^T of products between the rows of the data matrix.

    Row i of A collects one coordinate across all spheres (curvatures,
    co-curvatures, reduced positions), so entry (i, j) is v_i^T F v_j.
    For a valid configuration this equals the inverse metric G.

    By default F is the inverse of the spheres' own Gram matrix, which
    makes the identity hold up to round-off for any independent system.
    Passing an explicit f_inverse instead tests the spheres against a
    claimed configuration: the result drifts from G as the actual data
    depart from the relations F encodes.
    """
    if f_inverse is None:
        cfg = gram(spheres)
        if cfg.inverse is None:
            raise SingularMatrixError("configuration matrix is singular")
        f_inverse = cfg.inverse
    a = data_matrix(spheres)
    if f_inverse.dim != a.shape[0]:
        raise DimensionMismatchError(
            f"f_inverse of dim {f_inverse.dim} for {a.shape[0]} spheres"
        )
    return SymMatrix(a @ f_inverse.array @ a.T)


def master_residual(
    spheres: Sequence[GeneralizedSphere], f_inverse: Optional[SymMatrix] = None
) -> float:
    """Max-norm defect of the identity A F A^T = G.

    With the default F (from the spheres' own Gram) this is zero up to
    round-off for any independent system; with an explicit f_inverse it
    measures how far the spheres are from realizing that configuration.
    """
    dp = dual_products(spheres, f_inverse)
    n = len(spheres) - 2
    return float(np.max(np.abs(dp.array - metric_inverse(n).array)))


def realizable(f: SymMatrix, zero_tol: float | None = None) -> Realizability:
    """Decide whether a hypothetical product table can be realized by circles.

    Realizable iff the inertia is (1, dim-1, 0); a zero eigenvalue makes
    the answer Degenerate (rank-deficient family), anything else is
    NotRealizable.
    """
    ine = linalg.inertia(f, zero_tol)
    if ine.n_zero > 0:
        return Realizability.DEGENERATE
    if ine == Inertia(1, f.dim - 1, 0):
        return Realizability.REALIZABLE
    return Realizability.NOT_REALIZABLE
