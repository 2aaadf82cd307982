"""The isotropic Minkowski space that hosts sphere coordinates.

A circle or (n-1)-sphere in R^n maps to a vector with n+2 components,
ordered as (b, b_bar, x_1/r, ..., x_n/r): curvature, co-curvature, reduced
center position.  The inner product in this basis is

    <v, w> = (v1*w2 + v2*w1)/2 - sum_{k>=3} v_k*w_k

so the metric matrix has an off-diagonal 1/2 block followed by a -1
diagonal tail, signature (+, -, ..., -).  Real spheres sit on the
norm-squared == -1 hyperboloid, points on the light cone, hyperplanes in
the b == 0 slice.  Vectors with negative first component are legitimate:
they encode the unbounded complementary disk (flipped orientation).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError
from .linalg import SymMatrix

#: Relative tolerance for ray classification, against the max-abs component.
CLASSIFY_TOL = 1e-9


class RayClass(Enum):
    PROPER_SPHERE = "ProperSphere"
    POINT_RAY = "PointRay"
    HYPERPLANE_RAY = "HyperplaneRay"
    IMAGINARY = "Imaginary"


@dataclass(frozen=True, eq=False)
class MVector:
    """Vector in the isotropic basis; length n+2 for ambient dimension n."""

    components: np.ndarray

    def __post_init__(self):
        c = np.array(self.components, dtype=float)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("MVector needs at least 3 components (ambient dim >= 1)")
        if not np.all(np.isfinite(c)):
            raise ValueError("MVector components must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "components", c)

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return self.components.size - 2

    @property
    def curvature(self) -> float:
        return float(self.components[0])

    @property
    def co_curvature(self) -> float:
        return float(self.components[1])

    @property
    def reduced_position(self) -> np.ndarray:
        return self.components[2:]

    def __repr__(self):
        return f"MVector({np.array2string(self.components, separator=', ')})"


def _isotropic(n: int, corner: float) -> SymMatrix:
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    g = np.diag([0.0, 0.0] + [-1.0] * n)
    g[0, 1] = g[1, 0] = corner
    return SymMatrix(g)


def metric(n: int) -> SymMatrix:
    """Metric matrix of the isotropic basis for ambient dimension n."""
    return _isotropic(n, 0.5)


def metric_inverse(n: int) -> SymMatrix:
    """Inverse metric: off-diagonal 2 block, then the same -1 tail."""
    return _isotropic(n, 2.0)


def _inner_raw(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * (a[0] * b[1] + a[1] * b[0]) - a[2:] @ b[2:])


def inner(v: MVector, w: MVector) -> float:
    """Minkowski inner product <v, w>."""
    if v.components.size != w.components.size:
        raise DimensionMismatchError(
            f"vectors of length {v.components.size} and {w.components.size}"
        )
    return _inner_raw(v.components, w.components)


def norm_sq(v: MVector) -> float:
    """Minkowski norm squared <v, v>; -1 for spheres, 0 on the light cone."""
    return _inner_raw(v.components, v.components)


def classify_ray(v: MVector, tol: float = CLASSIFY_TOL) -> RayClass:
    """Classify the ray spanned by v (scale-invariant for positive scale)."""
    c = v.components
    vmax = float(np.max(np.abs(c)))
    if vmax == 0.0:
        raise ZeroVectorError("cannot classify the zero vector")
    if abs(c[0]) <= tol * vmax:
        return RayClass.HYPERPLANE_RAY
    nsq = _inner_raw(c, c)
    if abs(nsq) <= tol * vmax * vmax:
        return RayClass.POINT_RAY
    if nsq < 0.0:
        return RayClass.PROPER_SPHERE
    return RayClass.IMAGINARY


def to_orthonormal(v: MVector) -> MVector:
    """Rewrite v in the orthonormal basis diagonalizing the metric to (1, -1, ..., -1).

    The first two components become ((b + b_bar)/2, (b - b_bar)/2); the rest
    are untouched.  Inner products are preserved.
    """
    c = v.components
    out = c.copy()
    out[0] = 0.5 * (c[0] + c[1])
    out[1] = 0.5 * (c[0] - c[1])
    return MVector(out)


def from_orthonormal(v: MVector) -> MVector:
    """Inverse of to_orthonormal."""
    c = v.components
    out = c.copy()
    out[0] = c[0] + c[1]
    out[1] = c[0] - c[1]
    return MVector(out)
