"""Solvers for unknown spheres under tangency/orthogonality/angle constraints.

The completion problem: given n+1 known spheres and a target product for
each against an unknown X, the targets are linear equations on the vector
of X in the (n+2)-dimensional Minkowski space.  The kernel of that system
is one-dimensional for independent knowns, and restricting the line
x_p + s*k to the unit hyperboloid norm^2 = -1 leaves a quadratic in s:
zero, one, or two solutions.  Descartes circles, the radical (orthogonal)
circle, and all eight Apollonius tangency patterns are instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Sequence

import numpy as np

from .errors import (
    DependentKnownsError,
    DimensionMismatchError,
    InconsistentSystemError,
    NoRealSolutionError,
    NotTangentError,
    UnknownFamilyError,
)
from .geometry import GeneralizedSphere, Sphere, pedoe_vector, sphere_from_vector
from .linalg import SymMatrix, solve_affine
from .minkowski import MVector, _inner_raw, metric

#: Pedoe-vector distance below which two solutions count as the same circle.
DEDUP_TOL = 1e-8
#: Pairwise product must sit this close to +1 for "mutually tangent" inputs.
TANGENT_TOL = 1e-8
_QUAD_DEGENERATE = 1e-12


@dataclass(frozen=True)
class ConstraintRow:
    """Target products between the unknown sphere and each known one."""

    targets: tuple[float, ...]

    def __post_init__(self):
        t = tuple(float(x) for x in self.targets)
        if not t or not all(np.isfinite(t)):
            raise ValueError("targets must be a nonempty sequence of finite reals")
        object.__setattr__(self, "targets", t)

    def __len__(self):
        return len(self.targets)

    @classmethod
    def external(cls, count: int) -> "ConstraintRow":
        """All-external tangency (+1 everywhere)."""
        return cls((1.0,) * count)

    @classmethod
    def internal(cls, count: int) -> "ConstraintRow":
        return cls((-1.0,) * count)

    @classmethod
    def orthogonal(cls, count: int) -> "ConstraintRow":
        return cls((0.0,) * count)

    @classmethod
    def tangency(cls, signs: Sequence[int]) -> "ConstraintRow":
        """Mixed tangency row from +-1 signs."""
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +1 or -1, got {tuple(signs)}")
        return cls(tuple(float(s) for s in signs))

    @classmethod
    def from_angles(cls, angles: Sequence[float]) -> "ConstraintRow":
        """Row of cos(angle) targets; angles in radians."""
        return cls(tuple(float(np.cos(a)) for a in angles))


def target_from_angle(angle: float) -> float:
    """Product value for circles meeting at the given angle (radians)."""
    return float(np.cos(angle))


def target_from_distance(d: float, r1: float, r2: float) -> float:
    """Product value for circles of radii r1, r2 with centers distance d apart."""
    return (d * d - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)


@dataclass(frozen=True)
class SolveResult:
    """Zero to two completions, with per-solution constraint residuals.

    Solutions are ordered by curvature descending; hyperplanes count as
    curvature zero.  Roots that merely reproduce one of the known circles
    (up to orientation) are moved to `coincident` instead.
    """

    solutions: tuple[GeneralizedSphere, ...]
    residuals: tuple[float, ...]
    discriminant: float
    coincident: tuple[GeneralizedSphere, ...] = ()

    def __len__(self):
        return len(self.solutions)


def _real_roots(q2: float, q1: float, q0: float) -> tuple[list[float], float]:
    """Real roots of q2*s^2 + q1*s + q0 = 0, and the discriminant.

    A leading coefficient negligible against the others drops to the
    linear case.  A discriminant negative beyond round-off leaves no root;
    one within round-off of zero gives the double root.
    """
    disc = q1 * q1 - 4.0 * q2 * q0
    if abs(q2) <= _QUAD_DEGENERATE * max(abs(q1), abs(q0), 1.0):
        if abs(q1) <= _QUAD_DEGENERATE * max(abs(q0), 1.0):
            return [], disc
        return [-q0 / q1], disc
    if disc < -_QUAD_DEGENERATE * max(q1 * q1, abs(4.0 * q2 * q0)):
        return [], disc
    if disc <= 0.0:
        return [-q1 / (2.0 * q2)], disc
    root = np.sqrt(disc)
    if q1 >= 0.0:
        w = -(q1 + root) / 2.0
    else:
        w = -(q1 - root) / 2.0
    roots = [w / q2, q0 / w] if w != 0.0 else [root / (2.0 * q2), -root / (2.0 * q2)]
    return roots, disc


def _aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean distance between unit vectors, ignoring orientation."""
    return min(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


def _curvature_key(shape: GeneralizedSphere) -> float:
    return shape.curvature if isinstance(shape, Sphere) else 0.0


def complete_configuration(
    known: Sequence[GeneralizedSphere],
    row: ConstraintRow,
    tol: float = 1e-9,
) -> SolveResult:
    """Solve for the sphere(s) with prescribed products against n+1 knowns.

    The linear stage solves <C_i, x> = target_i; its one-dimensional kernel
    parametrizes x = x_p + s*k, and the unit-norm condition gives a
    quadratic in s.  A light-like kernel direction degenerates the
    quadratic to a single root; a negative discriminant yields an empty
    result carrying the discriminant.  Raises DependentKnownsError when
    the knowns are linearly dependent as vectors.
    """
    vecs = np.array([pedoe_vector(s).components for s in known])
    dim = vecs.shape[1]
    n = dim - 2
    if len(known) != n + 1:
        raise DimensionMismatchError(f"need n+1 = {n + 1} knowns in dimension {n}, got {len(known)}")
    if len(row) != len(known):
        raise DimensionMismatchError(f"constraint row of length {len(row)} for {len(known)} knowns")
    g = metric(n).array
    targets = np.asarray(row.targets)
    try:
        x_p, kernel = solve_affine(vecs @ g, targets)
    except InconsistentSystemError as exc:
        raise DependentKnownsError(f"dependent knowns with incompatible targets: {exc}") from exc
    if kernel.shape[0] != 1:
        raise DependentKnownsError(
            f"known spheres span only {dim - kernel.shape[0]} of {n + 1} directions"
        )
    k = kernel[0]
    q2 = _inner_raw(k, k)
    q1 = 2.0 * _inner_raw(x_p, k)
    q0 = _inner_raw(x_p, x_p) + 1.0
    roots, discriminant = _real_roots(q2, q1, q0)

    entries = []
    for s in roots:
        x = x_p + s * k
        shape = sphere_from_vector(MVector(x), tol)
        residual = float(np.max(np.abs(vecs @ g @ x - targets)))
        entries.append((shape, x, residual))
    entries.sort(key=lambda e: _curvature_key(e[0]), reverse=True)

    solutions, residuals, coincident = [], [], []
    for shape, x, residual in entries:
        if any(_aligned_distance(x, kv) <= DEDUP_TOL for kv in vecs):
            coincident.append(shape)
        else:
            solutions.append(shape)
            residuals.append(residual)
    return SolveResult(tuple(solutions), tuple(residuals), discriminant, tuple(coincident))


def apollonius(c1: Sphere, c2: Sphere, c3: Sphere, signs: Sequence[int]) -> SolveResult:
    """Circles tangent to three given circles, one tangency type per sign.

    With all inputs positively oriented, +1 asks for external tangency to
    that circle and -1 for internal (one circle inside the other).  Each
    returned circle kisses all three givens.
    """
    circles = (c1, c2, c3)
    if any(not isinstance(c, Sphere) for c in circles):
        raise TypeError("apollonius takes three circles")
    if any(c.n != 2 for c in circles):
        raise DimensionMismatchError("apollonius is planar: all circles must have n = 2")
    if len(signs) != 3:
        raise ValueError("exactly three signs required")
    return complete_configuration(circles, ConstraintRow.tangency(signs))


def apollonius_all(
    c1: Sphere, c2: Sphere, c3: Sphere
) -> list[tuple[tuple[int, int, int], SolveResult]]:
    """All eight sign patterns, deduplicated across patterns.

    Orientation-flipped duplicates (the same circle reached from the
    opposite pattern) are dropped from later patterns, so the union of the
    returned solutions has at most 8 distinct circles.  Iteration order is
    fixed, which makes the output deterministic.
    """
    seen: list[np.ndarray] = []
    out = []
    for signs in _iter_product((1, -1), repeat=3):
        res = apollonius(c1, c2, c3, signs)
        keep_s, keep_r = [], []
        for shape, residual in zip(res.solutions, res.residuals):
            x = pedoe_vector(shape).components
            if any(_aligned_distance(x, s) <= DEDUP_TOL for s in seen):
                continue
            seen.append(x)
            keep_s.append(shape)
            keep_r.append(residual)
        out.append(
            (signs, SolveResult(tuple(keep_s), tuple(keep_r), res.discriminant, res.coincident))
        )
    return out


def _require_mutually_tangent(circles: Sequence[Sphere]):
    vecs = [pedoe_vector(c).components for c in circles]
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            p = _inner_raw(vecs[i], vecs[j])
            if abs(p - 1.0) > TANGENT_TOL:
                raise NotTangentError(
                    f"circles {i} and {j} have product {p:.6g}, expected +1 "
                    "(oriented external tangency)"
                )


def soddy_circles(c1: Sphere, c2: Sphere, c3: Sphere) -> SolveResult:
    """Both circles tangent to a mutually tangent triple (inner and outer).

    The two curvatures are the roots of the Descartes relation
    2*(a^2+b^2+c^2+d^2) = (a+b+c+d)^2; the outer solution comes out with
    negative curvature, i.e. as the unbounded disk enclosing the triple.
    """
    circles = (c1, c2, c3)
    _require_mutually_tangent(circles)
    return complete_configuration(circles, ConstraintRow.external(3))


def orthogonal_circle(c1: Sphere, c2: Sphere, c3: Sphere) -> SolveResult:
    """The circle orthogonal to all of a mutually tangent triple.

    Curvature is +-sqrt(ab + bc + ca); both orientations are returned.
    When that expression vanishes (collinear tangency points) the solution
    degenerates to a line and is returned as a hyperplane.
    """
    circles = (c1, c2, c3)
    _require_mutually_tangent(circles)
    return complete_configuration(circles, ConstraintRow.orthogonal(3))


def curvature_solve(f_inverse: SymMatrix, known_b: Sequence[float]) -> list[float]:
    """Unknown curvature(s) from b^T F b = 0 with all but the last entry known.

    F is the inverse configuration matrix; the equation is quadratic in the
    missing curvature.  Returns the real roots in descending order; a
    degenerate leading coefficient drops to the linear case.  Raises
    NoRealSolutionError when no real root exists.
    """
    farr = f_inverse.array
    kb = np.asarray(known_b, dtype=float)
    if kb.size != f_inverse.dim - 1:
        raise DimensionMismatchError(
            f"expected {f_inverse.dim - 1} known curvatures, got {kb.size}"
        )
    q2 = float(farr[-1, -1])
    q1 = 2.0 * float(farr[-1, :-1] @ kb)
    q0 = float(kb @ farr[:-1, :-1] @ kb)
    roots, disc = _real_roots(q2, q1, q0)
    if not roots:
        raise NoRealSolutionError(f"curvature equation has no real root (discriminant {disc:.6g})")
    return sorted(roots, reverse=True)


#: Identity evaluators by family name.  Curvatures are signed; any
#: containment sign convention is applied by the caller before evaluating.
_FAMILIES = {}


def _family(name):
    def register(fn):
        _FAMILIES[name] = fn
        return fn

    return register


@_family("descartes")
def _descartes_identity(b: np.ndarray) -> float:
    if b.size != 4:
        raise ValueError("descartes family takes 4 curvatures")
    return abs(2.0 * float(b @ b) - float(np.sum(b)) ** 2)


@_family("soddy_gossett")
def _soddy_gossett_identity(b: np.ndarray) -> float:
    # (sum b)^2 = n * sum b^2 for n+2 mutually tangent spheres in R^n
    if b.size < 3:
        raise ValueError("soddy_gossett family takes at least 3 curvatures")
    n = b.size - 2
    return abs(float(np.sum(b)) ** 2 - n * float(b @ b))


@_family("ortho_triple_tangent")
def _ortho_triple_identity(b: np.ndarray) -> float:
    # three mutually orthogonal circles a, b, c and a fourth d tangent to all
    if b.size != 4:
        raise ValueError("ortho_triple_tangent family takes 4 curvatures")
    a, bb, c, d = b
    return abs(2.0 * (a * a + bb * bb + c * c) - (a + bb + c + d) ** 2)


@_family("ortho_pair_tangent_pair")
def _ortho_pair_identity(b: np.ndarray) -> float:
    # orthogonal pair a, b plus mutually tangent pair c, d touching both
    if b.size != 4:
        raise ValueError("ortho_pair_tangent_pair family takes 4 curvatures")
    a, bb, c, d = b
    return abs(
        2.0 * (4.0 * a * a + 4.0 * bb * bb + (c - d) ** 2) - (2.0 * a + 2.0 * bb + c + d) ** 2
    )


def family_identity_residual(family: str, curvatures: Sequence[float]) -> float:
    """Absolute defect of the named configuration-family curvature identity.

    Families: descartes, soddy_gossett, ortho_triple_tangent,
    ortho_pair_tangent_pair.
    """
    key = str(family).strip().lower().replace("-", "_")
    fn = _FAMILIES.get(key)
    if fn is None:
        raise UnknownFamilyError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    b = np.asarray(curvatures, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("curvatures must be finite")
    return fn(b)
