"""Independent answer checks for the benchmark, in raw centre/radius arithmetic.

Nothing here imports pedoe.  A sphere (a circle in the plane) is a pair
``(center, radius)`` with a signed radius; a hyperplane (a line) is
``(normal, offset)`` with a unit normal, the set ``normal . x = offset``.
Two shapes whose product target is ``t`` satisfy

    |p - q|^2 = r^2 + s^2 + 2 t r s        sphere (p, r) against sphere (q, s)
    offset - normal . q = t s              hyperplane against sphere (q, s)

which is the library's product convention written in Euclidean terms:
``t = +1`` is oriented tangency, ``0`` orthogonality, ``cos(phi)`` an angle.
Every comparison below is relative to the size of the shapes it compares,
so the checks mean the same thing wherever a configuration sits and
however large it is.
"""

from __future__ import annotations

import math
from itertools import product as iter_product

import numpy as np

#: Relative tolerance of every oracle comparison.
REL_TOL = 1e-6


class Degenerate(ValueError):
    """The problem sits too close to a decision boundary to have a clear answer."""


# ---------------------------------------------------------------------------
# shapes


def sphere(center, radius) -> tuple:
    return ("sphere", np.asarray(center, dtype=float), float(radius))


def plane(normal, offset) -> tuple:
    return ("plane", np.asarray(normal, dtype=float), float(offset))


def product_error(x: tuple, known: tuple, target: float) -> float:
    """Relative defect of the relation ``<x, known> = target``; known is a sphere."""
    _, q, s = known
    if x[0] == "plane":
        _, normal, offset = x
        return abs(offset - float(normal @ q) - target * s) / abs(s)
    _, p, r = x
    d = p - q
    return abs(float(d @ d) - r * r - s * s - 2.0 * target * r * s) / (abs(r) + abs(s)) ** 2


def shape_distance(x: tuple, y: tuple, oriented: bool = True) -> float:
    """Scale-free distance between two shapes; inf for a sphere against a plane."""
    if x[0] != y[0]:
        return math.inf
    if x[0] == "plane":
        a = float(np.linalg.norm(x[1] - y[1])) + abs(x[2] - y[2])
        if oriented:
            return a
        return min(a, float(np.linalg.norm(x[1] + y[1])) + abs(x[2] + y[2]))
    _, p, r = x
    _, q, s = y
    dr = abs(r - s) if oriented else abs(abs(r) - abs(s))
    return (float(np.linalg.norm(p - q)) + dr) / (abs(r) + abs(s))


def tangent_triple(radii, center=(0.0, 0.0), angle=0.0) -> list:
    """Three mutually externally tangent circles with the given radii."""
    r1, r2, r3 = radii
    a, b, c = r2 + r3, r1 + r3, r1 + r2
    x = (b * b - a * a + c * c) / (2.0 * c)
    y = math.sqrt(max(b * b - x * x, 0.0))
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    pts = np.array([[0.0, 0.0], [c, 0.0], [x, y]]) @ rot.T + np.asarray(center, dtype=float)
    return [sphere(p, r) for p, r in zip(pts, radii)]


# ---------------------------------------------------------------------------
# completion: the reference solver


def complete(knowns: list, targets) -> list:
    """All spheres with the given products against n+1 known spheres in R^n.

    Subtracting the first relation from the others leaves n linear
    equations for the centre as an affine function of the radius; the
    first relation then gives a quadratic in the radius.  Returns the real
    solutions, curvature descending.  Raises Degenerate when the answer
    is not clear-cut: dependent centres, a root near a hyperplane, a
    near-double root, or a root that coincides with a known sphere.
    """
    t = [float(x) for x in targets]
    c1, r1 = knowns[0][1], knowns[0][2]
    rel = np.array([k[1] - c1 for k in knowns[1:]])
    radii = np.array([k[2] for k in knowns])
    m = 2.0 * rel
    u = np.einsum("ij,ij->i", rel, rel) - radii[1:] ** 2 + r1 * r1
    v = -2.0 * (np.array(t[1:]) * radii[1:] - t[0] * r1)
    if np.linalg.cond(m) > 1e8:
        raise Degenerate("known centres are affinely dependent")
    a = np.linalg.solve(m, u)
    b = np.linalg.solve(m, v)
    qa = float(b @ b) - 1.0
    qb = 2.0 * float(a @ b) - 2.0 * t[0] * r1
    qc = float(a @ a) - r1 * r1
    if abs(qa) < 1e-6:
        raise Degenerate("a solution is nearly a hyperplane")
    disc = qb * qb - 4.0 * qa * qc
    if abs(disc) <= 1e-6 * (qb * qb + abs(4.0 * qa * qc)):
        raise Degenerate("near-double root")
    if disc < 0.0:
        return []
    w = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = [w / qa, qc / w]
    out = [sphere(c1 + a + b * r, r) for r in roots]
    for x in out:
        if any(shape_distance(x, k, oriented=False) <= 1e-6 for k in knowns):
            raise Degenerate("a root coincides with a known sphere")
    return sorted(out, key=lambda x: 1.0 / x[2], reverse=True)


def apollonius_expected(knowns: list) -> list:
    """Distinct circles tangent to three circles over all eight sign patterns."""
    found: list = []
    for signs in iter_product((1, -1), repeat=3):
        for x in complete(knowns, signs):
            if not any(shape_distance(x, y, oriented=False) <= 1e-6 for y in found):
                found.append(x)
    return found


def packing_curvatures(curvatures, max_curvature: float) -> np.ndarray:
    """Sorted |curvature| of the Apollonian packing of a tangent triple, up to K.

    The curvature-only recursion of Lagarias, Mallows and Wilks ("Beyond
    the Descartes circle theorem", arXiv:math/0101066): the other circle
    tangent to three of a tangent quadruple has curvature
    2*(b1 + b2 + b3) - b4.  Holds the seed triple, both of its Descartes
    completions that fit, and every gap filled below the cutoff.
    """
    b1, b2, b3 = (float(b) for b in curvatures)
    root = 2.0 * math.sqrt(b1 * b2 + b2 * b3 + b3 * b1)
    out = [b1, b2, b3]
    stack = []
    for b4 in (b1 + b2 + b3 + root, b1 + b2 + b3 - root):
        if abs(b4) <= max_curvature:
            out.append(b4)
            stack += [(b4, b2, b3, b1), (b1, b4, b3, b2), (b1, b2, b4, b3)]
    while stack:
        x, y, z, old = stack.pop()
        new = 2.0 * (x + y + z) - old
        if abs(new) <= max_curvature:
            out.append(new)
            stack += [(new, y, z, x), (x, new, z, y), (x, y, new, z)]
    return np.sort(np.abs(out))


def descartes_count(curvatures, max_curvature: float) -> int:
    """Circles in the packing of a tangent triple with |curvature| <= K."""
    return len(packing_curvatures(curvatures, max_curvature))


# ---------------------------------------------------------------------------
# checks: each returns (ok, worst relative error, reason)


def _unshaped(got: list):
    """Reason to reject a list of decoded shapes that holds a point, or None."""
    if any(x[0] not in ("sphere", "plane") for x in got):
        return "a solution decoded as a point"
    return None


def check_solutions(got: list, expected: list, knowns: list, targets) -> tuple:
    """Same solutions as the reference, in any order, each meeting every target."""
    if _unshaped(got):
        return False, math.inf, _unshaped(got)
    if len(got) != len(expected):
        return False, math.inf, f"{len(got)} solutions, expected {len(expected)}"
    worst = 0.0
    for x in got:
        for k, t in zip(knowns, targets):
            worst = max(worst, product_error(x, k, t))
    unmatched = list(expected)
    for x in got:
        d = [shape_distance(x, y) for y in unmatched]
        if not d:
            return False, math.inf, "solution matches no reference root"
        i = int(np.argmin(d))
        worst = max(worst, d[i])
        unmatched.pop(i)
    if worst > REL_TOL:
        return False, worst, f"relative error {worst:.3g} exceeds {REL_TOL:g}"
    return True, worst, ""


def descartes_defect(curvatures) -> float:
    """Relative defect of the Soddy-Gossett relation (sum b)^2 = n * sum b^2.

    For four circles in the plane (n = 2) this is the Descartes circle
    theorem; for five spheres in R^3 (n = 3) the five-sphere relation.
    """
    b = np.asarray(curvatures, dtype=float)
    n = b.size - 2
    return abs(float(b.sum()) ** 2 - n * float(b @ b)) / float(np.abs(b).sum()) ** 2


def check_soddy(got: list, knowns: list, expected: list) -> tuple:
    """Both tangent completions of mutually tangent spheres (any dimension)."""
    ok, worst, why = check_solutions(got, expected, knowns, [1.0] * len(knowns))
    if not ok:
        return ok, worst, why
    for x in got:
        if x[0] != "sphere":
            return False, math.inf, "a completion came back as a hyperplane"
        e = descartes_defect([1.0 / k[2] for k in knowns] + [1.0 / x[2]])
        worst = max(worst, e)
        if e > REL_TOL:
            return False, worst, f"curvature relation defect {e:.3g}"
    return True, worst, ""


def incircle(knowns: list) -> tuple:
    """Circle orthogonal to a tangent triple: the incircle of the centre triangle."""
    (_, p1, r1), (_, p2, r2), (_, p3, r3) = knowns
    a, b, c = r2 + r3, r1 + r3, r1 + r2
    center = (a * p1 + b * p2 + c * p3) / (a + b + c)
    return center, math.sqrt(r1 * r2 * r3 / (r1 + r2 + r3))


def check_orthocircle(got: list, knowns: list) -> tuple:
    center, rho = incircle(knowns)
    expected = [sphere(center, rho), sphere(center, -rho)]
    return check_solutions(got, expected, knowns, [0.0, 0.0, 0.0])


def check_apollonius(patterns: list, knowns: list, expected: list) -> tuple:
    """patterns: (signs, solutions) pairs; the union must be the expected circles."""
    worst = 0.0
    union: list = []
    for signs, sols in patterns:
        if _unshaped(sols):
            return False, math.inf, _unshaped(sols)
        for x in sols:
            for k, t in zip(knowns, signs):
                worst = max(worst, product_error(x, k, t))
            if any(shape_distance(x, y, oriented=False) <= REL_TOL for y in union):
                return False, math.inf, "a circle is reported twice"
            union.append(x)
    if len(union) != len(expected):
        return False, math.inf, f"{len(union)} distinct circles, expected {len(expected)}"
    for y in expected:
        d = min(shape_distance(x, y, oriented=False) for x in union)
        worst = max(worst, d)
    if worst > REL_TOL:
        return False, worst, f"relative error {worst:.3g} exceeds {REL_TOL:g}"
    return True, worst, ""


def raw_gram(spheres: list) -> np.ndarray:
    """Pairwise products (d^2 - r_i^2 - r_j^2) / (2 r_i r_j), -1 on the diagonal."""
    k = len(spheres)
    f = -np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            d = spheres[i][1] - spheres[j][1]
            ri, rj = spheres[i][2], spheres[j][2]
            f[i, j] = f[j, i] = (float(d @ d) - ri * ri - rj * rj) / (2.0 * ri * rj)
    return f


def reference_inertia(f: np.ndarray, margin: float = 0.0) -> tuple:
    """Eigenvalue sign counts from numpy.linalg.eigvalsh.

    With margin > 0, raises Degenerate when an eigenvalue lies within
    margin * max|f| of zero, where a verdict would hinge on round-off.
    """
    w = np.linalg.eigvalsh(f)
    scale = float(np.max(np.abs(f)))
    if margin and float(np.min(np.abs(w))) <= margin * scale:
        raise Degenerate("an eigenvalue is too close to zero")
    zero = 1e-9 * scale
    n_pos, n_neg = int(np.sum(w > zero)), int(np.sum(w < -zero))
    return (n_pos, n_neg, f.shape[0] - n_pos - n_neg)


def reference_verdict(inertia: tuple) -> str:
    n_pos, n_neg, n_zero = inertia
    if n_zero:
        return "Degenerate"
    return "Realizable" if n_pos == 1 else "NotRealizable"


def check_gram(got: np.ndarray, expected: np.ndarray) -> tuple:
    got = np.asarray(got, dtype=float)
    if got.shape != expected.shape:
        return False, math.inf, f"gram of shape {got.shape}, expected {expected.shape}"
    err = float(np.max(np.abs(got - expected) / (1.0 + np.abs(expected))))
    if err > REL_TOL:
        return False, err, f"gram entry off by {err:.3g}"
    return True, err, ""


def check_gasket(circles: list, seed: list, max_curvature: float, expected_count: int) -> tuple:
    """circles: (center, radius, parents) records of a gasket run.

    The count must equal the Descartes recursion's, every circle must be
    distinct from every other under the scale-free distance, lie within
    the cutoff, and be tangent (product +1) to each of its three parents.
    """
    if len(circles) != expected_count:
        return False, math.inf, f"{len(circles)} circles, expected {expected_count}"
    centers = np.array([c[0] for c in circles], dtype=float)
    radii = np.array([c[1] for c in circles], dtype=float)
    if np.any(np.abs(1.0 / radii) > max_curvature * (1.0 + 1e-12)):
        return False, math.inf, "a circle exceeds the curvature cutoff"
    for s in seed:
        d = (np.linalg.norm(centers - s[1], axis=1) + np.abs(radii - s[2])) / (
            np.abs(radii) + abs(s[2]))
        if not np.any(d <= REL_TOL):
            return False, math.inf, "a seed circle is missing"
    # distinctness, in row blocks to bound memory
    size = np.abs(radii)
    for lo in range(0, len(circles), 256):
        hi = min(lo + 256, len(circles))
        dc = np.linalg.norm(centers[lo:hi, None, :] - centers[None, :, :], axis=2)
        dist = (dc + np.abs(size[lo:hi, None] - size[None, :])) / (size[lo:hi, None] + size[None, :])
        idx = np.arange(lo, hi)
        dist[idx - lo, idx] = np.inf
        if float(dist.min()) <= REL_TOL:
            return False, math.inf, "two circles coincide"
    worst = 0.0
    rows = [(i, p) for i, c in enumerate(circles) if c[2] is not None for p in c[2]]
    if len(rows) != 3 * (len(circles) - 3):
        return False, math.inf, "parent lists are missing or malformed"
    child = np.array([i for i, _ in rows])
    parent = np.array([p for _, p in rows])
    if parent.min() < 0 or parent.max() >= len(circles):
        return False, math.inf, "parent index out of range"
    d = centers[child] - centers[parent]
    r, s = radii[child], radii[parent]
    err = np.abs(np.einsum("ij,ij->i", d, d) - (r + s) ** 2) / (np.abs(r) + np.abs(s)) ** 2
    worst = float(err.max(initial=0.0))
    if worst > REL_TOL:
        return False, worst, f"a circle is not tangent to its parents ({worst:.3g})"
    return True, worst, ""


# ---------------------------------------------------------------------------
# self-test


def selftest() -> list:
    """Problems found when the oracles judge known-good and perturbed answers.

    Each check must accept the reference answer and reject the same answer
    with one radius moved by 1e-4 of itself, one circle dropped, or one
    circle duplicated.  Returns a list of failures; empty means the
    oracles discriminate.
    """
    problems = []

    def expect(label, verdict, want):
        if verdict[0] is not want:
            problems.append(f"{label}: got {verdict[0]}, want {want}")

    def nudge(x):
        return sphere(x[1], x[2] * (1.0 + 1e-4))

    triple = tangent_triple((1.0, 0.7, 1.3), center=(3.0, -2.0), angle=0.4)
    soddy = complete(triple, [1.0, 1.0, 1.0])
    expect("soddy exact", check_soddy(soddy, triple, soddy), True)
    expect("soddy perturbed", check_soddy([soddy[0], nudge(soddy[1])], triple, soddy), False)
    expect("soddy missing", check_soddy(soddy[:1], triple, soddy), False)
    center, rho = incircle(triple)
    ortho = [sphere(center, rho), sphere(center, -rho)]
    expect("ortho exact", check_orthocircle(ortho, triple), True)
    expect("ortho perturbed", check_orthocircle([ortho[0], nudge(ortho[1])], triple), False)

    disjoint = [sphere((0.0, 0.0), 1.0), sphere((5.0, 0.5), 0.8), sphere((1.5, 4.0), 1.2)]
    apo = apollonius_expected(disjoint)
    if len(apo) != 8:
        problems.append(f"apollonius reference found {len(apo)} circles, not 8")
    patterns = [((1, 1, 1), [])] + [
        (tuple(1 if product_error(x, k, 1.0) < 1e-9 else -1 for k in disjoint), [x]) for x in apo
    ]
    expect("apollonius exact", check_apollonius(patterns, disjoint, apo), True)
    expect("apollonius missing", check_apollonius(patterns[:-1], disjoint, apo), False)
    expect("apollonius duplicated",
           check_apollonius(patterns + [patterns[-1]], disjoint, apo), False)
    bad = patterns[:-1] + [(patterns[-1][0], [nudge(patterns[-1][1][0])])]
    expect("apollonius perturbed", check_apollonius(bad, disjoint, apo), False)

    f = raw_gram(triple + [soddy[0]])
    expect("gram exact", check_gram(f, f), True)
    g = f.copy()
    g[0, 1] = g[1, 0] = g[0, 1] + 1e-4
    expect("gram perturbed", check_gram(g, f), False)
    if reference_verdict(reference_inertia(f)) != "Realizable":
        problems.append("descartes quadruple not realizable under the reference")
    if reference_verdict(reference_inertia(-np.eye(4))) != "NotRealizable":
        problems.append("four orthogonal circles realizable under the reference")

    seed = tangent_triple((1.0, 1.0, 1.0))
    k = 12.0
    count = descartes_count([1.0, 1.0, 1.0], k)
    circles = [(s[1], s[2], None) for s in seed]
    quads = []
    for x in complete(seed, [1.0, 1.0, 1.0]):
        circles.append((x[1], x[2], (0, 1, 2)))
        quads.append(len(circles) - 1)
    frontier = [((q, 1, 2), 0) for q in quads] + [((0, q, 2), 1) for q in quads] + [
        ((0, 1, q), 2) for q in quads]
    while frontier:
        (i, j, l), old = frontier.pop()
        walls = [sphere(circles[t][0], circles[t][1]) for t in (i, j, l)]
        new = [x for x in complete(walls, [1.0, 1.0, 1.0])
               if shape_distance(x, sphere(circles[old][0], circles[old][1])) > 1e-6]
        if len(new) != 1 or abs(1.0 / new[0][2]) > k:
            continue
        circles.append((new[0][1], new[0][2], (i, j, l)))
        idx = len(circles) - 1
        frontier += [((idx, j, l), i), ((i, idx, l), j), ((i, j, idx), l)]
    expect("gasket exact", check_gasket(circles, seed, k, count), True)
    expect("gasket wrong count", check_gasket(circles[:-1], seed, k, count), False)
    dup = circles[:-1] + [(circles[5][0], circles[5][1], circles[-1][2])]
    expect("gasket duplicated", check_gasket(dup, seed, k, count), False)
    moved = circles[:-1] + [(circles[-1][0], circles[-1][1] * (1.0 + 1e-4), circles[-1][2])]
    expect("gasket perturbed", check_gasket(moved, seed, k, count), False)
    return problems
