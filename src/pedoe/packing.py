"""Apollonian packing of a tangent triple by Descartes reflection.

For a tangent quadruple of unit vectors, the other circle tangent to v1, v2, v3
is v4' = 2(v1 + v2 + v3) - v4: the Apollonian-group reflection of Graham et al.,
"Apollonian circle packings" (2003-05), and of Lagarias, Mallows and Wilks,
"Beyond the Descartes circle theorem" (arXiv:math/0101066).  It is linear, so one
array expression fills a whole generation of gaps, with no solve and no dedup test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Sphere, pedoe_vector
from .solver import soddy_circles

MAX_CIRCLES = 100000


@dataclass(frozen=True, eq=False)
class Gasket:
    """Circles sorted by curvature (ties by creation order); parents row -1 for seeds."""

    vectors: np.ndarray  # (N, n+2) unit vectors
    centers: np.ndarray  # (N, n)
    radii: np.ndarray  # (N,)
    parents: np.ndarray  # (N, 3) sorted indices into this order
    truncated: bool  # True when max_count stopped the filling early


def gasket(seed: Sequence[Sphere], max_curvature: float, max_count: int = MAX_CIRCLES) -> Gasket:
    """Fill the gaps of a tangent triple breadth first, down to |curvature| <= max_curvature.

    The seeds come first, then their Sphere completions (a line is skipped).
    """
    if len(seed) != 3 or any(not isinstance(s, Sphere) for s in seed):
        raise ValueError("gasket needs three seed circles")
    first = [s for s in soddy_circles(*seed).solutions
             if isinstance(s, Sphere) and abs(s.curvature) <= max_curvature]
    vecs = np.array([pedoe_vector(s).components for s in list(seed) + first])
    tri, new = np.tile([0, 1, 2], (len(first), 1)), np.arange(3, len(vecs))
    parents, count = [np.full((3, 3), -1), tri], max(max_count, 3)  # the seeds always stay
    while len(new) and len(vecs) <= count:
        # gap items (idx, j, k) -> i, (i, idx, k) -> j, (i, j, idx) -> k, per new circle idx
        exc = tri.reshape(-1)
        tri = np.repeat(tri, 3, axis=0)
        tri[np.arange(len(tri)), np.tile([0, 1, 2], len(new))] = np.repeat(new, 3)
        child = 2.0 * vecs[tri].sum(axis=1) - vecs[exc]
        keep = np.flatnonzero(np.abs(child[:, 0]) <= max_curvature)
        tri, new = tri[keep], np.arange(len(vecs), len(vecs) + len(keep))
        vecs = np.concatenate((vecs, child[keep]))
        parents.append(tri)
    # rows are in queue order and parents precede children, so the cap keeps a prefix
    truncated, vecs = len(vecs) > count, vecs[:count]
    # co-curvature feeds neither curvature nor position: re-derive it to cancel its drift
    vecs[:, 1] = (np.einsum("ij,ij->i", vecs[:, 2:], vecs[:, 2:]) - 1.0) / vecs[:, 0]
    radii, centers = 1.0 / vecs[:, 0], vecs[:, 2:] / vecs[:, :1]
    radii[:3], centers[:3] = [s.radius for s in seed], [s.center for s in seed]
    order = np.argsort(1.0 / radii, kind="stable")
    par = np.concatenate(parents)[:count][order]
    par = np.where(par < 0, -1, np.sort(np.argsort(order)[par], axis=1))
    return Gasket(vecs[order], centers[order], radii[order], par, truncated)
