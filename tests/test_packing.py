"""Apollonian packing by Descartes reflection, against a curvature-only recursion."""

import math

import numpy as np
import pytest

from pedoe import Sphere
from pedoe.packing import gasket


def tangent_triple(r1, r2, r3, shift=(0.0, 0.0), scale=1.0):
    """Three mutually externally tangent circles with the given radii."""
    a, b, c = r1 + r2, r1 + r3, r2 + r3
    x = (a * a + b * b - c * c) / (2.0 * a)
    y = math.sqrt(b * b - x * x)
    centers = [(0.0, 0.0), (a, 0.0), (x, y)]
    return [
        Sphere([scale * cx + shift[0], scale * cy + shift[1]], scale * r)
        for (cx, cy), r in zip(centers, (r1, r2, r3))
    ]


def descartes_count(curvatures, max_curvature):
    """Circle count of the packing from curvatures alone: d' = 2(a+b+c) - d."""
    a, b, c = curvatures
    root = math.sqrt(a * b + b * c + c * a)
    first = [d for d in (a + b + c + 2 * root, a + b + c - 2 * root) if abs(d) <= max_curvature]
    count, work = 3 + len(first), [((a, b, c), d) for d in first]
    while work:
        (p, q, r), s = work.pop()
        for triple, excluded in (((s, q, r), p), ((p, s, r), q), ((p, q, s), r)):
            child = 2.0 * sum(triple) - excluded
            if abs(child) <= max_curvature:
                count += 1
                work.append((triple, child))
    return count


def products_with_parents(g):
    """Scale-free products (d^2 - r^2 - s^2) / 2rs of every circle with its parents."""
    child = np.repeat(np.flatnonzero(g.parents[:, 0] >= 0), 3)
    parent = g.parents[g.parents[:, 0] >= 0].reshape(-1)
    d = g.centers[child] - g.centers[parent]
    r, s = g.radii[child], g.radii[parent]
    return (np.einsum("ij,ij->i", d, d) - r * r - s * s) / (2.0 * r * s)


def assert_distinct(g, tol=1e-9):
    """No two circles within tol of each other under the scale-free distance."""
    size = np.abs(g.radii)
    for lo in range(0, len(size), 512):
        block = slice(lo, lo + 512)
        dc = np.linalg.norm(g.centers[block, None, :] - g.centers[None, :, :], axis=2)
        dist = (dc + np.abs(size[block, None] - size)) / (size[block, None] + size)
        rows = np.arange(dist.shape[0])
        dist[rows, rows + lo] = np.inf
        assert dist.min() > tol


TRIPLES = {
    "unit": (1.0, 1.0, 1.0),
    "unequal": (0.6, 1.1, 0.8),
    "skewed": (1.3, 0.45, 0.7),
}


@pytest.mark.parametrize("name", sorted(TRIPLES))
@pytest.mark.parametrize("max_curvature", [40.0, 300.0, 1000.0])
def test_counts_match_descartes_recursion(name, max_curvature):
    radii = TRIPLES[name]
    seed = tangent_triple(*radii)
    g = gasket(seed, max_curvature)
    assert not g.truncated
    seeds = np.flatnonzero(g.parents[:, 0] < 0)
    assert sorted(g.radii[seeds].tolist()) == sorted(s.radius for s in seed)
    assert sorted(g.centers[seeds].tolist()) == sorted(s.center.tolist() for s in seed)
    assert len(g.radii) == descartes_count([1.0 / r for r in radii], max_curvature)
    assert np.all(np.abs(1.0 / g.radii) <= max_curvature)
    assert np.all(np.diff(1.0 / g.radii) >= 0.0)


def test_unit_triple_at_1000_is_sound():
    g = gasket(tangent_triple(1.0, 1.0, 1.0), 1000.0)
    assert len(g.radii) == 9071
    assert_distinct(g)
    assert np.max(np.abs(products_with_parents(g) - 1.0)) <= 1e-7
    v = g.vectors
    norm = v[:, 0] * v[:, 1] - np.einsum("ij,ij->i", v[:, 2:], v[:, 2:])
    assert np.max(np.abs(norm + 1.0)) <= 1e-8
    np.testing.assert_allclose(v[:, 0], 1.0 / g.radii, rtol=1e-12)
    assert np.sum(g.parents[:, 0] < 0) == 3
    child = np.flatnonzero(g.parents[:, 0] >= 0)
    assert np.all(g.parents[child] != child[:, None]) and g.parents.max() < len(g.radii)


def test_translated_triple_does_not_re_add_parents():
    # an absolute duplicate test re-added the excluded parent from curvature ~400 here
    g = gasket(tangent_triple(1.0, 1.0, 1.0, shift=(2.0, 2.0)), 400.0)
    assert len(g.radii) == descartes_count([1.0, 1.0, 1.0], 400.0)
    assert not g.truncated
    assert_distinct(g)
    assert np.max(np.abs(products_with_parents(g) - 1.0)) <= 1e-7


def test_shrunken_triple_scales_the_packing():
    scale = 1.3e-3
    radii = (0.7, 1.0, 1.2)
    b = [1.0 / (scale * r) for r in radii]
    k = 100.0 * max(b)
    small = gasket(tangent_triple(*radii, scale=scale), k)
    unit = gasket(tangent_triple(*radii), k * scale)
    assert len(small.radii) == len(unit.radii) == descartes_count(b, k)
    np.testing.assert_allclose(small.radii, scale * unit.radii, rtol=1e-9)
    np.testing.assert_allclose(small.centers, scale * unit.centers, rtol=0, atol=1e-9 * scale)
    assert np.max(np.abs(products_with_parents(small) - 1.0)) <= 1e-7


@pytest.mark.parametrize("max_count", [4, 500])
def test_cap_truncates_and_says_so(max_count):
    seed = tangent_triple(1.0, 1.0, 1.0)
    full = gasket(seed, 300.0)
    capped = gasket(seed, 300.0, max_count=max_count)
    assert capped.truncated and len(capped.radii) == max_count
    assert not gasket(seed, 300.0, max_count=len(full.radii)).truncated
    # every capped circle is a circle of the full packing
    dc = np.linalg.norm(capped.centers[:, None, :] - full.centers[None, :, :], axis=2)
    size, full_size = np.abs(capped.radii)[:, None], np.abs(full.radii)
    dist = (dc + np.abs(size - full_size)) / (size + full_size)
    assert np.all(dist.min(axis=1) <= 1e-12)
    assert np.max(np.abs(products_with_parents(capped) - 1.0)) <= 1e-7


def test_gasket_rejects_wrong_seed_count():
    with pytest.raises(ValueError):
        gasket(tangent_triple(1.0, 1.0, 1.0)[:2], 10.0)
