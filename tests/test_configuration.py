import numpy as np
import pytest

from pedoe import (
    DimensionMismatchError,
    ImproperCircleError,
    PointShape,
    Realizability,
    SingularMatrixError,
    Sphere,
    SymMatrix,
    data_matrix,
    dual_products,
    gram,
    inertia,
    invert_symmetric,
    master_residual,
    metric,
    realizable,
)
from conftest import SQRT3, random_circle


def test_gram_of_tangent_quadruple(descartes_quadruple):
    cfg = gram(descartes_quadruple)
    expected = np.ones((4, 4)) - 2.0 * np.eye(4)
    assert np.max(np.abs(cfg.f.array - expected)) <= 1e-9
    assert cfg.inertia == (1, 3, 0)
    assert not cfg.singular


def test_gram_of_orthogonal_quadruple(orthogonal_quadruple):
    # three tangent unit circles plus the circle orthogonal to all of them
    cfg = gram(orthogonal_quadruple)
    expected = np.array(
        [
            [-1.0, 1.0, 1.0, 0.0],
            [1.0, -1.0, 1.0, 0.0],
            [1.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]
    )
    assert np.max(np.abs(cfg.f.array - expected)) <= 1e-12
    # and its columns are the expected unit vectors
    cols = data_matrix(orthogonal_quadruple)
    expected_cols = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [1.0, 3.0, 2.0, 0.0],
            [1.0, 3.0, 1.0, SQRT3],
            [SQRT3, SQRT3, SQRT3, 1.0],
        ]
    ).T
    assert np.max(np.abs(cols - expected_cols)) <= 1e-12


def test_gram_flags_repeated_circle():
    c = Sphere([0.0, 0.0], 1.0)
    cfg = gram([c, c, Sphere([2.0, 0.0], 1.0), Sphere([5.0, 1.0], 2.0)])
    assert cfg.singular
    assert cfg.inverse is None
    with pytest.raises(SingularMatrixError):
        dual_products([c, c, Sphere([2.0, 0.0], 1.0), Sphere([5.0, 1.0], 2.0)])


def test_gram_rejects_points_and_bad_counts():
    with pytest.raises(ImproperCircleError):
        gram([Sphere([0.0, 0.0], 1.0)] * 3 + [PointShape([0.0, 0.0])])
    with pytest.raises(DimensionMismatchError):
        gram([Sphere([0.0, 0.0], 1.0)] * 3)
    with pytest.raises(DimensionMismatchError):
        gram([Sphere([0.0, 0.0], 1.0)] * 3 + [Sphere([0.0, 0.0, 0.0], 1.0)])


def test_gram_equals_congruence_route():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        spheres = [random_circle(rng, n=n, oriented=True) for _ in range(n + 2)]
        a = data_matrix(spheres)
        two_route = a.T @ metric(n).array @ a
        assert np.max(np.abs(gram(spheres).f.array - two_route)) <= 1e-12 * max(
            1.0, np.max(np.abs(two_route))
        )


def test_master_residual_worked_quadruples(descartes_quadruple, orthogonal_quadruple):
    assert master_residual(descartes_quadruple) <= 1e-9
    assert master_residual(orthogonal_quadruple) <= 1e-9


def test_master_residual_detects_perturbation(descartes_quadruple):
    # against the claimed all-tangent inverse, a 0.1 center shift is loud
    f_inverse = SymMatrix((np.ones((4, 4)) - 2.0 * np.eye(4)) / 4.0)
    assert master_residual(descartes_quadruple, f_inverse) <= 1e-9
    perturbed = list(descartes_quadruple)
    perturbed[1] = Sphere([2.1, 0.0], 1.0)
    assert master_residual(perturbed, f_inverse) > 1e-3
    # while the identity against its own Gram stays an identity
    assert master_residual(perturbed) <= 1e-9


def test_dual_products_equal_inverse_metric(descartes_quadruple, orthogonal_quadruple):
    G = np.array(
        [[0.0, 2.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]
    )
    for quad in (descartes_quadruple, orthogonal_quadruple):
        dp = dual_products(quad).array
        assert np.max(np.abs(dp - G)) <= 1e-9


def test_dual_products_worked_entries(orthogonal_quadruple):
    # hand values: curvatures (1,1,1,sqrt3), co-curvatures (-1,3,3,sqrt3),
    # reduced x (0,2,1,sqrt3); the F block is half the tangency pattern
    f_inv = 0.5 * np.array(
        [[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -2.0]]
    )
    b = np.array([1.0, 1.0, 1.0, SQRT3])
    bbar = np.array([-1.0, 3.0, 3.0, SQRT3])
    xdot = np.array([0.0, 2.0, 1.0, SQRT3])
    assert abs(b @ f_inv @ b) <= 1e-12
    assert abs(xdot @ f_inv @ xdot + 1.0) <= 1e-12
    assert abs(b @ f_inv @ bbar - 2.0) <= 1e-12
    dp = dual_products(orthogonal_quadruple).array
    assert abs(dp[0, 0]) <= 1e-12
    assert abs(dp[2, 2] + 1.0) <= 1e-12
    assert abs(dp[0, 1] - 2.0) <= 1e-12


def test_corrected_position_identity(orthogonal_quadruple):
    # reduced positions satisfy x4^2 = x1*x2 + x2*x3 + x3*x1 + 1 (plus, not minus)
    xdot = data_matrix(orthogonal_quadruple)[2, :]
    lhs = xdot[3] ** 2
    rhs = xdot[0] * xdot[1] + xdot[1] * xdot[2] + xdot[2] * xdot[0] + 1.0
    assert abs(lhs - rhs) <= 1e-9
    assert abs(lhs - (rhs - 2.0)) > 1.0  # the minus-one variant is simply wrong


def test_realizable_decisions():
    assert realizable(SymMatrix(-np.eye(4))) is Realizability.NOT_REALIZABLE
    assert realizable(SymMatrix(np.ones((4, 4)) - 2.0 * np.eye(4))) is Realizability.REALIZABLE
    repeated = np.array(
        [
            [-1.0, -1.0, 1.0, 1.0],
            [-1.0, -1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0, -1.0],
        ]
    )
    assert realizable(SymMatrix(repeated)) is Realizability.DEGENERATE


def test_constructed_configurations_are_realizable():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        spheres = [random_circle(rng, n=n, oriented=True) for _ in range(n + 2)]
        cfg = gram(spheres)
        if cfg.singular:
            continue
        assert realizable(cfg.f) is Realizability.REALIZABLE
        assert master_residual(spheres) <= 1e-8
        # gram's single decomposition agrees with the separate public calls
        assert cfg.inertia == inertia(cfg.f)
        assert np.allclose(cfg.inverse.array, invert_symmetric(cfg.f).array)
