import numpy as np
import pytest

from pedoe import (
    Inertia,
    InconsistentSystemError,
    SingularMatrixError,
    SymMatrix,
    inertia,
    invert_symmetric,
    metric,
    solve_affine,
)


def test_symmatrix_symmetrizes_by_averaging():
    m = SymMatrix([[1.0, 2.0], [4.0, 5.0]])
    assert m.array[0, 1] == m.array[1, 0] == 3.0


def test_symmatrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0, 3.0]])


def test_invert_identity():
    m = SymMatrix(np.eye(4))
    assert np.max(np.abs(invert_symmetric(m).array - np.eye(4))) < 1e-14


def test_invert_tangency_matrix_is_quarter_of_itself():
    # the all-tangent Gram N - 2I squares to 4I, so its inverse is itself over 4
    f = np.ones((4, 4)) - 2.0 * np.eye(4)
    inv = invert_symmetric(SymMatrix(f))
    assert np.max(np.abs(inv.array - f / 4.0)) < 1e-12


def test_invert_rank_one_is_singular():
    with pytest.raises(SingularMatrixError):
        invert_symmetric(SymMatrix(np.ones((4, 4))))


def test_invert_respects_cond_limit():
    m = SymMatrix(np.diag([1.0, 1e-13]))
    with pytest.raises(SingularMatrixError):
        invert_symmetric(m)  # cond 1e13 > default limit 1e12
    assert invert_symmetric(m, cond_limit=1e14) is not None
    with pytest.raises(ValueError):
        invert_symmetric(m, cond_limit=0.5)


def test_invert_random_well_conditioned():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n, n))
        a = a + a.T + 2.0 * n * np.eye(n)
        m = SymMatrix(a)
        inv = invert_symmetric(m)
        assert np.max(np.abs(inv.array @ m.array - np.eye(n))) <= 1e-8


def test_inertia_diagonal():
    assert inertia(SymMatrix(-np.eye(4))) == Inertia(0, 4, 0)


def test_inertia_tangency_matrix():
    # rank-one update: eigenvalues {2, -2, -2, -2}
    f = SymMatrix(np.ones((4, 4)) - 2.0 * np.eye(4))
    assert inertia(f) == Inertia(1, 3, 0)


def test_inertia_of_isotropic_metric():
    assert inertia(metric(2)) == Inertia(1, 3, 0)
    assert inertia(metric(4)) == Inertia(1, 5, 0)


def test_inertia_zero_matrix_counts_zeros():
    assert inertia(SymMatrix(np.zeros((3, 3)))) == Inertia(0, 0, 3)
    with pytest.raises(ValueError):
        inertia(SymMatrix(np.eye(2)), zero_tol=-1.0)


def test_inertia_congruence_invariant():
    # Sylvester's law: inertia survives m -> P^T m P for invertible P
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n, n))
        a = a + a.T
        m = SymMatrix(a)
        while True:
            p = rng.normal(size=(n, n))
            if abs(np.linalg.det(p)) > 1e-3:
                break
        assert inertia(SymMatrix(p.T @ a @ p)) == inertia(m)


def test_inertia_counts_match_numpy():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n, n))
        a = a + a.T
        w = np.linalg.eigvalsh(a)
        tol = 1e-9 * np.max(np.abs(a))
        expected = Inertia(int(np.sum(w > tol)), int(np.sum(w < -tol)), int(np.sum(np.abs(w) <= tol)))
        assert inertia(SymMatrix(a)) == expected


def test_solve_affine_underdetermined():
    particular, kernel = solve_affine([[1.0, 0.0]], [1.0])
    assert np.allclose(particular, [1.0, 0.0])
    assert kernel.shape == (1, 2)
    assert np.allclose(np.abs(kernel[0]), [0.0, 1.0])


def test_solve_affine_full_rank():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    x = rng.normal(size=4)
    particular, kernel = solve_affine(a, a @ x)
    assert kernel.shape == (0, 4)
    assert np.allclose(particular, x, atol=1e-10)


def test_solve_affine_contradictory_rows():
    with pytest.raises(InconsistentSystemError):
        solve_affine([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])


def test_solve_affine_rank_deficiency_grows_kernel():
    a = [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]
    particular, kernel = solve_affine(a, [1.0, 2.0])
    assert kernel.shape == (2, 3)
    assert np.max(np.abs(np.asarray(a) @ particular - [1.0, 2.0])) < 1e-12


def test_solve_affine_kernel_orthonormal_and_solving():
    rng = np.random.default_rng(16)
    for _ in range(50):
        rows = int(rng.integers(1, 4))
        dim = int(rng.integers(rows, 7))
        a = rng.normal(size=(rows, dim))
        b = a @ rng.normal(size=dim)
        particular, kernel = solve_affine(a, b)
        if kernel.shape[0]:
            assert np.allclose(kernel @ kernel.T, np.eye(kernel.shape[0]), atol=1e-12)
        coeffs = rng.normal(size=kernel.shape[0])
        x = particular + kernel.T @ coeffs if kernel.shape[0] else particular
        scale = np.max(np.abs(a)) * max(np.max(np.abs(x)), 1.0) + np.max(np.abs(b))
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * scale


def test_solve_affine_shape_validation():
    with pytest.raises(ValueError):
        solve_affine([[1.0, 0.0]], [1.0, 2.0])
