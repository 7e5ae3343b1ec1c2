import numpy as np
import pytest
from numpy.testing import assert_allclose

from numrad.errors import (
    DimensionMismatchError,
    DomainViolationError,
    NotHermitianError,
    NotSquareError,
)
from numrad.matrixcore import (
    abs_op,
    adjoint,
    apply_fn,
    as_cmatrix,
    general_eigenvalues,
    herm_eigen,
    op_norm,
    polar,
)


def test_as_cmatrix_accepts_lists_and_casts():
    m = as_cmatrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_cmatrix_rejects_wrong_rank():
    with pytest.raises(DimensionMismatchError):
        as_cmatrix([1, 2, 3])
    with pytest.raises(DimensionMismatchError):
        as_cmatrix(np.zeros((2, 2, 2)))


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_cmatrix([[np.inf, 0], [0, 1]])


def test_adjoint_is_conjugate_transpose():
    a = np.array([[1 + 2j, 3], [4j, 5]])
    assert_allclose(adjoint(a), a.conj().T)


def test_herm_eigen_hand_values():
    e = herm_eigen([[2, 1], [1, 2]])
    assert_allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)
    e2 = herm_eigen(np.array([[0, 1j], [-1j, 0]]))
    assert_allclose(e2.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_herm_eigen_reconstructs():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (g + g.conj().T)
    e = herm_eigen(h)
    assert_allclose(e.compose(), h, atol=1e-12)
    # eigenvectors orthonormal
    v = e.eigenvectors
    assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_herm_eigen_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        herm_eigen([[0, 1], [0, 0]])


def test_herm_eigen_tolerates_roundoff_asymmetry():
    h = np.array([[1.0, 0.5], [0.5 + 1e-14, 2.0]])
    e = herm_eigen(h)
    assert e.eigenvalues[0] < e.eigenvalues[1]


def test_general_eigenvalues_companion():
    # companion matrix of t^2 - 1 has eigenvalues +-1
    c = np.array([[0, 1], [1, 0]])
    ev = np.sort_complex(general_eigenvalues(c))
    assert_allclose(ev, [-1.0, 1.0], atol=1e-12)


def test_op_norm_and_extremal_eigs():
    a = np.diag([3.0, -7.0])
    assert op_norm(a) == pytest.approx(7.0)


def test_abs_op_jordan():
    assert_allclose(abs_op([[0, 1], [0, 0]]), np.diag([0.0, 1.0]), atol=1e-12)


def test_abs_op_is_psd_and_squares_to_gram():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 6)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = abs_op(a)
        assert herm_eigen(m).eigenvalues[0] >= -1e-10
        assert_allclose(m @ m, a.conj().T @ a, atol=1e-9 * (1 + op_norm(a)) ** 2)


def test_polar_reconstruction_and_unitarity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 6)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        parts = polar(a)
        assert_allclose(parts.unitary @ parts.positive, a,
                        atol=1e-10 * (1 + op_norm(a)))
        assert_allclose(parts.unitary.conj().T @ parts.unitary, np.eye(n),
                        atol=1e-12)


def test_polar_jordan_hand_case():
    # |A| is determined; U is determined only on the range of |A|,
    # i.e. its second column must be e1.
    parts = polar([[0, 1], [0, 0]])
    assert_allclose(parts.positive, np.diag([0.0, 1.0]), atol=1e-12)
    assert_allclose(parts.unitary[:, 1], [1, 0], atol=1e-12)


def test_polar_requires_square():
    with pytest.raises(NotSquareError):
        polar(np.zeros((2, 3)))


def test_apply_fn_matches_scalar_calculus():
    h = np.diag([1.0, 4.0])
    assert_allclose(apply_fn(h, np.sqrt, (0, np.inf)), np.diag([1.0, 2.0]),
                    atol=1e-12)


def test_apply_fn_domain_violation():
    with pytest.raises(DomainViolationError):
        apply_fn(np.diag([-1.0, 1.0]), np.sqrt, (0.0, np.inf))


def test_apply_fn_clamps_edge_roundoff():
    # a -1e-14 eigenvalue is inside the tolerance band and gets clamped
    h = np.diag([-1e-14, 1.0])
    out = apply_fn(h, np.sqrt, (0.0, np.inf))
    assert np.all(np.isfinite(out))


def test_degenerate_sizes():
    empty = np.zeros((0, 0))
    assert op_norm(empty) == 0.0
    assert herm_eigen(empty).eigenvalues.size == 0
    assert general_eigenvalues(empty).size == 0
    one = np.array([[2.0 + 0j]])
    assert op_norm(one) == pytest.approx(2.0)
    assert_allclose(abs_op(one), [[2.0]])
