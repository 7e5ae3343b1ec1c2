import re
import warnings

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
    apply_fn,
    as_cmatrix,
    general_eigenvalues,
    herm_eigen,
    moduli,
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


def test_herm_eigen_rule_holds_where_the_squares_overflow():
    # ||H||_F^2 overflows above ~1e154, which made the tolerance inf
    h = np.array([[2.0, 1j], [-1j, 1.0]])
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e150, 1e160, 1e300):
            with pytest.raises(NotHermitianError, match=re.escape(f"{2 ** 0.5 * scale:.3e}")):
                herm_eigen(scale * skew)
        assert_allclose(herm_eigen(1e160 * h).eigenvalues,
                        1e160 * herm_eigen(h).eigenvalues, rtol=1e-15)
        # each member of a stack is judged on its own scale
        with pytest.raises(NotHermitianError, match="1.414e[+]00"):
            herm_eigen(np.stack([1e160 * h, skew]))


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


def test_moduli_factorizes_both_moduli_from_one_svd():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e_a, e_as, u = moduli(a)
        assert np.all(np.diff(e_a.eigenvalues) >= 0)
        assert_allclose(e_a.eigenvalues, e_as.eigenvalues)
        assert_allclose(e_as.compose(), abs_op(a.conj().T), rtol=0, atol=1e-13)
        assert_allclose(u @ e_a.compose(), a, atol=1e-12 * (1 + op_norm(a)))


def test_moduli_degenerate_and_singular_inputs():
    e_a, e_as, u = moduli(np.zeros((0, 0)))
    assert e_a.eigenvalues.size == e_as.eigenvalues.size == u.size == 0
    e_a, e_as, u = moduli([[-2.0]])
    assert_allclose(e_a.compose(), [[2.0]])
    assert_allclose(e_as.compose(), [[2.0]])
    assert_allclose(u, [[-1.0]])
    # the Jordan block: |A| = diag(0, 1), |A*| = diag(1, 0), U still unitary
    e_a, e_as, u = moduli([[0, 1], [0, 0]])
    assert_allclose(e_a.eigenvalues, [0.0, 1.0])
    assert_allclose(e_a.compose(), np.diag([0.0, 1.0]), atol=1e-15)
    assert_allclose(e_as.compose(), np.diag([1.0, 0.0]), atol=1e-15)
    assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-15)
    with pytest.raises(NotSquareError):
        moduli(np.zeros((2, 3)))


def test_herm_eigen_returns_a_factorization_unchanged():
    h = np.array([[2.0, 1.0], [1.0, 3.0]])
    e = herm_eigen(h)
    assert herm_eigen(e) is e
    assert_allclose(apply_fn(e, np.sqrt), apply_fn(h, np.sqrt), rtol=0, atol=0)


def test_apply_fn_matches_scalar_calculus():
    h = np.diag([1.0, 4.0])
    assert_allclose(apply_fn(h, np.sqrt), np.diag([1.0, 2.0]), atol=1e-12)


def test_apply_fn_domain_violation():
    with pytest.raises(DomainViolationError):
        apply_fn(np.diag([-1.0, 1.0]), np.sqrt)
    # every function is taken on [0, inf), also one defined on all reals
    with pytest.raises(DomainViolationError,
                       match=r"spectrum \[-1, 1\] leaves the domain \[0, inf\] of exp"):
        apply_fn(np.diag([-1.0, 1.0]), np.exp, "exp")
    # a value that overflows is outside the function's usable domain too
    with np.errstate(over="ignore"), pytest.raises(DomainViolationError):
        apply_fn(np.diag([1.0, 900.0]), np.expm1, "expm1")
    with pytest.raises(DomainViolationError):
        apply_fn(np.eye(2), lambda t: np.full_like(t, np.nan))


def test_apply_fn_clamps_edge_roundoff():
    # a -1e-14 eigenvalue is inside the tolerance band and gets clamped
    h = np.diag([-1e-14, 1.0])
    out = apply_fn(h, np.sqrt)
    assert np.all(np.isfinite(out))
    assert_allclose(out, np.diag([0.0, 1.0]), rtol=0, atol=0)


def test_degenerate_sizes():
    empty = np.zeros((0, 0))
    assert op_norm(empty) == 0.0
    assert herm_eigen(empty).eigenvalues.size == 0
    assert general_eigenvalues(empty).size == 0
    one = np.array([[2.0 + 0j]])
    assert op_norm(one) == pytest.approx(2.0)
    assert_allclose(abs_op(one), [[2.0]])


def _bits(*arrays):
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


@pytest.mark.parametrize("k", [1, 3, 300])
def test_stacked_lapack_equals_looped(k):
    # the stacked formula layer and replay_failure both rely on this: with
    # one BLAS thread, each member of a stacked LAPACK call, and of a
    # stacked matmul, equals the call on that member alone bit for bit
    rng = np.random.default_rng([k, 7])
    for n in range(1, 17):
        a = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        h = a + a.conj().swapaxes(-1, -2)
        rhs = rng.standard_normal((k, n, 2)) + 1j * rng.standard_normal((k, n, 2))
        w, v = np.linalg.eigh(h)
        u, s, vh = np.linalg.svd(a)
        stacked = {
            "eigh": (w, v),
            "eigvalsh": (np.linalg.eigvalsh(h),),
            "svd": (u, s, vh),
            "svd values": (np.linalg.svd(a, compute_uv=False),),
            "eigvals": (np.linalg.eigvals(a),),
            "solve": (np.linalg.solve(a, rhs),),
            "compose": ((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2),),
        }
        for j in range(k):
            wj, vj = np.linalg.eigh(h[j])
            looped = {
                "eigh": (wj, vj),
                "eigvalsh": (np.linalg.eigvalsh(h[j]),),
                "svd": np.linalg.svd(a[j]),
                "svd values": (np.linalg.svd(a[j], compute_uv=False),),
                "eigvals": (np.linalg.eigvals(a[j]),),
                "solve": (np.linalg.solve(a[j], rhs[j]),),
                "compose": ((vj * wj) @ vj.conj().T,),
            }
            for name, got in stacked.items():
                assert _bits(*(x[j] for x in got)) == _bits(*looped[name]), (name, n, j)
