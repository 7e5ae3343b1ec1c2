import numpy as np
import pytest
from numpy.testing import assert_allclose

from numrad.errors import (
    DomainViolationError,
    HypothesisViolatedError,
    InvalidSpecError,
    NonFiniteError,
    NotIsometryError,
    NotPositiveDefiniteError,
)
from numrad.meansfuncs import (
    ScalarFn,
    SpectrumBounds,
    compress,
    eval_fn,
    get_fn,
    get_pair,
    kantorovich,
    mean,
    pd_test,
    psd_pow,
    require_pd,
    spectrum_bounds,
)


def _rand_pd(rng, n, lo=0.5, hi=4.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    w = rng.uniform(lo, hi, n)
    return (q * w) @ q.conj().T


# ---------------------------------------------------------------- registry

def test_registry_names():
    # an unknown name's error lists the registered templates
    with pytest.raises(InvalidSpecError) as err:
        get_fn("nope")
    assert "known: ['expm1', 'inv', 'inv_pow', 'pow', 'shifted_inv']" in str(err.value)


def test_get_fn_scalar_values():
    assert get_fn("inv")(2.0) == pytest.approx(0.5)
    assert get_fn("inv_pow:0.5")(4.0) == pytest.approx(0.5)
    assert get_fn("shifted_inv:1")(1.0) == pytest.approx(0.5)
    assert get_fn("pow:2")(3.0) == pytest.approx(9.0)
    assert get_fn("expm1")(0.0) == pytest.approx(0.0)


def test_get_fn_passthrough_and_kinds():
    f = get_fn("pow:1.5")
    assert get_fn(f) is f
    assert f.kind == "increasing"
    assert get_fn("inv").kind == "decreasing"
    assert get_fn("inv").strict_lo
    assert not get_fn("shifted_inv:2").strict_lo


@pytest.mark.parametrize("bad", [
    "nope", "inv:1", "inv_pow", "inv_pow:0", "inv_pow:1.5", "pow",
    "pow:0.5", "shifted_inv:-1", "shifted_inv", "pow:a",
])
def test_get_fn_rejects(bad):
    with pytest.raises(InvalidSpecError):
        get_fn(bad)


def test_get_pair_product_identity():
    for spec in ("sqrt", "pow:0.3", "pow:0.5", "pow:0.9"):
        f, g = get_pair(spec)
        t = np.linspace(0.1, 7.0, 40)
        assert_allclose(f(t) * g(t), t, rtol=1e-12)


@pytest.mark.parametrize("bad", ["sqrt:2", "pow", "pow:0", "pow:1", "geom"])
def test_get_pair_rejects(bad):
    with pytest.raises(InvalidSpecError):
        get_pair(bad)


def test_eval_fn_matches_diagonal_calculus():
    h = np.diag([1.0, 4.0])
    assert_allclose(eval_fn("inv", h), np.diag([1.0, 0.25]), atol=1e-12)
    assert_allclose(eval_fn("pow:2", h), np.diag([1.0, 16.0]), atol=1e-12)


def test_eval_fn_pole_guard():
    with pytest.raises(NotPositiveDefiniteError):
        eval_fn("inv", np.diag([0.0, 1.0]))
    # a pole takes the one positive-definiteness rule, before the domain
    # check: a negative spectrum, one below PD_TOL * max(1, ||H||) and the
    # empty matrix are all rejected as not positive definite
    for h in (np.diag([-1.0, 1.0]), np.diag([1e-12, 1.0]), np.zeros((0, 0))):
        with pytest.raises(NotPositiveDefiniteError):
            eval_fn("inv", h)
    # soft-edge function is fine on a singular PSD input
    out = eval_fn("shifted_inv:1", np.diag([0.0, 1.0]))
    assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-12)


def test_eval_fn_non_finite_values_are_domain_errors():
    # both branches: the soft-edge calculus and the pole check
    steep = ScalarFn("inv_pow:400", "decreasing", lambda t: t ** -400.0, strict_lo=True)
    with np.errstate(over="ignore"):
        with pytest.raises(DomainViolationError):
            eval_fn("expm1", np.diag([1.0, 900.0]))
        with pytest.raises(DomainViolationError):
            eval_fn(steep, np.diag([0.1, 1.0]))


def test_scalar_fn_values_obey_finiteness_rule():
    # a call on scalars follows the same rule as a call on a matrix
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(DomainViolationError):
            get_fn("expm1")(900.0)
        with pytest.raises(DomainViolationError):
            get_fn("inv")(np.array([0.0, 1.0]))


def test_psd_pow_roundtrip_and_negative_power():
    rng = np.random.default_rng(2)
    p = _rand_pd(rng, 4)
    root = psd_pow(p, 0.5)
    assert_allclose(root @ root, p, atol=1e-10 * (1 + np.linalg.norm(p, 2)))
    assert_allclose(psd_pow(p, -1.0) @ p, np.eye(4), atol=1e-9)
    with pytest.raises(NotPositiveDefiniteError):
        psd_pow(np.diag([0.0, 1.0]), -0.5)
    # a spectrum beyond round-off below zero leaves the domain of t^s
    with pytest.raises(DomainViolationError):
        psd_pow(np.diag([-1.0, 4.0]), 0.5)


def test_require_pd():
    require_pd(np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        require_pd(np.diag([1.0, -0.1]))
    with pytest.raises(NotPositiveDefiniteError):
        require_pd(np.diag([1.0, 0.0]))


def test_empty_matrix_is_not_pd():
    # one rule for 0x0: pd_test reports it not PD, so every gate rejects it
    e = np.zeros((0, 0))
    assert pd_test(e) == (False, 0.0)
    with pytest.raises(NotPositiveDefiniteError):
        require_pd(e)
    with pytest.raises(NotPositiveDefiniteError):
        psd_pow(e, -1.0)
    with pytest.raises(NotPositiveDefiniteError):
        mean(e, e, "harm")
    assert mean(e, e, "arith").shape == (0, 0)


# ------------------------------------------------------------------- means

def test_scalar_means_hand_values():
    a = np.array([[2.0]])
    b = np.array([[6.0]])
    assert mean(a, b, "arith")[0, 0] == pytest.approx(4.0)
    assert mean(a, b, "geom")[0, 0] == pytest.approx(np.sqrt(12.0))
    assert mean(a, b, "harm")[0, 0] == pytest.approx(3.0)
    # weighted: nu weights the SECOND operand
    assert mean(a, b, "arith", nu=0.25)[0, 0] == pytest.approx(3.0)
    assert mean(a, b, "geom", nu=0.25)[0, 0] == pytest.approx(2 ** 0.75 * 6 ** 0.25)


def test_mean_kind_enum_roundtrip():
    # the means are named by plain strings, so a name written out and read
    # back (a report's params, a failure record) names the same mean
    for kind in ("arith", "geom", "harm"):
        assert_allclose(mean(np.eye(2), np.eye(2), str(kind)), np.eye(2), atol=1e-15)
    for bad in ("median", "GEOM", 1, None):
        with pytest.raises(InvalidSpecError, match="unknown mean"):
            mean(np.eye(2), np.eye(2), bad)


def test_mean_weight_edges_and_validation():
    rng = np.random.default_rng(3)
    a, b = _rand_pd(rng, 3), _rand_pd(rng, 3)
    for kind in ("arith", "geom", "harm"):
        assert_allclose(mean(a, b, kind, nu=0.0), a, atol=1e-9)
        assert_allclose(mean(a, b, kind, nu=1.0), b, atol=1e-9)
    with pytest.raises(InvalidSpecError):
        mean(a, b, "arith", nu=1.5)
    with pytest.raises(InvalidSpecError):
        mean(a, np.eye(2), "arith")


def test_mean_requires_pd_except_arith():
    h = np.diag([1.0, -1.0])
    mean(h, np.eye(2), "arith")  # fine
    for kind in ("geom", "harm"):
        with pytest.raises(NotPositiveDefiniteError):
            mean(h, np.eye(2), kind)


def test_geom_mean_commuting_case():
    a = np.diag([1.0, 4.0])
    b = np.diag([9.0, 1.0])
    assert_allclose(mean(a, b, "geom"), np.diag([3.0, 2.0]), atol=1e-12)


def test_mean_ordering_loewner():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a, b = _rand_pd(rng, n), _rand_pd(rng, n)
        nu = float(rng.uniform(0.05, 0.95))
        h = mean(a, b, "harm", nu)
        g = mean(a, b, "geom", nu)
        ar = mean(a, b, "arith", nu)
        assert np.linalg.eigvalsh(g - h)[0] >= -1e-10
        assert np.linalg.eigvalsh(ar - g)[0] >= -1e-10


def test_mean_congruence_invariance():
    # T* (A sigma B) T = (T* A T) sigma (T* B T) for invertible T
    rng = np.random.default_rng(11)
    a, b = _rand_pd(rng, 3), _rand_pd(rng, 3)
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for kind in ("geom", "harm"):
        lhs = t.conj().T @ mean(a, b, kind, 0.3) @ t
        rhs = mean(t.conj().T @ a @ t, t.conj().T @ b @ t, kind, 0.3)
        assert_allclose(lhs, rhs, atol=1e-8 * (1 + np.linalg.norm(rhs, 2)))


# ------------------------------------------------- kantorovich and spectra

def test_kantorovich_values():
    assert kantorovich(1.0, 4.0) == pytest.approx(25.0 / 16.0)
    assert kantorovich(2.0, 2.0) == pytest.approx(1.0)
    assert kantorovich(0.5, 2.0) == pytest.approx(2.5 ** 2 / 4.0)


def test_kantorovich_at_least_one_with_equality_iff_equal():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = float(rng.uniform(0.01, 5.0))
        big = m + float(rng.uniform(0.0, 5.0))
        k = kantorovich(m, big)
        assert k >= 1.0
        if big > m:
            assert k > 1.0 + 1e-15
    assert kantorovich(3.7, 3.7) == 1.0


def test_kantorovich_rejects_bad_order():
    with pytest.raises(InvalidSpecError):
        kantorovich(4.0, 1.0)
    with pytest.raises(InvalidSpecError):
        kantorovich(0.0, 1.0)
    with pytest.raises(InvalidSpecError):
        kantorovich(-1.0, 1.0)


@pytest.mark.parametrize("m, big_m, k", [
    (1e-315, 1e-315, 1.0), (1e-161, 7e-161, 64.0 / 28.0), (2.0 ** -1025, 1.0, 2.0 ** 1023)],
    ids=["product-underflows", "product-subnormal", "near-overflow"])
def test_kantorovich_where_the_product_is_subnormal(m, big_m, k):
    # 4 m M below the least normal float: computed on m and M scaled by
    # a power of two, so no digit is lost to the subnormal product
    assert kantorovich(m, big_m) == pytest.approx(k, rel=4 * np.finfo(float).eps)
    if m == big_m:
        assert kantorovich(m, big_m) == 1.0


@pytest.mark.parametrize("m, big_m, k", [
    (1e160, 1e160, 1.0), (1.0, 1e160, 2.5e159), (1e308, 1.7e308, 2.7 ** 2 / 6.8)],
    ids=["square-overflows", "mixed-overflows", "sum-overflows"])
def test_kantorovich_where_the_square_overflows(m, big_m, k):
    # (M + m)^2 or 4 m M leaves the float range, the constant does not:
    # it is computed on m and M scaled by a power of two
    assert kantorovich(m, big_m) == pytest.approx(k, rel=4 * np.finfo(float).eps)
    if m == big_m:
        assert kantorovich(m, big_m) == 1.0


@pytest.mark.parametrize("m, big_m", [(1e-300, 1e150), (1e-320, 1e-10)],
                         ids=["quotient-overflows", "scaled-quotient-overflows"])
def test_kantorovich_outside_the_float_range_raises(m, big_m):
    with pytest.raises(NonFiniteError, match="leaves the float range"):
        kantorovich(m, big_m)


def test_spectrum_bounds_family():
    sb = spectrum_bounds([np.diag([1.0, 2.0]), np.diag([0.5, 3.0])])
    assert sb == SpectrumBounds(0.5, 3.0)
    assert sb.kantorovich == pytest.approx(kantorovich(0.5, 3.0))
    # a single matrix is a one-element family
    assert spectrum_bounds([np.diag([2.0, 5.0])]) == SpectrumBounds(2.0, 5.0)
    with pytest.raises(HypothesisViolatedError):
        spectrum_bounds([])


def test_spectrum_bounds_are_tight():
    rng = np.random.default_rng(17)
    mats = [_rand_pd(rng, 3) for _ in range(4)]
    sb = spectrum_bounds(mats)
    for x in mats:
        w = np.linalg.eigvalsh(x)
        assert sb.m <= w[0] + 1e-12 and w[-1] <= sb.M + 1e-12
    assert any(abs(np.linalg.eigvalsh(x)[0] - sb.m) < 1e-12 for x in mats)
    assert any(abs(np.linalg.eigvalsh(x)[-1] - sb.M) < 1e-12 for x in mats)


# ------------------------------------------------------------- compression

def test_compress_by_isometry():
    v = np.array([[1.0], [0.0], [0.0]])
    a = np.diag([5.0, 1.0, 2.0])
    assert_allclose(compress(a, v), [[5.0]])
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))
    out = compress(a, q)
    assert out.shape == (2, 2)
    assert_allclose(out, out.conj().T, atol=1e-12)


def test_compress_rejects_non_isometry():
    a = np.eye(3)
    with pytest.raises(NotIsometryError):
        compress(a, 2.0 * np.eye(3))
    with pytest.raises(NotIsometryError):
        compress(a, np.ones((2, 1)))  # non-conformable
