import inspect
import math
import warnings
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numrad import catalog
from numrad.catalog import (
    ALL_BOUND_IDS,
    ATOL,
    FAMILIES,
    H_ALPHA_GRID,
    H_DEC_GRID,
    H_INC_GRID,
    L02_ATOL,
    L04_GRID,
    L04_TOL,
    LEMMA_IDS,
    LEMMAS,
    NU_GRID,
    P_GRID,
    PAIR_GRID,
    RTOL,
    SIGMA_GRID,
    BoundReport,
    LoewnerReport,
    aluthge_transform,
    check_alpha,
    check_aluthge,
    check_block,
    check_classics,
    check_lemma,
    check_mean_h,
    check_mean_h_weighted,
    check_mox,
    check_omega_harmonic,
    check_symmetrized,
    compatible_signatures,
    evaluate_bound,
    family_of,
    radius_values,
    required_operands,
    _report,
)
from numrad.errors import (
    DimensionMismatchError,
    IncompatibleBoundsError,
    InvalidSpecError,
    NonFiniteError,
    NotSquareError,
    NumradError,
    UnknownBoundIdError,
)
from numrad.harness import CampaignConfig, _draw
from numrad.matrixcore import abs_op, polar
from numrad.meansfuncs import mean
from numrad.radii import RadiusResult, numerical_radius
from test_acceptance import _ginibre, _lemma_inputs, _poly_in
from test_radii import _missed_peak

I2 = np.eye(2, dtype=complex)
JORDAN = np.array([[0, 1], [0, 0]], dtype=complex)

# the 2x2 reference triple used across the suite
EX_A = np.array([[1, 2], [3, 0]], dtype=complex)
EX_B = np.array([[3, 4], [1, 5]], dtype=complex)
EX_X = np.array([[1, 2], [0, 1]], dtype=complex)


def _rand(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _rand_pd(rng, n, lo=0.5, hi=4.0):
    q, _ = np.linalg.qr(_rand(rng, n))
    return (q * rng.uniform(lo, hi, n)) @ q.conj().T


# ------------------------------------------------------------ report basics

def test_catalog_ids_are_disjoint_and_stable():
    assert len(set(ALL_BOUND_IDS)) == 23
    assert len(set(LEMMA_IDS)) == 9
    assert not set(ALL_BOUND_IDS) & set(LEMMA_IDS)


def test_tolerance_rule():
    # slack within -(atol + rtol |rhs|) still counts as satisfied
    assert _report("T", 1.0 + 5e-10, 1.0).satisfied
    assert not _report("T", 1.0 + 1e-6, 1.0).satisfied
    r = _report("T", 0.25, 1.0)
    assert r.slack == pytest.approx(0.75)
    assert r.hypothesis_ok


def test_bound_report_status():
    rhs = 3.0
    edge = -(ATOL + RTOL * rhs)

    def rep(slack, hypothesis_ok=True):
        return BoundReport("T", rhs - slack, rhs, slack, True, hypothesis_ok)

    assert rep(edge).status() == "pass"
    assert rep(np.nextafter(edge, -np.inf)).status() == "fail"
    assert rep(0.5).status() == "pass"
    assert rep(0.5, hypothesis_ok=False).status() == "skip"
    # custom tolerances replace both defaults
    assert rep(-0.5).status(atol=0.2, rtol=0.1) == "pass"
    assert rep(-0.5).status(atol=0.1, rtol=0.1) == "fail"
    assert rep(-0.5).status(atol=0.2, rtol=0.0) == "fail"
    # the rule matches the satisfied flag the evaluators set
    for slack in (edge, np.nextafter(edge, -np.inf)):
        r = _report("T", rhs - slack, rhs)
        assert r.status() == ("pass" if r.satisfied else "fail")


def test_loewner_report_status():
    scale = 3.0
    edge = -(L02_ATOL + L02_ATOL * scale)

    def rep(min_eig, hypothesis_ok=True):
        return LoewnerReport("T", min_eig, True, hypothesis_ok, scale=scale)

    assert rep(edge).status() == "pass"
    assert rep(np.nextafter(edge, -np.inf)).status() == "fail"
    assert rep(0.5).status() == "pass"
    assert rep(0.5, hypothesis_ok=False).status() == "skip"
    # custom tolerances replace both defaults; rtol scales with the norm
    assert rep(-0.5).status(atol=0.2, rtol=0.1) == "pass"
    assert rep(-0.5).status(atol=0.1, rtol=0.1) == "fail"
    assert rep(-0.5).status(atol=0.2, rtol=0.0) == "fail"
    # an explicit default tolerance gives the default verdict
    for me in (edge, np.nextafter(edge, -np.inf)):
        assert rep(me).status(L02_ATOL, L02_ATOL) == rep(me).status()
    # the rule matches the satisfied flag L02 sets, and scale is ||rhs||
    rng = np.random.default_rng(44)
    r = check_lemma("L02", a=_rand_pd(rng, 3), b=_rand_pd(rng, 3))
    assert r.status() == ("pass" if r.satisfied else "fail")
    assert r.scale > 0.0


# ------------------------------------------------------- identity equalities

def test_classics_identity_is_tight():
    for rep in check_classics(I2, I2, I2, p=1.0):
        assert rep.satisfied
        assert rep.slack == pytest.approx(0.0, abs=1e-9)


def test_classics_jordan_values():
    reps = check_classics(JORDAN, JORDAN, JORDAN, p=1.0)
    b02 = reps[1]
    assert b02.lhs == pytest.approx(0.25, abs=1e-9)
    assert b02.rhs == pytest.approx(0.5, abs=1e-12)


def test_classics_rejects_bad_power():
    with pytest.raises(InvalidSpecError):
        check_classics(I2, I2, I2, p=0.5)
    # the one-bound paths state the same hypothesis
    for bid in ("B03", "B04", "B05"):
        with pytest.raises(InvalidSpecError, match="power must be >= 1"):
            evaluate_bound(bid, a=EX_A, b=EX_B, x=EX_X, p=0.5)


def test_classics_satisfied_on_randoms():
    rng = np.random.default_rng(101)
    for t in range(12):
        n = 2 + t % 4
        reps = check_classics(_rand(rng, n), _rand(rng, n), _rand(rng, n),
                              p=float(1 + t % 3))
        assert all(r.satisfied for r in reps), [r.bound_id for r in reps]


def test_mean_h_identity_is_tight():
    b06, b06p = check_mean_h(I2, I2, I2)
    for rep in (b06, b06p):
        assert rep.satisfied and rep.hypothesis_ok
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)
    assert b06.params["k"] == pytest.approx(1.0)


def test_mean_h_diagonal_violation():
    # P = Q = diag(2,3): lhs = ||diag(1/2, 1/3)|| = 1/2 but the
    # Kantorovich-weighted right side is (2/3)(25/24) h(3) = 25/108.
    b06, b06p = check_mean_h(I2, I2, np.diag([2.0, 3.0]), sigma="harm")
    assert b06.lhs == pytest.approx(0.5, abs=1e-12)
    assert b06.rhs == pytest.approx(25.0 / 108.0, abs=1e-12)
    assert not b06.satisfied
    assert b06.hypothesis_ok
    # the unweighted variant h(w) = 1/3 also sits below the lhs
    assert b06p.rhs == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert not b06p.satisfied


def test_mean_h_skips_on_singular_pq():
    b06, b06p = check_mean_h(I2, I2, np.diag([0.0, 1.0]))
    for rep in (b06, b06p):
        assert not rep.hypothesis_ok
        assert not rep.satisfied
        assert math.isnan(rep.lhs)
        assert "positive definite" in rep.note


def test_mean_h_gate_does_not_depend_on_operand_scale():
    # at scale 1e-6 P and Q have their whole spectrum below 1e-10; the PD
    # rule is relative, so B06 is decided as at scale 1
    rng = np.random.default_rng(5)
    a, b, x = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
    small = check_mean_h(1e-6 * a, 1e-6 * b, 1e-6 * x)
    for rep, ref in zip(small, check_mean_h(a, b, x)):
        assert rep.hypothesis_ok, rep.note
        assert rep.params["M"] < 1e-10
        assert rep.status() == ref.status()


def test_mean_h_lhs_respects_mean_ordering():
    rng = np.random.default_rng(7)
    a, b, x = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
    by_sigma = {
        s: check_mean_h(a, b, x, sigma=s)[0] for s in ("harm", "geom", "arith")
    }
    if all(r.hypothesis_ok for r in by_sigma.values()):
        assert by_sigma["harm"].lhs <= by_sigma["geom"].lhs + 1e-9
        assert by_sigma["geom"].lhs <= by_sigma["arith"].lhs + 1e-9


def test_mean_h_rejects_increasing_h():
    with pytest.raises(InvalidSpecError):
        check_mean_h(I2, I2, I2, h="pow:2")


def test_mean_h_weighted_identity_and_validation():
    rep = check_mean_h_weighted(I2, I2, I2, nu=0.3)
    assert rep.satisfied
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0)
    with pytest.raises(InvalidSpecError):
        check_mean_h_weighted(I2, I2, I2, nu=0.0)
    with pytest.raises(InvalidSpecError):
        check_mean_h_weighted(I2, I2, I2, nu=1.0)


def test_omega_harmonic_identity_is_tight():
    for rep in check_omega_harmonic(I2, I2, I2):
        assert rep.satisfied
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)


def test_omega_harmonic_rejects_decreasing_h():
    with pytest.raises(InvalidSpecError):
        check_omega_harmonic(I2, I2, I2, h="inv")
    with pytest.raises(InvalidSpecError):
        check_omega_harmonic(I2, I2, I2, p=0.5)


def test_mox_identity_and_randoms():
    for rep in check_mox(I2, I2):
        assert rep.satisfied
        assert rep.slack == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        assert all(r.satisfied for r in check_mox(_rand(rng, n), _rand(rng, n),
                                                  h="pow:2", p=2.0))


def test_aluthge_transform_values():
    # Jordan block: |A| = diag(0,1) kills everything, so At = 0
    at = aluthge_transform(JORDAN)
    assert np.linalg.norm(at) == pytest.approx(0.0, abs=1e-12)
    # normal matrices are fixed points
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(_rand(rng, 3))
    nrm = q @ np.diag([1.0 + 1j, 2.0, -0.5j]) @ q.conj().T
    assert np.linalg.norm(aluthge_transform(nrm) - nrm) < 1e-8


def test_aluthge_bound_tight_on_jordan():
    b13, b15 = check_aluthge(JORDAN)
    # w(A) = 1/2, transform vanishes, rhs = ||f| ||g||/2 = 1/2: equality
    assert b13.lhs == pytest.approx(0.5, abs=1e-9)
    assert b13.rhs == pytest.approx(0.5, abs=1e-9)
    assert b13.params["omega_transform"] == pytest.approx(0.0, abs=1e-12)
    assert b13.satisfied and b15.satisfied


def test_aluthge_satisfied_on_randoms_all_pairs():
    rng = np.random.default_rng(17)
    for pair in ("sqrt", "pow:0.3", "pow:0.7"):
        for _ in range(6):
            a = _rand(rng, int(rng.integers(2, 6)))
            assert all(r.satisfied for r in check_aluthge(a, pair=pair))


def test_block_identity_and_reference_value():
    rep = check_block(I2, I2, I2)
    assert rep.satisfied
    assert rep.slack == pytest.approx(0.0, abs=1e-9)
    rep = check_block(EX_A, EX_B, EX_X)
    assert rep.lhs == pytest.approx(39.914607000811124, abs=1e-9)
    assert rep.rhs == pytest.approx(51.525980492047765, abs=1e-9)
    assert rep.satisfied


def test_block_with_identity_x_matches_b04_at_p1():
    rng = np.random.default_rng(19)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        a, b = _rand(rng, n), _rand(rng, n)
        b14 = check_block(a, b, np.eye(n))
        b04 = check_classics(a, b, np.eye(n), p=1.0)[3]
        assert b14.lhs == pytest.approx(b04.lhs, rel=1e-9, abs=1e-9)
        assert b14.rhs == pytest.approx(b04.rhs, rel=1e-9, abs=1e-9)


def test_symmetrized_identity_and_ordering():
    b16a, b16b, b17 = check_symmetrized(I2, I2, I2)
    for rep in (b16a, b16b, b17):
        assert rep.satisfied
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(2.0)
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        b16a, b16b, b17 = check_symmetrized(_rand(rng, n), _rand(rng, n),
                                            _rand(rng, n))
        assert all(r.satisfied for r in (b16a, b16b, b17))
        # b16b carries the smallest coefficient of the three
        assert b16b.rhs <= b16a.rhs + 1e-12
        assert b16b.rhs <= b17.rhs + 1e-12
        assert b17.params["refinement_margin"] == pytest.approx(
            b17.rhs - b16b.rhs, abs=1e-12)
        assert b17.params["refinement_margin"] >= -1e-12


# ----------------------------------------------------------- B18-B21 family

def _commuting_x(rng, a, deg=3):
    # polynomial in |A*| commutes with |A*| and is Hermitian
    from numrad.matrixcore import abs_op

    abs_as = abs_op(a.conj().T)
    coeffs = rng.uniform(0.1, 1.0, deg)
    x = sum(c * np.linalg.matrix_power(abs_as, j) for j, c in enumerate(coeffs))
    nrm = np.linalg.norm(x, 2)
    return x / nrm if nrm > 1 else x


def test_alpha_identity_is_tight():
    for rep in check_alpha(I2, I2, I2):
        assert rep.satisfied and rep.hypothesis_ok
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)


def test_alpha_commutation_gate():
    rng = np.random.default_rng(29)
    a, b = _rand(rng, 3), _rand(rng, 3)
    x_good = _commuting_x(rng, a)
    reps = check_alpha(a, b, x_good)
    assert all(r.hypothesis_ok for r in reps)
    assert all(r.params["commutation_defect"] < 1e-8 for r in reps)
    x_bad = _rand(rng, 3)
    reps = check_alpha(a, b, x_bad)
    assert not any(r.hypothesis_ok for r in reps)
    # values are still computed for inspection
    assert np.isfinite(reps[0].lhs) and np.isfinite(reps[0].rhs)


def test_alpha_b19_skips_when_spectral_radius_exceeds_one():
    rng = np.random.default_rng(31)
    a, b = _rand(rng, 3), _rand(rng, 3)
    x = 2.0 * np.eye(3)  # commutes with everything, r(X) = 2
    b18, b19, b20, b21 = check_alpha(a, b, x)
    assert not b19.hypothesis_ok
    assert "exceeds 1" in b19.note
    assert math.isnan(b19.lhs)
    for rep in (b18, b20, b21):
        assert rep.hypothesis_ok
        assert np.isfinite(rep.lhs)
        assert rep.satisfied


def test_alpha_satisfied_on_commuting_draws():
    rng = np.random.default_rng(37)
    for t in range(10):
        n = 2 + t % 3
        a, b = _rand(rng, n), _rand(rng, n)
        x = _commuting_x(rng, a)
        nu = (0.25, 0.5, 0.75)[t % 3]
        for rep in check_alpha(a, b, x, h="pow:2", nu=nu):
            assert rep.hypothesis_ok
            assert rep.satisfied, (rep.bound_id, rep.slack)


def test_alpha_b21_power_from_h():
    rep = check_alpha(I2, I2, I2, h="pow:2")[3]
    assert rep.params["p"] == 2.0
    rep = check_alpha(I2, I2, I2, h="expm1")[3]
    assert rep.params["p"] == 1.0


def test_alpha_validation():
    with pytest.raises(InvalidSpecError):
        check_alpha(I2, I2, I2, nu=1.0)
    with pytest.raises(InvalidSpecError):
        check_alpha(I2, I2, I2, h="inv")


# ------------------------------------------------------------------- lemmas

def test_lemma_l01_identity_and_randoms():
    e1 = np.array([1.0, 0.0])
    rep = check_lemma("L01", a=I2, x=e1, y=e1)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0)
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = _rand(rng, n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        assert check_lemma("L01", a=a, x=x, y=y, pair="pow:0.4").satisfied


def test_lemma_l02_loewner_report():
    rng = np.random.default_rng(43)
    a, b = _rand_pd(rng, 3), _rand_pd(rng, 3)
    rep = check_lemma("L02", a=a, b=b, h="inv", sigma="geom", tau="arith")
    assert rep.satisfied
    assert rep.min_eig_of_difference >= -1e-8
    assert rep.params["k"] >= 1.0
    # compression by an isometry
    q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    rep = check_lemma("L02", a=a, b=b, v=q)
    assert rep.satisfied
    # hypothesis failure: indefinite operand
    rep = check_lemma("L02", a=np.diag([1.0, -1.0]), b=np.eye(2))
    assert not rep.hypothesis_ok


def test_lemma_l03_is_equality_on_pd():
    rng = np.random.default_rng(47)
    for _ in range(8):
        rep = check_lemma("L03", a=_rand_pd(rng, int(rng.integers(1, 5))))
        assert rep.satisfied
        assert rep.slack == pytest.approx(0.0, abs=1e-9)
    assert not check_lemma("L03", a=np.diag([1.0, -2.0])).hypothesis_ok


def test_lemma_l03_holds_on_large_operands():
    # A^-1 = 1e-11 I is positive definite under the relative PD rule
    rep = check_lemma("L03", a=1e11 * np.eye(2))
    assert rep.status() == "pass"
    assert rep.lhs == pytest.approx(1e11, rel=1e-12)


def test_lemma_l04_sup_form_agrees():
    rng = np.random.default_rng(53)
    for _ in range(4):
        rep = check_lemma("L04", a=_rand(rng, int(rng.integers(2, 5))))
        assert rep.satisfied  # |w - sup-form| <= 1e-10 * upper
    # jordan: sup form equals 1/2 as well
    rep = check_lemma("L04", a=JORDAN)
    assert rep.params["sup_form"] == pytest.approx(0.5, abs=1e-12)


def test_lemma_l04_finds_the_missed_peak():
    # the peak of the last entry lies between the scan's angles, behind
    # three others of height 1; the level-set iteration climbs to it
    a = _missed_peak(2e-6)
    rep = check_lemma("L04", a=a)
    assert rep.status() == "pass"
    assert rep.params["sup_form"] == pytest.approx(
        numerical_radius(a).value, rel=1e-12)


def test_lemma_l04_passes_the_missed_peak_family():
    # the random-offset family of the radius test: two peaks closer than
    # the scan's step may show as one, and the level set at the lower
    # one's height holds an arc around the other, whose midpoint climbs
    rng = np.random.default_rng(47)
    for _ in range(400):
        eps = 10.0 ** rng.uniform(-9.0, -5.0)
        offsets = rng.uniform(0.0, 1440.0, 3)
        rep = check_lemma("L04", a=_missed_peak(eps, offsets))
        assert rep.status() == "pass"
        assert rep.params["sup_form"] == pytest.approx(1.0 + eps, rel=1e-12)


def test_lemma_l04_sup_form_agrees_with_w_to_rounding():
    # the level-set iteration stops only once the certificate at
    # s* (1 + 1e-12) passes, which leaves the sup form at rounding
    # distance from w(A), far inside L04_TOL
    rng = np.random.default_rng(79)
    mats = [_rand(rng, n) for n in range(1, 9) for _ in range(6)]
    for _ in range(60):
        eps = 10.0 ** rng.uniform(-9.0, -5.0)
        mats.append(_missed_peak(eps, rng.uniform(0.0, 1440.0, 3)))
    for a in mats:
        rep = check_lemma("L04", a=a)
        assert rep.lhs <= 1e-14 * rep.params["upper"]


def test_lemma_l04_certificate_brackets_the_sup_form():
    rng = np.random.default_rng(73)
    for _ in range(30):
        rep = check_lemma("L04", a=_rand(rng, int(rng.integers(1, 7))))
        sup, sup_upper = rep.params["sup_form"], rep.params["sup_upper"]
        assert sup <= sup_upper <= sup * (1.0 + 1e-11)
        assert sup <= rep.params["upper"]


def test_lemma_l04_is_scale_invariant():
    # the tolerance is relative to the upper bound of w(A), so scaling A
    # moves no verdict
    rng = np.random.default_rng(61)
    for _ in range(40):
        a = _rand(rng, int(rng.integers(2, 6)))
        for scale in (1e3, 1e-3):
            rep = check_lemma("L04", a=scale * a)
            assert rep.status() == "pass"
            assert rep.lhs <= rep.rhs  # without the absolute floor ATOL


@pytest.mark.parametrize("a", [
    [[1e-315]],
    [[1e-320, 2e-320], [0.0, 1e-320]],
    [[5e-324]],
    [[1e308, 1e308], [0.0, 1e308]],
], ids=["subnormal-1x1", "subnormal-2x2", "least-subnormal", "near-overflow"])
def test_lemma_l04_sup_form_at_the_ends_of_the_float_range(a):
    # the sup form is computed on A scaled by a power of two, so a
    # subnormal A neither stalls its certificate level at best nor takes
    # the level-set pencil out of range, and A + e^{i theta} A* of an A
    # near the overflow threshold stays finite
    rep = check_lemma("L04", a=a)
    assert rep.status() == "pass"
    sup, sup_upper = rep.params["sup_form"], rep.params["sup_upper"]
    assert 0.0 < sup <= sup_upper <= rep.params["upper"] * (1.0 + 1e-11)
    assert rep.params["evaluations"] <= L04_GRID + 32


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lemma_l04_radius_above_the_float_range_raises():
    # w(A) = 3.4e308: a typed error, not a verdict on lhs = nan
    with pytest.raises(NonFiniteError, match="overflows"):
        check_lemma("L04", a=np.full((2, 2), 1.7e308))


def _understated_radius(monkeypatch, r, low):
    monkeypatch.setattr(catalog, "numerical_radius",
                        lambda m: RadiusResult(low, r.theta, r.witness, 0,
                                               low * (1.0 + 1e-12)))


def test_lemma_l04_sup_form_above_upper_bound_fails(monkeypatch):
    # an understated w within L04_TOL of the sup form still fails when the
    # sup form exceeds its certified upper bound
    a = 1e3 * _rand(np.random.default_rng(67), 3)
    r = numerical_radius(a)
    _understated_radius(monkeypatch, r, r.value * (1.0 - 1e-11))
    rep = check_lemma("L04", a=a)
    assert rep.lhs <= L04_TOL * r.upper
    assert rep.rhs == 0.0
    assert rep.status() == "fail"


def test_lemma_l04_absolute_floor_applies_below_norm_ten(monkeypatch):
    # at ||A|| ~ 1 the uniform rule's ATOL = 1e-9, not L04_TOL * upper,
    # sets the limit: a sup form above the upper bound by less than ATOL
    # passes with rhs = 0, by more fails
    a = _rand(np.random.default_rng(67), 3)
    r = numerical_radius(a)
    for gap, status in ((0.1 * ATOL, "pass"), (2.0 * ATOL, "fail")):
        _understated_radius(monkeypatch, r, r.value - gap)
        rep = check_lemma("L04", a=a)
        assert rep.rhs == 0.0
        assert rep.status() == status


def test_lemma_l04_radius_above_the_sup_form_certificate_fails(monkeypatch):
    # the two certified intervals must meet from either side: an
    # overstated w above the sup form's upper bound fails as well
    a = 1e3 * _rand(np.random.default_rng(67), 3)
    r = numerical_radius(a)
    high = r.value * (1.0 + 1e-11)
    monkeypatch.setattr(catalog, "numerical_radius",
                        lambda m: RadiusResult(high, r.theta, r.witness, 0,
                                               high * (1.0 + 1e-12)))
    rep = check_lemma("L04", a=a)
    assert rep.params["sup_upper"] < high
    assert rep.lhs <= L04_TOL * r.upper
    assert rep.rhs == 0.0
    assert rep.status() == "fail"


def test_lemma_l04_evaluation_count_is_bounded():
    # past the scan, each level-set step evaluates one midpoint per arc,
    # and the iteration converges quadratically in a few steps
    rng = np.random.default_rng(71)
    mats = [_rand(rng, int(rng.integers(2, 6))) for _ in range(40)]
    for a in mats + [np.zeros((3, 3))]:
        assert check_lemma("L04", a=a).params["evaluations"] <= L04_GRID + 32
    # a flat profile (A = 0) stops after the scan
    assert check_lemma("L04", a=np.zeros((3, 3))).params["evaluations"] < 2 * L04_GRID


def test_lemma_l05_block_diag():
    rng = np.random.default_rng(59)
    rep = check_lemma("L05", a=_rand(rng, 3), b=_rand(rng, 2))
    assert rep.satisfied
    # w(diag(J, [2])) = max(1/2, 2)
    rep = check_lemma("L05", a=np.array([[0, 1], [0, 0]]), b=np.array([[2.0]]))
    assert rep.satisfied and rep.lhs <= 1e-8
    assert rep.params["block"] == pytest.approx(2.0, abs=1e-9)


def test_lemma_l06_identity_equality_and_randoms():
    rep = check_lemma("L06", a1=I2, b1=I2, a2=I2, b2=I2)
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(2.0)
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        rep = check_lemma("L06", a1=_rand(rng, n), b1=_rand(rng, n),
                          a2=_rand(rng, n), b2=_rand(rng, n))
        assert rep.satisfied


def test_lemma_l07_identity_equality_and_randoms():
    rep = check_lemma("L07", a1=I2, b1=I2, a2=I2, b2=I2, x=I2, y=I2)
    assert rep.lhs == pytest.approx(4.0)
    assert rep.rhs == pytest.approx(4.0)
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        mats = {k: _rand(rng, n) for k in ("a1", "b1", "a2", "b2", "x", "y")}
        assert check_lemma("L07", **mats).satisfied


def test_lemma_l08_commutation_gate():
    rng = np.random.default_rng(71)
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)  # |A| = A diagonal
    b = np.diag(rng.uniform(0.5, 2.0, 3)).astype(complex)  # commutes, B* = B
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    rep = check_lemma("L08", a=a, b=b, x=x, y=y)
    assert rep.hypothesis_ok
    assert rep.satisfied
    rep = check_lemma("L08", a=_rand(rng, 3), b=_rand(rng, 3), x=x, y=y)
    assert not rep.hypothesis_ok


def test_lemma_l09_norm_convexity():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p = _rand_pd(rng, n, lo=0.0, hi=3.0)
        q = _rand_pd(rng, n, lo=0.0, hi=3.0)
        rep = check_lemma("L09", p=p, q=q, h="pow:3",
                          nu=float(rng.uniform(0, 1)))
        assert rep.satisfied


def test_lemma_dispatch_validation():
    with pytest.raises(UnknownBoundIdError):
        check_lemma("L99", a=I2)
    with pytest.raises(InvalidSpecError):
        check_lemma("L03", a=I2, h="pow:2")  # needs a decreasing h
    # a missing operand is named by its flag
    e1 = np.array([1.0, 0.0])
    with pytest.raises(InvalidSpecError, match=r"L04 requires operand\(s\) A$"):
        check_lemma("L04")
    with pytest.raises(InvalidSpecError, match=r"L01 requires operand\(s\) Y$"):
        check_lemma("L01", a=I2, x=e1)
    with pytest.raises(InvalidSpecError, match=r"operand\(s\) B, A2, B2$"):
        check_lemma("L06", a1=I2)
    # a vector operand must be a unit vector of A's size, not a matrix
    # of the same size, a longer vector or a vector of another norm
    with pytest.raises(InvalidSpecError):
        check_lemma("L01", a=np.eye(4), x=np.diag([1.0, 0.0]), y=np.eye(4)[0])
    with pytest.raises(InvalidSpecError, match="vector of length 2"):
        check_lemma("L01", a=I2, x=np.ones(4) / 2.0, y=e1)
    with pytest.raises(InvalidSpecError, match="unit vector"):
        check_lemma("L01", a=I2, x=2.0 * e1, y=e1)
    assert check_lemma("L01", a=I2, x=e1[:, None], y=e1[None, :]).satisfied


def test_lemma_operand_errors_name_the_flag():
    # check_lemma checks every operand, and names it by its flag, as
    # `numrad check` takes it
    e1, bad = np.array([1.0, 0.0]), np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteError, match="^A contains"):
        check_lemma("L06", a1=bad, b1=I2, a2=I2, b2=I2)
    with pytest.raises(NonFiniteError, match="^A contains"):
        check_lemma("L09", p=bad, q=I2)
    with pytest.raises(NonFiniteError, match="^B2 contains"):
        check_lemma("L07", a1=I2, b1=I2, a2=I2, b2=bad, x=I2, y=I2)
    with pytest.raises(InvalidSpecError, match="^X must be a unit vector"):
        check_lemma("L01", a=I2, x=2.0 * e1, y=e1)
    with pytest.raises(InvalidSpecError, match="^Y must be a vector of length 2"):
        check_lemma("L08", a=I2, b=I2, x=e1, y=np.ones(3))
    # an operand is checked before a parameter
    with pytest.raises(NonFiniteError, match="^A contains"):
        check_lemma("L03", a=bad, h="pow:2")


def test_lemma_table_is_pinned():
    # ids, command-line flag -> handler keyword maps, optional operands
    # and keyword parameters: what check_lemma and numrad check both read
    assert LEMMA_IDS == tuple(LEMMAS) == (
        "L01", "L02", "L03", "L04", "L05", "L06", "L07", "L08", "L09")
    assert {lem.id: (lem.flags, lem.optional, lem.params)
            for lem in LEMMAS.values()} == {
        "L01": ({"A": "a", "X": "x", "Y": "y"}, (), ("pair",)),
        "L02": ({"A": "a", "B": "b", "V": "v"}, ("V",),
                ("h", "sigma", "tau", "nu")),
        "L03": ({"A": "a"}, (), ("h",)),
        "L04": ({"A": "a"}, (), ()),
        "L05": ({"A": "a", "B": "b"}, (), ()),
        "L06": ({"A": "a1", "B": "b1", "A2": "a2", "B2": "b2"}, (), ()),
        "L07": ({"A": "a1", "B": "b1", "A2": "a2", "B2": "b2",
                 "X": "x", "Y": "y"}, (), ()),
        "L08": ({"A": "a", "B": "b", "X": "x", "Y": "y"}, (), ("pair",)),
        "L09": ({"A": "p", "B": "q"}, (), ("h", "nu")),
    }
    # the flags whose operands are unit vectors on A's space; every other
    # operand is a matrix
    assert {lem.id: lem.vectors for lem in LEMMAS.values() if lem.vectors} == {
        "L01": ("X", "Y"), "L08": ("X", "Y")}
    # every keyword the table names is one its handler takes, and back
    for lem in LEMMAS.values():
        taken = list(inspect.signature(lem.handler).parameters)
        assert taken == [*lem.flags.values(), *lem.params], lem.id


# ----------------------------------------------------------------- dispatch

def test_evaluate_bound_matches_family_runners():
    # every id, with non-default parameters from the campaign grids;
    # parameters a bound does not consume are passed and must be ignored
    rng = np.random.default_rng(79)
    a, b, x = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
    p, nu, pair, sigma = P_GRID[2], NU_GRID[0], PAIR_GRID[1], SIGMA_GRID[2]
    h_dec, h_inc, h_alpha = H_DEC_GRID[1], H_INC_GRID[1], H_ALPHA_GRID[1]
    runners = [
        (("B01", "B02", "B03", "B04", "B05"), check_classics(a, b, x, p), None),
        (("B06", "B06p"), check_mean_h(a, b, x, pair, h_dec, sigma), h_dec),
        (("B07",), (check_mean_h_weighted(a, b, x, pair, h_dec, sigma, nu),),
         h_dec),
        (("B08", "B09", "B10"), check_omega_harmonic(a, b, x, pair, h_inc, p),
         h_inc),
        (("B11", "B12"), check_mox(a, b, h_inc, p), h_inc),
        (("B13", "B15"), check_aluthge(a, pair, h_inc, p), h_inc),
        (("B14",), (check_block(a, b, x),), None),
        (("B16a", "B16b", "B17"), check_symmetrized(a, b, x), None),
        (("B18", "B19", "B20", "B21"), check_alpha(a, b, x, pair, h_alpha, nu),
         h_alpha),
    ]
    assert sorted(bid for ids, _, _ in runners for bid in ids) \
        == sorted(ALL_BOUND_IDS)
    for ids, reports, h in runners:
        for bid, family in zip(ids, reports):
            direct = evaluate_bound(bid, a=a, b=b, x=x, p=p, nu=nu, pair=pair,
                                    h=h, sigma=sigma)
            assert direct.bound_id == bid
            assert direct.lhs.hex() == family.lhs.hex(), bid
            assert direct.rhs.hex() == family.rhs.hex(), bid

    # on a stack of k = 4 trials (member 2 all zeros, member 3's X
    # commuting with |A*|) with one grid value per member, member j's
    # report is the 2-D call on trial j, bit for bit
    k = 4
    mats = {n: np.stack([_rand(rng, 3) for _ in range(k)]) for n in "abx"}
    for m in mats.values():
        m[2] = 0.0
    mats["x"][3] = _commuting_x(rng, mats["a"][3])
    h_of = {"mean_h": H_DEC_GRID, "mean_h_weighted": H_DEC_GRID, "alpha": H_ALPHA_GRID}
    for bid in ALL_BOUND_IDS:
        grids = {"p": P_GRID, "nu": NU_GRID, "pair": PAIR_GRID, "sigma": SIGMA_GRID,
                 "h": h_of.get(family_of(bid).name, H_INC_GRID)}
        per = {key: [v[(j + 1) % len(v)] for j in range(k)] for key, v in grids.items()}
        stacked = evaluate_bound(bid, **mats, **per)
        assert isinstance(stacked, list) and len(stacked) == k, bid
        for j, rep in enumerate(stacked):
            alone = evaluate_bound(bid, **{n: m[j] for n, m in mats.items()},
                                   **{key: v[j] for key, v in per.items()})
            assert repr(rep) == repr(alone), (bid, j)
        assert stacked[2].status() in ("pass", "skip"), bid


def test_check_functions_run_a_stack_member_by_member():
    # every check_* named in the catalog takes a (k, m, n) stack and
    # returns one result per member, each its member's 2-D call; a lemma
    # rejects a stack rather than reading one member of it
    rng = np.random.default_rng(113)
    k = 3
    mats = {n: np.stack([_rand(rng, 2) for _ in range(k)]) for n in "abx"}
    names = [n for n in catalog.__all__ if n.startswith("check_") and n != "check_lemma"]
    assert len(names) == 9
    for name in names:
        fn = getattr(catalog, name)
        ops = [mats[p] for p in inspect.signature(fn).parameters if p in mats]
        got = fn(*ops)
        assert isinstance(got, list) and len(got) == k, name
        for j in range(k):
            assert repr(got[j]) == repr(fn(*(m[j] for m in ops))), (name, j)
    for lid, lem in LEMMAS.items():
        with pytest.raises(DimensionMismatchError):
            check_lemma(lid, **{kw: mats["a"] for kw in lem.flags.values()})
    # the members of A, B and X must be as many
    with pytest.raises(DimensionMismatchError, match="^B has 2 members, A has 3$"):
        check_block(mats["a"], mats["b"][:2], mats["x"])
    with pytest.raises(DimensionMismatchError):
        evaluate_bound("B05", a=mats["a"], b=mats["b"], x=mats["x"], p=[1.0, 2.0])


def test_family_table_is_pinned():
    # family names salt the campaign seeds, family order sets the row
    # order, and ALL_BOUND_IDS is the default bound list in the JSON config
    assert [(f.name, f.ids) for f in FAMILIES] == [
        ("classics", ("B01", "B02", "B03", "B04", "B05")),
        ("mean_h", ("B06", "B06p")),
        ("mean_h_weighted", ("B07",)),
        ("omega_harmonic", ("B08", "B09", "B10")),
        ("mox", ("B11", "B12")),
        ("aluthge", ("B13", "B15")),
        ("block", ("B14",)),
        ("symmetrized", ("B16a", "B16b", "B17")),
        ("alpha", ("B18", "B19", "B20", "B21")),
    ]
    assert ALL_BOUND_IDS == (
        "B01", "B02", "B03", "B04", "B05",
        "B06", "B06p", "B07", "B08", "B09", "B10",
        "B11", "B12", "B13", "B14", "B15",
        "B16a", "B16b", "B17",
        "B18", "B19", "B20", "B21",
    )


def test_evaluate_bound_h_defaults_per_family():
    # decreasing default for the mean family, increasing elsewhere
    rep = evaluate_bound("B06", a=I2, b=I2, x=I2)
    assert rep.params["h"] == "inv"
    rep = evaluate_bound("B09", a=I2, b=I2, x=I2)
    assert rep.params["h"] == "pow:1"


def test_evaluate_bound_validation():
    with pytest.raises(UnknownBoundIdError):
        evaluate_bound("B99", a=I2)
    with pytest.raises(InvalidSpecError) as exc:
        evaluate_bound("B05", a=I2, b=I2)
    assert "X" in str(exc.value)
    with pytest.raises(InvalidSpecError):
        evaluate_bound("B01")


def test_required_operands_and_compatibility():
    abx = ("a", "b", "x")
    assert {bid: required_operands(bid) for bid in ALL_BOUND_IDS} == {
        "B01": ("a",), "B02": ("a",), "B03": ("a", "b"), "B04": ("a", "b"),
        "B05": abx, "B06": abx, "B06p": abx, "B07": abx,
        "B08": abx, "B09": abx, "B10": abx,
        "B11": ("a", "b"), "B12": ("a", "b"), "B13": ("a",), "B14": abx,
        "B15": ("a",), "B16a": abx, "B16b": abx, "B17": abx,
        "B18": abx, "B19": abx, "B20": abx, "B21": abx,
    }
    compatible_signatures("B05", "B14")
    compatible_signatures("B08", "B05")
    with pytest.raises(IncompatibleBoundsError):
        compatible_signatures("B01", "B05")
    with pytest.raises(UnknownBoundIdError):
        required_operands("B00")


def test_reads_name_only_the_familys_ids_operands_and_grid_keys():
    for fam in FAMILIES:
        assert set(fam.reads) <= set(fam.ids), fam.name
        for bid in fam.ids:
            reads = fam.reads_of(bid)
            assert set(reads) <= {*fam.operands, *fam.grids}, bid
            # evaluate_bound's stand-ins take A's shape
            assert "a" in reads, bid


# every value a grid key takes in the campaigns, and one that every family
# rejects
_ANY_VALUE = {
    "p": (*P_GRID, 0.5),
    "nu": (*NU_GRID, 1.5),
    "pair": (*PAIR_GRID, "bogus"),
    "h": (*H_DEC_GRID, *H_INC_GRID, "bogus"),
    "sigma": (*SIGMA_GRID, "bogus"),
}


@pytest.mark.parametrize("bid", ALL_BOUND_IDS)
def test_a_bound_ignores_what_it_does_not_read(bid):
    # a key or operand only a sibling reads cannot change or fail a
    # bound's report, whatever its value or shape
    fam = catalog.family_of(bid)
    reads = fam.reads_of(bid)
    rng = np.random.default_rng(83)
    a, b = _rand(rng, 2), _rand(rng, 2)
    x = _commuting_x(rng, a) if fam.commuting_x else _rand(rng, 2)
    base = evaluate_bound(bid, a=a, b=b, x=x)
    bits = (base.lhs.hex(), base.rhs.hex())
    for key in set(_ANY_VALUE) - set(reads):
        for value in _ANY_VALUE[key]:
            with np.errstate(over="ignore"):
                rep = evaluate_bound(bid, a=a, b=b, x=x, **{key: value})
            assert (rep.lhs.hex(), rep.rhs.hex()) == bits, (key, value)
    mats = {"a": a, "b": b, "x": x}
    for name in set(fam.operands) - set(reads):
        other = {**mats, name: _rand(rng, 3)}
        rep = evaluate_bound(bid, **other)
        assert (rep.lhs.hex(), rep.rhs.hex()) == bits, name


def test_a_sibling_formula_that_overflows_fails_only_its_own_id():
    # at ||A|| = ||B|| = 1e160, A*A and B*A overflow: B02-B04 raise, while
    # B01 and, with a tiny X, B05 give the report their own formula gives
    rng = np.random.default_rng(101)
    a, b, x = 1e160 * _rand(rng, 3), 1e160 * _rand(rng, 3), 1e-300 * _rand(rng, 3)
    rep = evaluate_bound("B01", a=a)
    w, na = numerical_radius(a).value, np.linalg.norm(a, 2)
    assert rep.status() == "pass"
    assert (rep.lhs, rep.rhs) == pytest.approx((abs(w - 0.75 * na), 0.25 * na),
                                               rel=1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        for bid in ("B02", "B03", "B04"):
            with pytest.raises(ValueError, match="non-finite"):
                evaluate_bound(bid, a=a, b=b, x=x)
        assert evaluate_bound("B05", a=a, b=b, x=x).status() == "pass"
        with pytest.raises(ValueError, match="non-finite"):
            check_classics(a, b, x)


def test_a_bound_builds_no_sibling_report():
    # at ||A|| = 1e160, B = X = [1], B16a's rhs (||A||^2 + ||B||^2)/2 +
    # ||AB*|| overflows, while B16b's and B17's sides are 2e160: each id's
    # reports are built when read, so B16a alone raises
    big = {"a": [[1e160]], "b": [[1.0]], "x": [[1.0]]}
    with pytest.raises(NonFiniteError, match=r"^B16a: a side overflows .*rhs = inf"):
        evaluate_bound("B16a", **big)
    for bid in ("B16b", "B17"):
        rep = evaluate_bound(bid, **big)
        assert (rep.lhs, rep.rhs, rep.status()) == (2e160, 2e160, "pass"), bid


def test_b07_slack_keeps_its_digits_under_rounding_perturbations():
    # trial 90 of B07 in the seed-42 campaign (dim 4, nu = 0.25, M/m of
    # the powered pair 1.7e9): 8 copies with A, B and X perturbed entrywise
    # by 2^-50, in one stacked call.  With the powered pair P^{1/(1-nu)},
    # Q^{1/nu} read off the factorizations of P and Q the slack moves by
    # 3.3e-6 |rhs|; with the pair factorized again it moved by 6.4 |rhs|
    fam, t, cfg = family_of("B07"), 90, CampaignConfig(seed=42)
    _, _, mats = _draw(cfg, fam.operands, zlib.crc32(fam.name.encode()), t, False)
    rng = np.random.default_rng(90)
    stacks = {n: np.concatenate([m[None], m * (1.0 + 2.0 ** -50 * (
        rng.standard_normal((8,) + m.shape) + 1j * rng.standard_normal((8,) + m.shape)))])
        for n, m in mats.items()}
    reps = evaluate_bound("B07", **stacks, **{k: g[t % len(g)] for k, g in fam.grids.items()})
    assert reps[0].params["nu"] == 0.25 and all(r.hypothesis_ok for r in reps)
    spread = max(abs(r.slack - reps[0].slack) for r in reps[1:])
    assert spread <= 1e-4 * abs(reps[0].rhs)


def test_a_formed_overflow_names_no_operand():
    # a non-finite operand is named; a matrix that a formula formed and
    # that overflowed is not blamed on a finite operand
    big, one = np.array([[1e160]]), np.array([[1.0]])
    formed = "^a matrix formed from the operands overflowed to non-finite entries$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="^A contains non-finite entries$"):
            evaluate_bound("B02", a=np.array([[np.inf]]))
        with pytest.raises(NonFiniteError, match="^X contains non-finite entries$"):
            check_classics(one, one, np.array([[np.nan]]))
        with pytest.raises(NonFiniteError, match=formed):
            evaluate_bound("B02", a=big)
        with pytest.raises(NonFiniteError, match=formed):
            evaluate_bound("B05", a=big, b=big, x=big)
        with pytest.raises(NonFiniteError, match=formed):
            check_classics(big, big, big)
        with pytest.raises(NonFiniteError, match=formed):
            check_omega_harmonic(big, big, big)


def test_b05_alone_warns_of_no_sibling_overflow():
    # at ||A|| ||B|| ~ 1e320, B*A and AB* (B03/B04's radius inputs)
    # overflow; B05 alone reads neither, and forming them warns of nothing
    rng = np.random.default_rng(107)
    a, b, x = 1e160 * _rand(rng, 3), 1e160 * _rand(rng, 3), 1e-300 * _rand(rng, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate_bound("B05", a=a, b=b, x=x).status() == "pass"


def test_a_report_shows_only_the_grid_keys_its_id_reads():
    rng = np.random.default_rng(103)
    a = _rand(rng, 3)
    rep = evaluate_bound("B13", a=a, h="pow:2", pair="pow:0.3", p=2.0)
    assert rep.params["pair"] == "pow:0.3" and rep.params["p"] == 2.0
    assert "h" not in rep.params
    assert check_aluthge(a, "pow:0.3", "pow:2", 2.0)[0].params["h"] == "pow:2"


def test_operands_fit_the_claims_setting():
    # A and B map H into K, one shape m x n, and X acts on K (m x m)
    rng = np.random.default_rng(89)
    a2, a3 = _rand(rng, 2), _rand(rng, 3)
    wide, wide2 = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    with pytest.raises(DimensionMismatchError):
        check_block(a2, a3, a2)
    with pytest.raises(DimensionMismatchError):
        check_classics(a2, a2, a3)
    with pytest.raises(DimensionMismatchError):
        check_block(wide, wide2, wide)
    with pytest.raises(NotSquareError):
        check_aluthge(wide)
    # a staged radius says what `numerical_radius` says
    with pytest.raises(NotSquareError,
                       match=r"^numerical radius needs square input, got \(2, 3\)$"):
        evaluate_bound("B01", a=wide)
    # w(B*A), w(AB*), w(A*B), w(BA*), w(A*XB) and w(X) need no square A
    # or B; B16a-B17's norms of A, B and AB* take their mixed shapes
    for bid in ("B03", "B04", "B05", "B11", "B12", "B14", "B16a", "B16b", "B17"):
        rep = evaluate_bound(bid, a=wide, b=wide2, x=a2)
        assert rep.status() == "pass", bid
    # B06-B10 take A and B of one shape too
    tall, tall2 = rng.standard_normal((3, 1)), rng.standard_normal((3, 2))
    for bid in ("B06", "B07", "B08", "B09", "B10"):
        with pytest.raises(DimensionMismatchError):
            evaluate_bound(bid, a=a2, b=wide, x=a2)
        with pytest.raises(DimensionMismatchError):
            evaluate_bound(bid, a=tall, b=tall2, x=a3)
    # B01 does not read B, so B's shape does not matter
    assert evaluate_bound("B01", a=a2, b=a3).status() == "pass"


def test_operands_are_checked_before_the_grid_keys():
    # operands are checked where they enter, before any parameter: shapes
    # that do not fit beat a power p < 1
    rng = np.random.default_rng(113)
    a2, a3 = _rand(rng, 2), _rand(rng, 3)
    with pytest.raises(DimensionMismatchError, match=r"^B is \(3, 3\), A is \(2, 2\)$"):
        evaluate_bound("B05", a=a2, b=a3, x=a2, p=0.5)
    with pytest.raises(DimensionMismatchError, match=r"^X is \(3, 3\), A is \(2, 2\)$"):
        check_omega_harmonic(a2, a2, a3, p=0.5)
    with pytest.raises(InvalidSpecError, match="power must be >= 1"):
        evaluate_bound("B05", a=a2, b=a2, x=a2, p=0.5)


@pytest.mark.parametrize("bad", [
    np.zeros(3), np.zeros((1, 1, 2, 2)), np.zeros((2, 3)), np.zeros((4, 2, 3)),
    np.array([[1.0, np.nan], [0.0, 1.0]]),
], ids=["1-D", "4-D", "2x3", "2x3-stack", "nan"])
def test_radius_inputs_are_checked_by_one_rule(bad):
    # numerical_radius and the catalog's staged radii raise the same error
    with pytest.raises(NumradError) as direct:
        numerical_radius(bad)
    with pytest.raises(NumradError) as staged:
        radius_values([bad])
    assert type(staged.value) is type(direct.value)
    assert str(staged.value) == str(direct.value)


def test_b01_to_b05_alone_make_one_radius_call(monkeypatch):
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return numerical_radius(m)

    monkeypatch.setattr(catalog, "numerical_radius", counted)
    rng = np.random.default_rng(97)
    a, b, x = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
    for bid in ("B01", "B02", "B03", "B04", "B05"):
        calls.clear()
        evaluate_bound(bid, a=a, b=b, x=x)
        assert calls == [(4, 3, 3)], bid


def test_every_bound_id_dispatches_on_identity():
    for bid in ALL_BOUND_IDS:
        rep = evaluate_bound(bid, a=I2, b=I2, x=I2)
        assert rep.bound_id == bid
        assert rep.satisfied, bid


# ------------------------------------------------- robustness under scaling

_FAMILY_NAMED = {f.name: f for f in FAMILIES}


def _scaled_reports(name, seed, n, t, s):
    """The reports of family or lemma ``name`` at trial t, every matrix
    operand scaled by s.  A family takes Ginibre operands (X a polynomial
    in |A*| when it must commute) and cycles each grid by t, as campaigns
    do; a lemma takes the acceptance-4 inputs, whose unit vectors and
    isometries stay as drawn."""
    rng = np.random.default_rng(seed)
    if name in LEMMAS:
        kw = _lemma_inputs(name, rng, n, t)
        kw = {k: s * v if isinstance(v, np.ndarray) and v.ndim == 2 and k != "v"
              else v for k, v in kw.items()}
        return (check_lemma(name, **kw),)
    fam = _FAMILY_NAMED[name]
    mats = {op: _ginibre(rng, n) for op in fam.operands}
    if fam.commuting_x:
        mats["x"] = _poly_in(rng, abs_op(mats["a"].conj().T))
    params = {key: grid[t % len(grid)] for key, grid in fam.grids.items()}
    return [evaluate_bound(bid, **{k: s * m for k, m in mats.items()}, **params)
            for bid in fam.ids]


@pytest.mark.parametrize("name", list(_FAMILY_NAMED) + list(LEMMA_IDS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5),
       t=st.integers(0, 17), k=st.floats(-3.0, 3.0))
@example(seed=0, n=2, t=2, k=3.0)  # the last grid values (expm1) at 1e3
def test_scaled_inputs_give_finite_reports_or_typed_errors(name, seed, n, t, k):
    # inputs scaled by 10^k either give a report whose sides are finite
    # wherever its hypothesis holds, or raise a NumradError; no verdict is
    # asserted
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            reports = _scaled_reports(name, seed, n, t, 10.0 ** k)
    except NumradError:
        return
    for rep in reports:
        if not rep.hypothesis_ok:
            continue
        sides = ((rep.min_eig_of_difference, rep.scale)
                 if isinstance(rep, LoewnerReport) else (rep.lhs, rep.rhs))
        assert all(math.isfinite(v) for v in sides), (rep, k)


# ------------------------------------------------- one factorization per operand

def test_each_operand_is_factorized_once(monkeypatch):
    """Matrices factorized by eigh and svd per step, with the radius
    stubbed out: one SVD gives |X| and |X*|, one eigh each P and Q, reused
    by every function of them (B08's harmonic mean takes the gate's
    factorizations, so only its inner sum is factorized); check_classics
    factorizes P, Q, A*A, B*B, AA* and BB* once each.  Every function of a
    factorized matrix is taken on its factorization: check_alpha
    factorizes only S1's base and T1, B07 only P and Q (their powers are
    read off), and B13/B15 and the commutation gate of B18-B21 and L08
    read ||A|| off |A|'s SVD."""
    calls = {"eigh": 0, "svd": 0}
    for name in calls:
        # a stacked call factorizes each member of its stack; singular
        # values alone (a norm) are no factorization
        def counted(m, *args, _orig=getattr(np.linalg, name), _name=name, **kw):
            if kw.get("compute_uv", True):
                calls[_name] += len(m) if np.ndim(m) == 3 else 1
            return _orig(m, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    one = SimpleNamespace(value=1.0)
    monkeypatch.setattr(catalog, "numerical_radius",
                        lambda m: [one] * len(m) if np.ndim(m) == 3 else one)
    rng = np.random.default_rng(21)
    a, b, y = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
    x = 2.0 * np.eye(3) + 0.1 * _rand(rng, 3)  # r(X) > 1: B19 skips
    p, q = _rand_pd(rng, 3), _rand_pd(rng, 3)
    unit = np.eye(3)[0]
    abs_a = abs_op(a)  # commutes with |A|: L08's hypothesis holds
    steps = {
        "abs_op": lambda: abs_op(a),
        "polar": lambda: polar(a),
        "_mean_pq": lambda: catalog._mean_pq(a, b, x, "sqrt"),
        "mean harm": lambda: mean(p, q, "harm"),
        "mean geom": lambda: mean(p, q, "geom"),
        "check_mean_h arith": lambda: check_mean_h(a, b, y),
        "check_omega_harmonic": lambda: check_omega_harmonic(a, b, y),
        "check_alpha": lambda: check_alpha(a, b, x),
        "check_aluthge": lambda: check_aluthge(a),
        "check_mean_h_weighted": lambda: check_mean_h_weighted(a, b, y),
        "check_classics": lambda: check_classics(a, b, y),
        "L01": lambda: check_lemma("L01", a=a, x=unit, y=unit),
        "L08": lambda: check_lemma("L08", a=a, b=abs_a, x=unit, y=unit),
    }
    got = {}
    for label, step in steps.items():
        calls.update(eigh=0, svd=0)
        step()
        got[label] = (calls["eigh"], calls["svd"])
    assert got == {
        "abs_op": (0, 1),
        "polar": (0, 1),
        "_mean_pq": (0, 1),
        "mean harm": (3, 0),
        "mean geom": (3, 0),
        "check_mean_h arith": (2, 1),
        "check_omega_harmonic": (3, 1),
        "check_alpha": (2, 1),
        "check_aluthge": (0, 1),
        "check_mean_h_weighted": (2, 1),
        "check_classics": (6, 1),
        "L01": (0, 1),
        "L08": (0, 1),
    }
