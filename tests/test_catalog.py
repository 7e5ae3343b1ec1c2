import math

import numpy as np
import pytest

from numrad.catalog import (
    ALL_BOUND_IDS,
    FAMILIES,
    H_ALPHA_GRID,
    H_DEC_GRID,
    H_INC_GRID,
    LEMMA_IDS,
    NU_GRID,
    P_GRID,
    PAIR_GRID,
    SIGMA_GRID,
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
    required_operands,
    _report,
)
from numrad.errors import (
    IncompatibleBoundsError,
    InvalidSpecError,
    UnknownBoundIdError,
)
from numrad.radii import numerical_radius

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


def test_mean_h_lhs_respects_mean_ordering():
    rng = np.random.default_rng(7)
    a, b, x = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
    by_sigma = {
        s: check_mean_h(a, b, x, sigma=s)[0] for s in ("harm", "geom", "arith")
    }
    if all(r.hypothesis_ok for r in by_sigma.values()):
        assert by_sigma["harm"].lhs <= by_sigma["geom"].lhs + 1e-9
        assert by_sigma["geom"].lhs <= by_sigma["arith"].lhs + 1e-9


def test_mean_h_unit_vector_mode():
    rng = np.random.default_rng(9)
    a, b, x = _rand(rng, 3), _rand(rng, 3), _rand(rng, 3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    spot = check_mean_h(a, b, x, unit_x=v)[1]
    full = check_mean_h(a, b, x)[1]
    if spot.hypothesis_ok:
        # |<A*XB v, v>| <= w(A*XB) and h is decreasing, so the spot rhs
        # can only be larger
        assert spot.rhs >= full.rhs - 1e-12
    with pytest.raises(InvalidSpecError):
        check_mean_h(a, b, x, unit_x=2.0 * v)
    with pytest.raises(InvalidSpecError):
        check_mean_h(a, b, x, unit_x=np.ones(4) / 2.0)


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


def test_lemma_l04_sup_form_agrees():
    rng = np.random.default_rng(53)
    for _ in range(4):
        rep = check_lemma("L04", a=_rand(rng, int(rng.integers(2, 5))))
        assert rep.satisfied  # |w - sup-form| <= 1e-5
    # jordan: sup form equals 1/2 as well
    rep = check_lemma("L04", a=JORDAN)
    assert rep.params["sup_form"] == pytest.approx(0.5, abs=1e-6)


def test_lemma_l05_block_diag():
    rng = np.random.default_rng(59)
    rep = check_lemma("L05", a=_rand(rng, 3), b=_rand(rng, 2))
    assert rep.satisfied


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
    assert required_operands("B01") == ("a",)
    assert required_operands("B14") == ("a", "b", "x")
    compatible_signatures("B05", "B14")
    compatible_signatures("B08", "B05")
    with pytest.raises(IncompatibleBoundsError):
        compatible_signatures("B01", "B05")
    with pytest.raises(UnknownBoundIdError):
        required_operands("B00")


def test_every_bound_id_dispatches_on_identity():
    for bid in ALL_BOUND_IDS:
        rep = evaluate_bound(bid, a=I2, b=I2, x=I2)
        assert rep.bound_id == bid
        assert rep.satisfied, bid
