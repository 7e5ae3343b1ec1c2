import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrad import radii
from numrad.errors import NonFiniteError, NotSquareError
from numrad.radii import (
    numerical_radius,
    numerical_radius_oracle,
    omega_blockdiag,
    spectral_radius,
)

# Frozen cross-checks for matrices multiplied out of the 2x2 reference
# triples A=[[1,2],[3,0]], B=[[3,4],[1,5]], X=[[1,2],[0,1]].
_A2 = np.array([[1, 2], [3, 0]], dtype=complex)
_B2 = np.array([[3, 4], [1, 5]], dtype=complex)
_X2 = np.array([[1, 2], [0, 1]], dtype=complex)

W_ASTAR_X_B = 39.914607000811124
W_XBASTAR = 37.84943324127921
W_BASTARX = 40.135943621178654


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_jordan_block_is_one_half():
    r = numerical_radius([[0, 1], [0, 0]])
    assert r.value == pytest.approx(0.5, abs=1e-9)


def test_norm_not_lambda_max():
    # for A = -i*diag(-2, 1), lambda_max alone over a half turn tops out
    # at 1, but w(A) = 2: the bottom of the spectrum must be covered too.
    a = -1j * np.diag([-2.0, 1.0])
    assert numerical_radius(a).value == pytest.approx(2.0, abs=1e-9)
    assert numerical_radius_oracle(a) == pytest.approx(2.0, abs=1e-9)


def test_hermitian_radius_is_norm():
    h = np.array([[2, 1], [1, -3.0]])
    want = max(abs(np.linalg.eigvalsh(h)))
    assert numerical_radius(h).value == pytest.approx(want, abs=1e-9)


def test_normal_radius_is_spectral_radius():
    # unitary conjugation of a diagonal: normal, so w(A) = r(A)
    rng = np.random.default_rng(5)
    d = np.diag([1 + 2j, -3, 0.5j])
    q, _ = np.linalg.qr(_random_matrix(rng, 3))
    a = q @ d @ q.conj().T
    assert numerical_radius(a).value == pytest.approx(spectral_radius(a),
                                                      abs=1e-8)


def test_scalar_matrix():
    assert numerical_radius([[3 + 4j]]).value == pytest.approx(5.0)
    assert spectral_radius([[3 + 4j]]) == pytest.approx(5.0)


def test_frozen_product_values():
    w1 = numerical_radius(_A2.conj().T @ _X2 @ _B2).value
    w2 = numerical_radius(_X2 @ _B2 @ _A2.conj().T).value
    w3 = numerical_radius(_B2 @ _A2.conj().T @ _X2).value
    assert w1 == pytest.approx(W_ASTAR_X_B, abs=1e-9)
    assert w2 == pytest.approx(W_XBASTAR, abs=1e-9)
    assert w3 == pytest.approx(W_BASTARX, abs=1e-9)


def test_witness_attains_value():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = _random_matrix(rng, int(rng.integers(2, 6)))
        r = numerical_radius(a)
        x = r.witness
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        rayleigh = abs(x.conj() @ (a @ x))
        assert rayleigh == pytest.approx(r.value, abs=1e-8 * (1 + r.value))


def test_theta_in_halfturn_range():
    rng = np.random.default_rng(23)
    for _ in range(10):
        r = numerical_radius(_random_matrix(rng, 4))
        assert 0.0 <= r.theta < np.pi


def test_adjoint_and_conjugation_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = _random_matrix(rng, int(rng.integers(2, 5)))
        w = numerical_radius(a).value
        q, _ = np.linalg.qr(_random_matrix(rng, a.shape[0]))
        for b in (a.conj().T, a.T, q @ a @ q.conj().T):
            assert numerical_radius(b).value == pytest.approx(w, rel=1e-12)


def _missed_peak(eps, offsets=(100.0, 300.0, 500.5)):
    # w = 1 + eps; with the default offsets (in units of pi/720) the last
    # entry's peak lies between the angles of a 720-point sweep, behind
    # three on-grid peaks of height 1
    s = math.pi / 720.0
    return np.diag([1.0, *np.exp(-1j * s * np.asarray(offsets[:2])),
                    (1.0 + eps) * np.exp(-1j * s * offsets[2])])


def test_missed_peak_is_found():
    r = numerical_radius(_missed_peak(2e-6))
    assert r.value == pytest.approx(1.0 + 2e-6, rel=1e-12)


def test_missed_peak_family_is_found():
    rng = np.random.default_rng(47)
    for _ in range(40):
        eps = 10.0 ** rng.uniform(-9.0, -5.0)
        offsets = rng.uniform(0.0, 1440.0, 3)
        r = numerical_radius(_missed_peak(eps, offsets))
        assert r.value == pytest.approx(1.0 + eps, rel=1e-12)


def test_nilpotent_jordan_blocks():
    # the numerical range of the n x n shift is the disk of radius cos(pi/(n+1))
    for n in range(2, 9):
        r = numerical_radius(np.eye(n, k=1))
        assert r.value == pytest.approx(math.cos(math.pi / (n + 1)), abs=1e-14)


def test_certificate_brackets_the_value():
    rng = np.random.default_rng(53)
    for _ in range(30):
        a = _random_matrix(rng, int(rng.integers(1, 9)))
        r = numerical_radius(a)
        assert r.value <= r.upper <= r.value * (1.0 + 1e-11)
        assert r.evaluations > 0


def test_sweep_agrees_with_ascent_oracle():
    rng = np.random.default_rng(41)
    for _ in range(30):
        a = _random_matrix(rng, int(rng.integers(1, 7)))
        w_sweep = numerical_radius(a).value
        w_climb = numerical_radius_oracle(a, restarts=8, iters=60)
        assert w_climb == pytest.approx(w_sweep, rel=1e-7, abs=1e-9)


def test_radius_bounds_sandwich():
    # ||A||/2 <= w(A) <= ||A||  and  r(A) <= w(A)
    rng = np.random.default_rng(43)
    for _ in range(25):
        a = _random_matrix(rng, int(rng.integers(1, 6)))
        w = numerical_radius(a).value
        nrm = np.linalg.norm(a, 2)
        assert 0.5 * nrm - 1e-9 <= w <= nrm + 1e-9
        assert spectral_radius(a) <= w + 1e-8


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(-5, 5, allow_nan=False),
    im=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_scale_covariance(re, im, seed):
    c = complex(re, im)
    rng = np.random.default_rng(seed)
    a = _random_matrix(rng, 3)
    w = numerical_radius(a).value
    assert numerical_radius(c * a).value == pytest.approx(
        abs(c) * w, rel=1e-8, abs=1e-9)


def test_power_of_two_scaling_is_exact():
    # w(2^k A) = 2^k w(A) to the bit, far outside the unit scale too
    rng = np.random.default_rng(59)
    for _ in range(5):
        a = _random_matrix(rng, int(rng.integers(2, 7)))
        w = numerical_radius(a).value
        for k in (-600, 600):
            r = numerical_radius(np.ldexp(1.0, k) * a)
            assert r.value == np.ldexp(w, k)
            assert r.value <= r.upper <= r.value * (1.0 + 1e-11)


def test_rejects_nonsquare_and_tiny_grid():
    with pytest.raises(NotSquareError):
        numerical_radius(np.zeros((2, 3)))
    with pytest.raises(NotSquareError):
        numerical_radius_oracle(np.zeros((2, 3)))


def test_empty_matrix():
    e = np.zeros((0, 0))
    assert numerical_radius(e).value == 0.0
    assert numerical_radius_oracle(e) == 0.0
    assert spectral_radius(e) == 0.0


def _fields(r):
    return (r.value.hex(), float(r.theta).hex(), r.evaluations,
            float(r.upper).hex(), r.witness.shape, r.witness.tobytes())


@pytest.mark.parametrize("n", range(1, 17))
def test_stack_members_equal_single_calls(n):
    # a stack is a batch of single calls: every member's five fields equal
    # the 2-D call's bit for bit, with members that stop early (chunk
    # boundaries: test_campaign_wide_dimension_is_one_chunk)
    rng = np.random.default_rng(71 + n)
    mats = [_random_matrix(rng, n) for _ in range(4)]
    mats += [np.ldexp(1.0, 600) * mats[0], np.ldexp(1.0, -600) * mats[1],
             np.zeros((n, n)), np.eye(n, k=1),
             np.diag(np.resize(np.diag(_missed_peak(2e-6)), n))]
    got = numerical_radius(np.array(mats))
    assert isinstance(got, list) and len(got) == len(mats)
    for a, r in zip(mats, got):
        assert _fields(r) == _fields(numerical_radius(a))


def test_empty_stacks():
    assert numerical_radius(np.zeros((0, 3, 3))) == []
    rs = numerical_radius(np.zeros((2, 0, 0)))
    assert [(r.value, r.upper, r.evaluations, r.witness.shape) for r in rs] \
        == [(0.0, 0.0, 0, (0,))] * 2
    with pytest.raises(NotSquareError):
        numerical_radius(np.zeros((2, 2, 3)))


def test_non_finite_input_raises_the_typed_error():
    with pytest.raises(NonFiniteError, match="non-finite"):
        numerical_radius(np.array([[np.nan]]))
    stack = np.array([np.eye(3), np.eye(3), np.eye(3)])
    stack[1, 2, 0] = np.inf
    with pytest.raises(NonFiniteError, match="non-finite"):
        numerical_radius(stack)


def test_half_scan_matches_the_full_scan():
    # M(theta + pi) = -M(theta): the scan's 16 eigensolves give the values
    # of a direct 32-angle scan up to an eigensolver's backward error,
    # n eps max|lambda| times a small constant (the cosines and sines of
    # theta + pi round differently), and the same Newton start (argmax)
    # and level-set centre (argmin)
    rng = np.random.default_rng(83)
    mats = [_random_matrix(rng, n) for n in rng.integers(1, 17, 200)]
    cos = np.cos(radii._GRID)[:, None, None]
    sin = np.sin(radii._GRID)[:, None, None]
    for scale in (1.0, np.ldexp(1.0, 600), np.ldexp(1.0, -600)):
        for a in mats:
            h, g = radii._herm_parts(scale * a)
            half = radii._scan(h[None], g[None])[0]
            lam = np.linalg.eigvalsh(cos * h - sin * g)
            full = lam[:, -1]
            tol = 4 * a.shape[0] * np.finfo(float).eps * np.abs(lam).max()
            assert np.abs(half - full).max() <= tol
            assert half.argmax() == full.argmax()
            assert half.argmin() == full.argmin()
    # where the 32 values tie (f(-theta) = f(theta) for a real A; f is
    # constant for the shift), the certificate still holds
    for a in (rng.standard_normal((5, 5)), np.eye(4, k=1)):
        r = numerical_radius(a)
        w = numerical_radius_oracle(a)
        assert w - 1e-9 * (1.0 + w) <= r.value <= r.upper


def test_campaign_wide_dimension_is_one_chunk(monkeypatch):
    # a campaign-wide dimension's stack (at most 17 members at n = 16) is
    # one scan call, the only 4-D eigvalsh (`_top`'s probes are 3-D); a
    # longer stack splits into chunks, each member equal to its call alone
    rng = np.random.default_rng(89)
    mats = np.array([_random_matrix(rng, 16) for _ in range(40)])
    alone = [_fields(numerical_radius(a)) for a in mats]
    scans = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m, *args, **kwargs):
        if m.ndim == 4:
            scans.append(m.shape[0])
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    numerical_radius(mats[:17])
    assert scans == [17]
    scans.clear()
    got = numerical_radius(mats)
    assert scans == [32, 8]
    assert [_fields(r) for r in got] == alone


def test_omega_blockdiag_is_max_of_blocks():
    blocks = [np.array([[0, 1], [0, 0]]), np.array([[2.0]])]
    assert omega_blockdiag(blocks) == pytest.approx(2.0, abs=1e-9)
    assert omega_blockdiag([]) == 0.0
    # agreement with the assembled direct sum
    big = np.zeros((3, 3), dtype=complex)
    big[:2, :2] = blocks[0]
    big[2, 2] = 2.0
    assert numerical_radius(big).value == pytest.approx(
        omega_blockdiag(blocks), abs=1e-8)
