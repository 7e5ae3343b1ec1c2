"""Catalog of numerical-radius inequality checks.

Each catalogued claim gets a stable identifier (B01-B21 for bounds,
L01-L09 for auxiliary lemmas) and an evaluator that returns a
BoundReport: left side, right side, slack = rhs - lhs, and a satisfied
flag under the uniform tolerance rule

    satisfied  <=>  slack >= -(atol + rtol * |rhs|),  atol = rtol = 1e-9.

Evaluators never decide truth - they compute both sides of the claim
exactly as catalogued and report.  Hypothesis failures (losing positive
definiteness, spectral radius out of range, broken commutation) are
reported through ``hypothesis_ok`` rather than raised, so campaign code
can distinguish "skipped" from "passed".

A word on content: the catalog is a verification target, not a fact
table.  Some catalogued claims fail on random inputs; the harness
records those violations honestly.  Claim text lives in each docstring.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IncompatibleBoundsError,
    InvalidSpecError,
    UnknownBoundIdError,
)
from .matrixcore import abs_op, adjoint, apply_fn, as_cmatrix, herm_eigen, op_norm, polar
from .meansfuncs import (
    PD_TOL,
    compress,
    eval_fn,
    get_fn,
    get_pair,
    kantorovich,
    mean,
    psd_pow,
    spectrum_bounds,
)
from .radii import numerical_radius, omega_blockdiag, spectral_radius

__all__ = [
    "ATOL",
    "RTOL",
    "ALL_BOUND_IDS",
    "ALIASES",
    "FAMILIES",
    "LEMMA_IDS",
    "Family",
    "BoundReport",
    "LoewnerReport",
    "check_classics",
    "check_mean_h",
    "check_mean_h_weighted",
    "check_omega_harmonic",
    "check_mox",
    "check_aluthge",
    "aluthge_transform",
    "check_block",
    "check_symmetrized",
    "check_alpha",
    "check_lemma",
    "evaluate_bound",
    "evaluate_family",
    "family_of",
    "required_operands",
    "compatible_signatures",
]

ATOL = 1e-9
RTOL = 1e-9

LEMMA_IDS = ("L01", "L02", "L03", "L04", "L05", "L06", "L07", "L08", "L09")

# commutation gate for the B18-B21 family
ALPHA_COMM_TOL = 1e-8


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one scalar inequality evaluation."""

    bound_id: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    hypothesis_ok: bool = True
    note: str = ""
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LoewnerReport:
    """Outcome of an operator-order (Loewner) conclusion.

    ``satisfied`` holds when the smallest eigenvalue of (rhs - lhs)
    stays above -atol * (1 + scale), scale being the norm of the rhs.
    """

    bound_id: str
    min_eig_of_difference: float
    satisfied: bool
    hypothesis_ok: bool = True
    note: str = ""
    params: dict = field(default_factory=dict)


def _report(bid, lhs, rhs, params=None, hypothesis_ok=True, note="",
            atol=ATOL, rtol=RTOL) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    sat = bool(slack >= -(atol + rtol * abs(rhs)))
    return BoundReport(bid, lhs, rhs, slack, sat, hypothesis_ok, note,
                       dict(params or {}))


def _skipped(bid, params=None, note="hypothesis not met") -> BoundReport:
    nan = float("nan")
    return BoundReport(bid, nan, nan, nan, False, False, note,
                       dict(params or {}))


def _is_pd(p) -> tuple[bool, float]:
    w = herm_eigen(p).eigenvalues
    if w.size == 0:
        return False, 0.0
    thr = PD_TOL * max(1.0, float(np.max(np.abs(w))))
    return bool(w[0] > thr), float(w[0])


def _sym(m):
    return 0.5 * (m + m.conj().T)


def _need_kind(h, kind: str):
    f = get_fn(h)
    if f.kind != kind:
        raise InvalidSpecError(
            f"this check needs a {kind} scalar function, got {f.name!r}"
        )
    return f


# ---------------------------------------------------------------------------
# B01-B05: norm/radius comparisons with no structural hypotheses


def _b01(a, w) -> BoundReport:
    """||A||/2 <= w(A) <= ||A||, folded into |w - 3/4 ||A||| <= ||A||/4."""
    na = op_norm(a)
    return _report("B01", abs(w - 0.75 * na), 0.25 * na, {"norm": na, "omega": w})


def _b02(a, w) -> BoundReport:
    """w(A)^2 <= ||A*A + AA*|| / 2."""
    a = as_cmatrix(a, "A")
    rhs = 0.5 * op_norm(a.conj().T @ a + a @ a.conj().T)
    return _report("B02", w * w, rhs, {"omega": w})


def _b03(a, b, p, w) -> BoundReport:
    """w(B*A)^p <= ||(A*A)^p + (B*B)^p|| / 2, p >= 1."""
    a, b = as_cmatrix(a, "A"), as_cmatrix(b, "B")
    rhs = 0.5 * op_norm(psd_pow(a.conj().T @ a, p) + psd_pow(b.conj().T @ b, p))
    return _report("B03", w ** p, rhs, {"p": p})


def _b04(a, b, p, w) -> BoundReport:
    """w(B*A)^p <= ||(AA*)^p + (BB*)^p|| / 4 + w(AB*)^p / 2."""
    a, b = as_cmatrix(a, "A"), as_cmatrix(b, "B")
    w_cross = numerical_radius(a @ b.conj().T).value
    rhs = 0.25 * op_norm(psd_pow(a @ a.conj().T, p) + psd_pow(b @ b.conj().T, p)) \
        + 0.5 * w_cross ** p
    return _report("B04", w ** p, rhs, {"p": p, "omega_cross": w_cross})


def _omega_ba(a, b) -> float:
    """w(B*A), the left side shared by B03 and B04."""
    return numerical_radius(adjoint(b) @ as_cmatrix(a, "A")).value


def _b05(a, b, x, p) -> BoundReport:
    """w(A*XB)^p <= ||(A*|X*|A)^p + (B*|X|B)^p|| / 2."""
    a, b, x = as_cmatrix(a, "A"), as_cmatrix(b, "B"), as_cmatrix(x, "X")
    w = numerical_radius(a.conj().T @ x @ b).value
    left = _sym(a.conj().T @ abs_op(x.conj().T) @ a)
    right = _sym(b.conj().T @ abs_op(x) @ b)
    rhs = 0.5 * op_norm(psd_pow(left, p) + psd_pow(right, p))
    return _report("B05", w ** p, rhs, {"p": p})


def check_classics(a, b, x, p: float = 1.0):
    """Evaluate B01-B05 on a triple (A, B, X) with one power p >= 1."""
    if not p >= 1.0:
        raise InvalidSpecError(f"power must be >= 1, got {p}")
    # B01/B02 share w(A) and B03/B04 share w(B*A): one radius each
    w_a = numerical_radius(a).value
    w_ba = _omega_ba(a, b)
    return (_b01(a, w_a), _b02(a, w_a), _b03(a, b, p, w_ba),
            _b04(a, b, p, w_ba), _b05(a, b, x, p))


# ---------------------------------------------------------------------------
# B06-B10: the operator-mean family built on P = B* f^2(|X|) B and
# Q = A* g^2(|X*|) A with a Kantorovich-weighted right side


def _mean_pq(a, b, x, pair):
    f, g = get_pair(pair)
    a, b, x = as_cmatrix(a, "A"), as_cmatrix(b, "B"), as_cmatrix(x, "X")
    fx = apply_fn(abs_op(x), lambda t: np.asarray(f.fn(t)) ** 2, (0.0, np.inf))
    gxs = apply_fn(abs_op(x.conj().T), lambda t: np.asarray(g.fn(t)) ** 2, (0.0, np.inf))
    p_mat = _sym(b.conj().T @ fx @ b)
    q_mat = _sym(a.conj().T @ gxs @ a)
    return p_mat, q_mat


def _target_omega(a, b, x, unit_x):
    """w(A*XB), or the single Rayleigh value when a unit vector is given."""
    prod = adjoint(a) @ as_cmatrix(x, "X") @ as_cmatrix(b, "B")
    if unit_x is None:
        return numerical_radius(prod).value
    v = np.asarray(unit_x, dtype=np.complex128).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise InvalidSpecError("unit_x must be a unit vector")
    if v.shape[0] != prod.shape[0]:
        raise InvalidSpecError("unit_x length does not match the product")
    return abs(complex(v.conj() @ (prod @ v)))


def check_mean_h(a, b, x, pair="sqrt", h="inv", sigma="arith", unit_x=None):
    """B06 and B06p, the Kantorovich-weighted mean claims at weight 1/2.

    With P = B* f^2(|X|) B and Q = A* g^2(|X*|) A positive definite,
    (m, M) their joint spectrum bounds and k the Kantorovich constant:

        B06 :  || h(P) sigma h(Q) ||  <=  (m k / M) h(w(A*XB))
        B06p:  || h(P) sigma h(Q) ||  <=  h(w(A*XB))

    for operator monotone decreasing h and any of the three means.  The
    right side uses w because the claim is quantified over unit vectors
    and h is decreasing, making the maximizing vector the binding case;
    pass ``unit_x`` to spot-check a single vector instead.
    """
    hf = _need_kind(h, "decreasing")
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    params = {"pair": str(pair), "h": hf.name, "sigma": str(sigma), "nu": 0.5}
    ok_p, me_p = _is_pd(p_mat)
    ok_q, me_q = _is_pd(q_mat)
    if not (ok_p and ok_q):
        note = f"P or Q not positive definite (min eigs {me_p:.3e}, {me_q:.3e})"
        return _skipped("B06", params, note), _skipped("B06p", params, note)
    sb = spectrum_bounds([p_mat, q_mat])
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)
    lhs = op_norm(mean(eval_fn(hf, p_mat), eval_fn(hf, q_mat), sigma, 0.5))
    w = _target_omega(a, b, x, unit_x)
    return (
        _report("B06", lhs, (sb.m * k / sb.M) * hf(w), params),
        _report("B06p", lhs, hf(w), params),
    )


def check_mean_h_weighted(a, b, x, pair="sqrt", h="inv", sigma="arith",
                          nu=0.5) -> BoundReport:
    """B07, the weighted variant on powered operators.

        || h(P^{1/(1-nu)}) sigma_nu h(Q^{1/nu}) ||
            <= (m k / M) h(w(A*XB)^2)

    where (m, M, k) come from the powered pair.  0 < nu < 1.
    """
    hf = _need_kind(h, "decreasing")
    if not 0.0 < nu < 1.0:
        raise InvalidSpecError(f"weight must lie in (0, 1), got {nu}")
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    pw = psd_pow(p_mat, 1.0 / (1.0 - nu))
    qw = psd_pow(q_mat, 1.0 / nu)
    params = {"pair": str(pair), "h": hf.name, "sigma": str(sigma), "nu": nu}
    ok_p, me_p = _is_pd(pw)
    ok_q, me_q = _is_pd(qw)
    if not (ok_p and ok_q):
        return _skipped(
            "B07", params,
            f"powered pair not positive definite (min eigs {me_p:.3e}, {me_q:.3e})",
        )
    sb = spectrum_bounds([pw, qw])
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)
    lhs = op_norm(mean(eval_fn(hf, pw), eval_fn(hf, qw), sigma, nu))
    w = _target_omega(a, b, x, None)
    return _report("B07", lhs, (sb.m * k / sb.M) * hf(w * w), params)


def check_omega_harmonic(a, b, x, pair="sqrt", h="pow:1", p: float = 1.0):
    """B08-B10: radius bounded by Kantorovich-weighted combinations of P, Q.

        B08:  w(A*XB)      <= (m k / M)  || P ! Q ||      (! at weight 1/2)
        B09:  h(w(A*XB))   <= (m k / 2M) || h(P) + h(Q) ||  (h increasing convex)
        B10:  w(A*XB)^p    <= (m k / 2M) || P^p + Q^p ||    (p >= 1)
    """
    hf = _need_kind(h, "increasing")
    if not p >= 1.0:
        raise InvalidSpecError(f"power must be >= 1, got {p}")
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    params = {"pair": str(pair), "h": hf.name, "p": p}
    ok_p, me_p = _is_pd(p_mat)
    ok_q, me_q = _is_pd(q_mat)
    if not (ok_p and ok_q):
        note = f"P or Q not positive definite (min eigs {me_p:.3e}, {me_q:.3e})"
        return tuple(_skipped(bid, params, note) for bid in ("B08", "B09", "B10"))
    sb = spectrum_bounds([p_mat, q_mat])
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)
    w = _target_omega(a, b, x, None)
    c = sb.m * k / sb.M
    r08 = c * op_norm(mean(p_mat, q_mat, "harm", 0.5))
    r09 = 0.5 * c * op_norm(eval_fn(hf, p_mat) + eval_fn(hf, q_mat))
    r10 = 0.5 * c * op_norm(psd_pow(p_mat, p) + psd_pow(q_mat, p))
    return (
        _report("B08", w, r08, params),
        _report("B09", hf(w), r09, params),
        _report("B10", w ** p, r10, params),
    )


# ---------------------------------------------------------------------------
# B11-B15: product, Aluthge-type, and block bounds


def check_mox(a, b, h="pow:1", p: float = 1.0):
    """B11 and B12, convex splittings of w(A*B).

        B11: h(w(A*B))  <= h(||A|| ||B||)/2 + h(w(BA*))/2
        B12: w(A*B)^p   <= (||A|| ||B||)^p / 2 + w(BA*)^p / 2
    """
    hf = _need_kind(h, "increasing")
    if not p >= 1.0:
        raise InvalidSpecError(f"power must be >= 1, got {p}")
    a, b = as_cmatrix(a, "A"), as_cmatrix(b, "B")
    w = numerical_radius(a.conj().T @ b).value
    w_rev = numerical_radius(b @ a.conj().T).value
    prod = op_norm(a) * op_norm(b)
    return (
        _report("B11", hf(w), 0.5 * hf(prod) + 0.5 * hf(w_rev),
                {"h": hf.name, "omega_rev": w_rev}),
        _report("B12", w ** p, 0.5 * prod ** p + 0.5 * w_rev ** p,
                {"p": p, "omega_rev": w_rev}),
    )


def _aluthge_parts(a, pair):
    f, g = get_pair(pair)
    a = as_cmatrix(a, "A")
    parts = polar(a)
    fa = apply_fn(parts.positive, f.fn, (0.0, np.inf))
    ga = apply_fn(parts.positive, g.fn, (0.0, np.inf))
    return fa, ga, fa @ parts.unitary @ ga


def aluthge_transform(a, pair="sqrt") -> np.ndarray:
    """Pair-generalized Aluthge transform f(|A|) U g(|A|), A = U |A|.

    The classic transform |A|^{1/2} U |A|^{1/2} is the "sqrt" pair;
    "pow:nu" gives |A|^{1-nu} U |A|^nu.
    """
    return _aluthge_parts(a, pair)[2]


def check_aluthge(a, pair="sqrt", h="pow:1", p: float = 1.0):
    """B13 and B15 via the pair-generalized Aluthge transform.

    With A = U|A| and At = f(|A|) U g(|A|):

        B13: w(A)^p   <= ||f(|A|)||^p ||g(|A|)||^p / 2 + w(At)^p / 2
        B15: h(w(A))  <= || h(f^2(|A|)) + h(g^2(|A|)) || / 4 + h(w(At)) / 2
    """
    hf = _need_kind(h, "increasing")
    if not p >= 1.0:
        raise InvalidSpecError(f"power must be >= 1, got {p}")
    fa, ga, at = _aluthge_parts(a, pair)
    w = numerical_radius(a).value
    wt = numerical_radius(at).value
    r13 = 0.5 * op_norm(fa) ** p * op_norm(ga) ** p + 0.5 * wt ** p
    f2 = apply_fn(_sym(fa @ fa), hf.fn, (0.0, np.inf))
    g2 = apply_fn(_sym(ga @ ga), hf.fn, (0.0, np.inf))
    r15 = 0.25 * op_norm(f2 + g2) + 0.5 * hf(wt)
    params = {"pair": str(pair), "h": hf.name, "p": p, "omega_transform": wt}
    return (
        _report("B13", w ** p, r13, params),
        _report("B15", hf(w), r15, params),
    )


def check_block(a, b, x) -> BoundReport:
    """B14: w(A*XB) <= ||AA*X + XBB*|| / 4 + max(w(XBA*), w(BA*X)) / 2."""
    a, b, x = as_cmatrix(a, "A"), as_cmatrix(b, "B"), as_cmatrix(x, "X")
    w = numerical_radius(a.conj().T @ x @ b).value
    t1 = 0.25 * op_norm(a @ a.conj().T @ x + x @ b @ b.conj().T)
    w1 = numerical_radius(x @ b @ a.conj().T).value
    w2 = numerical_radius(b @ a.conj().T @ x).value
    return _report("B14", w, t1 + 0.5 * max(w1, w2),
                   {"omega_xba": w1, "omega_bax": w2})


def check_symmetrized(a, b, x):
    """B16a, B16b, B17: bounds on the symmetrized product w(A*XB + B*XA).

        B16a: w(A*XB + B*XA) <= ((||A||^2 + ||B||^2)/2 + ||AB*||) w(X)
        B16b: w(A*XB + B*XA) <= (||A|| ||B|| + ||AB*||) w(X)
        B17 : w(A*XB + B*XA) <= 2 ||A|| ||B|| w(X)

    B16b is the sharpest of the three: its coefficient never exceeds
    B16a's (arithmetic-geometric mean) nor B17's (since ||AB*|| <=
    ||A|| ||B||).  B17's report carries the margin over B16b.
    """
    a, b, x = as_cmatrix(a, "A"), as_cmatrix(b, "B"), as_cmatrix(x, "X")
    w = numerical_radius(a.conj().T @ x @ b + b.conj().T @ x @ a).value
    wx = numerical_radius(x).value
    na, nb = op_norm(a), op_norm(b)
    cross = op_norm(a @ b.conj().T)
    r_a = (0.5 * (na * na + nb * nb) + cross) * wx
    r_b = (na * nb + cross) * wx
    r_17 = 2.0 * na * nb * wx
    return (
        _report("B16a", w, r_a, {"omega_x": wx}),
        _report("B16b", w, r_b, {"omega_x": wx}),
        _report("B17", w, r_17, {"omega_x": wx, "refinement_margin": r_17 - r_b}),
    )


# ---------------------------------------------------------------------------
# B18-B21: the spectral-radius-weighted family under |A*|X = X*|A*|


def check_alpha(a, b, x, pair="sqrt", h="pow:1", nu=0.5):
    """B18-B21, radius-squared bounds weighted by the spectral radius of X.

    All four need the commutation hypothesis |A*|X = X*|A*| (checked to
    1e-8 relative; reported, not raised).  With r = r(X) and
    S1 = (B* f^2(|A*|) B)^{1/(1-nu)}, S2 = g(|A|)^{2/nu}:

        B18: h(w(A*XB)^2) <= || (1-nu) h(r^2 S1) + nu h(r^2 S2) ||
        B19: h(w(A*XB)^2) <= r^2 || (1-nu) h(S1) + nu h(S2) ||   (needs r <= 1)

    B20 and B21 are the power-pair specializations (their pair is pinned
    to f = t^{1-nu}, g = t^nu regardless of the ``pair`` argument), with
    T1 = (B* |A*|^{2(1-nu)} B) and p = h's exponent when h is a power:

        B20: h(w(A*XB)^2) <= || (1-nu) h(r^2 T1^{1/(1-nu)}) + nu h(r^2 |A|^2) ||
        B21: w(A*XB)^{2p} <= r^{2p} || (1-nu) T1^{p/(1-nu)} + nu |A|^{2p} ||
    """
    hf = _need_kind(h, "increasing")
    if not 0.0 < nu < 1.0:
        raise InvalidSpecError(f"weight must lie in (0, 1), got {nu}")
    f, g = get_pair(pair)
    a, b, x = as_cmatrix(a, "A"), as_cmatrix(b, "B"), as_cmatrix(x, "X")
    abs_as, abs_a = abs_op(a.conj().T), abs_op(a)
    dev = op_norm(abs_as @ x - x.conj().T @ abs_as)
    comm_ok = dev <= ALPHA_COMM_TOL * (1.0 + op_norm(a) * op_norm(x))
    r = spectral_radius(x)
    w = numerical_radius(a.conj().T @ x @ b).value
    f2 = apply_fn(abs_as, lambda t: np.asarray(f.fn(t)) ** 2, (0.0, np.inf))
    s1 = psd_pow(_sym(b.conj().T @ f2 @ b), 1.0 / (1.0 - nu))
    s2 = apply_fn(abs_a, lambda t: np.asarray(g.fn(t)) ** (2.0 / nu),
                  (0.0, np.inf))
    base = {"pair": str(pair), "h": hf.name, "nu": nu, "r": r,
            "commutation_defect": dev}
    note = "" if comm_ok else f"commutation defect {dev:.3e} exceeds gate"

    r18 = op_norm((1.0 - nu) * apply_fn(r * r * s1, hf.fn, (0.0, np.inf))
                  + nu * apply_fn(r * r * s2, hf.fn, (0.0, np.inf)))
    rep18 = _report("B18", hf(w * w), r18, base, comm_ok, note)

    if r <= 1.0 + 1e-12:
        r19 = r * r * op_norm((1.0 - nu) * apply_fn(s1, hf.fn, (0.0, np.inf))
                              + nu * apply_fn(s2, hf.fn, (0.0, np.inf)))
        rep19 = _report("B19", hf(w * w), r19, base, comm_ok, note)
    else:
        rep19 = _skipped("B19", base,
                         f"spectral radius {r:.6g} exceeds 1" + (
                             "; " + note if note else ""))

    t1 = _sym(b.conj().T @ psd_pow(abs_as, 2.0 * (1.0 - nu)) @ b)
    s1p = psd_pow(t1, 1.0 / (1.0 - nu))
    s2p = psd_pow(abs_a, 2.0)
    r20 = op_norm((1.0 - nu) * apply_fn(r * r * s1p, hf.fn, (0.0, np.inf))
                  + nu * apply_fn(r * r * s2p, hf.fn, (0.0, np.inf)))
    rep20 = _report("B20", hf(w * w), r20, base, comm_ok, note)

    p = hf.params[0] if hf.name.startswith("pow:") else 1.0
    r21 = r ** (2.0 * p) * op_norm(
        (1.0 - nu) * psd_pow(t1, p / (1.0 - nu)) + nu * psd_pow(abs_a, 2.0 * p)
    )
    rep21 = _report("B21", w ** (2.0 * p), r21, {**base, "p": p}, comm_ok, note)
    return rep18, rep19, rep20, rep21


# ---------------------------------------------------------------------------
# Lemma checks L01-L09


def _unit_vec(v, n, name):
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.shape[0] != n:
        raise InvalidSpecError(f"{name} must have length {n}")
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise InvalidSpecError(f"{name} must be a unit vector (norm {nv:.6g})")
    return v


def _l01(a, x, y, pair="sqrt") -> BoundReport:
    """|<Ax, y>| <= ||f(|A|) x|| ||g(|A*|) y|| for any pair f g = t."""
    f, g = get_pair(pair)
    a = as_cmatrix(a, "A")
    n = a.shape[0]
    x = _unit_vec(x, n, "x")
    y = _unit_vec(y, n, "y")
    fa = apply_fn(abs_op(a), f.fn, (0.0, np.inf))
    gas = apply_fn(abs_op(a.conj().T), g.fn, (0.0, np.inf))
    lhs = abs(complex(y.conj() @ (a @ x)))
    rhs = float(np.linalg.norm(fa @ x) * np.linalg.norm(gas @ y))
    return _report("L01", lhs, rhs, {"pair": str(pair)})


def _l02(a, b, v=None, h="inv", sigma="arith", tau="arith", nu=0.5,
         atol=1e-8) -> LoewnerReport:
    """h(F(A)) sigma_nu h(F(B)) <= k h(F(A tau_nu B)) in Loewner order.

    A, B positive definite with joint bounds (m, M); k is the
    Kantorovich constant; F is compression by the isometry v (identity
    when omitted); h operator monotone decreasing; sigma, tau any means.
    """
    hf = _need_kind(h, "decreasing")
    a = as_cmatrix(a, "A")
    b = as_cmatrix(b, "B")
    params = {"h": hf.name, "sigma": str(sigma), "tau": str(tau), "nu": nu}
    ok_a, _ = _is_pd(a)
    ok_b, _ = _is_pd(b)
    if not (ok_a and ok_b):
        return LoewnerReport("L02", float("nan"), False, False,
                             "operands must be positive definite", params)
    sb = spectrum_bounds([a, b])
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)

    def comp(t):
        return t if v is None else compress(t, v)

    lhs = mean(eval_fn(hf, _sym(comp(a))), eval_fn(hf, _sym(comp(b))), sigma, nu)
    rhs = k * eval_fn(hf, _sym(comp(mean(a, b, tau, nu))))
    diff = herm_eigen(_sym(rhs - lhs)).eigenvalues
    me = float(diff[0])
    scale = op_norm(rhs)
    return LoewnerReport("L02", me, bool(me >= -atol * (1.0 + scale)),
                         True, "", params)


def _l03(a, h="inv") -> BoundReport:
    """||h(A^{-1})|| <= h(1 / ||A||) for positive definite A.

    A decreasing function of A^{-1} peaks at the smallest eigenvalue
    1/||A||, so this holds with equality up to roundoff.
    """
    hf = _need_kind(h, "decreasing")
    a = as_cmatrix(a, "A")
    ok, me = _is_pd(a)
    if not ok:
        return _skipped("L03", {"h": hf.name},
                        f"operand not positive definite (min eig {me:.3e})")
    lhs = op_norm(eval_fn(hf, psd_pow(a, -1.0)))
    rhs = hf(1.0 / op_norm(a))
    return _report("L03", lhs, rhs, {"h": hf.name})


def _l04(a, grid: int = 6001, tol: float = 1e-5) -> BoundReport:
    """w(A) equals sup over theta of ||A + e^{i theta} A*|| / 2.

    The sup is brute-forced on a dense grid (resolution error O(1/grid^2)),
    so agreement is asserted to ``tol`` rather than machine precision.
    """
    a = as_cmatrix(a, "A")
    w1 = numerical_radius(a).value
    thetas = np.linspace(0.0, 2.0 * np.pi, grid)
    best = 0.0
    for chunk in np.array_split(thetas, max(1, grid // 512)):
        stack = a[None, :, :] + np.exp(1j * chunk)[:, None, None] * a.conj().T[None, :, :]
        s = np.linalg.svd(stack, compute_uv=False)
        best = max(best, 0.5 * float(s[:, 0].max()))
    return _report("L04", abs(w1 - best), tol, {"grid": grid, "sup_form": best})


def _l05(a, b, tol: float = 1e-8) -> BoundReport:
    """w(diag(A, B)) = max(w(A), w(B))."""
    a = as_cmatrix(a, "A")
    b = as_cmatrix(b, "B")
    direct = numerical_radius(
        np.block([
            [a, np.zeros((a.shape[0], b.shape[1]))],
            [np.zeros((b.shape[0], a.shape[1])), b],
        ])
    ).value
    byparts = omega_blockdiag([a, b])
    return _report("L05", abs(direct - byparts), tol, {"block": direct})


def _l06(a1, b1, a2, b2) -> BoundReport:
    """Spectral radius of A1 B1 + A2 B2 against the 2x2 dominance bound.

        r(A1B1 + A2B2) <= (w(B1A1) + w(B2A2))/2
          + sqrt((w(B1A1) - w(B2A2))^2 + 4 ||B1A2|| ||B2A1||) / 2
    """
    a1, b1 = as_cmatrix(a1, "A1"), as_cmatrix(b1, "B1")
    a2, b2 = as_cmatrix(a2, "A2"), as_cmatrix(b2, "B2")
    w11 = numerical_radius(b1 @ a1).value
    w22 = numerical_radius(b2 @ a2).value
    disc = math.sqrt((w11 - w22) ** 2
                     + 4.0 * op_norm(b1 @ a2) * op_norm(b2 @ a1))
    lhs = spectral_radius(a1 @ b1 + a2 @ b2)
    return _report("L06", lhs, 0.5 * (w11 + w22) + 0.5 * disc, {})


def _l07(a1, b1, a2, b2, x, y) -> BoundReport:
    """2 ||A1 X A2* + B1 Y B2*|| against the norm of the mixed 2x2 block.

    The right side is the norm of
        [[A1*A1 X + X A2*A2,  A1*B1 Y + X A2*B2],
         [B1*A1 X + Y B2*A2,  B1*B1 Y + Y B2*B2]].
    """
    a1, b1 = as_cmatrix(a1, "A1"), as_cmatrix(b1, "B1")
    a2, b2 = as_cmatrix(a2, "A2"), as_cmatrix(b2, "B2")
    x, y = as_cmatrix(x, "X"), as_cmatrix(y, "Y")
    blk = np.block([
        [a1.conj().T @ a1 @ x + x @ a2.conj().T @ a2,
         a1.conj().T @ b1 @ y + x @ a2.conj().T @ b2],
        [b1.conj().T @ a1 @ x + y @ b2.conj().T @ a2,
         b1.conj().T @ b1 @ y + y @ b2.conj().T @ b2],
    ])
    lhs = 2.0 * op_norm(a1 @ x @ a2.conj().T + b1 @ y @ b2.conj().T)
    return _report("L07", lhs, op_norm(blk), {})


def _l08(a, b, x, y, pair="sqrt") -> BoundReport:
    """|<ABx, y>| <= r(B) ||f(|A|) x|| ||g(|A*|) y|| when |A|B = B*|A|."""
    f, g = get_pair(pair)
    a = as_cmatrix(a, "A")
    b = as_cmatrix(b, "B")
    n = a.shape[0]
    x = _unit_vec(x, n, "x")
    y = _unit_vec(y, n, "y")
    aa = abs_op(a)
    dev = op_norm(aa @ b - b.conj().T @ aa)
    params = {"pair": str(pair), "commutation_defect": dev}
    if dev > ALPHA_COMM_TOL * (1.0 + op_norm(a) * op_norm(b)):
        return _skipped("L08", params, f"commutation defect {dev:.3e}")
    fa = apply_fn(aa, f.fn, (0.0, np.inf))
    gas = apply_fn(abs_op(a.conj().T), g.fn, (0.0, np.inf))
    lhs = abs(complex(y.conj() @ (a @ b @ x)))
    rhs = spectral_radius(b) * float(np.linalg.norm(fa @ x)
                                     * np.linalg.norm(gas @ y))
    return _report("L08", lhs, rhs, params)


def _l09(p, q, h="pow:1", nu=0.5) -> BoundReport:
    """||h((1-nu) P + nu Q)|| <= ||(1-nu) h(P) + nu h(Q)|| for PSD P, Q."""
    hf = _need_kind(h, "increasing")
    if not 0.0 <= nu <= 1.0:
        raise InvalidSpecError(f"weight must lie in [0, 1], got {nu}")
    p = as_cmatrix(p, "P")
    q = as_cmatrix(q, "Q")
    lhs = op_norm(apply_fn(_sym((1.0 - nu) * p + nu * q), hf.fn, (0.0, np.inf)))
    rhs = op_norm((1.0 - nu) * apply_fn(_sym(p), hf.fn, (0.0, np.inf))
                  + nu * apply_fn(_sym(q), hf.fn, (0.0, np.inf)))
    return _report("L09", lhs, rhs, {"h": hf.name, "nu": nu})


_LEMMAS = {
    "L01": _l01,
    "L02": _l02,
    "L03": _l03,
    "L04": _l04,
    "L05": _l05,
    "L06": _l06,
    "L07": _l07,
    "L08": _l08,
    "L09": _l09,
}


def check_lemma(lemma_id: str, **inputs):
    """Evaluate one auxiliary lemma by ID; see each handler's docstring."""
    try:
        handler = _LEMMAS[lemma_id]
    except KeyError:
        raise UnknownBoundIdError(
            f"unknown lemma {lemma_id!r}; known: {', '.join(LEMMA_IDS)}"
        ) from None
    return handler(**inputs)


# ---------------------------------------------------------------------------
# The family table: the one description of every bound, read by dispatch,
# campaigns and sharpness comparisons

# default campaign grids, cycled by trial index
PAIR_GRID = ("sqrt", "pow:0.3", "pow:0.7")
H_DEC_GRID = ("inv", "inv_pow:0.5", "shifted_inv:1")
H_INC_GRID = ("pow:1", "pow:2", "expm1")
H_ALPHA_GRID = ("pow:1", "pow:2")  # expm1 overflows on r^2-scaled spectra
SIGMA_GRID = ("arith", "geom", "harm")
NU_GRID = (0.25, 0.5, 0.75)
P_GRID = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Family:
    """Bounds that one evaluator reports together, in its return order.

    ``name`` salts the campaign seeds, so it never changes.  ``check`` is
    the evaluator's name in this module, looked up at call time, so a
    wrapper set on the module attribute sees every call.  The evaluator
    takes ``operands`` positionally and each key of ``grids`` as a
    keyword; campaigns cycle each grid by trial index.  ``commuting_x``
    marks a family whose hypothesis needs X to commute with |A*|.
    """

    name: str
    ids: tuple
    operands: tuple
    check: str
    grids: dict = field(default_factory=dict)
    commuting_x: bool = False


_ABX = ("a", "b", "x")

FAMILIES = (
    Family("classics", ("B01", "B02", "B03", "B04", "B05"), _ABX,
           "check_classics", {"p": P_GRID}),
    Family("mean_h", ("B06", "B06p"), _ABX, "check_mean_h",
           {"pair": PAIR_GRID, "h": H_DEC_GRID, "sigma": SIGMA_GRID}),
    Family("mean_h_weighted", ("B07",), _ABX, "check_mean_h_weighted",
           {"pair": PAIR_GRID, "h": H_DEC_GRID, "sigma": SIGMA_GRID,
            "nu": NU_GRID}),
    Family("omega_harmonic", ("B08", "B09", "B10"), _ABX,
           "check_omega_harmonic",
           {"pair": PAIR_GRID, "h": H_INC_GRID, "p": P_GRID}),
    Family("mox", ("B11", "B12"), ("a", "b"), "check_mox",
           {"h": H_INC_GRID, "p": P_GRID}),
    Family("aluthge", ("B13", "B15"), ("a",), "check_aluthge",
           {"pair": PAIR_GRID, "h": H_INC_GRID, "p": P_GRID}),
    Family("block", ("B14",), _ABX, "check_block"),
    Family("symmetrized", ("B16a", "B16b", "B17"), _ABX, "check_symmetrized"),
    Family("alpha", ("B18", "B19", "B20", "B21"), _ABX, "check_alpha",
           {"pair": PAIR_GRID, "h": H_ALPHA_GRID, "nu": NU_GRID},
           commuting_x=True),
)

# campaign shorthands for a claim catalogued as several ids
ALIASES = {"B06": ("B06", "B06p"), "B16": ("B16a", "B16b")}

# alone, B01-B05 need fewer operands and radius calls than check_classics
_ONE_BOUND = {
    "B01": (("a",), lambda a, p: _b01(a, numerical_radius(a).value)),
    "B02": (("a",), lambda a, p: _b02(a, numerical_radius(a).value)),
    "B03": (("a", "b"), lambda a, b, p: _b03(a, b, p, _omega_ba(a, b))),
    "B04": (("a", "b"), lambda a, b, p: _b04(a, b, p, _omega_ba(a, b))),
    "B05": (_ABX, _b05),
}

_FAMILY_OF = {bid: fam for fam in FAMILIES for bid in fam.ids}

ALL_BOUND_IDS = tuple(sorted(_FAMILY_OF))


def family_of(bound_id: str) -> Family:
    """The family whose evaluator reports ``bound_id``."""
    try:
        return _FAMILY_OF[bound_id]
    except KeyError:
        raise UnknownBoundIdError(
            f"unknown bound {bound_id!r}; known: {', '.join(ALL_BOUND_IDS)}"
        ) from None


def evaluate_family(family: Family, mats: dict, **params) -> tuple:
    """Evaluate a family once on ``mats`` (operand name -> matrix).

    Returns one report per id, in ``family.ids`` order.
    """
    out = globals()[family.check](*(mats[n] for n in family.operands),
                                  **params)
    return out if isinstance(out, tuple) else (out,)


def required_operands(bound_id: str) -> tuple[str, ...]:
    """Operand names ('a', 'b', 'x') a bound evaluator consumes."""
    if bound_id in _ONE_BOUND:
        return _ONE_BOUND[bound_id][0]
    return family_of(bound_id).operands


def evaluate_bound(bound_id: str, *, a=None, b=None, x=None, p: float = 1.0,
                   nu: float = 0.5, pair="sqrt", h=None, sigma="arith",
                   unit_x=None):
    """Evaluate a single catalogued bound by ID.

    Operands and parameters the bound does not consume are ignored;
    missing required operands raise InvalidSpecError.  ``h`` defaults to
    the family evaluator's own default: "inv" for the decreasing-function
    family (B06-B07), "pow:1" elsewhere.  ``unit_x`` reaches only an
    evaluator that takes it (B06/B06p's).
    """
    need = required_operands(bound_id)
    got = {"a": a, "b": b, "x": x}
    missing = [n for n in need if got[n] is None]
    if missing:
        raise InvalidSpecError(
            f"{bound_id} requires operand(s) {', '.join(m.upper() for m in missing)}"
        )
    if bound_id in _ONE_BOUND:
        return _ONE_BOUND[bound_id][1](*(got[n] for n in need), p)

    fam = _FAMILY_OF[bound_id]
    given = {"p": p, "nu": nu, "pair": pair, "h": h, "sigma": sigma}
    params = {k: given[k] for k in fam.grids if given[k] is not None}
    if unit_x is not None and \
            "unit_x" in inspect.signature(globals()[fam.check]).parameters:
        params["unit_x"] = unit_x
    return evaluate_family(fam, got, **params)[fam.ids.index(bound_id)]


def compatible_signatures(bound_a: str, bound_b: str) -> None:
    """Raise IncompatibleBoundsError unless both consume the same operands."""
    if required_operands(bound_a) != required_operands(bound_b):
        raise IncompatibleBoundsError(
            f"{bound_a} takes {required_operands(bound_a)}, "
            f"{bound_b} takes {required_operands(bound_b)}"
        )
