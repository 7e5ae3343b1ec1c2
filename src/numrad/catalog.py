"""Catalog of numerical-radius inequality checks.

Each catalogued claim gets a stable identifier (B01-B21 for bounds,
L01-L09 for auxiliary lemmas) and an evaluator that returns a
BoundReport: left side, right side, slack = rhs - lhs, and a satisfied
flag under the uniform tolerance rule

    satisfied  <=>  slack >= -(atol + rtol * |rhs|),  atol = rtol = 1e-9.

The operator-order lemma L02 returns a LoewnerReport, judged by the same
rule with its own tolerance.  FAMILIES describes each bound family and
LEMMAS each lemma, once, for every caller.

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

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompatibleBoundsError,
    InvalidSpecError,
    NotSquareError,
    UnknownBoundIdError,
)
from .matrixcore import apply_fn, as_cmatrix, herm_eigen, moduli, op_norm
from .meansfuncs import (
    compress,
    eval_fn,
    get_fn,
    get_pair,
    mean,
    pd_test,
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
    "LEMMAS",
    "LEMMA_IDS",
    "Family",
    "Lemma",
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
    "radius_values",
    "stage_family",
    "family_of",
    "required_operands",
    "compatible_signatures",
]

ATOL = 1e-9
RTOL = 1e-9

# commutation gate for the B18-B21 family and L08
ALPHA_COMM_TOL = 1e-8

# lemma tolerances: L02's Loewner floor; L04's coarse angles, the width to
# which golden section polishes each peak (the value error is then
# quadratic in it, below rounding), the level gamma = s* (1 + _L04_LEVEL)
# of its certificate, the |Im theta| up to which a level-set root counts
# as real, and the agreement with w(A) that this reaches, relative to the
# certified upper bound (the uniform rule's ATOL + RTOL * rhs still
# applies on top); L05's agreement of two radius computations
L02_ATOL = 1e-8
L04_GRID = 64
_L04_WIDTH = 1e-9
_L04_LEVEL = 1e-12
_L04_NEAR_REAL = 1e-6
L04_TOL = 1e-10
L05_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink factor


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

    def status(self, atol: float = ATOL, rtol: float = RTOL) -> str:
        """The verdict: "skip" when the hypothesis gate failed, else "pass"
        or "fail" by the tolerance rule at (atol, rtol)."""
        if not self.hypothesis_ok:
            return "skip"
        return "pass" if _within(self.slack, self.rhs, atol, rtol) else "fail"


@dataclass(frozen=True)
class LoewnerReport:
    """Outcome of an operator-order (Loewner) conclusion lhs <= rhs.

    The tolerance rule takes the smallest eigenvalue of (rhs - lhs) as
    the slack and ``scale``, the norm of the rhs, as |rhs|; ``satisfied``
    is its verdict at atol = rtol = L02_ATOL.
    """

    bound_id: str
    min_eig_of_difference: float
    satisfied: bool
    hypothesis_ok: bool = True
    note: str = ""
    params: dict = field(default_factory=dict)
    scale: float = float("nan")

    def status(self, atol: float = L02_ATOL, rtol: float = L02_ATOL) -> str:
        """The verdict: "skip" when the hypothesis gate failed, else "pass"
        or "fail" by the tolerance rule at (atol, rtol)."""
        if not self.hypothesis_ok:
            return "skip"
        return "pass" if _within(self.min_eig_of_difference, self.scale,
                                 atol, rtol) else "fail"


def _within(slack, rhs, atol, rtol) -> bool:
    """The tolerance rule: slack >= -(atol + rtol |rhs|)."""
    return bool(slack >= -(atol + rtol * abs(rhs)))


def _report(bid, lhs, rhs, params=None, hypothesis_ok=True, note="") -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    return BoundReport(bid, lhs, rhs, slack, _within(slack, rhs, ATOL, RTOL),
                       hypothesis_ok, note, dict(params or {}))


def _skipped(bid, params=None, note="hypothesis not met") -> BoundReport:
    nan = float("nan")
    return BoundReport(bid, nan, nan, nan, False, False, note,
                       dict(params or {}))


def _sym(m):
    return 0.5 * (m + m.conj().T)


def _need_kind(h, kind: str):
    f = get_fn(h)
    if f.kind != kind:
        raise InvalidSpecError(
            f"this check needs a {kind} scalar function, got {f.name!r}"
        )
    return f


def _need_power(p):
    if not p >= 1.0:
        raise InvalidSpecError(f"power must be >= 1, got {p}")


def _need_weight(nu):
    if not 0.0 < nu < 1.0:
        raise InvalidSpecError(f"weight must lie in (0, 1), got {nu}")


def _commutation(mod, a, y):
    """(defect, ok) of the commutation hypothesis M Y = Y* M, with M =
    ``mod`` a modulus of A from `moduli`: the defect is ||M Y - Y* M||,
    and ok when it is at most ALPHA_COMM_TOL (1 + ||A|| ||Y||)."""
    m = mod.compose()
    dev = op_norm(m @ y - y.conj().T @ m)
    return dev, dev <= ALPHA_COMM_TOL * (1.0 + op_norm(a) * op_norm(y))


def _pd_gate(p, q, what):
    """(gate, eP, eQ) with P and Q factorized once: the gate is their
    joint spectrum bounds when both are positive definite, else the skip
    note naming ``what``."""
    ep, eq = herm_eigen(p), herm_eigen(q)
    (ok_p, me_p), (ok_q, me_q) = pd_test(ep), pd_test(eq)
    if not (ok_p and ok_q):
        note = f"{what} not positive definite (min eigs {me_p:.3e}, {me_q:.3e})"
        return note, ep, eq
    return spectrum_bounds([ep, eq]), ep, eq


# ---------------------------------------------------------------------------
# Staged evaluation.  Each family's evaluator is a generator: it checks its
# parameters, yields the matrices whose numerical radii it reads, receives
# their values in the same order, and returns its reports (or functions
# that build them) as a tuple in the order of the family's ids.  A campaign
# stages all its trials and computes every radius of one size in one
# stacked `numerical_radius` call; a direct call is a campaign of one trial.


def _radius_input(m) -> np.ndarray:
    """``m`` validated as `numerical_radius` validates a matrix."""
    m = as_cmatrix(m, "A")
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"numerical radius needs square input, got {m.shape}")
    return m


def _operands(*ms, one_width=True) -> list:
    """Operands A, B, X (as many as given) as complex matrices in the
    claims' setting: A and B map a space H into K, one shape m x n, and X
    acts on K, m x m; otherwise DimensionMismatchError.
    B06-B10 take ``one_width=False``: A and B of different widths give P
    and Q on different spaces, which their gate skips."""
    ms = [as_cmatrix(m, name) for m, name in zip(ms, "ABX")]
    rows, width = ms[0].shape
    for m, name in zip(ms[1:], "BX"):
        cols = rows if name == "X" else width if one_width else m.shape[1]
        if m.shape != (rows, cols):
            raise DimensionMismatchError(f"{name} is {m.shape}, A is {ms[0].shape}")
    return ms


def radius_values(mats) -> list:
    """w(M) of each matrix in ``mats``, in order, from one stacked
    `numerical_radius` call per size."""
    mats = [_radius_input(m) for m in mats]
    by_size = {}
    for i, m in enumerate(mats):
        by_size.setdefault(m.shape[0], []).append(i)
    out = [0.0] * len(mats)
    for idx in by_size.values():
        for i, r in zip(idx, numerical_radius(np.stack([mats[i] for i in idx]))):
            out[i] = r.value
    return out


def _stage(gen):
    """(radius inputs, finish) of a started staged evaluator: finish(values)
    sends it the radii and returns its reports, or with ``only`` the
    report at that index alone.  An evaluator may return a function of no
    arguments in a report's place, to build the report when it is read."""
    inputs = next(gen)

    def finish(values, only=None):
        try:
            gen.send(tuple(values))
        except StopIteration as done:
            reps = done.value if only is None else done.value[only:only + 1]
            return tuple(r() if callable(r) else r for r in reps)
        raise RuntimeError("a staged evaluator yields once")

    return inputs, finish


def _evaluate(gen):
    """Run a staged evaluator as a campaign of one trial."""
    inputs, finish = _stage(gen)
    return finish(radius_values(inputs))


# ---------------------------------------------------------------------------
# B01-B05: norm/radius comparisons with no structural hypotheses


def check_classics(a, b, x, p: float = 1.0):
    """B01-B05, norm and radius comparisons with no structural
    hypotheses, at one power p >= 1.

        B01:  ||A||/2 <= w(A) <= ||A||, folded into
              |w(A) - 3/4 ||A||| <= ||A||/4
        B02:  w(A)^2    <= ||A*A + AA*|| / 2
        B03:  w(B*A)^p  <= ||(A*A)^p + (B*B)^p|| / 2
        B04:  w(B*A)^p  <= ||(AA*)^p + (BB*)^p|| / 4 + w(AB*)^p / 2
        B05:  w(A*XB)^p <= ||(A*|X*|A)^p + (B*|X|B)^p|| / 2

    B05's operators are the Q and P of B06-B10 for the sqrt pair.
    """
    return _evaluate(_classics(a, b, x, p))


def _classics(a, b, x, p=1.0):
    """Staged B01-B05: w(A) serves B01 and B02, w(B*A) B03 and B04, w(AB*)
    B04 and w(A*XB) B05.  The five read different operands, so each report
    is built when read, and a radius input that `numerical_radius` would
    reject (A not square, an overflow) is staged as zeros and raises in
    the reports that read it: a single bound runs no sibling's formula."""
    _need_power(p)
    a, b, x = _operands(a, b, x)
    ah, bh = a.conj().T, b.conj().T
    ins = a, bh @ a, a @ bh, _target(a, b, x)
    ws = yield tuple(m if m.shape[0] == m.shape[1] and np.isfinite(m).all()
                     else np.zeros((m.shape[1],) * 2) for m in ins)

    def w(i):  # the radius of ins[i], raising as `numerical_radius` would
        _radius_input(ins[i])
        return ws[i]

    def b05():
        p_mat, q_mat = _mean_pq(a, b, x, "sqrt")
        rhs = 0.5 * op_norm(psd_pow(q_mat, p) + psd_pow(p_mat, p))
        return _report("B05", w(3) ** p, rhs, {"p": p})

    na = op_norm(a)
    return (
        lambda: _report("B01", abs(w(0) - 0.75 * na), 0.25 * na,
                        {"norm": na, "omega": w(0)}),
        lambda: _report("B02", w(0) * w(0), 0.5 * op_norm(ah @ a + a @ ah),
                        {"omega": w(0)}),
        lambda: _report("B03", w(1) ** p, 0.5 * op_norm(
            psd_pow(ah @ a, p) + psd_pow(bh @ b, p)), {"p": p}),
        lambda: _report("B04", w(1) ** p, 0.25 * op_norm(
            psd_pow(a @ ah, p) + psd_pow(b @ bh, p)) + 0.5 * w(2) ** p,
            {"p": p, "omega_cross": w(2)}),
        b05,
    )


# ---------------------------------------------------------------------------
# B06-B10: the operator-mean family built on P = B* f^2(|X|) B and
# Q = A* g^2(|X*|) A with a Kantorovich-weighted right side


def _mean_pq(a, b, x, pair):
    f, g = get_pair(pair)
    abs_x, abs_xs, _ = moduli(x)
    fx = apply_fn(abs_x, lambda t: np.asarray(f.fn(t)) ** 2)
    gxs = apply_fn(abs_xs, lambda t: np.asarray(g.fn(t)) ** 2)
    return _sym(b.conj().T @ fx @ b), _sym(a.conj().T @ gxs @ a)


def _target(a, b, x):
    """A*XB, whose radius B05-B10, B14 and B18-B21 read."""
    return a.conj().T @ x @ b


def check_mean_h(a, b, x, pair="sqrt", h="inv", sigma="arith"):
    """B06 and B06p, the Kantorovich-weighted mean claims at weight 1/2.

    With P = B* f^2(|X|) B and Q = A* g^2(|X*|) A positive definite,
    (m, M) their joint spectrum bounds and k the Kantorovich constant:

        B06 :  || h(P) sigma h(Q) ||  <=  (m k / M) h(w(A*XB))
        B06p:  || h(P) sigma h(Q) ||  <=  h(w(A*XB))

    for operator monotone decreasing h and any of the three means.  The
    right side uses w because the claim is quantified over unit vectors
    and h is decreasing, making the maximizing vector the binding case.
    """
    return _evaluate(_mean_h(a, b, x, pair, h, sigma))


def _mean_h(a, b, x, pair="sqrt", h="inv", sigma="arith"):
    """Staged B06 and B06p; w(A*XB) only when P and Q pass the gate."""
    hf = _need_kind(h, "decreasing")
    a, b, x = _operands(a, b, x, one_width=False)
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    params = {"pair": str(pair), "h": hf.name, "sigma": str(sigma), "nu": 0.5}
    sb, ep, eq = _pd_gate(p_mat, q_mat, "P or Q")
    if isinstance(sb, str):
        yield ()
        return _skipped("B06", params, sb), _skipped("B06p", params, sb)
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)
    lhs = op_norm(mean(eval_fn(hf, ep), eval_fn(hf, eq), sigma, 0.5))
    w, = yield _target(a, b, x),
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
    return _evaluate(_mean_h_weighted(a, b, x, pair, h, sigma, nu))[0]


def _mean_h_weighted(a, b, x, pair="sqrt", h="inv", sigma="arith", nu=0.5):
    """Staged B07; w(A*XB) only when the powered pair passes the gate."""
    hf = _need_kind(h, "decreasing")
    _need_weight(nu)
    a, b, x = _operands(a, b, x, one_width=False)
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    pw = psd_pow(p_mat, 1.0 / (1.0 - nu))
    qw = psd_pow(q_mat, 1.0 / nu)
    params = {"pair": str(pair), "h": hf.name, "sigma": str(sigma), "nu": nu}
    sb, epw, eqw = _pd_gate(pw, qw, "powered pair")
    if isinstance(sb, str):
        yield ()
        return _skipped("B07", params, sb),
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)
    lhs = op_norm(mean(eval_fn(hf, epw), eval_fn(hf, eqw), sigma, nu))
    w, = yield _target(a, b, x),
    return _report("B07", lhs, (sb.m * k / sb.M) * hf(w * w), params),


def check_omega_harmonic(a, b, x, pair="sqrt", h="pow:1", p: float = 1.0):
    """B08-B10: radius bounded by Kantorovich-weighted combinations of P, Q.

        B08:  w(A*XB)      <= (m k / M)  || P ! Q ||      (! at weight 1/2)
        B09:  h(w(A*XB))   <= (m k / 2M) || h(P) + h(Q) ||  (h increasing convex)
        B10:  w(A*XB)^p    <= (m k / 2M) || P^p + Q^p ||    (p >= 1)
    """
    return _evaluate(_omega_harmonic(a, b, x, pair, h, p))


def _omega_harmonic(a, b, x, pair="sqrt", h="pow:1", p: float = 1.0):
    """Staged B08-B10; w(A*XB) only when P and Q pass the gate."""
    hf = _need_kind(h, "increasing")
    _need_power(p)
    a, b, x = _operands(a, b, x, one_width=False)
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    params = {"pair": str(pair), "h": hf.name, "p": p}
    sb, ep, eq = _pd_gate(p_mat, q_mat, "P or Q")
    if isinstance(sb, str):
        yield ()
        return tuple(_skipped(bid, params, sb) for bid in ("B08", "B09", "B10"))
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)
    w, = yield _target(a, b, x),
    c = sb.m * k / sb.M
    r08 = c * op_norm(mean(p_mat, q_mat, "harm", 0.5))
    r09 = 0.5 * c * op_norm(eval_fn(hf, ep) + eval_fn(hf, eq))
    r10 = 0.5 * c * op_norm(psd_pow(ep, p) + psd_pow(eq, p))
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
    return _evaluate(_mox(a, b, h, p))


def _mox(a, b, h="pow:1", p: float = 1.0):
    """Staged B11 and B12: w(A*B) and w(BA*)."""
    hf = _need_kind(h, "increasing")
    _need_power(p)
    a, b = _operands(a, b)
    w, w_rev = yield a.conj().T @ b, b @ a.conj().T
    prod = op_norm(a) * op_norm(b)
    return (
        _report("B11", hf(w), 0.5 * hf(prod) + 0.5 * hf(w_rev),
                {"h": hf.name, "omega_rev": w_rev}),
        _report("B12", w ** p, 0.5 * prod ** p + 0.5 * w_rev ** p,
                {"p": p, "omega_rev": w_rev}),
    )


def _aluthge_parts(a, pair):
    f, g = get_pair(pair)
    abs_a, _, u = moduli(a)
    fa = eval_fn(f, abs_a)
    ga = eval_fn(g, abs_a)
    return fa, ga, fa @ u @ ga


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
    return _evaluate(_aluthge(a, pair, h, p))


def _aluthge(a, pair="sqrt", h="pow:1", p: float = 1.0):
    """Staged B13 and B15: w(A) and w(At), with |A| factorized once."""
    hf = _need_kind(h, "increasing")
    _need_power(p)
    a = _radius_input(a)
    fa, ga, at = _aluthge_parts(a, pair)
    w, wt = yield a, at
    r13 = 0.5 * op_norm(fa) ** p * op_norm(ga) ** p + 0.5 * wt ** p
    f2 = eval_fn(hf, _sym(fa @ fa))
    g2 = eval_fn(hf, _sym(ga @ ga))
    r15 = 0.25 * op_norm(f2 + g2) + 0.5 * hf(wt)
    params = {"pair": str(pair), "h": hf.name, "p": p, "omega_transform": wt}
    return (
        _report("B13", w ** p, r13, params),
        _report("B15", hf(w), r15, params),
    )


def check_block(a, b, x) -> BoundReport:
    """B14: w(A*XB) <= ||AA*X + XBB*|| / 4 + max(w(XBA*), w(BA*X)) / 2."""
    return _evaluate(_block(a, b, x))[0]


def _block(a, b, x):
    """Staged B14: w(A*XB), w(XBA*) and w(BA*X)."""
    a, b, x = _operands(a, b, x)
    w, w1, w2 = yield _target(a, b, x), x @ b @ a.conj().T, b @ a.conj().T @ x
    t1 = 0.25 * op_norm(a @ a.conj().T @ x + x @ b @ b.conj().T)
    return _report("B14", w, t1 + 0.5 * max(w1, w2),
                   {"omega_xba": w1, "omega_bax": w2}),


def check_symmetrized(a, b, x):
    """B16a, B16b, B17: bounds on the symmetrized product w(A*XB + B*XA).

        B16a: w(A*XB + B*XA) <= ((||A||^2 + ||B||^2)/2 + ||AB*||) w(X)
        B16b: w(A*XB + B*XA) <= (||A|| ||B|| + ||AB*||) w(X)
        B17 : w(A*XB + B*XA) <= 2 ||A|| ||B|| w(X)

    B16b is the sharpest of the three: its coefficient never exceeds
    B16a's (arithmetic-geometric mean) nor B17's (since ||AB*|| <=
    ||A|| ||B||).  B17's report carries the margin over B16b.
    """
    return _evaluate(_symmetrized(a, b, x))


def _symmetrized(a, b, x):
    """Staged B16a, B16b and B17: w(A*XB + B*XA) and w(X)."""
    a, b, x = _operands(a, b, x)
    w, wx = yield _target(a, b, x) + _target(b, a, x), x
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
    return _evaluate(_alpha(a, b, x, pair, h, nu))


def _alpha(a, b, x, pair="sqrt", h="pow:1", nu=0.5):
    """Staged B18-B21: w(A*XB)."""
    hf = _need_kind(h, "increasing")
    _need_weight(nu)
    f, g = get_pair(pair)
    a, b, x = _operands(a, b, x)
    e_a, e_as, _ = moduli(a)
    dev, comm_ok = _commutation(e_as, a, x)
    r = spectral_radius(x)
    w, = yield _target(a, b, x),
    f2 = apply_fn(e_as, lambda t: np.asarray(f.fn(t)) ** 2)
    s1 = psd_pow(_sym(b.conj().T @ f2 @ b), 1.0 / (1.0 - nu))
    s2 = apply_fn(e_a, lambda t: np.asarray(g.fn(t)) ** (2.0 / nu))
    base = {"pair": str(pair), "h": hf.name, "nu": nu, "r": r,
            "commutation_defect": dev}
    note = "" if comm_ok else f"commutation defect {dev:.3e} exceeds gate"

    r18 = op_norm((1.0 - nu) * eval_fn(hf, r * r * s1)
                  + nu * eval_fn(hf, r * r * s2))
    rep18 = _report("B18", hf(w * w), r18, base, comm_ok, note)

    if r <= 1.0 + 1e-12:
        r19 = r * r * op_norm((1.0 - nu) * eval_fn(hf, s1)
                              + nu * eval_fn(hf, s2))
        rep19 = _report("B19", hf(w * w), r19, base, comm_ok, note)
    else:
        rep19 = _skipped("B19", base,
                         f"spectral radius {r:.6g} exceeds 1" + (
                             "; " + note if note else ""))

    t1 = _sym(b.conj().T @ psd_pow(e_as, 2.0 * (1.0 - nu)) @ b)
    s1p = psd_pow(t1, 1.0 / (1.0 - nu))
    s2p = psd_pow(e_a, 2.0)
    r20 = op_norm((1.0 - nu) * eval_fn(hf, r * r * s1p)
                  + nu * eval_fn(hf, r * r * s2p))
    rep20 = _report("B20", hf(w * w), r20, base, comm_ok, note)

    p = hf.params[0] if hf.name.startswith("pow:") else 1.0
    r21 = r ** (2.0 * p) * op_norm(
        (1.0 - nu) * psd_pow(t1, p / (1.0 - nu)) + nu * psd_pow(e_a, 2.0 * p)
    )
    rep21 = _report("B21", w ** (2.0 * p), r21, {**base, "p": p}, comm_ok, note)
    return rep18, rep19, rep20, rep21


# ---------------------------------------------------------------------------
# Lemma checks L01-L09


def _unit_vec(v, n, name):
    """``v`` as a flat unit vector of length n; an n x 1 or 1 x n matrix
    is accepted, any other shape raises InvalidSpecError."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape not in ((n,), (n, 1), (1, n)):
        raise InvalidSpecError(f"{name} must be a vector of length {n}")
    v = v.reshape(-1)
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise InvalidSpecError(f"{name} must be a unit vector (norm {nv:.6g})")
    return v


def _pair_norms(f, g, mods, x, y) -> float:
    """||f(|A|) x|| ||g(|A*|) y||, the right side of the mixed Schwarz
    inequality, with ``mods`` = moduli(A)."""
    abs_a, abs_as, _ = mods
    return float(np.linalg.norm(eval_fn(f, abs_a) @ x)
                 * np.linalg.norm(eval_fn(g, abs_as) @ y))


def _l01(a, x, y, pair="sqrt") -> BoundReport:
    """|<Ax, y>| <= ||f(|A|) x|| ||g(|A*|) y|| for any pair f g = t."""
    f, g = get_pair(pair)
    a = as_cmatrix(a, "A")
    n = a.shape[0]
    x = _unit_vec(x, n, "x")
    y = _unit_vec(y, n, "y")
    lhs = abs(complex(y.conj() @ (a @ x)))
    return _report("L01", lhs, _pair_norms(f, g, moduli(a), x, y),
                   {"pair": str(pair)})


def _l02(a, b, v=None, h="inv", sigma="arith", tau="arith",
         nu=0.5) -> LoewnerReport:
    """h(F(A)) sigma_nu h(F(B)) <= k h(F(A tau_nu B)) in Loewner order.

    A, B positive definite with joint bounds (m, M); k is the
    Kantorovich constant; F is compression by the isometry v (identity
    when omitted); h operator monotone decreasing; sigma, tau any means.
    """
    hf = _need_kind(h, "decreasing")
    a = as_cmatrix(a, "A")
    b = as_cmatrix(b, "B")
    params = {"h": hf.name, "sigma": str(sigma), "tau": str(tau), "nu": nu}
    sb = _pd_gate(a, b, "operands")[0]
    if isinstance(sb, str):
        return LoewnerReport("L02", float("nan"), False, False,
                             "operands must be positive definite", params)
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)

    def comp(t):
        return t if v is None else compress(t, v)

    lhs = mean(eval_fn(hf, _sym(comp(a))), eval_fn(hf, _sym(comp(b))), sigma, nu)
    rhs = k * eval_fn(hf, _sym(comp(mean(a, b, tau, nu))))
    diff = herm_eigen(_sym(rhs - lhs)).eigenvalues
    me = float(diff[0])
    scale = op_norm(rhs)
    return LoewnerReport("L02", me, _within(me, scale, L02_ATOL, L02_ATOL),
                         True, "", params, scale)


def _l03(a, h="inv") -> BoundReport:
    """||h(A^{-1})|| <= h(1 / ||A||) for positive definite A.

    A decreasing function of A^{-1} peaks at the smallest eigenvalue
    1/||A||, so this holds with equality up to roundoff.
    """
    hf = _need_kind(h, "decreasing")
    a = as_cmatrix(a, "A")
    ea = herm_eigen(a)
    ok, me = pd_test(ea)
    if not ok:
        return _skipped("L03", {"h": hf.name},
                        f"operand not positive definite (min eig {me:.3e})")
    lhs = op_norm(eval_fn(hf, psd_pow(ea, -1.0)))
    rhs = hf(1.0 / op_norm(a))
    return _report("L03", lhs, rhs, {"h": hf.name})


def _golden(smax, lo, hi) -> tuple[np.ndarray, int]:
    """Golden-section maximization of smax on each bracket [lo_i, hi_i],
    all brackets together (one batched call per step), until each is at
    most _L04_WIDTH wide: the best value seen in each bracket, and the
    number of smax evaluations."""
    # mid is the best point of each bracket, at its golden section; the
    # next probe is its mirror image, and the worse of the two bounds
    # the new bracket
    mid = lo + _INVPHI * (hi - lo)
    fmid = smax(mid)
    iters = max(0, math.ceil(math.log(_L04_WIDTH / np.max(hi - lo))
                             / math.log(_INVPHI)))
    for _ in range(iters):
        probe = lo + hi - mid
        fprobe = smax(probe)
        inner_lo, inner_hi = np.minimum(probe, mid), np.maximum(probe, mid)
        mid = np.where(fprobe > fmid, probe, mid)
        fmid = np.maximum(fprobe, fmid)
        left = mid == inner_lo
        lo, hi = np.where(left, lo, inner_lo), np.where(left, inner_hi, hi)
    return fmid, mid.size * (1 + iters)


def _sup_level_set(a, adj, phi, gamma) -> tuple[np.ndarray, np.ndarray]:
    """The arcs between consecutive angles theta at which gamma is a
    singular value of B = A + e^{i theta} A*, as (starts, ends).

    gamma is a singular value of B iff [[-gamma I, B], [B*, -gamma I]] is
    singular; multiplying its second block row by z = e^{i theta} gives
    the linear pencil L0 + z L1, L0 = [[-gamma I, A], [A, 0]],
    L1 = [[0, A*], [A*, -gamma I]].  The Cayley map
    z = e^{i phi} (1 + i tau) / (1 - i tau) sends real tau to the circle,
    and c = 1/tau is an eigenvalue of -i M^{-1} N, M = L0 + e^{i phi} L1,
    N = e^{i phi} L1 - L0; theta = phi + pi - 2 arctan(c).  M is the
    pencil at phi, well conditioned where sigma_max(phi) is least.
    Along each arc the number of singular values above gamma is
    constant.
    """
    n = a.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    l0 = np.block([[-gamma * eye, a], [a, zero]])
    l1 = np.block([[zero, adj], [adj, -gamma * eye]])
    rot = np.exp(1j * phi)
    c = np.linalg.eigvals(-1j * np.linalg.solve(l0 + rot * l1, rot * l1 - l0))
    # |Im theta| = artanh(2 |Im c| / (1 + |c|^2))
    real = 2.0 * np.abs(c.imag) <= np.tanh(_L04_NEAR_REAL) * (1.0 + np.abs(c) ** 2)
    cross = np.sort((phi + np.pi - 2.0 * np.arctan(c[real].real)) % (2.0 * np.pi))
    return cross, np.append(cross[1:], cross[:1] + 2.0 * np.pi)


def _sup_form(a) -> tuple[float, float, int]:
    """sup over theta of ||A + e^{i theta} A*|| / 2, a certified upper
    bound of it, and the number of sigma_max evaluations it took.

    1. scan: L04_GRID equispaced angles in one batched SVD; the coarse
       peaks are the argmax and every strict local maximum, so a flat
       profile has one;
    2. polish: golden section on sigma_max over [theta_i - h, theta_i + h]
       around each coarse peak (h the grid step), all brackets together,
       until they are _L04_WIDTH wide (`_golden`);
    3. certificate: with gamma = s* (1 + _L04_LEVEL), s* the largest
       sigma_max seen, the arcs between the angles at which gamma is a
       singular value come from one eigenproblem (`_sup_level_set`, phi
       at the coarse minimum).  If sigma_max exceeds gamma at none of
       their midpoints, s* / 2 <= sup <= gamma / 2; otherwise each arc
       where it does is polished and the test repeated.  Each repeat
       raises s* above the previous gamma, so two peaks that share one
       coarse bracket, where golden section may keep the lower, are
       both found.
    """
    if not a.size:
        return 0.0, 0.0, 0
    adj = a.conj().T

    def smax(thetas):
        stack = a + np.exp(1j * thetas)[:, None, None] * adj
        return np.linalg.svd(stack, compute_uv=False)[:, 0]

    step = 2.0 * np.pi / L04_GRID
    grid = step * np.arange(L04_GRID)
    scan = smax(grid)
    peak = (scan > np.roll(scan, 1)) & (scan > np.roll(scan, -1))
    peak[np.argmax(scan)] = True
    polished, evals = _golden(smax, grid[peak] - step, grid[peak] + step)
    best = float(max(scan.max(), polished.max()))
    evals += L04_GRID
    if not best:  # sigma_max vanishes at two angles only when A = 0
        return 0.0, 0.0, evals
    phi = float(grid[np.argmin(scan)])
    while True:
        gamma = best * (1.0 + _L04_LEVEL)
        lo, hi = _sup_level_set(a, adj, phi, gamma)
        fmid = smax(0.5 * (lo + hi))
        evals += lo.size
        above = fmid > gamma
        if not above.any():
            break
        polished, more = _golden(smax, lo[above], hi[above])
        best = float(max(fmid.max(), polished.max()))
        evals += more
    return 0.5 * best, 0.5 * gamma, evals


def _l04(a) -> BoundReport:
    """w(A) equals sup over theta of ||A + e^{i theta} A*|| / 2
    (T. Yamazaki, Studia Math. 178, 2007).

    The sup form comes from `_sup_form`: a coarse scan, a golden-section
    polish and a level-set certificate on singular values, sharing no
    code with `numerical_radius`, so that each checks the other.  Both
    certify an interval, [w, upper] and [sup, sup_upper]; the two must
    meet, and |w - sup| (lhs) must be within L04_TOL * upper (rhs).
    Intervals that do not meet leave no room, rhs = 0.  The verdict is
    the uniform rule, lhs <= rhs + ATOL + RTOL * rhs, so below
    ||A|| ~ 10 its absolute floor ATOL, not L04_TOL * upper, sets the
    limit.  ``params["evaluations"]`` counts the sigma_max evaluations.
    """
    a = as_cmatrix(a, "A")
    r = numerical_radius(a)
    sup, sup_upper, evals = _sup_form(a)
    meet = sup <= r.upper and r.value <= sup_upper
    return _report("L04", abs(r.value - sup), L04_TOL * r.upper if meet else 0.0,
                   {"grid": L04_GRID, "sup_form": sup, "sup_upper": sup_upper,
                    "upper": r.upper, "evaluations": evals})


def _l05(a, b) -> BoundReport:
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
    return _report("L05", abs(direct - byparts), L05_TOL, {"block": direct})


def _l06(a1, b1, a2, b2) -> BoundReport:
    """Spectral radius of A1 B1 + A2 B2 against the 2x2 dominance bound.

        r(A1B1 + A2B2) <= (w(B1A1) + w(B2A2))/2
          + sqrt((w(B1A1) - w(B2A2))^2 + 4 ||B1A2|| ||B2A1||) / 2
    """
    a1, b1 = as_cmatrix(a1, "A1"), as_cmatrix(b1, "B1")
    a2, b2 = as_cmatrix(a2, "A2"), as_cmatrix(b2, "B2")
    w11, w22 = radius_values([b1 @ a1, b2 @ a2])
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
    mods = moduli(a)
    dev, ok = _commutation(mods[0], a, b)
    params = {"pair": str(pair), "commutation_defect": dev}
    if not ok:
        return _skipped("L08", params, f"commutation defect {dev:.3e}")
    lhs = abs(complex(y.conj() @ (a @ b @ x)))
    rhs = spectral_radius(b) * _pair_norms(f, g, mods, x, y)
    return _report("L08", lhs, rhs, params)


def _l09(p, q, h="pow:1", nu=0.5) -> BoundReport:
    """||h((1-nu) P + nu Q)|| <= ||(1-nu) h(P) + nu h(Q)|| for PSD P, Q."""
    hf = _need_kind(h, "increasing")
    if not 0.0 <= nu <= 1.0:
        raise InvalidSpecError(f"weight must lie in [0, 1], got {nu}")
    p = as_cmatrix(p, "P")
    q = as_cmatrix(q, "Q")
    lhs = op_norm(eval_fn(hf, _sym((1.0 - nu) * p + nu * q)))
    rhs = op_norm((1.0 - nu) * eval_fn(hf, _sym(p))
                  + nu * eval_fn(hf, _sym(q)))
    return _report("L09", lhs, rhs, {"h": hf.name, "nu": nu})


@dataclass(frozen=True)
class Lemma:
    """One auxiliary lemma, the description that ``check_lemma`` and
    ``numrad check`` both read.

    ``flags`` maps each operand's command-line flag to the handler
    keyword that receives it; a flag in ``optional`` may be omitted.
    ``params`` are the handler's keyword parameters.
    """

    id: str
    handler: Callable
    flags: dict
    params: tuple = ()
    optional: tuple = ()


LEMMAS = {lem.id: lem for lem in (
    Lemma("L01", _l01, {"A": "a", "X": "x", "Y": "y"}, ("pair",)),
    Lemma("L02", _l02, {"A": "a", "B": "b", "V": "v"},
          ("h", "sigma", "tau", "nu"), optional=("V",)),
    Lemma("L03", _l03, {"A": "a"}, ("h",)),
    Lemma("L04", _l04, {"A": "a"}),
    Lemma("L05", _l05, {"A": "a", "B": "b"}),
    Lemma("L06", _l06, {"A": "a1", "B": "b1", "A2": "a2", "B2": "b2"}),
    Lemma("L07", _l07, {"A": "a1", "B": "b1", "A2": "a2", "B2": "b2",
                        "X": "x", "Y": "y"}),
    Lemma("L08", _l08, {"A": "a", "B": "b", "X": "x", "Y": "y"}, ("pair",)),
    Lemma("L09", _l09, {"A": "p", "B": "q"}, ("h", "nu")),
)}

LEMMA_IDS = tuple(LEMMAS)


def check_lemma(lemma_id: str, **inputs):
    """Evaluate one auxiliary lemma by ID; see each handler's docstring.

    Operands and parameters go in by handler keyword; a missing operand
    raises InvalidSpecError naming its flag.
    """
    try:
        lem = LEMMAS[lemma_id]
    except KeyError:
        raise UnknownBoundIdError(
            f"unknown lemma {lemma_id!r}; known: {', '.join(LEMMA_IDS)}"
        ) from None
    missing = [flag for flag, kw in lem.flags.items()
               if flag not in lem.optional and inputs.get(kw) is None]
    if missing:
        raise InvalidSpecError(
            f"{lemma_id} requires operand(s) {', '.join(missing)}"
        )
    return lem.handler(**inputs)


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

    ``name`` salts the campaign seeds, so it never changes.  ``evaluator``
    is the name in this module of the family's staged evaluator, looked
    up at call time, so a wrapper set on the module attribute sees every
    call.  It takes ``operands`` positionally and each key of ``grids`` as
    a keyword, yields once the matrices whose radii it reads (classics:
    A, B*A, AB*, A*XB; block: A*XB, XBA*, BA*X; ...), and returns its
    reports.  Campaigns cycle each grid by trial index.  ``commuting_x``
    marks a family whose hypothesis needs X to commute with |A*|.

    ``reads`` maps an id to the operands and grid keys its report depends
    on; an id without an entry reads all of them.  `required_operands` and
    `evaluate_bound` take what a single bound needs from it.
    """

    name: str
    ids: tuple
    operands: tuple
    evaluator: str
    grids: dict = field(default_factory=dict)
    commuting_x: bool = False
    reads: dict = field(default_factory=dict)

    def reads_of(self, bound_id: str) -> tuple:
        """The operands and grid keys that ``bound_id``'s report reads."""
        return self.reads.get(bound_id, self.operands + tuple(self.grids))


_ABX = ("a", "b", "x")

FAMILIES = (
    Family("classics", ("B01", "B02", "B03", "B04", "B05"), _ABX,
           "_classics", {"p": P_GRID},
           reads={"B01": ("a",), "B02": ("a",),
                  "B03": ("a", "b", "p"), "B04": ("a", "b", "p")}),
    Family("mean_h", ("B06", "B06p"), _ABX, "_mean_h",
           {"pair": PAIR_GRID, "h": H_DEC_GRID, "sigma": SIGMA_GRID}),
    Family("mean_h_weighted", ("B07",), _ABX, "_mean_h_weighted",
           {"pair": PAIR_GRID, "h": H_DEC_GRID, "sigma": SIGMA_GRID,
            "nu": NU_GRID}),
    Family("omega_harmonic", ("B08", "B09", "B10"), _ABX, "_omega_harmonic",
           {"pair": PAIR_GRID, "h": H_INC_GRID, "p": P_GRID},
           reads={"B08": (*_ABX, "pair"), "B09": (*_ABX, "pair", "h"),
                  "B10": (*_ABX, "pair", "p")}),
    Family("mox", ("B11", "B12"), ("a", "b"), "_mox",
           {"h": H_INC_GRID, "p": P_GRID},
           reads={"B11": ("a", "b", "h"), "B12": ("a", "b", "p")}),
    Family("aluthge", ("B13", "B15"), ("a",), "_aluthge",
           {"pair": PAIR_GRID, "h": H_INC_GRID, "p": P_GRID},
           reads={"B13": ("a", "pair", "p"), "B15": ("a", "pair", "h")}),
    Family("block", ("B14",), _ABX, "_block"),
    Family("symmetrized", ("B16a", "B16b", "B17"), _ABX, "_symmetrized"),
    Family("alpha", ("B18", "B19", "B20", "B21"), _ABX, "_alpha",
           {"pair": PAIR_GRID, "h": H_ALPHA_GRID, "nu": NU_GRID},
           commuting_x=True,
           # B20 and B21 pin their pair to f = t^{1-nu}, g = t^nu
           reads={"B20": (*_ABX, "h", "nu"), "B21": (*_ABX, "h", "nu")}),
)

# campaign shorthands for a claim catalogued as several ids
ALIASES = {"B06": ("B06", "B06p"), "B16": ("B16a", "B16b")}

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


def stage_family(family: Family, mats: dict, **params):
    """Start evaluating a family on ``mats`` (operand name -> matrix).

    Returns (the matrices whose radii it reads, finish): finish(their
    values, in order) returns one report per id, in ``family.ids`` order.
    """
    return _stage(globals()[family.evaluator](
        *(mats[n] for n in family.operands), **params))


def evaluate_family(family: Family, mats: dict, **params) -> tuple:
    """Evaluate a family once on ``mats`` (operand name -> matrix), as a
    campaign of one trial.

    Returns one report per id, in ``family.ids`` order.
    """
    inputs, finish = stage_family(family, mats, **params)
    return finish(radius_values(inputs))


def required_operands(bound_id: str) -> tuple[str, ...]:
    """Operand names ('a', 'b', 'x') that a bound reads, in its family's
    operand order (`Family.reads`)."""
    fam = family_of(bound_id)
    return tuple(n for n in fam.operands if n in fam.reads_of(bound_id))


def evaluate_bound(bound_id: str, *, a=None, b=None, x=None, p: float = 1.0,
                   nu: float = 0.5, pair="sqrt", h=None, sigma="arith"):
    """Evaluate a single catalogued bound by ID, by running its family.

    Operands and parameters the bound does not read (`Family.reads`) are
    ignored: B is replaced by zeros of A's shape and X by zeros on A's
    range, a grid key is left at the evaluator's default and dropped from
    the report's params, and only the bound's own report is built.  So no
    operand or key that only a sibling reads can change or fail the
    report, and in B01-B05, whose ids read different operands, neither
    can a sibling's formula.  Missing required operands raise
    InvalidSpecError.  ``h`` defaults to the family evaluator's own
    default: "inv" for the decreasing-function family (B06-B07), "pow:1"
    elsewhere.
    """
    fam = family_of(bound_id)
    reads, need = fam.reads_of(bound_id), required_operands(bound_id)
    got = {"a": a, "b": b, "x": x}
    missing = [n.upper() for n in need if got[n] is None]
    if missing:
        raise InvalidSpecError(f"{bound_id} requires operand(s) {', '.join(missing)}")
    mats = {n: got[n] if n in need else np.zeros(
        np.shape(a)[:1] * 2 if n == "x" else np.shape(a)) for n in fam.operands}
    given = {"p": p, "nu": nu, "pair": pair, "h": h, "sigma": sigma}
    params = {k: given[k] for k in fam.grids if k in reads and given[k] is not None}
    inputs, finish = stage_family(fam, mats, **params)
    rep, = finish(radius_values(inputs), fam.ids.index(bound_id))
    return replace(rep, params={k: v for k, v in rep.params.items()
                                if k in reads or k not in fam.grids})


def compatible_signatures(bound_a: str, bound_b: str) -> None:
    """Raise IncompatibleBoundsError unless both consume the same operands."""
    if required_operands(bound_a) != required_operands(bound_b):
        raise IncompatibleBoundsError(
            f"{bound_a} takes {required_operands(bound_a)}, "
            f"{bound_b} takes {required_operands(bound_b)}"
        )
