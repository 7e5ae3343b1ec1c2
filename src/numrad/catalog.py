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

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompatibleBoundsError,
    InvalidSpecError,
    NonFiniteError,
    UnknownBoundIdError,
)
from .matrixcore import (
    HermEigen,
    _as_stack,
    _each,
    _pair,
    _pick,
    _require_finite,
    _weights,
    apply_fn,
    as_cmatrix,
    herm_eigen,
    moduli,
    op_norm,
)
from .meansfuncs import (
    _mean_kind,
    _mean_spec,
    _power,
    compress,
    eval_fn,
    get_fn,
    get_pair,
    mean,
    pd_test,
    psd_pow,
    spectrum_bounds,
)
from .radii import _radius_stack, numerical_radius, spectral_radius

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

# lemma tolerances: L02's Loewner floor; L04's scan angles, the relative
# rise below which its level-set iteration stops and the level
# gamma = s* (1 + _L04_LEVEL) of its certificate, the |Im theta| up to
# which a level-set root counts as real, and the agreement with w(A) that
# this reaches, relative to the certified upper bound (the uniform rule's
# ATOL + RTOL * rhs still applies on top); L05's agreement of two radius
# computations
L02_ATOL = 1e-8
L04_GRID = 64
_L04_LEVEL = 1e-12
_L04_NEAR_REAL = 1e-6
L04_TOL = 1e-10
L05_TOL = 1e-8


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
    """A report on lhs <= rhs; a side that is not finite, such as a radius
    above the largest float, raises NonFiniteError."""
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonFiniteError(f"{bid}: a side overflows to non-finite (lhs = {lhs}, rhs = {rhs})")
    slack = rhs - lhs
    return BoundReport(bid, lhs, rhs, slack, _within(slack, rhs, ATOL, RTOL),
                       hypothesis_ok, note, dict(params or {}))


def _pow(v, e):
    """v ** e of Python floats, or inf where it overflows, so that a report
    side it becomes or feeds is rejected by `_report`."""
    try:
        return v ** e
    except OverflowError:
        return math.inf


def _skipped(bid, params=None, note="hypothesis not met") -> BoundReport:
    nan = float("nan")
    return BoundReport(bid, nan, nan, nan, False, False, note,
                       dict(params or {}))


def _adj(m):
    return m.conj().swapaxes(-1, -2)


def _sym(m):
    return 0.5 * (m + _adj(m))


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
    return p


def _need_weight(nu):
    if not 0.0 < nu < 1.0:
        raise InvalidSpecError(f"weight must lie in (0, 1), got {nu}")
    return nu


def _commutation(mod, y):
    """(defect, ok) of the commutation hypothesis M Y = Y* M, with M =
    ``mod`` a modulus of A from `moduli`: the defect is ||M Y - Y* M||,
    and ok when it is at most ALPHA_COMM_TOL (1 + ||A|| ||Y||), ||A||
    being M's top eigenvalue (0 when A is empty).  Of stacks, arrays with
    one entry per member."""
    m = mod.compose()
    dev = op_norm(m @ y - _adj(y) @ m)
    return dev, dev <= ALPHA_COMM_TOL * (1.0 + mod.eigenvalues.max(-1, initial=0.0) * op_norm(y))


def _pd_gate(p, q, what):
    """(eP, eQ, gate) of stacks P and Q (or their factorizations), each
    factorized once: gate[j] is member j's joint spectrum bounds when its
    P and Q are both positive definite, else the skip note naming
    ``what``."""
    ep, eq = _pair(herm_eigen, p, q)
    (ok_p, me_p), (ok_q, me_q) = pd_test(ep), pd_test(eq)
    live = [j for j, ok in enumerate(zip(ok_p, ok_q)) if all(ok)]
    bounds = iter(spectrum_bounds([ep.take(live), eq.take(live)]) if live else ())
    return ep, eq, [
        next(bounds) if ok_p[j] and ok_q[j] else
        f"{what} not positive definite (min eigs {me_p[j]:.3e}, {me_q[j]:.3e})"
        for j in range(len(ok_p))]


def _live(gate) -> list:
    """The members that passed a gate, in order."""
    return [j for j, g in enumerate(gate) if not isinstance(g, str)]


def _fn_of(m, h):
    """h(M), `eval_fn` with the matrix first, for `_pair`."""
    return eval_fn(h, m)


def _on_spectrum(e, fns, c=1.0):
    """The factorization of c fn(H) for each member of a stack, from the
    factorization e of H, positive semidefinite, with one fn (increasing
    on [0, inf), so the order stays ascending) and one factor c >= 0 per
    member: no function of H is factorized again.  Each member's fn runs
    on its own eigenvalue row, as `apply_fn` runs it, with round-off
    negatives set to 0 as `psd_pow` sets them; a value that overflows
    raises NonFiniteError."""
    vals = np.reshape([fn(np.maximum(w, 0.0)) for fn, w in zip(fns, e.eigenvalues)],
                      e.eigenvalues.shape) * np.asarray(c)[..., None]
    _require_finite(vals, "H")
    return HermEigen(vals, e.eigenvectors)


def _sum_of(fn, x, y, *args):
    """fn(x, *args) + fn(y, *args), the two from one `_pair` call."""
    fx, fy = _pair(fn, x, y, *args)
    return fx + fy


def _norms(*ms) -> list:
    """||M|| of each member of each stack in ``ms``, one list per stack,
    from one `op_norm` call when their members have one shape."""
    if len({m.shape[1:] for m in ms}) > 1:
        return [op_norm(m).tolist() for m in ms]
    flat = op_norm(np.concatenate(ms)).tolist()
    ends = np.cumsum([len(m) for m in ms]).tolist()
    return [flat[e - len(m):e] for m, e in zip(ms, ends)]


def _by_id(k, member):
    """Reports of k members as one function per id that builds the id's
    list when read (`_stage`), member(j) giving member j's report builders
    in id order: so no id's report waits on a formula only a sibling
    reads, and a single bound builds its own reports alone."""
    return tuple(lambda col=col: [b() for b in col] for col in zip(*map(member, range(k))))


# ---------------------------------------------------------------------------
# Staged evaluation.  Each family's evaluator is a generator over a stack
# of trials: it takes each operand as a (k, m, n) stack, checked where it
# entered (`_operands`, called by `_alone` and `stage_family`), and each
# grid key as a list of k values (or one value for all), checks every
# member's parameters, yields once the stacks whose numerical radii it reads,
# receives their values (one list per stack) and returns its reports, one
# list of k per id in the order of the family's ids, or a function that
# builds the list when read (`_by_id`), so that a single bound builds no
# sibling's report.  Each step of a formula is one stacked call
# on all members that need it; a gate picks the members that pass it
# before any function with a pole or a domain runs on them, and a scalar
# function or exponent of a member is applied to its own eigenvalues.  So
# member j's reports equal those of trial j evaluated alone bit for bit.
# A campaign stages each family's trials of one dimension as one stack and
# computes every radius of one size in one stacked `numerical_radius`
# call; `_alone` runs a direct call (`check_*`, `evaluate_bound`) on its
# stack of trials, a matrix being a stack of one.


def _operands(*ms) -> list:
    """Operand stacks A, B, X (as many as given) in the claims' setting:
    A and B map a space H into K, one shape m x n, and X acts on K,
    m x m, each with one member per trial; otherwise
    DimensionMismatchError.  The one operand check of the bounds: the
    entries to the staged evaluators, `_alone` and `stage_family`, make
    it, and the evaluators take its stacks as they are."""
    ms = [_as_stack(m, name)[0] for m, name in zip(ms, "ABX")]
    k, rows, width = ms[0].shape
    for m, name in zip(ms[1:], "BX"):
        if m.shape[-2:] != (rows, rows if name == "X" else width):
            raise DimensionMismatchError(f"{name} is {m.shape[-2:]}, A is {(rows, width)}")
        if len(m) != k:
            raise DimensionMismatchError(f"{name} has {len(m)} members, A has {k}")
    return ms


def radius_values(mats) -> list:
    """w(M) of each matrix in ``mats``, in order, from one stacked
    `numerical_radius` call per size; an entry that is a (k, n, n) stack
    gives the list of its k members' values, and a stack of no members
    reads nothing."""
    stacks = [m if np.ndim(m) == 3 and not len(m) else _radius_stack(m)[0] for m in mats]
    by_size = {}
    for i, m in enumerate(stacks):
        if len(m):
            by_size.setdefault(m.shape[-1], []).append(i)
    values = [[] for _ in stacks]
    for idx in by_size.values():
        found = iter(numerical_radius(np.concatenate([stacks[i] for i in idx])))
        for i in idx:
            values[i] = [next(found).value for _ in range(len(stacks[i]))]
    return [v if np.ndim(m) == 3 else v[0] for m, v in zip(mats, values)]


def _quiet():
    """No overflow warnings at the staging boundary (`_stage`): every
    formula of a staged evaluator runs under it, since a matrix or value
    that overflows raises NonFiniteError where it is read."""
    return np.errstate(over="ignore", invalid="ignore")


def _stage(gen):
    """(radius inputs, finish) of a started staged evaluator: finish(values)
    sends it the radii and returns one tuple of reports per member, in id
    order; with ``only``, the report at that id index of each member.  The
    evaluator and the report builders it returns run under `_quiet`."""
    with _quiet():
        inputs = next(gen)

    def finish(values, only=None):
        with _quiet():
            try:
                gen.send(tuple(values))
            except StopIteration as done:
                cols = [c() if callable(c) else c for c in (
                    done.value if only is None else done.value[only:only + 1])]
                return list(zip(*cols)) if only is None else cols[0]
        raise RuntimeError("a staged evaluator yields once")

    return inputs, finish


# the checks that reject a non-finite matrix: the finiteness rule, and
# the radius's check that no entry's modulus overflows
_MATRIX_CHECKS = (_require_finite.__code__, numerical_radius.__code__)


def _alone(evaluator, operands, only=None, **params):
    """A staged evaluator's reports on its matrices ``operands`` (named A,
    B, X in order), each a matrix or a (k, m, n) stack of trials, and the
    grid keys ``params``, each one value or a list of k: per member, one
    tuple of reports in id order, or with ``only`` the report at that id
    index; of matrices, a stack of one, the one member's.

    The operands are checked here (`_operands`), before any parameter,
    so a matrix check (`_MATRIX_CHECKS`) that fails later has met a
    matrix that overflowed while a formula formed it, and the error says
    so rather than naming the slot of the function that met it.  Any
    other NonFiniteError, a report side or a Kantorovich constant out of
    the float range, keeps its own message."""
    # C order, as campaigns stack their draws: the layout picks the matmul
    # kernel, and kernels differ in the last bit
    stacks = [np.ascontiguousarray(m) for m in _operands(*operands)]
    try:
        inputs, finish = _stage(evaluator(*stacks, **params))
        reports = finish(radius_values(inputs), only)
    except NonFiniteError as exc:
        if inspect.trace(0)[-1].frame.f_code not in _MATRIX_CHECKS:
            raise
        raise NonFiniteError(
            "a matrix formed from the operands overflowed to non-finite entries") from exc
    return reports[0] if np.ndim(operands[0]) == 2 else reports


def _finite_square(m) -> np.ndarray:
    """The stack m with zeros for each member that `numerical_radius`
    would reject (all of them when m is not square)."""
    if m.shape[-2] != m.shape[-1]:
        return np.zeros((len(m),) + (m.shape[-1],) * 2)
    ok = np.isfinite(m).all(axis=(-2, -1))
    return m if ok.all() else np.where(ok[:, None, None], m, 0.0)


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
    return _alone(_classics, (a, b, x), p=p)


def _classics(a, b, x, p=1.0):
    """Staged B01-B05: w(A) serves B01 and B02, w(B*A) B03 and B04, w(AB*)
    B04 and w(A*XB) B05.  The five read different operands, so each id's
    reports are built when read, and a radius input that
    `numerical_radius` would reject (A not square, an overflow) is staged
    as zeros and raises in the reports that read it: a single bound runs
    no sibling's formula.  Matrices that overflow are formed without a
    warning, as every formula behind the staging boundary is (`_quiet`),
    and each raises NonFiniteError in its own report."""
    p = [_need_power(v) for v in _each(p, len(a))]
    ah, bh = _adj(a), _adj(b)
    ins = a, bh @ a, a @ bh, _target(a, b, x)
    ws = yield tuple(_finite_square(m) for m in ins)

    def w(i):  # the radii of ins[i], raising as `numerical_radius` would
        _radius_stack(ins[i])
        return ws[i]

    def b01():
        return [_report("B01", abs(w0 - 0.75 * n), 0.25 * n, {"norm": n, "omega": w0})
                for w0, n in zip(w(0), op_norm(a).tolist())]

    def b02():
        w0 = w(0)
        rhs = op_norm(ah @ a + a @ ah).tolist()
        return [_report("B02", v * v, 0.5 * r, {"omega": v}) for v, r in zip(w0, rhs)]

    def b03():
        w1 = w(1)
        rhs = op_norm(_sum_of(psd_pow, ah @ a, bh @ b, p)).tolist()
        return [_report("B03", _pow(v, e), 0.5 * r, {"p": e}) for v, r, e in zip(w1, rhs, p)]

    def b04():
        w1 = w(1)
        rhs = op_norm(_sum_of(psd_pow, a @ ah, b @ bh, p)).tolist()
        w2 = w(2)
        return [_report("B04", _pow(v, e), 0.25 * r + 0.5 * _pow(c, e), {"p": e, "omega_cross": c})
                for v, r, c, e in zip(w1, rhs, w2, p)]

    def b05():
        p_mat, q_mat = _mean_pq(a, b, x, "sqrt")
        rhs = op_norm(_sum_of(psd_pow, q_mat, p_mat, p)).tolist()
        return [_report("B05", _pow(v, e), 0.5 * r, {"p": e}) for r, v, e in zip(rhs, w(3), p)]

    return b01, b02, b03, b04, b05


# ---------------------------------------------------------------------------
# B06-B10: the operator-mean family built on P = B* f^2(|X|) B and
# Q = A* g^2(|X*|) A with a Kantorovich-weighted right side


def _squared(f, e=2):
    """t -> f(t)^e on eigenvalues."""
    return lambda t: np.asarray(f.fn(t)) ** e


def _count(m) -> int:
    """The members of a stack; a matrix is one."""
    return len(m) if np.ndim(m) == 3 else 1


def _pair_fns(pair, k) -> tuple[list, list]:
    """The f and the g of each of k members' pair, as two lists."""
    fg = [get_pair(v) for v in _each(pair, k)]
    return [f for f, _ in fg], [g for _, g in fg]


def _mean_pq(a, b, x, pair):
    """(P, Q) of matrices A, B, X, or of stacks with one pair per member."""
    f, g = _pair_fns(pair, _count(x))
    abs_x, abs_xs, _ = moduli(x)
    fx = apply_fn(abs_x, [_squared(v) for v in f])
    gxs = apply_fn(abs_xs, [_squared(v) for v in g])
    return _sym(_adj(b) @ fx @ b), _sym(_adj(a) @ gxs @ a)


def _target(a, b, x):
    """A*XB, whose radius B05-B10, B14 and B18-B21 read."""
    return _adj(a) @ x @ b


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
    return _alone(_mean_h, (a, b, x), pair=pair, h=h, sigma=sigma)


def _gated(gate, params, ids, live_reports):
    """The reports per id, each built when read (`_by_id`): a member that
    failed the gate skips every id with its note; live_reports(i, j,
    bounds) gives the report builders of member j, the i-th live one,
    whose params then record the bounds (m, M, k)."""
    at = iter(range(len(gate)))

    def member(j):
        g = gate[j]
        if isinstance(g, str):
            return tuple(partial(_skipped, bid, params[j], g) for bid in ids)
        params[j].update(m=g.m, M=g.M, k=g.kantorovich)
        return live_reports(next(at), j, g)

    return _by_id(len(gate), member)


def _mean_h(a, b, x, pair="sqrt", h="inv", sigma="arith"):
    """Staged B06 and B06p; w(A*XB) of the members whose P and Q pass the
    gate."""
    k = len(a)
    pair, sigma = _each(pair, k), _each(sigma, k)
    hf = [_need_kind(v, "decreasing") for v in _each(h, k)]
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    sigma = [_mean_kind(v) for v in sigma]
    params = [{"pair": str(pr), "h": f.name, "sigma": str(sg), "nu": 0.5}
              for pr, f, sg in zip(pair, hf, sigma)]
    ep, eq, gate = _pd_gate(p_mat, q_mat, "P or Q")
    live = _live(gate)
    hl = _pick(hf, live)
    lhs = op_norm(mean(*_pair(_fn_of, ep.take(live), eq.take(live), hl),
                       _pick(sigma, live), 0.5)).tolist() if live else []
    w, = yield _target(a, b, x)[live],

    def reports(i, j, sb):
        c = sb.m * sb.kantorovich / sb.M
        return (lambda: _report("B06", lhs[i], c * hf[j](w[i]), params[j]),
                lambda: _report("B06p", lhs[i], hf[j](w[i]), params[j]))

    return _gated(gate, params, ("B06", "B06p"), reports)


def check_mean_h_weighted(a, b, x, pair="sqrt", h="inv", sigma="arith",
                          nu=0.5) -> BoundReport:
    """B07, the weighted variant on powered operators.

        || h(P^{1/(1-nu)}) sigma_nu h(Q^{1/nu}) ||
            <= (m k / M) h(w(A*XB)^2)

    where (m, M, k) come from the powered pair.  0 < nu < 1.
    """
    return _alone(_mean_h_weighted, (a, b, x), 0, pair=pair, h=h, sigma=sigma, nu=nu)


def _mean_h_weighted(a, b, x, pair="sqrt", h="inv", sigma="arith", nu=0.5):
    """Staged B07; w(A*XB) of the members whose powered pair passes the
    gate.  The powered pair is taken on the factorizations of P and Q."""
    k = len(a)
    pair, sigma = _each(pair, k), _each(sigma, k)
    hf = [_need_kind(v, "decreasing") for v in _each(h, k)]
    nu = [_need_weight(v) for v in _each(nu, k)]
    ep, eq = _pair(herm_eigen, *_mean_pq(a, b, x, pair))
    sigma = [_mean_kind(v) for v in sigma]
    params = [{"pair": str(pr), "h": f.name, "sigma": str(sg), "nu": v}
              for pr, f, sg, v in zip(pair, hf, sigma, nu)]
    epw, eqw, gate = _pd_gate(_on_spectrum(ep, [_power(1.0 / (1.0 - v)) for v in nu]),
                              _on_spectrum(eq, [_power(1.0 / v) for v in nu]), "powered pair")
    live = _live(gate)
    hl = _pick(hf, live)
    lhs = op_norm(mean(*_pair(_fn_of, epw.take(live), eqw.take(live), hl),
                       _pick(sigma, live), _pick(nu, live))).tolist() if live else []
    w, = yield _target(a, b, x)[live],

    def reports(i, j, sb):
        return lambda: _report("B07", lhs[i], (sb.m * sb.kantorovich / sb.M) * hf[j](w[i] * w[i]),
                               params[j]),

    return _gated(gate, params, ("B07",), reports)


def check_omega_harmonic(a, b, x, pair="sqrt", h="pow:1", p: float = 1.0):
    """B08-B10: radius bounded by Kantorovich-weighted combinations of P, Q.

        B08:  w(A*XB)      <= (m k / M)  || P ! Q ||      (! at weight 1/2)
        B09:  h(w(A*XB))   <= (m k / 2M) || h(P) + h(Q) ||  (h increasing convex)
        B10:  w(A*XB)^p    <= (m k / 2M) || P^p + Q^p ||    (p >= 1)
    """
    return _alone(_omega_harmonic, (a, b, x), pair=pair, h=h, p=p)


def _omega_harmonic(a, b, x, pair="sqrt", h="pow:1", p: float = 1.0):
    """Staged B08-B10; w(A*XB) of the members whose P and Q pass the gate.
    The gate's factorizations of P and Q serve every formula."""
    k = len(a)
    pair = _each(pair, k)
    hf = [_need_kind(v, "increasing") for v in _each(h, k)]
    p = [_need_power(v) for v in _each(p, k)]
    p_mat, q_mat = _mean_pq(a, b, x, pair)
    params = [{"pair": str(pr), "h": f.name, "p": e} for pr, f, e in zip(pair, hf, p)]
    ep, eq, gate = _pd_gate(p_mat, q_mat, "P or Q")
    live = _live(gate)
    w, = yield _target(a, b, x)[live],
    if live:
        ep, eq = ep.take(live), eq.take(live)
        hl, pl = _pick(hf, live), _pick(p, live)
        n08, n09, n10 = _norms(mean(ep, eq, "harm", 0.5), _sum_of(_fn_of, ep, eq, hl),
                               _sum_of(psd_pow, ep, eq, pl))

    def reports(i, j, sb):
        c = sb.m * sb.kantorovich / sb.M
        return (lambda: _report("B08", w[i], c * n08[i], params[j]),
                lambda: _report("B09", hf[j](w[i]), 0.5 * c * n09[i], params[j]),
                lambda: _report("B10", _pow(w[i], p[j]), 0.5 * c * n10[i], params[j]))

    return _gated(gate, params, ("B08", "B09", "B10"), reports)


# ---------------------------------------------------------------------------
# B11-B15: product, Aluthge-type, and block bounds


def check_mox(a, b, h="pow:1", p: float = 1.0):
    """B11 and B12, convex splittings of w(A*B).

        B11: h(w(A*B))  <= h(||A|| ||B||)/2 + h(w(BA*))/2
        B12: w(A*B)^p   <= (||A|| ||B||)^p / 2 + w(BA*)^p / 2
    """
    return _alone(_mox, (a, b), h=h, p=p)


def _mox(a, b, h="pow:1", p: float = 1.0):
    """Staged B11 and B12: w(A*B) and w(BA*)."""
    k = len(a)
    hf = [_need_kind(v, "increasing") for v in _each(h, k)]
    p = [_need_power(v) for v in _each(p, k)]
    w, w_rev = yield _adj(a) @ b, b @ _adj(a)
    na, nb = _pair(op_norm, a, b)
    prod = (na * nb).tolist()

    def member(j):
        f, e, v, r = hf[j], p[j], w[j], w_rev[j]
        return (lambda: _report("B11", f(v), 0.5 * f(prod[j]) + 0.5 * f(r),
                                {"h": f.name, "omega_rev": r}),
                lambda: _report("B12", _pow(v, e), 0.5 * _pow(prod[j], e) + 0.5 * _pow(r, e),
                                {"p": e, "omega_rev": r}))

    return _by_id(k, member)


def _aluthge_parts(a, pair):
    """(|A|, the f and the g of each member's pair, At) of a stack A."""
    f, g = _pair_fns(pair, _count(a))
    abs_a, _, u = moduli(a)
    return abs_a, f, g, eval_fn(f, abs_a) @ u @ eval_fn(g, abs_a)


def aluthge_transform(a, pair="sqrt") -> np.ndarray:
    """Pair-generalized Aluthge transform f(|A|) U g(|A|), A = U |A|.

    The classic transform |A|^{1/2} U |A|^{1/2} is the "sqrt" pair;
    "pow:nu" gives |A|^{1-nu} U |A|^nu.
    """
    return _aluthge_parts(a, pair)[3]


def check_aluthge(a, pair="sqrt", h="pow:1", p: float = 1.0):
    """B13 and B15 via the pair-generalized Aluthge transform.

    With A = U|A| and At = f(|A|) U g(|A|):

        B13: w(A)^p   <= ||f(|A|)||^p ||g(|A|)||^p / 2 + w(At)^p / 2
        B15: h(w(A))  <= || h(f^2(|A|)) + h(g^2(|A|)) || / 4 + h(w(At)) / 2
    """
    return _alone(_aluthge, (a,), pair=pair, h=h, p=p)


def _aluthge(a, pair="sqrt", h="pow:1", p: float = 1.0):
    """Staged B13 and B15: w(A) and w(At), with |A| factorized once.  f,
    g and h increase and vanish at 0, so the norms of f(|A|), g(|A|) and
    h(f^2(|A|)) + h(g^2(|A|)) are those functions of ||A||, the top
    singular value."""
    k = len(a)
    pair = _each(pair, k)
    hf = [_need_kind(v, "increasing") for v in _each(h, k)]
    p = [_need_power(v) for v in _each(p, k)]
    a = _radius_stack(a)[0]
    abs_a, fs, gs, at = _aluthge_parts(a, pair)
    w, wt = yield a, at
    top = abs_a.eigenvalues.max(axis=-1, initial=0.0).tolist()

    def member(j):
        f, e, v, t = hf[j], p[j], w[j], wt[j]
        nf, ng = fs[j](top[j]), gs[j](top[j])
        params = {"pair": str(pair[j]), "h": f.name, "p": e, "omega_transform": t}
        return (lambda: _report("B13", _pow(v, e), 0.5 * _pow(nf, e) * _pow(ng, e)
                                + 0.5 * _pow(t, e), params),
                lambda: _report("B15", f(v), 0.25 * (f(nf * nf) + f(ng * ng)) + 0.5 * f(t),
                                params))

    return _by_id(k, member)


def check_block(a, b, x) -> BoundReport:
    """B14: w(A*XB) <= ||AA*X + XBB*|| / 4 + max(w(XBA*), w(BA*X)) / 2."""
    return _alone(_block, (a, b, x), 0)


def _block(a, b, x):
    """Staged B14: w(A*XB), w(XBA*) and w(BA*X)."""
    w, w1, w2 = yield _target(a, b, x), x @ b @ _adj(a), b @ _adj(a) @ x
    t1 = (0.25 * op_norm(a @ _adj(a) @ x + x @ b @ _adj(b))).tolist()
    return [_report("B14", v, t + 0.5 * max(u1, u2), {"omega_xba": u1, "omega_bax": u2})
            for v, t, u1, u2 in zip(w, t1, w1, w2)],


def check_symmetrized(a, b, x):
    """B16a, B16b, B17: bounds on the symmetrized product w(A*XB + B*XA).

        B16a: w(A*XB + B*XA) <= ((||A||^2 + ||B||^2)/2 + ||AB*||) w(X)
        B16b: w(A*XB + B*XA) <= (||A|| ||B|| + ||AB*||) w(X)
        B17 : w(A*XB + B*XA) <= 2 ||A|| ||B|| w(X)

    B16b is the sharpest of the three: its coefficient never exceeds
    B16a's (arithmetic-geometric mean) nor B17's (since ||AB*|| <=
    ||A|| ||B||).  B17's report carries the margin over B16b.
    """
    return _alone(_symmetrized, (a, b, x))


def _symmetrized(a, b, x):
    """Staged B16a, B16b and B17: w(A*XB + B*XA) and w(X)."""
    w, wx = yield _target(a, b, x) + _target(b, a, x), x
    na, nb, cross = _norms(a, b, a @ _adj(b))

    def member(j):
        r_a = (0.5 * (na[j] * na[j] + nb[j] * nb[j]) + cross[j]) * wx[j]
        r_b = (na[j] * nb[j] + cross[j]) * wx[j]
        r_17 = 2.0 * na[j] * nb[j] * wx[j]
        return (lambda: _report("B16a", w[j], r_a, {"omega_x": wx[j]}),
                lambda: _report("B16b", w[j], r_b, {"omega_x": wx[j]}),
                lambda: _report("B17", w[j], r_17,
                                {"omega_x": wx[j], "refinement_margin": r_17 - r_b}))

    return _by_id(len(w), member)


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
    return _alone(_alpha, (a, b, x), pair=pair, h=h, nu=nu)


def _mix(c1, c2, x, y):
    """c1 X + c2 Y of each member, c1 and c2 from `_weights`."""
    return c1 * x + c2 * y


def _alpha(a, b, x, pair="sqrt", h="pow:1", nu=0.5):
    """Staged B18-B21: w(A*XB)."""
    k = len(a)
    hf = [_need_kind(v, "increasing") for v in _each(h, k)]
    nu = [_need_weight(v) for v in _each(nu, k)]
    pair = _each(pair, k)
    fs, gs = _pair_fns(pair, k)
    e_a, e_as, _ = moduli(a)
    dev, comm_ok = (v.tolist() for v in _commutation(e_as, x))
    r = spectral_radius(x).tolist()
    w, = yield _target(a, b, x),
    one_minus = [1.0 - v for v in nu]
    # S1's base and T1, factorized once each; every function of S1, S2,
    # T1 and |A| below is taken on these and on |A|'s factorization
    e_s1, e_t1 = _pair(herm_eigen, _sym(_adj(b) @ apply_fn(e_as, [_squared(f) for f in fs]) @ b),
                       _sym(_adj(b) @ psd_pow(e_as, [2.0 * c for c in one_minus]) @ b))
    to_s1, rr = [_power(1.0 / c) for c in one_minus], [v * v for v in r]

    def mixed(e1, fn1, e2, fn2, c, idx):
        """(1-nu) h(c fn1(E1)) + nu h(c fn2(E2)) of the members at idx,
        from factorizations E1 and E2."""
        return _mix(_weights(_pick(one_minus, idx)), _weights(_pick(nu, idx)), *_pair(
            _fn_of, _on_spectrum(e1.take(idx), _pick(fn1, idx), _pick(c, idx)),
            _on_spectrum(e2.take(idx), _pick(fn2, idx), _pick(c, idx)), _pick(hf, idx)))

    to_s2 = [_squared(g, 2.0 / v) for g, v in zip(gs, nu)]
    r18 = op_norm(mixed(e_s1, to_s1, e_a, to_s2, rr, range(k))).tolist()
    n19 = iter(op_norm(mixed(e_s1, to_s1, e_a, to_s2, [1.0] * k,
                             [j for j in range(k) if r[j] <= 1.0 + 1e-12])).tolist())
    pe = [v.params[0] if v.name.startswith("pow:") else 1.0 for v in hf]
    r20, n21 = _norms(mixed(e_t1, to_s1, e_a, [_power(2.0)] * k, rr, range(k)),
                      _mix(_weights(one_minus), _weights(nu),
                           psd_pow(e_t1, [e / c for e, c in zip(pe, one_minus)]),
                           psd_pow(e_a, [2.0 * e for e in pe])))

    def member(j):
        f, rj, e, ok = hf[j], r[j], pe[j], comm_ok[j]
        base = {"pair": str(pair[j]), "h": f.name, "nu": nu[j], "r": rj,
                "commutation_defect": dev[j]}
        note = "" if ok else f"commutation defect {dev[j]:.3e} exceeds gate"
        lhs = partial(f, w[j] * w[j])
        r19 = rj * rj * next(n19) if rj <= 1.0 + 1e-12 else None
        skip19 = f"spectral radius {rj:.6g} exceeds 1" + ("; " + note if note else "")
        return (lambda: _report("B18", lhs(), r18[j], base, ok, note),
                lambda: (_skipped("B19", base, skip19) if r19 is None
                         else _report("B19", lhs(), r19, base, ok, note)),
                lambda: _report("B20", lhs(), r20[j], base, ok, note),
                lambda: _report("B21", _pow(w[j], 2.0 * e), _pow(rj, 2.0 * e) * n21[j],
                                {**base, "p": e}, ok, note))

    return _by_id(k, member)


# ---------------------------------------------------------------------------
# Lemma checks L01-L09


def _require(owner: str, needed: dict, given: dict) -> None:
    """InvalidSpecError naming the flag of each operand that ``owner``
    needs and ``given`` lacks; ``needed`` maps each flag to its keyword
    in ``given``."""
    missing = [flag for flag, kw in needed.items() if given.get(kw) is None]
    if missing:
        raise InvalidSpecError(f"{owner} requires operand(s) {', '.join(missing)}")


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
    _mean_spec(sigma, nu)
    _mean_spec(tau, nu)
    params = {"h": hf.name, "sigma": str(sigma), "tau": str(tau), "nu": nu}
    ea, eb, (sb,) = _pd_gate(a[None], b[None], "operands")
    if isinstance(sb, str):
        return LoewnerReport("L02", float("nan"), False, False,
                             "operands must be positive definite", params)
    k = sb.kantorovich
    params.update(m=sb.m, M=sb.M, k=k)
    ea, eb = (HermEigen(e.eigenvalues[0], e.eigenvectors[0]) for e in (ea, eb))

    def comp(t):
        return _sym(t if v is None else compress(t, v))

    # F(A) and F(B) are A and B, factorized by the gate, when v is omitted
    fa, fb = (ea, eb) if v is None else (comp(a), comp(b))
    lhs = mean(eval_fn(hf, fa), eval_fn(hf, fb), sigma, nu)
    rhs = k * eval_fn(hf, comp(mean(ea, eb, tau, nu)))
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
    ea = herm_eigen(a)
    ok, me = pd_test(ea)
    if not ok:
        return _skipped("L03", {"h": hf.name},
                        f"operand not positive definite (min eig {me:.3e})")
    lhs = op_norm(eval_fn(hf, psd_pow(ea, -1.0)))
    rhs = hf(1.0 / op_norm(a))
    return _report("L03", lhs, rhs, {"h": hf.name})


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

    1. scan: L04_GRID equispaced angles in one batched SVD; s* is the
       largest sigma_max seen;
    2. level-set iteration: the arcs between the angles at which
       gamma = s* is a singular value come from one eigenproblem
       (`_sup_level_set`, phi at the coarse minimum), and sigma_max at
       their midpoints, one batched SVD, raises s*.  This is the midpoint
       method of S. Boyd and V. Balakrishnan (Systems Control Lett. 15,
       1990), quadratically convergent, as E. Mengi and M. L. Overton
       (IMA J. Numer. Anal. 25, 2005) use it for w(A); it repeats while
       s* rises by more than the factor 1 + _L04_LEVEL;
    3. certificate: the same step at gamma = s* (1 + _L04_LEVEL).  If
       sigma_max exceeds gamma at none of the midpoints,
       s* / 2 <= sup <= gamma / 2; otherwise the iteration goes on from
       the larger value, so two peaks closer than the scan's step are
       both found.
    """
    if not a.size:
        return 0.0, 0.0, 0
    # the sup form is positively homogeneous; rescaling by a power of two
    # is exact, keeps best (1 + _L04_LEVEL) above best and the level-set
    # pencil out of the subnormal and overflow ranges
    e = int(np.frexp(np.abs(a.view(np.float64)).max())[1])
    a = np.ldexp(a.view(np.float64), -e).view(np.complex128)
    adj = a.conj().T

    def smax(thetas):
        stack = a + np.exp(1j * thetas)[:, None, None] * adj
        return np.linalg.svd(stack, compute_uv=False)[:, 0]

    grid = 2.0 * np.pi / L04_GRID * np.arange(L04_GRID)
    scan = smax(grid)
    best = gamma = float(scan.max())
    evals = L04_GRID
    if not best:  # sigma_max vanishes at two angles only when A = 0
        return 0.0, 0.0, evals
    phi = float(grid[np.argmin(scan)])
    while True:
        lo, hi = _sup_level_set(a, adj, phi, gamma)
        fmid = smax(0.5 * (lo + hi))
        evals += lo.size
        top = float(fmid.max(initial=0.0))
        if top > best * (1.0 + _L04_LEVEL):  # still climbing
            best = gamma = top
        elif gamma > best:  # no midpoint above the certificate level
            break
        else:  # converged: certify once
            best = max(best, top)
            gamma = best * (1.0 + _L04_LEVEL)
    with np.errstate(over="ignore"):  # a sup form above the largest float is inf
        return float(np.ldexp(0.5 * best, e)), float(np.ldexp(0.5 * gamma, e)), evals


def _l04(a) -> BoundReport:
    """w(A) equals sup over theta of ||A + e^{i theta} A*|| / 2
    (T. Yamazaki, Studia Math. 178, 2007).

    The sup form comes from `_sup_form` in three steps on singular values:
    a scan of L04_GRID angles, the level-set iteration of Boyd and
    Balakrishnan (Systems Control Lett. 15, 1990) as Mengi and Overton
    (IMA J. Numer. Anal. 25, 2005) use it for w(A), and its certificate.
    It shares no code with `numerical_radius`, so that each checks the
    other.  Both certify an interval, [w, upper] and [sup, sup_upper];
    the two must meet, and |w - sup| (lhs) must be within L04_TOL * upper
    (rhs).  Intervals that do not meet leave no room, rhs = 0.  The
    verdict is the uniform rule, lhs <= rhs + ATOL + RTOL * rhs, so below
    ||A|| ~ 10 its absolute floor ATOL, not L04_TOL * upper, sets the
    limit.  ``params["evaluations"]`` counts the sigma_max evaluations.
    A radius above the largest float gives a side that `_report` rejects.
    """
    r = numerical_radius(a)
    sup, sup_upper, evals = _sup_form(a)
    meet = sup <= r.upper and r.value <= sup_upper
    return _report("L04", abs(r.value - sup), L04_TOL * r.upper if meet else 0.0,
                   {"grid": L04_GRID, "sup_form": sup, "sup_upper": sup_upper,
                    "upper": r.upper, "evaluations": evals})


def _l05(a, b) -> BoundReport:
    """w(diag(A, B)) = max(w(A), w(B))."""
    direct = numerical_radius(
        np.block([
            [a, np.zeros((a.shape[0], b.shape[1]))],
            [np.zeros((b.shape[0], a.shape[1])), b],
        ])
    ).value
    byparts = max(radius_values([a, b]))
    return _report("L05", abs(direct - byparts), L05_TOL, {"block": direct})


def _l06(a1, b1, a2, b2) -> BoundReport:
    """Spectral radius of A1 B1 + A2 B2 against the 2x2 dominance bound.

        r(A1B1 + A2B2) <= (w(B1A1) + w(B2A2))/2
          + sqrt((w(B1A1) - w(B2A2))^2 + 4 ||B1A2|| ||B2A1||) / 2
    """
    w11, w22 = radius_values([b1 @ a1, b2 @ a2])
    disc = math.sqrt(_pow(w11 - w22, 2) + 4.0 * op_norm(b1 @ a2) * op_norm(b2 @ a1))
    lhs = spectral_radius(a1 @ b1 + a2 @ b2)
    return _report("L06", lhs, 0.5 * (w11 + w22) + 0.5 * disc, {})


def _l07(a1, b1, a2, b2, x, y) -> BoundReport:
    """2 ||A1 X A2* + B1 Y B2*|| against the norm of the mixed 2x2 block.

    The right side is the norm of
        [[A1*A1 X + X A2*A2,  A1*B1 Y + X A2*B2],
         [B1*A1 X + Y B2*A2,  B1*B1 Y + Y B2*B2]].
    """
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
    mods = moduli(a)
    dev, ok = _commutation(mods[0], b)
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
    lhs = op_norm(eval_fn(hf, _sym((1.0 - nu) * p + nu * q)))
    rhs = op_norm((1.0 - nu) * eval_fn(hf, _sym(p))
                  + nu * eval_fn(hf, _sym(q)))
    return _report("L09", lhs, rhs, {"h": hf.name, "nu": nu})


@dataclass(frozen=True)
class Lemma:
    """One auxiliary lemma, the description that ``check_lemma`` and
    ``numrad check`` both read.

    ``flags`` maps each operand's command-line flag to the handler
    keyword that receives it; a flag in ``optional`` may be omitted, and
    a flag in ``vectors`` names a unit vector on A's space rather than a
    matrix.  ``params`` are the handler's keyword parameters.
    """

    id: str
    handler: Callable
    flags: dict
    params: tuple = ()
    optional: tuple = ()
    vectors: tuple = ()


LEMMAS = {lem.id: lem for lem in (
    Lemma("L01", _l01, {"A": "a", "X": "x", "Y": "y"}, ("pair",), vectors=("X", "Y")),
    Lemma("L02", _l02, {"A": "a", "B": "b", "V": "v"},
          ("h", "sigma", "tau", "nu"), optional=("V",)),
    Lemma("L03", _l03, {"A": "a"}, ("h",)),
    Lemma("L04", _l04, {"A": "a"}),
    Lemma("L05", _l05, {"A": "a", "B": "b"}),
    Lemma("L06", _l06, {"A": "a1", "B": "b1", "A2": "a2", "B2": "b2"}),
    Lemma("L07", _l07, {"A": "a1", "B": "b1", "A2": "a2", "B2": "b2",
                        "X": "x", "Y": "y"}),
    Lemma("L08", _l08, {"A": "a", "B": "b", "X": "x", "Y": "y"}, ("pair",),
          vectors=("X", "Y")),
    Lemma("L09", _l09, {"A": "p", "B": "q"}, ("h", "nu")),
)}

LEMMA_IDS = tuple(LEMMAS)


def check_lemma(lemma_id: str, **inputs):
    """Evaluate one auxiliary lemma by ID; see each handler's docstring.

    Operands and parameters go in by handler keyword.  The operands are
    checked here, before any parameter, and each error names the operand's
    flag: a missing one raises InvalidSpecError, a matrix goes through
    `as_cmatrix` and a vector (``Lemma.vectors``) through `_unit_vec`, so
    a handler takes 2-D complex matrices and flat unit vectors.
    """
    try:
        lem = LEMMAS[lemma_id]
    except KeyError:
        raise UnknownBoundIdError(
            f"unknown lemma {lemma_id!r}; known: {', '.join(LEMMA_IDS)}"
        ) from None
    _require(lemma_id, {flag: kw for flag, kw in lem.flags.items()
                        if flag not in lem.optional}, inputs)
    for flag, kw in lem.flags.items():
        if inputs.get(kw) is not None:
            inputs[kw] = (_unit_vec(inputs[kw], len(inputs[lem.flags["A"]]), flag)
                          if flag in lem.vectors else as_cmatrix(inputs[kw], flag))
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
    is the family's staged evaluator.  It takes ``operands`` positionally,
    as stacks of trials, and each key of ``grids`` as a keyword, one value
    per trial; its signature holds the only default of each key, which
    `evaluate_bound` and ``numrad check`` use for a key not given.  It
    yields once the stacks whose radii it reads (classics: A, B*A, AB*, A*XB;
    block: A*XB, XBA*, BA*X; ...), and returns its reports, one list per
    id or a function that builds it when read.  Campaigns cycle each grid
    by trial index.  ``commuting_x`` marks a family whose hypothesis needs
    X to commute with |A*|.

    ``reads`` maps an id to the operands and grid keys its report depends
    on; an id without an entry reads all of them.  `required_operands` and
    `evaluate_bound` take what a single bound needs from it.
    """

    name: str
    ids: tuple
    operands: tuple
    evaluator: Callable
    grids: dict = field(default_factory=dict)
    commuting_x: bool = False
    reads: dict = field(default_factory=dict)

    def reads_of(self, bound_id: str) -> tuple:
        """The operands and grid keys that ``bound_id``'s report reads."""
        return self.reads.get(bound_id, self.operands + tuple(self.grids))


_ABX = ("a", "b", "x")

FAMILIES = (
    Family("classics", ("B01", "B02", "B03", "B04", "B05"), _ABX,
           _classics, {"p": P_GRID},
           reads={"B01": ("a",), "B02": ("a",),
                  "B03": ("a", "b", "p"), "B04": ("a", "b", "p")}),
    Family("mean_h", ("B06", "B06p"), _ABX, _mean_h,
           {"pair": PAIR_GRID, "h": H_DEC_GRID, "sigma": SIGMA_GRID}),
    Family("mean_h_weighted", ("B07",), _ABX, _mean_h_weighted,
           {"pair": PAIR_GRID, "h": H_DEC_GRID, "sigma": SIGMA_GRID,
            "nu": NU_GRID}),
    Family("omega_harmonic", ("B08", "B09", "B10"), _ABX, _omega_harmonic,
           {"pair": PAIR_GRID, "h": H_INC_GRID, "p": P_GRID},
           reads={"B08": (*_ABX, "pair"), "B09": (*_ABX, "pair", "h"),
                  "B10": (*_ABX, "pair", "p")}),
    Family("mox", ("B11", "B12"), ("a", "b"), _mox,
           {"h": H_INC_GRID, "p": P_GRID},
           reads={"B11": ("a", "b", "h"), "B12": ("a", "b", "p")}),
    Family("aluthge", ("B13", "B15"), ("a",), _aluthge,
           {"pair": PAIR_GRID, "h": H_INC_GRID, "p": P_GRID},
           reads={"B13": ("a", "pair", "p"), "B15": ("a", "pair", "h")}),
    Family("block", ("B14",), _ABX, _block),
    Family("symmetrized", ("B16a", "B16b", "B17"), _ABX, _symmetrized),
    Family("alpha", ("B18", "B19", "B20", "B21"), _ABX, _alpha,
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
    """Start evaluating a family on a stack of k trials: ``mats`` maps each
    operand name to a (k, m, n) stack, and each grid key in ``params`` to
    a list of k values, one per trial (or to one value for all).

    Returns (the stacks whose radii it reads, finish): finish(their
    values, one list per stack, in order) returns one tuple of reports
    per trial, each in ``family.ids`` order.
    """
    return _stage(family.evaluator(
        *_operands(*(mats[n] for n in family.operands)), **params))


def required_operands(bound_id: str) -> tuple[str, ...]:
    """Operand names ('a', 'b', 'x') that a bound reads, in its family's
    operand order (`Family.reads`)."""
    fam = family_of(bound_id)
    return tuple(n for n in fam.operands if n in fam.reads_of(bound_id))


def evaluate_bound(bound_id: str, *, a=None, b=None, x=None, p=None,
                   nu=None, pair=None, h=None, sigma=None):
    """Evaluate a single catalogued bound by ID, by running its family.

    The operands are matrices, giving one report, or (k, m, n) stacks of
    k trials, giving a list of k reports, member j's equal bit for bit to
    the call on trial j alone; a grid key is one value or a list of k.
    Operands and parameters the bound does not read (`Family.reads`) are
    ignored: B is replaced by zeros of A's shape and X by zeros on A's
    range, a grid key is left at the evaluator's default and dropped from
    the report's params, and only the bound's own report is built.  So no
    operand or key that only a sibling reads can change or fail the
    report, and in B01-B05, whose ids read different operands, neither
    can a sibling's formula.  Missing required operands raise
    InvalidSpecError.  A grid key left None takes the family evaluator's
    default.
    """
    fam = family_of(bound_id)
    reads, need = fam.reads_of(bound_id), required_operands(bound_id)
    got = {"a": a, "b": b, "x": x}
    _require(bound_id, {n.upper(): n for n in need}, got)
    shape = np.shape(a)
    mats = {n: got[n] if n in need else np.zeros(
        shape[:-1] + shape[-2:-1] if n == "x" else shape) for n in fam.operands}
    given = {"p": p, "nu": nu, "pair": pair, "h": h, "sigma": sigma}
    params = {k: given[k] for k in fam.grids if k in reads and given[k] is not None}
    reps = _alone(fam.evaluator, [mats[n] for n in fam.operands],
                  fam.ids.index(bound_id), **params)

    def own(rep):
        return replace(rep, params={k: v for k, v in rep.params.items()
                                    if k in reads or k not in fam.grids})

    return [own(r) for r in reps] if isinstance(reps, list) else own(reps)


def compatible_signatures(bound_a: str, bound_b: str) -> None:
    """Raise IncompatibleBoundsError unless both consume the same operands."""
    if required_operands(bound_a) != required_operands(bound_b):
        raise IncompatibleBoundsError(
            f"{bound_a} takes {required_operands(bound_a)}, "
            f"{bound_b} takes {required_operands(bound_b)}"
        )
