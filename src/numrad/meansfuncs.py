"""Operator means, scalar function registry, and spectrum utilities.

Two closed families of scalar functions drive the inequality catalog:

* operator-monotone *decreasing* functions on (0, inf):
  ``inv`` (1/t), ``inv_pow:s`` (t^-s, 0 < s <= 1), ``shifted_inv:c``
  (1/(t+c), c > 0);
* *increasing convex* functions on [0, inf) with h(0) = 0:
  ``pow:p`` (t^p, p >= 1) and ``expm1`` (e^t - 1).

Pairs (f, g) with f(t) g(t) = t for the Cauchy-Schwarz-type bounds:
``sqrt`` (f = g = sqrt) and ``pow:nu`` (f = t^(1-nu), g = t^nu).

The registry is closed: anything else raises InvalidSpecError, so
campaign configurations stay reproducible across versions.

`eval_fn`, `psd_pow`, `pd_test`, `mean` and `spectrum_bounds` also take
a (k, n, n) stack (or its HermEigen), as `matrixcore.apply_fn` does, with
one function, exponent, mean or weight per member when given as a list.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    HypothesisViolatedError,
    InvalidSpecError,
    NonFiniteError,
    NotIsometryError,
    NotPositiveDefiniteError,
)
from .matrixcore import (
    HermEigen,
    _as_stack,
    _each,
    _fn_values,
    _pair,
    _pd_ok,
    _pick,
    _weights,
    apply_fn,
    as_cmatrix,
    herm_eigen,
    op_norm,
)

__all__ = [
    "ScalarFn",
    "get_fn",
    "get_pair",
    "eval_fn",
    "psd_pow",
    "mean",
    "kantorovich",
    "SpectrumBounds",
    "spectrum_bounds",
    "compress",
    "pd_test",
    "require_pd",
]

ISO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ScalarFn:
    """A registered scalar function together with its calculus metadata.

    ``kind`` is "decreasing" (operator monotone decreasing) or
    "increasing" (increasing convex, h(0) = 0); every function acts on
    [0, inf), the domain of `matrixcore.apply_fn`.  ``strict_lo`` marks a
    pole at 0, in which case a matrix argument must be positive definite.
    A call on scalars or arrays obeys the finiteness rule of `apply_fn`.
    """

    name: str
    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    strict_lo: bool = False
    params: tuple[float, ...] = field(default=())

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = _fn_values(self.fn, arr, self.name)
        return float(out) if arr.ndim == 0 else out


def _fn_inv() -> ScalarFn:
    return ScalarFn("inv", "decreasing", lambda t: 1.0 / t, strict_lo=True)


def _fn_inv_pow(s: float) -> ScalarFn:
    if not 0.0 < s <= 1.0:
        raise InvalidSpecError(f"inv_pow exponent must lie in (0, 1], got {s}")
    return ScalarFn(f"inv_pow:{s:g}", "decreasing", lambda t, s=s: t ** (-s),
                    strict_lo=True, params=(s,))


def _fn_shifted_inv(c: float) -> ScalarFn:
    if not c > 0.0:
        raise InvalidSpecError(f"shifted_inv offset must be positive, got {c}")
    return ScalarFn(f"shifted_inv:{c:g}", "decreasing", lambda t, c=c: 1.0 / (t + c), params=(c,))


def _fn_pow(p: float) -> ScalarFn:
    if not p >= 1.0:
        raise InvalidSpecError(f"pow exponent must be >= 1, got {p}")
    return ScalarFn(f"pow:{p:g}", "increasing", lambda t, p=p: t ** p, params=(p,))


def _fn_expm1() -> ScalarFn:
    return ScalarFn("expm1", "increasing", np.expm1)


_BUILDERS = {
    "inv": (_fn_inv, 0),
    "inv_pow": (_fn_inv_pow, 1),
    "shifted_inv": (_fn_shifted_inv, 1),
    "pow": (_fn_pow, 1),
    "expm1": (_fn_expm1, 0),
}


def _parse_spec(spec: str) -> tuple[str, list[float]]:
    parts = spec.split(":")
    head, rest = parts[0], parts[1:]
    try:
        args = [float(p) for p in rest]
    except ValueError as exc:
        raise InvalidSpecError(f"bad parameter in {spec!r}") from exc
    return head, args


def get_fn(spec) -> ScalarFn:
    """Resolve a scalar function from its registry string.

    Accepts "inv", "inv_pow:s", "shifted_inv:c", "pow:p", "expm1", or an
    existing ScalarFn (returned as-is).
    """
    if isinstance(spec, ScalarFn):
        return spec
    head, args = _parse_spec(str(spec))
    if head not in _BUILDERS:
        raise InvalidSpecError(
            f"unknown scalar function {head!r}; known: {sorted(_BUILDERS)}"
        )
    builder, arity = _BUILDERS[head]
    if len(args) != arity:
        raise InvalidSpecError(
            f"{head} takes {arity} parameter(s), got {len(args)}"
        )
    return builder(*args)


def get_pair(spec) -> tuple[ScalarFn, ScalarFn]:
    """Resolve a Schwarz pair (f, g) with f(t) g(t) = t.

    "sqrt" gives f = g = sqrt(t); "pow:nu" with 0 < nu < 1 gives
    f = t^(1-nu), g = t^nu.
    """
    head, args = _parse_spec(str(spec))
    if head == "sqrt":
        if args:
            raise InvalidSpecError("sqrt pair takes no parameters")
        return ScalarFn("sqrt.f", "pair", np.sqrt), ScalarFn("sqrt.g", "pair", np.sqrt)
    if head == "pow":
        if len(args) != 1:
            raise InvalidSpecError("pow pair takes exactly one parameter")
        nu = args[0]
        if not 0.0 < nu < 1.0:
            raise InvalidSpecError(f"pair exponent must lie in (0, 1), got {nu}")
        return (ScalarFn(f"pow_pair.f:{nu:g}", "pair", lambda t, e=1.0 - nu: t ** e,
                         params=(1.0 - nu,)),
                ScalarFn(f"pow_pair.g:{nu:g}", "pair", lambda t, e=nu: t ** e, params=(nu,)))
    raise InvalidSpecError(f"unknown pair {spec!r}; known: sqrt, pow:nu")


def _mapped(v, fn):
    """fn of each entry of a list of per-member values, or of one shared
    value."""
    return [fn(x) for x in v] if isinstance(v, list) else fn(v)


def eval_fn(spec, h) -> np.ndarray:
    """Apply a registered scalar function to a Hermitian matrix or its
    HermEigen, or to each member of a stack (``spec`` may then list one
    function per member).

    `matrixcore.apply_fn` with the function's own name, and a pole when
    ``strict_lo`` is set: inv-type functions then raise
    NotPositiveDefiniteError unless the argument is positive definite.
    """
    f = _mapped(spec, get_fn)
    return apply_fn(h, _mapped(f, lambda g: g.fn), _mapped(f, lambda g: g.name),
                    _mapped(f, lambda g: g.strict_lo))


def pd_test(p):
    """(whether P is positive definite, its smallest eigenvalue).

    P is a Hermitian matrix or its HermEigen.  The rule is
    `matrixcore._pd_ok`: min eig > 1e-10 * max |eig|.  An empty matrix is
    not positive definite; its smallest eigenvalue reads 0.  Of a stack,
    the two are lists with one entry per member.
    """
    w = herm_eigen(p).eigenvalues
    low = w[..., 0].tolist() if w.shape[-1] else [0.0] * len(w) if w.ndim > 1 else 0.0
    return _pd_ok(w), low


def _power(s):
    return lambda t: t ** s


def psd_pow(p, s) -> np.ndarray:
    """Power P^s of a positive-semidefinite matrix or its HermEigen, or
    of each member of a stack (``s`` may then list one exponent per
    member).

    `matrixcore.apply_fn` of t^s on [0, inf): round-off eigenvalues just
    below zero are clamped to zero, and a negative exponent is a pole, so
    P must then be positive definite.
    """
    return apply_fn(p, _mapped(s, _power), _mapped(s, "pow:{:g}".format),
                    _mapped(s, lambda e: e < 0))


def require_pd(p, name: str = "P"):
    """Return P (a Hermitian matrix or its HermEigen, or a stack) if it is
    positive definite by `pd_test` (each member of a stack), else raise
    NotPositiveDefiniteError."""
    ok, min_eig = pd_test(p)
    if not isinstance(ok, list):
        ok, min_eig = [ok], [min_eig]
    for good, low in zip(ok, min_eig):
        if not good:
            raise NotPositiveDefiniteError(
                f"{name} is not positive definite (min eigenvalue {low:.6g})"
            )
    return p


# the names of the three operator means of `mean`
_MEANS = ("arith", "geom", "harm")


def mean(a, b, kind="arith", nu: float = 0.5) -> np.ndarray:
    """Weighted operator mean of two positive definite matrices.

    kind="arith": (1-nu) A + nu B
    kind="harm" : ((1-nu) A^-1 + nu B^-1)^-1
    kind="geom" : A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2)

    kind is one of these three names and nu must lie in [0, 1]
    (`_mean_spec`), else InvalidSpecError.  The harmonic and geometric
    means require both operands positive definite; the arithmetic mean
    accepts any Hermitian pair.  A HermEigen stands for the matrix it
    factorizes and is not factorized again.  A and B may be (k, n, n)
    stacks, with ``kind`` and ``nu`` lists of one value per member; each
    step is one stacked call on the members that take it.
    """
    kinds, nu = _mean_spec(kind, nu)
    (a, a_flat), (b, b_flat) = _mean_operand(a, "A"), _mean_operand(b, "B")
    if _shape(a) != _shape(b) or a_flat != b_flat:
        raise InvalidSpecError(
            f"mean operands differ in shape: {_shape(a)} vs {_shape(b)}")
    k = _shape(a)[0]
    kinds, nu = _each(kinds, k), _each(nu, k)
    arith = [j for j in range(k) if kinds[j] == "arith"]
    pd = [j for j in range(k) if kinds[j] != "arith"]
    parts = []
    if arith:
        parts.append((arith, _arith(_take(a, arith), _take(b, arith), _pick(nu, arith))))
    if pd:
        ea = require_pd(herm_eigen(_take(a, pd)), "A")
        eb = require_pd(herm_eigen(_take(b, pd)), "B")
        parts.append((pd, _pd_means(ea, eb, _take(b, pd), _pick(kinds, pd), _pick(nu, pd))))
    if len(parts) == 1:
        out = parts[0][1]
    else:
        out = np.empty(_shape(a), np.complex128)
        for idx, part in parts:
            out[idx] = part
    return out[0] if a_flat else out


def _mean_kind(kind) -> str:
    """``kind`` if it is the name of a mean (`_MEANS`), else
    InvalidSpecError."""
    if not isinstance(kind, str) or kind not in _MEANS:
        raise InvalidSpecError(f"unknown mean {kind!r}; known: {', '.join(_MEANS)}")
    return kind


def _mean_spec(kind, nu):
    """(kind, nu) of `mean`, each one value or a list of one per member,
    checked: each kind a mean's name (`_mean_kind`), then each weight in
    [0, 1]; else InvalidSpecError."""
    kinds = _mapped(kind, _mean_kind)
    for w in nu if isinstance(nu, list) else [nu]:
        if not 0.0 <= w <= 1.0:
            raise InvalidSpecError(f"mean weight must lie in [0, 1], got {w}")
    return kinds, nu


def _mean_operand(m, name):
    """(a mean operand as a stack or a stacked HermEigen, whether it was
    one matrix)."""
    if isinstance(m, HermEigen):
        flat = m.eigenvalues.ndim == 1
        return (HermEigen(m.eigenvalues[None], m.eigenvectors[None])
                if flat else m), flat
    return _as_stack(m, name)


def _shape(m):
    return m.eigenvectors.shape if isinstance(m, HermEigen) else m.shape


def _take(m, idx):
    return m.take(idx) if isinstance(m, HermEigen) else m[idx] if len(idx) < len(m) else m


def _arith(a, b, nu):
    a, b = (m.compose() if isinstance(m, HermEigen) else m for m in (a, b))
    return (1.0 - _weights(nu)) * a + _weights(nu) * b


def _pd_means(ea, eb, b, kinds, nu):
    """The harmonic or geometric mean of each member (``kinds``), from
    eA and eB of positive definite A and B.  Each mean is a power of one
    matrix: ((1-nu) A^-1 + nu B^-1)^-1, or (A^(-1/2) B A^(-1/2))^nu inside
    A^(1/2) . A^(1/2); the powers of all members are one stacked call."""
    harm = [i for i, kd in enumerate(kinds) if kd == "harm"]
    geom = [i for i, kd in enumerate(kinds) if kd == "geom"]
    inner, power = [], []
    if harm:
        inv_a, inv_b = _pair(psd_pow, ea.take(harm), eb.take(harm), -1.0)
        w = _weights(_pick(nu, harm))
        inner.append((1.0 - w) * inv_a + w * inv_b)
        power += [-1.0] * len(harm)
    if geom:
        eg, g = ea.take(geom), len(geom)
        a_half, a_negh = _pair(psd_pow, eg, eg, [0.5] * g + [-0.5] * g)
        bg = _take(b, geom)
        if isinstance(bg, HermEigen):
            bg = bg.compose()
        inner.append(a_negh @ bg @ a_negh)
        # the exponents stay Python floats: t ** 0.5 takes numpy's sqrt
        # path, t ** np.float64(0.5) does not, and the two differ in the
        # last bit
        power += _pick(nu, geom)
    powered = psd_pow(inner[0] if len(inner) == 1 else np.concatenate(inner), power)
    if not geom:
        return powered
    h = len(harm)
    geo = a_half @ powered[h:] @ a_half
    if not harm:
        return geo
    out = np.empty(powered.shape, np.complex128)
    out[harm], out[geom] = powered[:h], geo
    return out


def kantorovich(m: float, big_m: float) -> float:
    """Kantorovich constant (M + m)^2 / (4 m M) for 0 < m <= M; where the
    constant leaves the float range, NonFiniteError.

    Where 4 m M is below the least normal float, or the constant computed
    on m and M as given is not finite, it is computed on m and M scaled
    by 2^-e, M = 2^e f with 1/2 <= f < 1: it is scale invariant and the
    scaling is exact, so a subnormal product costs no digits (the scaled
    4 m M stays normal unless the constant exceeds 1 / (4 least normal) =
    1.1e307) and (M + m)^2 overflows no more (m = M = 1e160 gives 1).
    Elsewhere m and M are used as given, so in-range values are unchanged
    by this rule."""
    m = float(m)
    big_m = float(big_m)
    if not (0.0 < m <= big_m):
        raise InvalidSpecError(
            f"need 0 < m <= M, got m={m:g}, M={big_m:g}"
        )
    e = math.frexp(big_m)[1]
    scaled = (math.ldexp(m, -e), math.ldexp(big_m, -e))
    for lo, hi in ((m, big_m), scaled) if 4.0 * m * big_m >= sys.float_info.min else (scaled,):
        try:
            k = (hi + lo) ** 2 / (4.0 * lo * hi)
        except (OverflowError, ZeroDivisionError):  # ** overflows and / by 0 raise
            continue
        if math.isfinite(k):
            return k
    raise NonFiniteError(f"the Kantorovich constant of m={m:g}, M={big_m:g} leaves the float range")


@dataclass(frozen=True)
class SpectrumBounds:
    """Tight two-sided spectral bounds m I <= X <= M I over a family."""

    m: float
    M: float

    @property
    def kantorovich(self) -> float:
        return kantorovich(self.m, self.M)


def spectrum_bounds(mats):
    """Joint spectral bounds of a list of Hermitian matrices or their
    HermEigens, or of a list of (k, n, n) stacks or stacked HermEigens.

    Of matrices, the smallest eigenvalue across the family as ``m`` and
    the largest as ``M``: the tightest constants with m I <= X <= M I for
    every member X.  Of stacks, the list of k SpectrumBounds, member j's
    over the j-th members of the stacks.  A list that mixes matrices and
    stacks raises InvalidSpecError.
    """
    lows, highs, ranks = [], [], set()
    for x in mats:
        w = herm_eigen(x).eigenvalues
        ranks.add(w.ndim)
        if w.shape[-1]:
            lows.append(w[..., 0].tolist())
            highs.append(w[..., -1].tolist())
    if len(ranks) > 1:
        raise InvalidSpecError("spectrum_bounds takes matrices or stacks, not both")
    if not lows:
        raise HypothesisViolatedError("spectrum_bounds of an empty family")
    if not isinstance(lows[0], list):
        return SpectrumBounds(min(lows), max(highs))
    return [SpectrumBounds(min(lo), max(hi)) for lo, hi in zip(zip(*lows), zip(*highs))]


def compress(a, v) -> np.ndarray:
    """Compression V* A V by an isometry V (columns orthonormal).

    Raises NotIsometryError when ||V*V - I|| exceeds 1e-10 * k.
    """
    a = as_cmatrix(a, "A")
    v = as_cmatrix(v, "V")
    if v.shape[0] != a.shape[0] or a.shape[0] != a.shape[1]:
        raise NotIsometryError(
            f"A {a.shape} and V {v.shape} are not conformable"
        )
    k = v.shape[1]
    dev = op_norm(v.conj().T @ v - np.eye(k))
    if dev > ISO_TOL * max(1, k):
        raise NotIsometryError(f"V*V deviates from identity by {dev:.3e}")
    return v.conj().T @ a @ v
