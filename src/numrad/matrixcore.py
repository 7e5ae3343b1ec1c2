"""Dense complex matrix primitives used by everything else.

All functions accept anything ``np.asarray`` can turn into a 2-D complex
array and validate shape/finiteness up front, so downstream code never has
to re-check.  Matrices are plain ``complex128`` ndarrays; structured results
(eigen and polar factorizations) come back as small frozen dataclasses.

Conventions:

* the adjoint is written ``A*`` in docstrings and computed by `adjoint`,
* Hermitian eigenvalues are returned in ascending order,
* ``|A|`` always means the positive-semidefinite factor ``(A* A)^(1/2)``;
  `moduli` factorizes |A| and |A*| from one SVD, and `abs_op` and `polar`
  read it,
* every scalar function of a Hermitian matrix (powers, the registered
  functions of `meansfuncs`) is computed by `apply_fn`,
* wherever a Hermitian matrix is accepted, its `HermEigen` is accepted
  too and is not factorized again, so each operand is factorized once,
* `herm_eigen`, `general_eigenvalues`, `op_norm`, `moduli` and `apply_fn`
  also take a (k, n, n) stack and work on all k members with one stacked
  LAPACK call; member j's result equals the call on member j alone bit
  for bit (with one BLAS thread), so a 2-D input is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    NonFiniteError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotSquareError,
)

__all__ = [
    "HermEigen",
    "PolarParts",
    "as_cmatrix",
    "adjoint",
    "herm_eigen",
    "general_eigenvalues",
    "op_norm",
    "abs_op",
    "polar",
    "moduli",
    "apply_fn",
]

# Relative tolerance for "is this Hermitian / inside the domain / positive
# definite" decisions.
HERM_TOL = 1e-10
DOMAIN_TOL = 1e-10
PD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class HermEigen:
    """Spectral factorization H = V diag(w) V* of a Hermitian matrix, or
    of each member of a stack (then ``eigenvalues`` is (k, n) and
    ``eigenvectors`` (k, n, n)).

    ``eigenvalues`` is real and ascending; the columns of ``eigenvectors``
    form an orthonormal basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def compose(self, values: np.ndarray | None = None) -> np.ndarray:
        """Rebuild V diag(values) V*; defaults to the original eigenvalues."""
        w = self.eigenvalues if values is None else np.asarray(values)
        v = self.eigenvectors
        return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)

    def take(self, idx) -> HermEigen:
        """The factorizations of the members at the sorted indices ``idx``
        of a stack."""
        if len(idx) == len(self.eigenvalues):
            return self
        return HermEigen(self.eigenvalues[idx], self.eigenvectors[idx])


@dataclass(frozen=True, eq=False)
class PolarParts:
    """Polar decomposition A = unitary @ positive of a square matrix."""

    unitary: np.ndarray
    positive: np.ndarray


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array.

    Raises DimensionMismatchError for wrong rank and NonFiniteError (a
    ValueError) for NaN/inf entries.  Lists of lists, real arrays and
    complex arrays are all accepted; the result is always a fresh
    C-ordered complex copy.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be 2-D, got ndim={arr.ndim}"
        )
    _require_finite(arr, name)
    return np.array(arr, order="C")


def _as_stack(a, name: str) -> tuple[np.ndarray, bool]:
    """(``a`` as a finite complex (k, m, n) stack, whether it was one 2-D
    matrix): the stack form of `as_cmatrix`, which does not copy."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in (2, 3):
        raise DimensionMismatchError(
            f"{name} must be 2-D or a stack of 2-D matrices, got ndim={arr.ndim}")
    _require_finite(arr, name)
    return (arr[None] if arr.ndim == 2 else arr), arr.ndim == 2


def _require_finite(arr: np.ndarray, name: str) -> None:
    if arr.size and not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[-2] != a.shape[-1]:
        raise NotSquareError(f"{name} must be square, got shape {a.shape[-2:]}")


def _each(v, k: int) -> list:
    """``v`` as one value per member of a stack of k: a list holds each
    member's own value; anything else is every member's."""
    if not isinstance(v, list):
        return [v] * k
    if len(v) != k:
        raise DimensionMismatchError(f"{len(v)} values for a stack of {k}")
    return v


def _pick(values: list, idx) -> list:
    """The per-member values of the members at ``idx``."""
    return [values[j] for j in idx]


def _weights(c) -> np.ndarray:
    """Per-member scalars as a (k, 1, 1) array, to scale a stack."""
    return np.array(c)[:, None, None]


def _members(m):
    """The (k, n, n) shape of a stack, or of a stacked HermEigen whose
    arrays are C-contiguous (from `herm_eigen`), else None.

    The factors of `moduli` are strided views, and their strides choose
    the matmul kernel of `HermEigen.compose` and the loop of a function
    of the eigenvalues, which differ in the last bit; so they are not
    joined into a contiguous copy."""
    if isinstance(m, HermEigen):
        w, v = m.eigenvalues, m.eigenvectors
        return v.shape if v.ndim == 3 and w.flags.c_contiguous and v.flags.c_contiguous else None
    shape = np.shape(m)
    return shape if len(shape) == 3 else None


def _pair(fn, x, y, *args):
    """(fn(x, *args), fn(y, *args)) for stacks x and y (arrays or stacked
    HermEigens), from one call of fn on the two joined when their members
    have one shape and type (`_members`); otherwise fn runs on each.  A
    list in ``args`` holds one value per member of x, serving y's members
    too, or one per member of x and then one per member of y."""
    sx, sy = _members(x), _members(y)
    k = sx[0] if sx else 1
    halves = [(a[:k], a[k:]) if isinstance(a, list) and len(a) == 2 * k else (a, a)
              for a in args]
    eig = isinstance(x, HermEigen)
    if sx is None or sy is None or sx[1:] != sy[1:] or eig != isinstance(y, HermEigen):
        return fn(x, *(h[0] for h in halves)), fn(y, *(h[1] for h in halves))
    if eig:
        x = HermEigen(np.concatenate((x.eigenvalues, y.eigenvalues)),
                      np.concatenate((x.eigenvectors, y.eigenvectors)))
    else:
        x = np.concatenate((x, y))
    z = fn(x, *(h0 + h1 if isinstance(h0, list) else h0 for h0, h1 in halves))
    if isinstance(z, HermEigen):
        return (HermEigen(z.eigenvalues[:k], z.eigenvectors[:k]),
                HermEigen(z.eigenvalues[k:], z.eigenvectors[k:]))
    return z[:k], z[k:]


def adjoint(a) -> np.ndarray:
    """Conjugate transpose A*."""
    return as_cmatrix(a, "A").conj().T


def herm_eigen(h) -> HermEigen:
    """Eigen-decompose a Hermitian matrix, or each member of a stack; a
    HermEigen is returned as is.

    The input may carry floating-point asymmetry up to
    ``HERM_TOL * (1 + ||H||_F)``; it is symmetrized before the solve.
    Anything worse raises NotHermitianError rather than silently projecting.
    """
    if isinstance(h, HermEigen):
        return h
    s, flat = _as_stack(h, "H")
    _require_square(s, "H")
    adj = s.conj().swapaxes(-1, -2)
    dev = _frobenius(s - adj)
    bad = dev > HERM_TOL * (1.0 + _frobenius(s))
    if bad.any():
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {dev[bad.argmax()]:.3e}"
        )
    w, v = np.linalg.eigh(0.5 * (s + adj))
    return HermEigen(w[0], v[0]) if flat else HermEigen(w, v)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each member of a stack.  A member with an
    entry of modulus 1 or more is scaled by a power of two 2^-e, which is
    exact, before its entries are squared, so that no square overflows."""
    e = np.maximum(np.frexp(np.abs(m).max(axis=(-2, -1), initial=0.0))[1], 0)
    t = m * np.ldexp(1.0, -e)[..., None, None]
    return np.ldexp(np.sqrt(np.add.reduce((t.conj() * t).real, axis=(-2, -1))), e)


def general_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of an arbitrary square matrix (unordered, complex), or
    of each member of a stack (one row each)."""
    s, flat = _as_stack(a, "A")
    _require_square(s, "A")
    ev = np.linalg.eigvals(s) if s.size else np.zeros(s.shape[:2], np.complex128)
    return ev[0] if flat else ev


def op_norm(a):
    """Spectral norm: the largest singular value; of a stack, the array of
    its members' norms."""
    s, flat = _as_stack(a, "A")
    # np.linalg.norm(., 2) is the largest singular value, the first
    out = np.linalg.svd(s, compute_uv=False)[:, 0] if s.size else np.zeros(len(s))
    return float(out[0]) if flat else out


def moduli(a) -> tuple[HermEigen, HermEigen, np.ndarray]:
    """(|A|, |A*|, U) of a square A, from one SVD A = W diag(s) Vh; of a
    stack, the stacked factors of its members, from one stacked SVD.

    |A| = V diag(s) V* and |A*| = W diag(s) W* come back as HermEigen
    (ascending), so every function of them reuses this SVD; the singular
    values are never negative.  U = W Vh is the polar unitary, A = U |A|;
    it is unitary even when A is singular, unlike |A|^{-1}-based
    constructions.
    """
    s, flat = _as_stack(a, "A")
    _require_square(s, "A")
    w, sv, vh = np.linalg.svd(s)
    if flat:
        w, sv, vh = w[0], sv[0], vh[0]
    sv = sv[..., ::-1]
    return (HermEigen(sv, vh[..., ::-1, :].conj().swapaxes(-1, -2)),
            HermEigen(sv, w[..., ::-1]), w @ vh)


def abs_op(a) -> np.ndarray:
    """Modulus |A| = (A* A)^(1/2), positive semidefinite, from `moduli`."""
    return moduli(a)[0].compose()


def polar(a) -> PolarParts:
    """Polar decomposition A = U |A| with U unitary (square input), both
    factors from the one SVD of `moduli`."""
    e, _, u = moduli(a)
    return PolarParts(u, e.compose())


def apply_fn(h, fn, domain: tuple[float, float] | None = None,
             name: str = "fn", pole: bool = False) -> np.ndarray:
    """Hermitian functional calculus: V diag(fn(w)) V*.

    Every scalar function of a matrix in numrad is computed here, under
    four rules:

    * H is Hermitian to ``HERM_TOL`` (`herm_eigen`); a HermEigen of H is
      used as it is;
    * ``pole=True`` marks a pole at the lower domain edge: H must then be
      positive definite by `_pd_ok`, else NotPositiveDefiniteError;
    * when ``domain`` is given, eigenvalues may stray outside it by at
      most ``DOMAIN_TOL * max(1, ||H||)`` (they are clamped back to the
      closed interval before evaluation); beyond that
      DomainViolationError is raised;
    * ``fn`` must map the real eigenvalue vector elementwise to finite
      values (`_fn_values`).

    On a stack, each of ``fn``, ``domain``, ``name`` and ``pole`` may be
    a list with one entry per member.  Each member's rules are checked on
    its own eigenvalues, member by member, and ``fn`` is called on each
    member's eigenvalue row alone, so that member j's result equals the
    call on it alone.  The first member that breaks a rule raises.
    """
    e = herm_eigen(h)
    w = e.eigenvalues
    rows = w if w.ndim == 2 else w[None]
    k, n = rows.shape
    fns, domains, names, poles = _each(fn, k), _each(domain, k), _each(name, k), _each(pole, k)
    if not n and any(poles):  # an empty spectrum is not positive definite
        raise NotPositiveDefiniteError(
            f"{names[poles.index(True)]} has a pole at the domain edge and needs "
            f"a positive definite argument (min eigenvalue 0)")
    args = rows  # each member's own row, as it is laid out, or clamped
    for j, (bottom, top) in enumerate(zip(rows[:, 0].tolist(), rows[:, -1].tolist())
                                      if n else ()):
        if poles[j] and not _pd_ok(rows[j:j + 1])[0]:
            raise NotPositiveDefiniteError(
                f"{names[j]} has a pole at the domain edge and needs a positive "
                f"definite argument (min eigenvalue {bottom:.6g})"
            )
        if domains[j] is None:
            continue
        lo, hi = domains[j]
        slack = DOMAIN_TOL * max(1.0, -bottom, top)
        if bottom < lo - slack or top > hi + slack:
            raise DomainViolationError(
                f"spectrum [{bottom:.6g}, {top:.6g}] leaves the "
                f"domain [{lo:.6g}, {hi:.6g}] of {names[j]}"
            )
        if bottom < lo or top > hi:
            if args is rows:
                args = list(rows)
            args[j] = np.clip(rows[j], lo, hi)
    vals = np.empty((k, n))
    for j in range(k):
        vals[j] = _fn_row(fns[j], args[j], names[j])
    if not np.isfinite(vals).all():
        j = np.isfinite(vals).all(axis=1).argmin()
        raise DomainViolationError(
            f"{names[j]} is not finite on [{np.min(args[j]):.6g}, {np.max(args[j]):.6g}]"
        )
    return e.compose(vals if w.ndim == 2 else vals[0])


def _pd_ok(w):
    """The positive-definiteness rule on ascending eigenvalues:
    min eig > PD_TOL * max |eig|, so it does not depend on the scale of
    the matrix.  An empty spectrum fails it.  Of (k, n) eigenvalues, the
    list of the rule for each row."""
    rows = w if w.ndim == 2 else w[None]
    ok = ([lo > PD_TOL * max(-lo, hi) for lo, hi in zip(rows[:, 0].tolist(), rows[:, -1].tolist())]
          if rows.shape[-1] else [False] * len(rows))
    return ok if w.ndim == 2 else ok[0]


def _fn_row(fn, w: np.ndarray, name: str) -> np.ndarray:
    """fn on the real argument w (a 0-d value or ascending eigenvalues),
    which must act elementwise (ValueError otherwise)."""
    vals = np.asarray(fn(w), dtype=float)
    if vals.shape != w.shape:
        raise ValueError(f"{name} must map eigenvalues elementwise")
    return vals


def _fn_values(fn, w: np.ndarray, name: str) -> np.ndarray:
    """fn on the real argument w (a 0-d value or ascending eigenvalues):
    elementwise (ValueError otherwise) and finite (DomainViolationError
    otherwise)."""
    vals = _fn_row(fn, w, name)
    if not np.isfinite(vals).all():
        raise DomainViolationError(
            f"{name} is not finite on [{np.min(w):.6g}, {np.max(w):.6g}]"
        )
    return vals
