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
  too and is not factorized again, so each operand is factorized once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
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
    """Spectral factorization H = V diag(w) V* of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; the columns of ``eigenvectors``
    form an orthonormal basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def compose(self, values: np.ndarray | None = None) -> np.ndarray:
        """Rebuild V diag(values) V*; defaults to the original eigenvalues."""
        w = self.eigenvalues if values is None else np.asarray(values)
        v = self.eigenvectors
        return (v * w) @ v.conj().T


@dataclass(frozen=True, eq=False)
class PolarParts:
    """Polar decomposition A = unitary @ positive of a square matrix."""

    unitary: np.ndarray
    positive: np.ndarray


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array.

    Raises DimensionMismatchError for wrong rank and ValueError for
    NaN/inf entries.  Lists of lists, real arrays and complex arrays are
    all accepted; the result is always a fresh C-ordered complex copy.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be 2-D, got ndim={arr.ndim}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.array(arr, order="C")


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {a.shape}")


def adjoint(a) -> np.ndarray:
    """Conjugate transpose A*."""
    return as_cmatrix(a, "A").conj().T


def herm_eigen(h) -> HermEigen:
    """Eigen-decompose a Hermitian matrix; a HermEigen is returned as is.

    The input may carry floating-point asymmetry up to
    ``HERM_TOL * (1 + ||H||_F)``; it is symmetrized before the solve.
    Anything worse raises NotHermitianError rather than silently projecting.
    """
    if isinstance(h, HermEigen):
        return h
    h = as_cmatrix(h, "H")
    _require_square(h, "H")
    dev = np.linalg.norm(h - h.conj().T)
    if dev > HERM_TOL * (1.0 + np.linalg.norm(h)):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {dev:.3e}"
        )
    sym = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(sym)
    return HermEigen(w, v)


def general_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of an arbitrary square matrix (unordered, complex)."""
    a = as_cmatrix(a, "A")
    _require_square(a, "A")
    if a.size == 0:
        return np.zeros(0, dtype=np.complex128)
    return np.linalg.eigvals(a)


def op_norm(a) -> float:
    """Spectral norm: the largest singular value."""
    a = as_cmatrix(a, "A")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def moduli(a) -> tuple[HermEigen, HermEigen, np.ndarray]:
    """(|A|, |A*|, U) of a square A, from one SVD A = W diag(s) Vh.

    |A| = V diag(s) V* and |A*| = W diag(s) W* come back as HermEigen
    (ascending), so every function of them reuses this SVD; the singular
    values are never negative.  U = W Vh is the polar unitary, A = U |A|;
    it is unitary even when A is singular, unlike |A|^{-1}-based
    constructions.
    """
    a = as_cmatrix(a, "A")
    _require_square(a, "A")
    w, s, vh = np.linalg.svd(a)
    s = s[::-1]
    return HermEigen(s, vh[::-1].conj().T), HermEigen(s, w[:, ::-1]), w @ vh


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
    """
    e = herm_eigen(h)
    w = e.eigenvalues
    if pole and not _pd_ok(w):
        raise NotPositiveDefiniteError(
            f"{name} has a pole at the domain edge and needs a positive "
            f"definite argument (min eigenvalue {w[0] if w.size else 0.0:.6g})"
        )
    if domain is not None and w.size:
        lo, hi = domain
        bottom, top = float(w[0]), float(w[-1])
        slack = DOMAIN_TOL * max(1.0, -bottom, top)
        if bottom < lo - slack or top > hi + slack:
            raise DomainViolationError(
                f"spectrum [{bottom:.6g}, {top:.6g}] leaves the "
                f"domain [{lo:.6g}, {hi:.6g}] of {name}"
            )
        if bottom < lo or top > hi:
            w = np.clip(w, lo, hi)
    return e.compose(_fn_values(fn, w, name))


def _pd_ok(w) -> bool:
    """The positive-definiteness rule on ascending eigenvalues:
    min eig > PD_TOL * max |eig|, so it does not depend on the scale of
    the matrix.  An empty spectrum fails it."""
    return bool(w.size and w[0] > PD_TOL * max(-float(w[0]), float(w[-1])))


def _fn_values(fn, w: np.ndarray, name: str) -> np.ndarray:
    """fn on the real argument w (a 0-d value or ascending eigenvalues):
    elementwise (ValueError otherwise) and finite (DomainViolationError
    otherwise)."""
    vals = np.asarray(fn(w), dtype=float)
    if vals.shape != w.shape:
        raise ValueError(f"{name} must map eigenvalues elementwise")
    if not np.isfinite(vals).all():
        raise DomainViolationError(
            f"{name} is not finite on [{np.min(w):.6g}, {np.max(w):.6g}]"
        )
    return vals
