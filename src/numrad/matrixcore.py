"""Dense complex matrix primitives used by everything else.

All functions accept anything ``np.asarray`` can turn into a 2-D complex
array and validate shape/finiteness up front, so downstream code never has
to re-check.  Matrices are plain ``complex128`` ndarrays; structured results
(eigen and polar factorizations) come back as small frozen dataclasses.

Conventions:

* the adjoint is written ``A*`` in docstrings and computed by `adjoint`,
* Hermitian eigenvalues are returned in ascending order,
* ``|A|`` always means the positive-semidefinite factor ``(A* A)^(1/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainViolationError,
    NotHermitianError,
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
    "apply_fn",
]

# Relative tolerance for "is this Hermitian / inside the domain" decisions.
HERM_TOL = 1e-10
DOMAIN_TOL = 1e-10


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


def herm_eigen(h, tol: float = HERM_TOL) -> HermEigen:
    """Eigen-decompose a Hermitian matrix.

    The input may carry floating-point asymmetry up to
    ``tol * (1 + ||H||_F)``; it is symmetrized before the solve.  Anything
    worse raises NotHermitianError rather than silently projecting.
    """
    h = as_cmatrix(h, "H")
    _require_square(h, "H")
    if h.size == 0:
        return HermEigen(np.zeros(0), np.zeros((0, 0), dtype=np.complex128))
    dev = np.linalg.norm(h - h.conj().T)
    if dev > tol * (1.0 + np.linalg.norm(h)):
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


def abs_op(a) -> np.ndarray:
    """Modulus |A| = (A* A)^(1/2), positive semidefinite.

    Computed through the Hermitian eigendecomposition of A* A with
    negative round-off eigenvalues clipped to zero before the square
    root, so the result is PSD to machine precision.
    """
    a = as_cmatrix(a, "A")
    _require_square(a, "A")
    gram = a.conj().T @ a
    e = herm_eigen(gram, tol=1e-8)
    w = np.sqrt(np.clip(e.eigenvalues, 0.0, None))
    return e.compose(w)


def polar(a) -> PolarParts:
    """Polar decomposition A = U |A| with U unitary (square input).

    U = W Vh from the SVD A = W diag(s) Vh; this choice is unitary even
    when A is singular, unlike |A|^{-1}-based constructions.
    """
    a = as_cmatrix(a, "A")
    _require_square(a, "A")
    if a.size == 0:
        return PolarParts(a.copy(), a.copy())
    w, _, vh = np.linalg.svd(a)
    return PolarParts(w @ vh, abs_op(a))


def apply_fn(h, fn, domain: tuple[float, float] | None = None,
             name: str = "fn") -> np.ndarray:
    """Hermitian functional calculus: V diag(fn(w)) V*.

    ``fn`` must accept a real eigenvalue vector.  When ``domain`` is
    given, eigenvalues may stray outside it by at most
    ``1e-10 * max(1, ||H||)`` (they are clamped back to the closed
    interval before evaluation); beyond that DomainViolationError is
    raised.
    """
    e = herm_eigen(h)
    w = e.eigenvalues
    if domain is not None and w.size:
        lo, hi = domain
        slack = DOMAIN_TOL * max(1.0, float(np.max(np.abs(w))))
        if np.min(w) < lo - slack or np.max(w) > hi + slack:
            raise DomainViolationError(
                f"spectrum [{np.min(w):.6g}, {np.max(w):.6g}] leaves the "
                f"domain [{lo:.6g}, {hi:.6g}] of {name}"
            )
        w = np.clip(w, lo, hi if np.isfinite(hi) else None)
    vals = np.asarray(fn(w), dtype=float)
    if vals.shape != w.shape:
        raise ValueError(f"{name} must map eigenvalues elementwise")
    return e.compose(vals)
