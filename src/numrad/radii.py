"""Numerical radius, spectral radius, and block-diagonal helpers.

The numerical radius of a square complex matrix is

    w(A) = max { |<Ax, x>| : ||x|| = 1 }.

It is computed here through the rotation characterization

    w(A) = max over theta of || Re(e^{i theta} A) ||,

where Re(M) = (M + M*)/2.  Writing A = H + iG with H, G Hermitian,
Re(e^{i theta} A) = cos(theta) H - sin(theta) G, and the norm
mu(theta) = max(lambda_max, -lambda_min) of that pencil is pi-periodic,
so a sweep over [0, pi) suffices.  mu is a max of smooth curves, hence
piecewise smooth with only upward kinks; a moderately fine grid followed
by local golden-section polish on the best few cells nails the maximum
to high accuracy.

`numerical_radius_oracle` is an independent cross-check: alternating
ascent on (x, theta), which climbs monotonically and is immune to any
grid-resolution mistakes in the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSquareError
from .matrixcore import as_cmatrix, general_eigenvalues

__all__ = [
    "RadiusResult",
    "numerical_radius",
    "numerical_radius_oracle",
    "spectral_radius",
    "omega_blockdiag",
]

_GR = (np.sqrt(5.0) - 1.0) / 2.0  # inverse golden ratio
_GRID = 720   # equispaced sweep angles on [0, pi)
_TOL = 1e-9   # golden-section bracket length at which polishing stops


@dataclass(frozen=True, eq=False)
class RadiusResult:
    """Numerical radius with its maximizing rotation and witness vector.

    ``value``   the numerical radius w(A)
    ``theta``   a maximizer of mu(theta) in [0, pi)
    ``witness`` unit vector x with |<Ax, x>| = value
    """

    value: float
    theta: float
    witness: np.ndarray


def _herm_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = 0.5 * (a + a.conj().T)
    g = (a - a.conj().T) / 2j
    return h, g


def _mu_grid(h: np.ndarray, g: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """mu(theta) for a whole batch of angles via one stacked eigh call."""
    c = np.cos(thetas)[:, None, None]
    s = np.sin(thetas)[:, None, None]
    w = np.linalg.eigvalsh(c * h[None, :, :] - s * g[None, :, :])
    return np.maximum(w[:, -1], -w[:, 0])


def _mu_at(h: np.ndarray, g: np.ndarray, theta: float) -> float:
    w = np.linalg.eigvalsh(np.cos(theta) * h - np.sin(theta) * g)
    return float(max(w[-1], -w[0]))


def _witness_at(h: np.ndarray, g: np.ndarray, theta: float):
    w, v = np.linalg.eigh(np.cos(theta) * h - np.sin(theta) * g)
    if -w[0] > w[-1]:
        return float(-w[0]), v[:, 0]
    return float(w[-1]), v[:, -1]


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi].

    Ties move the bracket left, so among equal maxima the smallest
    abscissa survives.  Returns (argmax, max).
    """
    c = hi - _GR * (hi - lo)
    d = lo + _GR * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _GR * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GR * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def numerical_radius(a) -> RadiusResult:
    """Numerical radius via a [0, pi) sweep with local refinement.

    720 equispaced angles are scored in one batched Hermitian eigenvalue
    call; the best three grid cells are each polished by golden-section
    search (bracket = one grid step to either side) until the bracket is
    shorter than 1e-9.  The winner among all grid and
    refined candidates is returned, ties broken toward smaller theta,
    and theta reduced mod pi.

    The witness is the extreme eigenvector of Re(e^{i theta*} A); its
    Rayleigh quotient |<Ax, x>| reproduces the returned value.
    """
    a = as_cmatrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"numerical radius needs square input, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return RadiusResult(0.0, 0.0, np.zeros(0, dtype=np.complex128))

    h, g = _herm_parts(a)
    thetas = np.linspace(0.0, np.pi, _GRID, endpoint=False)
    mu = _mu_grid(h, g, thetas)

    step = np.pi / _GRID
    candidates = [(float(mu[i]), float(thetas[i])) for i in range(_GRID)]
    top = np.argsort(-mu, kind="stable")[:3]
    for i in top:
        th0 = float(thetas[i])
        th, val = _golden_max(
            lambda t: _mu_at(h, g, t), th0 - step, th0 + step, _TOL
        )
        candidates.append((float(val), float(th % np.pi)))

    best_val, best_theta = max(candidates, key=lambda c: (c[0], -c[1]))
    value, x = _witness_at(h, g, best_theta)
    # the recomputed value at theta* is the authoritative one
    return RadiusResult(max(value, best_val), best_theta, x)


def numerical_radius_oracle(
    a, restarts: int = 32, iters: int = 100, seed: int = 0
) -> float:
    """Independent numerical radius estimate by alternating ascent.

    From a random unit x, alternately set theta = -arg <Ax, x> and
    replace x by the top eigenvector of Re(e^{i theta} A).  Both moves
    are non-decreasing in |<Ax, x>|, so each restart converges; the max
    over ``restarts`` starts is returned.  Shares no code path with the
    sweep in `numerical_radius`.
    """
    a = as_cmatrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"numerical radius needs square input, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 0.0
    h, g = _herm_parts(a)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        val = 0.0
        for _ in range(iters):
            z = complex(x.conj() @ (a @ x))
            if abs(z) <= val + 1e-13 * (1.0 + val):
                val = max(val, abs(z))
                break
            val = abs(z)
            theta = -np.angle(z)
            _, v = np.linalg.eigh(np.cos(theta) * h - np.sin(theta) * g)
            x = v[:, -1]
        best = max(best, val)
    return float(best)


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus r(A)."""
    ev = general_eigenvalues(a)
    if ev.size == 0:
        return 0.0
    return float(np.max(np.abs(ev)))


def omega_blockdiag(blocks) -> float:
    """Numerical radius of diag(blocks): the max over the blocks.

    The numerical range of a direct sum is the convex hull of the
    blocks' ranges, so no cross terms can enlarge the radius.
    """
    vals = [numerical_radius(b).value for b in blocks]
    return max(vals, default=0.0)
