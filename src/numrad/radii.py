"""Numerical radius, spectral radius, and block-diagonal helpers.

The numerical radius of a square complex matrix is

    w(A) = max { |<Ax, x>| : ||x|| = 1 }.

It is computed here through the rotation characterization

    w(A) = max over theta of lambda_max(Re(e^{i theta} A)),

where Re(M) = (M + M*)/2.  Writing A = H + iG with H, G Hermitian,
Re(e^{i theta} A) = M(theta) = cos(theta) H - sin(theta) G, and
f(theta) = lambda_max(M(theta)) is 2 pi-periodic.  `numerical_radius`
maximizes f in three steps:

1. a coarse scan of 32 angles in one batched eigvalsh call;
2. safeguarded Newton from the best of them, with f' and f'' from the
   Hellmann-Feynman formulas of one eigh (the hybrid analysed by
   T. Mitchell, SIAM J. Sci. Comput. 2023, arXiv:2002.00080);
3. a level-set certificate in the style of Mengi and Overton (IMA J.
   Numer. Anal. 25, 2005): every angle at which gamma = f* (1 + 1e-12) is
   an eigenvalue of M(theta) is a root of one quadratic eigenproblem.
   Where f exceeds gamma between those angles, Newton restarts there;
   where it does not, value <= w(A) <= gamma.

`numerical_radius_oracle` is an independent cross-check: alternating
ascent on (x, theta), which climbs monotonically and shares no code with
`numerical_radius`.
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

_COARSE = 32        # equispaced angles of the coarse scan of [0, 2 pi)
_LEVEL = 1e-12      # certificate level gamma = f* (1 + _LEVEL)
_NEAR_REAL = 1e-6   # |Im theta| up to which a level-set root counts as real
_NEWTON_ITERS = 60  # cap on Newton steps from one start
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class RadiusResult:
    """Numerical radius with its maximizing rotation and witness vector.

    ``value``       the numerical radius w(A)
    ``theta``       a maximizer of ||Re(e^{i theta} A)|| in [0, pi)
    ``witness``     unit vector x with |<Ax, x>| = value
    ``evaluations`` eigenvalue problems solved: one per angle at which
                    Re(e^{i theta} A) was diagonalized, one per level-set
                    solve
    ``upper``       the level gamma that the level-set test certified,
                    so that value <= w(A) <= upper up to rounding
    """

    value: float
    theta: float
    witness: np.ndarray
    evaluations: int = 0
    upper: float = float("nan")


def _herm_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = 0.5 * (a + a.conj().T)
    g = (a - a.conj().T) / 2j
    return h, g


def _pencil(h: np.ndarray, g: np.ndarray, theta: float):
    """M(theta) = cos(theta) H - sin(theta) G and its derivative M'(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return c * h - s * g, -s * h - c * g


def _top(h: np.ndarray, g: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """f(theta) = lambda_max(M(theta)) for a batch of angles, one eigvalsh call."""
    c = np.cos(thetas)[:, None, None]
    s = np.sin(thetas)[:, None, None]
    return np.linalg.eigvalsh(c * h - s * g)[:, -1]


def _expand(h: np.ndarray, g: np.ndarray, theta: float):
    """f, f', f'' and the top eigenvector at theta, from one eigh.

    Hellmann-Feynman: f' = v* M' v and, since M'' = -M,
    f'' = -f + 2 sum_j |v_j* M' v|^2 / (f - lambda_j).  A gap that
    rounds to zero is floored, which only makes f'' less negative.
    """
    m, dm = _pencil(h, g, theta)
    w, v = np.linalg.eigh(m)
    f = w[-1]
    c = v.conj().T @ (dm @ v[:, -1])
    gaps = np.maximum(f - w[:-1], _EPS * abs(f))
    fpp = -f + 2.0 * float(np.sum(np.abs(c[:-1]) ** 2 / gaps))
    return float(f), float(c[-1].real), fpp, v[:, -1]


def _ascend(h: np.ndarray, g: np.ndarray, theta: float):
    """Safeguarded Newton ascent on f from theta, where f(theta) > 0.

    Newton steps where f'' < 0, gradient steps f'/f elsewhere, each
    capped at one coarse-grid step and halved until f rises.  Stops when
    the step's predicted gain is below rounding, |step f'| <= eps f.
    Returns (f, theta, top eigenvector, eigensolves).
    """
    cap = 2.0 * np.pi / _COARSE
    f, d1, d2, x = _expand(h, g, theta)
    evals = 1
    for _ in range(_NEWTON_ITERS):
        step = float(np.clip(-d1 / d2 if d2 < 0.0 else d1 / f, -cap, cap))
        while abs(step * d1) > _EPS * f:
            trial = _expand(h, g, theta + step)
            evals += 1
            if trial[0] > f:
                break
            step *= 0.5
        else:
            break
        theta += step
        f, d1, d2, x = trial
    return f, theta % (2.0 * np.pi), x, evals


def _level_set(h: np.ndarray, g: np.ndarray, phi: float, gamma: float):
    """Angles where gamma is an eigenvalue of M(theta), with the midpoints
    between consecutive ones (sorted on the circle).

    With tau = tan((theta - phi)/2), det(M(theta) - gamma I) = 0 becomes
    the quadratic eigenproblem
        -tau^2 (M(phi) + gamma I) - 2 tau G_phi + (M(phi) - gamma I),
    G_phi = -M'(phi), solved through its 2n x 2n companion matrix.
    M(phi) + gamma I is positive definite as long as gamma exceeds
    f(phi + pi).  Between consecutive crossings the number of
    eigenvalues above gamma is constant, so f > gamma somewhere on the
    circle iff it is at some midpoint; the crossings themselves are
    kept too, since a pair that rounding merged into a complex pair
    sits where f peaks.
    """
    n = h.shape[0]
    m, dm = _pencil(h, g, phi)
    eye = np.eye(n)
    lower = np.linalg.solve(m + gamma * eye, np.hstack([m - gamma * eye, 2.0 * dm]))
    tau = np.linalg.eigvals(np.vstack([np.hstack([np.zeros((n, n)), eye]), lower]))
    # |Im theta| = artanh(2 |Im tau| / (1 + |tau|^2))
    real = 2.0 * np.abs(tau.imag) <= np.tanh(_NEAR_REAL) * (1.0 + np.abs(tau) ** 2)
    cross = np.sort((phi + 2.0 * np.arctan(tau[real].real)) % (2.0 * np.pi))
    mid = 0.5 * (cross + np.append(cross[1:], cross[:1] + 2.0 * np.pi))
    return np.concatenate([cross, mid])


def numerical_radius(a) -> RadiusResult:
    """Certified numerical radius w(A) = max over theta of f(theta).

    f(theta) = lambda_max(cos(theta) H - sin(theta) G) on [0, 2 pi),
    A = H + iG.  Three steps:

    1. coarse scan: 32 equispaced angles in one batched eigvalsh call;
    2. Newton polish from the best one (`_ascend`), with Hellmann-Feynman
       derivatives from one eigh per step;
    3. certificate: with gamma = f* (1 + 1e-12), every angle at which
       gamma is an eigenvalue of M(theta) comes from one quadratic
       eigenproblem (`_level_set`, phi opposite the coarse minimum, so
       M(phi) + gamma I is well conditioned).  If f exceeds gamma at none
       of those angles and the midpoints between them, f* is certified;
       otherwise Newton restarts from the best of them and the test is
       repeated.  Each repeat raises f* above the previous gamma.

    ``theta`` is the maximizer reduced mod pi and the witness the top
    eigenvector of Re(e^{i theta*} A); its Rayleigh quotient |<Ax, x>|
    reproduces the returned value.
    """
    a = as_cmatrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"numerical radius needs square input, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return RadiusResult(0.0, 0.0, np.zeros(0, dtype=np.complex128), 0, 0.0)
    if not a.any():
        return RadiusResult(0.0, 0.0, np.eye(n, dtype=np.complex128)[0], 0, 0.0)

    # w is positively homogeneous; rescaling by a power of two is exact
    # and keeps |v_j* M' v|^2 and the companion matrix in range
    e = int(np.frexp(np.max(np.abs(a)))[1])
    h, g = _herm_parts(np.ldexp(a.view(np.float64), -e).view(np.complex128))
    grid = np.linspace(0.0, 2.0 * np.pi, _COARSE, endpoint=False)
    scan = _top(h, g, grid)
    f, theta, x, evals = _ascend(h, g, float(grid[np.argmax(scan)]))
    evals += _COARSE
    phi = float(grid[np.argmin(scan)]) + np.pi
    while True:
        gamma = f * (1.0 + _LEVEL)
        starts = _level_set(h, g, phi, gamma)
        evals += 1 + starts.size
        if not starts.size:
            break
        vals = _top(h, g, starts)
        if vals.max() <= gamma:
            break
        f, theta, x, more = _ascend(h, g, float(starts[np.argmax(vals)]))
        evals += more
    return RadiusResult(float(np.ldexp(f, e)), theta % np.pi, x, evals,
                        float(np.ldexp(gamma, e)))


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
