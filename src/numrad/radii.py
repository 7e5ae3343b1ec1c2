"""Numerical radius and spectral radius.

The numerical radius of a square complex matrix is

    w(A) = max { |<Ax, x>| : ||x|| = 1 }.

It is computed here through the rotation characterization

    w(A) = max over theta of lambda_max(Re(e^{i theta} A)),

where Re(M) = (M + M*)/2.  Writing A = H + iG with H, G Hermitian,
Re(e^{i theta} A) = M(theta) = cos(theta) H - sin(theta) G, and
f(theta) = lambda_max(M(theta)) is 2 pi-periodic.  `numerical_radius`
maximizes f in three steps:

1. a coarse scan of 32 angles in one batched eigvalsh call over 16 of
   them: M(theta + pi) = -M(theta), so the bottom eigenvalue at theta
   gives f(theta + pi) = -lambda_min(M(theta));
2. safeguarded Newton from the best of them, with f' and f'' from the
   Hellmann-Feynman formulas of one eigh (the hybrid analysed by
   T. Mitchell, SIAM J. Sci. Comput. 2023, arXiv:2002.00080);
3. a level-set certificate in the style of Mengi and Overton (IMA J.
   Numer. Anal. 25, 2005): every angle at which gamma = f* (1 + 1e-12) is
   an eigenvalue of M(theta) is a root of one quadratic eigenproblem.
   Where f exceeds gamma between those angles, Newton restarts there;
   where it does not, value <= w(A) <= gamma.

`numerical_radius` also takes a (k, n, n) stack and runs each step on all
k members at once, with one stacked LAPACK call per scan, Newton round
and level-set solve; member j's result equals the call on A[j] alone bit
for bit, so a single matrix is a stack of one.  A long stack goes through
in chunks whose scan holds at most _CHUNK = 2^17 complex entries (2 MB,
the scans of 32 members at n = 16), so its working memory stays bounded:
a chunk's scan matrices fill one buffer in place, a block of members at a
time, and the block's temporary products hold at most _CHUNK // 64
entries (or one member's, where that is more).

`numerical_radius_oracle` is an independent cross-check: alternating
ascent on (x, theta), which climbs monotonically and shares no code with
`numerical_radius`.

`_radius_stack` is the one input rule of a radius: a matrix or a stack,
finite and square.  `catalog` validates every radius input it stages
with it, so a staged radius fails as `numerical_radius` would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NotSquareError
from .matrixcore import _as_stack, as_cmatrix, general_eigenvalues

__all__ = [
    "RadiusResult",
    "numerical_radius",
    "numerical_radius_oracle",
    "spectral_radius",
]

_COARSE = 32        # equispaced angles of the coarse scan of [0, 2 pi)
_HALF = _COARSE // 2  # angles the scan solves; angle k + _HALF is k + pi
_LEVEL = 1e-12      # certificate level gamma = f* (1 + _LEVEL)
_NEAR_REAL = 1e-6   # |Im theta| up to which a level-set root counts as real
_NEWTON_ITERS = 60  # cap on Newton steps from one start
_CHUNK = 2 ** 17    # complex entries of one scan eigvalsh call: 32 at n = 16
_EPS = np.finfo(float).eps
# the scan's angles, and the cosines and sines of those it solves,
# computed once
_GRID = np.linspace(0.0, 2.0 * np.pi, _COARSE, endpoint=False)
_TANH_NEAR_REAL = np.tanh(_NEAR_REAL)
_HALF_COS = np.cos(_GRID[:_HALF])[:, None, None]
_HALF_SIN = np.sin(_GRID[:_HALF])[:, None, None]
_CAP = 2.0 * np.pi / _COARSE  # longest Newton step: one coarse-grid step


@dataclass(frozen=True, eq=False)
class RadiusResult:
    """Numerical radius with its maximizing rotation and witness vector.

    ``value``       the numerical radius w(A)
    ``theta``       a maximizer of ||Re(e^{i theta} A)|| in [0, pi)
    ``witness``     unit vector x with |<Ax, x>| = value
    ``evaluations`` eigenvalue problems solved: one per angle at which
                    Re(e^{i theta} A) was diagonalized (the coarse scan's
                    32 angles take 16), one per level-set solve
    ``upper``       the level gamma that the level-set test certified,
                    so that value <= w(A) <= upper up to rounding
    """

    value: float
    theta: float
    witness: np.ndarray
    evaluations: int = 0
    upper: float = float("nan")


# Every helper below works on a stack: h and g are (k, n, n), member j's
# H and G, and angles come one per member.  numpy's stacked eigh,
# eigvalsh, solve and eigvals run LAPACK on each member in turn, so with
# one BLAS thread member j's numbers do not depend on the rest of the
# stack, and every elementwise step is the one a single call takes.


def _herm_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    adj = a.conj().swapaxes(-1, -2)
    return 0.5 * (a + adj), (a - adj) / 2j


def _pencil(h: np.ndarray, g: np.ndarray, theta):
    """M(theta) = cos(theta) H - sin(theta) G and its derivative M'(theta)."""
    t = theta[:, None, None]
    c, s = np.cos(t), np.sin(t)
    return c * h - s * g, -s * h - c * g


def _top(h: np.ndarray, g: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """f(theta[i]) = lambda_max(M(theta[i])) of member i, one eigvalsh call."""
    t = thetas[:, None, None]
    return np.linalg.eigvalsh(np.cos(t) * h - np.sin(t) * g)[:, -1]


def _scan(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f at the 32 angles of _GRID (a (k, 32) array), from one eigvalsh
    call over the first 16: f(theta + pi) = -lambda_min(M(theta)).

    The (k, 16, n, n) matrices M(theta) are formed in one buffer, a block
    of members at a time, so that the products cos(theta) H and
    sin(theta) G of a block hold at most _CHUNK // 64 complex entries
    (or one member's, where that is more)."""
    k, n = h.shape[0], h.shape[-1]
    m = np.empty((k, _HALF, n, n), np.complex128)
    step = max(1, _CHUNK // 64 // (_HALF * n * n))
    for at in range(0, k, step):
        blk = slice(at, at + step)
        np.subtract(_HALF_COS * h[blk, None], _HALF_SIN * g[blk, None], out=m[blk])
    w = np.linalg.eigvalsh(m)
    return np.concatenate([w[..., -1], -w[..., 0]], axis=1)


def _expand(h: np.ndarray, g: np.ndarray, theta):
    """f, f', f'' (lists) and the top eigenvectors (rows) at theta[j], from
    one stacked eigh.

    Hellmann-Feynman: f' = v* M' v and, since M'' = -M,
    f'' = -f + 2 sum_j |v_j* M' v|^2 / (f - lambda_j).  A gap that
    rounds to zero is floored, which only makes f'' less negative.
    """
    m, dm = _pencil(h, g, np.asarray(theta))
    w, v = np.linalg.eigh(m)
    f = w[:, -1:]
    c = (v.conj().swapaxes(-1, -2) @ (dm @ v[:, :, -1:]))[:, :, 0]
    gaps = np.maximum(f - w[:, :-1], _EPS * np.abs(f))
    fpp = -f[:, 0] + 2.0 * (np.abs(c[:, :-1]) ** 2 / gaps).sum(axis=1)
    return f[:, 0].tolist(), c[:, -1].real.tolist(), fpp.tolist(), v[:, :, -1]


def _newton_step(f: float, d1: float, d2: float) -> float:
    """Newton's step where f'' < 0, else the gradient step f'/f, capped."""
    step = -d1 / d2 if d2 < 0.0 else d1 / f
    return min(max(step, -_CAP), _CAP)


def _ascend(h: np.ndarray, g: np.ndarray, theta: list):
    """Safeguarded Newton ascent on each member's f from theta[j], where
    f(theta[j]) > 0.

    Newton steps where f'' < 0, gradient steps f'/f elsewhere, each
    capped at one coarse-grid step and halved until f rises.  A member
    stops when its step's predicted gain is below rounding,
    |step f'| <= eps f, or after _NEWTON_ITERS steps.  Each round
    diagonalizes the trial angles of all moving members in one eigh.
    Returns lists (f, theta, top eigenvector, eigensolves).
    """
    k = len(theta)
    theta = list(theta)
    f, d1, d2, x = _expand(h, g, theta)
    x = list(x)
    evals = [1] * k
    left = [_NEWTON_ITERS] * k
    step = [_newton_step(*fd) for fd in zip(f, d1, d2)]
    live = [j for j in range(k) if abs(step[j] * d1[j]) > _EPS * f[j]]
    while live:
        sub = live if len(live) < k else slice(None)
        tf, td1, td2, tx = _expand(h[sub], g[sub],
                                   [theta[j] + step[j] for j in live])
        moving = []
        for i, j in enumerate(live):
            evals[j] += 1
            if tf[i] > f[j]:
                theta[j] += step[j]
                f[j], d1[j], d2[j], x[j] = tf[i], td1[i], td2[i], tx[i]
                left[j] -= 1
                if not left[j]:
                    continue
                step[j] = _newton_step(f[j], d1[j], d2[j])
            else:
                step[j] *= 0.5
            if abs(step[j] * d1[j]) > _EPS * f[j]:
                moving.append(j)
        live = moving
    return f, [t % (2.0 * np.pi) for t in theta], x, evals


def _level_set(h: np.ndarray, g: np.ndarray, phi: np.ndarray,
               gamma: np.ndarray) -> list:
    """For each member, the angles where gamma is an eigenvalue of
    M(theta), with the midpoints between consecutive ones (sorted on the
    circle), as one array per member.

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
    k, n = h.shape[0], h.shape[-1]
    m, dm = _pencil(h, g, phi)
    eye = np.eye(n)
    shift = gamma[:, None, None] * eye
    comp = np.zeros((k, 2 * n, 2 * n), dtype=np.complex128)
    comp[:, :n, n:] = eye
    comp[:, n:] = np.linalg.solve(
        m + shift, np.concatenate([m - shift, 2.0 * dm], axis=-1))
    tau = np.linalg.eigvals(comp)
    # |Im theta| = artanh(2 |Im tau| / (1 + |tau|^2))
    real = 2.0 * np.abs(tau.imag) <= _TANH_NEAR_REAL * (1.0 + np.abs(tau) ** 2)
    angle = (phi[:, None] + 2.0 * np.arctan(tau.real)) % (2.0 * np.pi)
    out = []
    for row, keep in zip(angle, real):
        cross = np.sort(row[keep])
        mid = 0.5 * (cross + np.append(cross[1:], cross[:1] + 2.0 * np.pi))
        out.append(np.concatenate([cross, mid]))
    return out


def _certify(a: np.ndarray, top: np.ndarray) -> list:
    """`numerical_radius` of each member of a stack of nonzero matrices;
    ``top`` holds each member's largest |a_ij|."""
    k = a.shape[0]
    # w is positively homogeneous; rescaling by a power of two is exact
    # and keeps |v_j* M' v|^2 and the companion matrix in range
    e = np.frexp(top)[1]
    h, g = _herm_parts(
        np.ldexp(a.view(np.float64), -e[:, None, None]).view(np.complex128))
    scan = _scan(h, g)
    f, theta, x, evals = _ascend(h, g, _GRID[scan.argmax(axis=1)].tolist())
    evals = [v + _HALF for v in evals]
    phi = [t + np.pi for t in _GRID[scan.argmin(axis=1)].tolist()]
    gamma = [0.0] * k
    todo = list(range(k))
    while todo:
        for j in todo:
            gamma[j] = f[j] * (1.0 + _LEVEL)
        sub = todo if len(todo) < k else slice(None)
        starts = _level_set(h[sub], g[sub], np.array([phi[j] for j in todo]),
                            np.array([gamma[j] for j in todo]))
        for j, s in zip(todo, starts):
            evals[j] += 1 + s.size
        probe = [(j, s) for j, s in zip(todo, starts) if s.size]
        if not probe:
            break
        owner = [j for j, s in probe for _ in range(s.size)]
        vals = _top(h[owner], g[owner], np.concatenate([s for _, s in probe]))
        restart, thetas, at = [], [], 0
        for j, s in probe:
            seg = vals[at:at + s.size]
            at += s.size
            if not seg.max() <= gamma[j]:
                restart.append(j)
                thetas.append(float(s[np.argmax(seg)]))
        if restart:
            rf, rt, rx, more = _ascend(h[restart], g[restart], thetas)
            for i, j in enumerate(restart):
                f[j], theta[j], x[j] = rf[i], rt[i], rx[i]
                evals[j] += more[i]
        todo = restart
    with np.errstate(over="ignore"):  # a radius above the largest float is inf
        return [RadiusResult(float(np.ldexp(f[j], e[j])), theta[j] % np.pi, x[j],
                             evals[j], float(np.ldexp(gamma[j], e[j])))
                for j in range(k)]


def _radius_stack(a) -> tuple[np.ndarray, bool]:
    """(``a`` as a finite complex (k, n, n) stack, whether it was one 2-D
    matrix), or the error `numerical_radius` raises on it."""
    s, flat = _as_stack(a, "A")
    if s.shape[-2] != s.shape[-1]:
        raise NotSquareError(f"numerical radius needs square input, got {s.shape[-2:]}")
    return s, flat


def numerical_radius(a):
    """Certified numerical radius w(A) = max over theta of f(theta).

    f(theta) = lambda_max(cos(theta) H - sin(theta) G) on [0, 2 pi),
    A = H + iG.  Three steps:

    1. coarse scan: 32 equispaced angles in one batched eigvalsh call
       (`_scan`), which solves 16 of them: the top and bottom
       eigenvalues at theta give f(theta) and f(theta + pi);
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

    A 2-D A gives one RadiusResult.  A (k, n, n) stack gives a list of k,
    member j's equal bit for bit to the call on A[j] alone: each step
    runs on all members at once (one stacked LAPACK call per scan,
    Newton round and level-set solve), and a member that is done drops
    out of the later rounds.  Members go through in chunks whose scan
    holds at most _CHUNK = 2^17 complex entries (32 members at n = 16),
    so that the working memory of a long stack stays bounded; `_scan`
    forms a chunk's matrices in one buffer, with block temporaries of at
    most _CHUNK // 64 entries (or one member's).

    Inputs are checked by `_radius_stack`.  Non-finite entries, or a
    finite entry whose modulus overflows, raise NonFiniteError (a
    ValueError).
    """
    stack, flat = _radius_stack(a)
    top = np.abs(stack).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(top).all():
        raise NonFiniteError("A has an entry whose modulus overflows")
    k, n = stack.shape[0], stack.shape[-1]
    out = [None] * k
    todo = np.flatnonzero(top)
    size = max(1, _CHUNK // (_HALF * n * n or 1))
    for at in range(0, todo.size, size):
        part = todo[at:at + size]
        for j, r in zip(part.tolist(), _certify(np.ascontiguousarray(stack[part]), top[part])):
            out[j] = r
    # w(0) = 0, with any unit vector as witness
    out = [RadiusResult(0.0, 0.0, np.eye(1, n, dtype=np.complex128)[0], 0, 0.0)
           if r is None else r for r in out]
    return out[0] if flat else out


def numerical_radius_oracle(
    a, restarts: int = 32, iters: int = 100, seed: int = 0
) -> float:
    """Independent numerical radius estimate by alternating ascent.

    From a random unit x, alternately set theta = -arg <Ax, x> and
    replace x by the top eigenvector of Re(e^{i theta} A).  Both moves
    are non-decreasing in |<Ax, x>|, so each restart converges; the max
    over ``restarts`` starts is returned.  It shares no code with
    `numerical_radius`'s coarse scan, Newton polish or level-set
    certificate, nor with its input check.
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


def spectral_radius(a):
    """Largest eigenvalue modulus r(A); of a (k, n, n) stack, the array of
    its members' radii, from one stacked eigenvalue call."""
    ev = general_eigenvalues(a)
    r = np.abs(ev).max(axis=-1, initial=0.0)
    return float(r) if ev.ndim == 1 else r
