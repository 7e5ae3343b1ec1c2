"""A guided tour of the numerical radius computation.

Walks through a small gallery of matrices where w(A) is known in closed
form, shows the witness vectors attaining it, and cross-checks the
certified radius against the independent alternating-ascent oracle.

Run:  python3 demos/radius_tour.py
"""

import numpy as np

from numrad import (
    numerical_radius,
    numerical_radius_oracle,
    op_norm,
    spectral_radius,
)


def shift_matrix(n):
    """The n x n nilpotent shift: ones on the superdiagonal."""
    s = np.zeros((n, n), dtype=complex)
    s[np.arange(n - 1), np.arange(1, n)] = 1.0
    return s


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("Nilpotent shifts: w = cos(pi / (n+1))")
    # the one family where the radius has a pretty closed form
    for n in range(2, 7):
        r = numerical_radius(shift_matrix(n))
        exact = np.cos(np.pi / (n + 1))
        print(f"  n={n}:  w = {r.value:.12f}   closed form = {exact:.12f}   "
              f"diff = {abs(r.value - exact):.2e}")

    section("Normal matrices: w equals the spectral radius")
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    a = q @ np.diag([2 + 1j, -1.5, 0.3j, 0.5 - 0.5j]) @ q.conj().T
    print(f"  w        = {numerical_radius(a).value:.12f}")
    print(f"  specrad  = {spectral_radius(a):.12f}")

    section("Hermitian matrices: w equals the operator norm")
    h = np.array([[2, 1 - 1j], [1 + 1j, -3]], dtype=complex)
    print(f"  w     = {numerical_radius(h).value:.12f}")
    print(f"  norm  = {op_norm(h):.12f}")

    section("Why a half turn of lambda_max is not enough")
    # For A = -i diag(-2, 1) the rotated Hermitian part has its extreme
    # eigenvalue on the *bottom* of the spectrum for every angle in
    # [0, pi) where the top is small.  Tracking lambda_max alone over
    # that half turn tops out at 1; the radius is 2.  numerical_radius
    # maximizes lambda_max over the full turn [0, 2 pi), which covers
    # the bottom of the spectrum as lambda_max at theta + pi.
    a = -1j * np.diag([-2.0, 1.0])
    thetas = np.linspace(0.0, np.pi, 720, endpoint=False)
    hpart = 0.5 * (a + a.conj().T)
    gpart = (a - a.conj().T) / 2j
    lmax_only = max(
        np.linalg.eigvalsh(np.cos(t) * hpart - np.sin(t) * gpart)[-1]
        for t in thetas
    )
    r = numerical_radius(a)
    print(f"  sup of lambda_max alone = {lmax_only:.6f}   (wrong)")
    print(f"  w(A)                    = {r.value:.6f}   (right)")

    section("Witness vectors attain the radius")
    rng = np.random.default_rng(42)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    r = numerical_radius(a)
    x = r.witness
    rayleigh = abs(x.conj() @ (a @ x))
    print(f"  w(A)        = {r.value:.12f}  at theta = {r.theta:.6f}")
    print(f"  |<Ax, x>|   = {rayleigh:.12f}  for the returned unit x")

    section("Two algorithms, one answer")
    # the ascent oracle shares no code with numerical_radius; agreement to
    # ~1e-13 relative is the everyday outcome
    worst = 0.0
    for k in range(20):
        n = 2 + k % 5
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w1 = numerical_radius(a).value
        w2 = numerical_radius_oracle(a)
        worst = max(worst, abs(w1 - w2) / w1)
    print(f"  worst relative deviation over 20 random draws: {worst:.3e}")


if __name__ == "__main__":
    main()
