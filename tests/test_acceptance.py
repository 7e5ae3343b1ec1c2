"""The eight acceptance criteria, one test each.

Every test prints a single scoreboard line

    ACCEPTANCE <n>: PASS|FAIL -- <measurements>

and then asserts the criterion as stated, with its pinned tolerances.
Criteria are never weakened to make a red test green: a failing line
documents a genuine violation (see the campaign's failure records for
replayable inputs), not a broken harness.

Two criteria check the program against what is known about the
catalog rather than against the claims as printed:

- criterion 2 compares the Example 2 quantities with an exact 2x2
  numerical radius (elliptical range theorem, C.-K. Li, Proc. AMS 124,
  1996) that shares no code with ``numrad.radii``, and pins why two
  published values deviate: 42.2677 is ||A*XB||, not w(A*XB), and
  57.7024 does not follow from the block-refinement formula;
- criterion 3 establishes on a 1x1 input that the Kantorovich-weighted
  mean family B06-B10 is false as stated, then demands that the master
  campaign falsifies each of those six claims with records that replay
  bit-identically, and finds no failure on any other bound.
"""

import time
import zlib

import numpy as np

from numrad.catalog import (
    ALL_BOUND_IDS,
    L04_TOL,
    LEMMA_IDS,
    check_lemma,
    evaluate_bound,
)
from numrad.cli import main
from numrad.harness import (
    H_DEC_GRID,
    H_INC_GRID,
    NU_GRID,
    SIGMA_GRID,
    CampaignConfig,
    EnsembleSpec,
    generate,
    mix_seed,
    reference_examples,
    replay_failure,
    run_campaign,
)
from numrad.matrixcore import abs_op, op_norm, polar
from numrad.meansfuncs import kantorovich, mean, psd_pow, spectrum_bounds
from numrad.radii import numerical_radius, numerical_radius_oracle

JORDAN = np.array([[0, 1], [0, 0]], dtype=complex)


def _verdict(scoreboard, n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    scoreboard.append(line)
    return line


def _ginibre(rng, n):
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def test_criterion_1_example1_values(scoreboard):
    t0 = time.perf_counter()
    rows = {r.label: r for r in reference_examples()}
    dt = time.perf_counter() - t0
    r1 = rows["ex1.quarter_norm"]
    r2 = rows["ex1.half_norm_product"]
    ok = r1.abs_error <= 5e-4 and r2.abs_error <= 5e-4 and dt < 1.0
    line = _verdict(
        scoreboard, 1, ok,
        f"quarter_norm={r1.computed:.6f} (err {r1.abs_error:.2e} vs 5e-4), "
        f"half_norm_product={r2.computed:.6f} (err {r2.abs_error:.2e} vs 5e-4), "
        f"runtime={dt:.3f}s",
    )
    assert ok, line


# Example 2 inputs, restated here so the check does not read them
# from the code under test
EX2_A = np.array([[1, 2], [3, 0]], dtype=complex)
EX2_B = np.array([[3, 4], [1, 5]], dtype=complex)
EX2_X = np.array([[1, 2], [0, 1]], dtype=complex)

# the Kantorovich-weighted mean family, false as stated
KNOWN_FALSE = ("B06", "B06p", "B07", "B08", "B09", "B10")


def _radius_2x2(t):
    """Exact w(T) for a 2x2 T by the elliptical range theorem.

    W(T) is the ellipse with foci at the eigenvalues l1, l2 and minor
    axis sqrt(||T||_F^2 - |l1|^2 - |l2|^2).  On its boundary
    z(s) = z0 + al s + be / s with |s| = 1, |z(s)|^2 is a Laurent
    polynomial sum c_k s^k (k = -2..2), and s^2 * s d/ds of it is a
    quartic whose unit-modulus roots hold every stationary point.
    """
    t = np.asarray(t, dtype=complex)
    l1, l2 = np.linalg.eigvals(t)
    semi_minor = 0.5 * np.sqrt(max(
        np.sum(np.abs(t) ** 2) - abs(l1) ** 2 - abs(l2) ** 2, 0.0))
    half_gap = 0.5 * abs(l1 - l2)
    semi_major = np.hypot(semi_minor, half_gap)
    u = (l1 - l2) / abs(l1 - l2) if half_gap > 0 else 1.0
    z0 = 0.5 * (l1 + l2)
    al = 0.5 * u * (semi_major + semi_minor)
    be = 0.5 * u * (semi_major - semi_minor)
    c2, cm2 = al * np.conj(be), be * np.conj(al)
    c1 = z0 * np.conj(be) + al * np.conj(z0)
    cm1 = z0 * np.conj(al) + be * np.conj(z0)
    roots = np.roots([2 * c2, c1, 0.0, -cm1, -2 * cm2])
    roots = roots[np.abs(roots) > 0]
    # s = 1 covers a disc centred at 0, whose quartic vanishes identically
    s = np.append(roots / np.abs(roots), 1.0)
    return float(np.max(np.abs(z0 + al * s + be / s)))


def test_criterion_2_example2_values(scoreboard):
    t0 = time.perf_counter()
    rows = {r.label: r for r in reference_examples()}
    dt = time.perf_counter() - t0
    schwarz = rows["ex2.schwarz_bound"]
    block = rows["ex2.block_bound"]
    omega = rows["ex2.omega_product"]

    a, b, x = EX2_A, EX2_B, EX2_X
    a_star = a.conj().T
    exact_omega = _radius_2x2(a_star @ x @ b)
    exact_block = (0.25 * np.linalg.norm(a @ a_star @ x + x @ b @ b.conj().T, 2)
                   + 0.5 * max(_radius_2x2(x @ b @ a_star),
                               _radius_2x2(b @ a_star @ x)))
    omega_dev = abs(omega.computed - exact_omega)
    block_dev = abs(block.computed - exact_block)
    exact_ok = (omega_dev <= 1e-9 * (1.0 + exact_omega)
                and block_dev <= 1e-9 * (1.0 + exact_block))
    # the published omega is the operator norm, which strictly exceeds w
    norm_prod = op_norm(a_star @ x @ b)
    norm_ok = (abs(omega.reference - norm_prod) <= 1e-3
               and omega.reference > omega.computed)
    ordering_ok = omega.computed < block.computed < schwarz.computed
    ok = (schwarz.abs_error <= 1e-3 and exact_ok and norm_ok
          and ordering_ok and dt < 1.0)
    line = _verdict(
        scoreboard, 2, ok,
        f"schwarz={schwarz.computed:.6f} (err {schwarz.abs_error:.2e} vs 1e-3); "
        f"block={block.computed:.6f} (exact-2x2 dev {block_dev:.1e}, "
        f"published {block.reference} off by {block.abs_error:.2e}); "
        f"omega={omega.computed:.6f} (exact-2x2 dev {omega_dev:.1e}, "
        f"published {omega.reference} = ||A*XB|| {norm_prod:.6f} off by "
        f"{omega.abs_error:.2e}); "
        f"ordering omega<block<schwarz={'holds' if ordering_ok else 'broken'}; "
        f"runtime={dt:.3f}s",
    )
    assert ok, line


def test_criterion_3_master_falsification_suite(scoreboard):
    one = np.array([[1.0]])
    tiny = {bid: evaluate_bound(bid, a=one, b=2.0 * one, x=one)
            for bid in KNOWN_FALSE}
    tiny_false = sorted(bid for bid, rep in tiny.items()
                        if rep.hypothesis_ok and not rep.satisfied)

    cfg = CampaignConfig(bounds=ALL_BOUND_IDS, trials=1000,
                         dims=(2, 3, 4, 5, 6), seed=42)
    t0 = time.perf_counter()
    report = run_campaign(cfg)
    dt = time.perf_counter() - t0

    failing_ids = sorted({f["bound_id"] for f in report.failures})
    counts_ok = all(
        s["trials"] == 1000
        and s["passed"] + s["failed"] + s["skipped"] == s["trials"]
        for s in report.per_bound.values()
    )
    unexpected = sorted(bid for bid, s in report.per_bound.items()
                        if bid not in KNOWN_FALSE and s["failed"])
    unfalsified = sorted(bid for bid in KNOWN_FALSE
                         if not report.per_bound[bid]["failed"])
    first = {}
    for rec in report.failures:
        first.setdefault(rec["bound_id"], rec)
    replay_broken = sorted(bid for bid, rec in first.items()
                           if replay_failure(rec).slack != rec["slack"])
    ok = (tiny_false == sorted(KNOWN_FALSE) and not unexpected
          and not unfalsified and not replay_broken
          and dt < 120.0 and counts_ok)
    line = _verdict(
        scoreboard, 3, ok,
        f"1x1 A=[1],B=[2],X=[1] violates {len(tiny_false)}/6 known-false; "
        f"failures={report.total_failed} "
        f"({','.join(failing_ids) if failing_ids else 'none'}), "
        f"unexpected={','.join(unexpected) or 'none'}, "
        f"unfalsified={','.join(unfalsified) or 'none'}, "
        f"replays bit-identical={len(first) - len(replay_broken)}/{len(first)}; "
        f"1000 trials x {len(report.per_bound)} bounds, runtime={dt:.1f}s "
        f"(budget 120s)",
    )
    assert counts_ok  # accounting must hold regardless of the verdict
    assert ok, line


def _poly_in(rng, base):
    # random Hermitian polynomial in a PSD matrix; commutes by construction
    n = base.shape[0]
    x = np.zeros_like(base)
    power = np.eye(n, dtype=complex)
    for c in rng.standard_normal(n):
        x = x + c * power
        power = power @ base
    s = op_norm(x)
    return x / s if s > 1.0 else x


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _lemma_inputs(lid, rng, n, t):
    if lid == "L01":
        return {"a": _ginibre(rng, n), "x": _unit(rng, n), "y": _unit(rng, n),
                "pair": ("sqrt", "pow:0.3", "pow:0.7")[t % 3]}
    if lid == "L02":
        kw = {
            "a": generate(EnsembleSpec("positive-definite", n, seed=int(rng.integers(2 ** 32)))),
            "b": generate(EnsembleSpec("positive-definite", n, seed=int(rng.integers(2 ** 32)))),
            "h": H_DEC_GRID[t % 3],
            "sigma": SIGMA_GRID[t % 3],
            "tau": SIGMA_GRID[(t // 3) % 3],
            "nu": NU_GRID[t % 3],
        }
        if t % 2:
            q, _ = np.linalg.qr(rng.standard_normal((n, max(1, n - 1)))
                                + 1j * rng.standard_normal((n, max(1, n - 1))))
            kw["v"] = q
        return kw
    if lid == "L03":
        return {"a": generate(EnsembleSpec("positive-definite", n,
                                           seed=int(rng.integers(2 ** 32)))),
                "h": H_DEC_GRID[t % 3]}
    if lid == "L04":
        return {"a": _ginibre(rng, n)}
    if lid == "L05":
        return {"a": _ginibre(rng, n), "b": _ginibre(rng, 2 + (n % 3))}
    if lid == "L06":
        return {k: _ginibre(rng, n) for k in ("a1", "b1", "a2", "b2")}
    if lid == "L07":
        return {k: _ginibre(rng, n) for k in ("a1", "b1", "a2", "b2", "x", "y")}
    if lid == "L08":
        a = _ginibre(rng, n)
        return {"a": a, "b": _poly_in(rng, abs_op(a)),
                "x": _unit(rng, n), "y": _unit(rng, n),
                "pair": ("sqrt", "pow:0.4")[t % 2]}
    # L09
    g1, g2 = _ginibre(rng, n), _ginibre(rng, n)
    return {"p": g1 @ g1.conj().T, "q": g2 @ g2.conj().T,
            "h": H_INC_GRID[t % 3], "nu": NU_GRID[t % 3]}


def test_criterion_4_lemma_suite(scoreboard):
    dims = (2, 3, 4, 5)
    trials = 500
    failures = []
    skipped = 0
    l02_min = float("inf")
    l04_worst = 0.0
    t0 = time.perf_counter()
    for lid in LEMMA_IDS:
        salt = zlib.crc32(f"lemma:{lid}".encode())
        for t in range(trials):
            rng = np.random.default_rng(mix_seed(42, salt, t))
            rep = check_lemma(lid, **_lemma_inputs(lid, rng, dims[t % 4], t))
            if not rep.hypothesis_ok:
                skipped += 1
                continue
            if lid == "L02":
                l02_min = min(l02_min, rep.min_eig_of_difference)
            if lid == "L04":
                l04_worst = max(l04_worst, rep.lhs / rep.params["upper"])
            if not rep.satisfied:
                failures.append((lid, t))
    dt = time.perf_counter() - t0
    ok = not failures and l02_min >= -1e-8
    line = _verdict(
        scoreboard, 4, ok,
        f"failures={len(failures)} over {len(LEMMA_IDS)} lemmas x {trials} "
        f"trials (skipped={skipped}), L02 min-eig={l02_min:.2e} "
        f"(floor -1e-8), L04 worst |w-sup|/upper={l04_worst:.2e} "
        f"(tol {L04_TOL:g}), "
        f"runtime={dt:.1f}s",
    )
    assert ok, line


def test_criterion_5_oracle_equivalence(scoreboard):
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    t0 = time.perf_counter()
    for t in range(100):
        n = 1 + t % 6
        a = _ginibre(rng, n)
        w_sweep = numerical_radius(a).value
        w_climb = numerical_radius_oracle(a)
        worst_rel = max(worst_rel,
                        abs(w_sweep - w_climb) / max(w_sweep, 1e-300))
    jordan_err = abs(numerical_radius(JORDAN).value - 0.5)
    dt = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and jordan_err <= 1e-9
    line = _verdict(
        scoreboard, 5, ok,
        f"sweep-vs-ascent worst rel dev={worst_rel:.2e} (cap 1e-6) on 100 "
        f"matrices n<=6, nilpotent-shift err={jordan_err:.2e} (cap 1e-9), "
        f"runtime={dt:.1f}s",
    )
    assert ok, line


def test_criterion_6_spectral_calculus_roundtrip(scoreboard):
    rng = np.random.default_rng(77)
    worst_sqrt = worst_polar = 0.0
    for t in range(500):
        n = 2 + t % 5
        g = _ginibre(rng, n)
        p = g @ g.conj().T
        root = psd_pow(p, 0.5)
        worst_sqrt = max(worst_sqrt,
                         op_norm(root @ root - p) / (1e-9 * (1.0 + op_norm(p))))
        a = _ginibre(rng, n)
        parts = polar(a)
        recon = op_norm(parts.unitary @ parts.positive - a)
        worst_polar = max(worst_polar, recon / (1e-10 * (1.0 + op_norm(a))))
    ok = worst_sqrt <= 1.0 and worst_polar <= 1.0
    line = _verdict(
        scoreboard, 6, ok,
        f"sqrt round-trip worst={worst_sqrt:.3f}x of 1e-9*(1+|P|), polar "
        f"reconstruction worst={worst_polar:.3f}x of 1e-10*(1+|A|), 500 draws",
    )
    assert ok, line


def test_criterion_7_mean_ordering(scoreboard):
    rng = np.random.default_rng(55)
    min_eig_seen = float("inf")
    kant_ok = True
    for t in range(500):
        n = 2 + t % 5
        lo = float(rng.uniform(0.2, 1.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        a = generate(EnsembleSpec("positive-definite", n, (lo, hi),
                                  seed=int(rng.integers(2 ** 32))))
        b = generate(EnsembleSpec("positive-definite", n, (lo, hi),
                                  seed=int(rng.integers(2 ** 32))))
        for nu in (0.1, 0.5, 0.9):
            harm = mean(a, b, "harm", nu)
            geom = mean(a, b, "geom", nu)
            arith = mean(a, b, "arith", nu)
            for diff in (geom - harm, arith - geom):
                min_eig_seen = min(min_eig_seen,
                                   float(np.linalg.eigvalsh(diff)[0]))
        sb = spectrum_bounds([a, b])
        k = sb.kantorovich
        if k < 1.0 or (sb.M > sb.m + 1e-12 and not k > 1.0):
            kant_ok = False
    kant_ok = kant_ok and kantorovich(3.7, 3.7) == 1.0
    ok = min_eig_seen >= -1e-9 and kant_ok
    line = _verdict(
        scoreboard, 7, ok,
        f"harmonic<=geometric<=arithmetic min-eig={min_eig_seen:.2e} "
        f"(floor -1e-9) over 500 PD pairs x nu in {{0.1,0.5,0.9}}; "
        f"kantorovich>=1 with equality iff m=M: {'holds' if kant_ok else 'broken'}",
    )
    assert ok, line


def test_criterion_8_campaign_determinism(scoreboard, tmp_path, capsys):
    args = ["campaign", "--seed", "42"]
    t0 = time.perf_counter()
    rc1 = main(args + ["--out", str(tmp_path / "one")])
    rc2 = main(args + ["--out", str(tmp_path / "two")])
    dt = time.perf_counter() - t0
    capsys.readouterr()
    csv1 = (tmp_path / "one.csv").read_bytes()
    csv2 = (tmp_path / "two.csv").read_bytes()
    n_rows = csv1.count(b"\n") - 1
    ok = csv1 == csv2 and len(csv1) > 0
    line = _verdict(
        scoreboard, 8, ok,
        f"default campaign twice at seed 42: CSV byte-identical={csv1 == csv2} "
        f"({len(csv1)} bytes, {n_rows} rows), exits=({rc1},{rc2}) "
        f"[1 = documented catalog violations], runtime={dt:.1f}s",
    )
    assert ok, line
