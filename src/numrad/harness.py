"""Seeded ensembles, falsification campaigns, and reference examples.

A campaign draws hypothesis-respecting random inputs for every
catalogued bound, evaluates both sides, and aggregates pass / fail /
skip counts with slack statistics.  Reports are byte-identical across
runs with the same config: per-trial seeds come from a fixed integer
mix of (master seed, family salt, trial index), and floats are
serialized with shortest round-trip repr.

Violations are first-class output, not errors: each failure row carries
the derived seed and the full inputs, and `replay_failure` re-evaluates
the record standalone to the identical slack.
"""

from __future__ import annotations

import io
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from .catalog import (  # the grids are re-exported for callers of this module
    ALIASES,
    ALL_BOUND_IDS,
    FAMILIES,
    H_ALPHA_GRID,
    H_DEC_GRID,
    H_INC_GRID,
    NU_GRID,
    P_GRID,
    PAIR_GRID,
    SIGMA_GRID,
    check_block,
    compatible_signatures,
    evaluate_bound,
    evaluate_family,
    family_of,
    required_operands,
)
from .errors import InvalidSpecError
from .matrixcore import abs_op, as_cmatrix, op_norm
from .radii import spectral_radius

__all__ = [
    "EnsembleSpec",
    "generate",
    "mix_seed",
    "matrix_to_doc",
    "doc_to_matrix",
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
    "replay_failure",
    "ReferenceRow",
    "reference_examples",
    "SharpnessReport",
    "sharpness_compare",
]

_M64 = (1 << 64) - 1

ENSEMBLE_KINDS = (
    "ginibre", "positive-definite", "unitary", "hermitian",
    "commuting-with-absA*",
)

U_GRID = (0.25, 0.5, 0.75, 1.0)  # target spectral radii for scaled-X trials


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def mix_seed(master: int, salt: int, trial: int) -> int:
    """Per-trial seed: three splitmix64 rounds over (master, salt, trial).

    Stateless, so trials can run in any order or in parallel without
    changing the streams.
    """
    z = _splitmix64(master & _M64)
    z = _splitmix64(z ^ ((salt & _M64) * 0x9E3779B97F4A7C15 & _M64))
    return _splitmix64(z ^ (trial & _M64))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _commuting(rng, a):
    """Random real polynomial in |A*|: Hermitian and commuting by construction."""
    base = abs_op(as_cmatrix(a, "A").conj().T)
    n = base.shape[0]
    coeffs = rng.standard_normal(n)
    x = np.zeros_like(base)
    power = np.eye(n, dtype=np.complex128)
    for c in coeffs:
        x = x + c * power
        power = power @ base
    s = op_norm(x)
    return x / s if s > 1.0 else x


@dataclass(frozen=True)
class EnsembleSpec:
    """A named random-matrix distribution with a fixed seed."""

    kind: str
    dim: int
    spectrum: tuple[float, float] | None = None
    seed: int = 0


def generate(spec: EnsembleSpec, companion=None) -> np.ndarray:
    """Draw one matrix from the ensemble; deterministic per (seed, spec).

    Kinds: "ginibre" (i.i.d. standard complex Gaussian entries),
    "hermitian" ((G+G*)/2 of a ginibre draw), "unitary" (QR of a ginibre
    draw with phase-fixed diagonal), "positive-definite" (Haar
    conjugation of a diagonal whose endpoints are exactly
    spec.spectrum = (m, M), interior uniform in [m, M]; default (1, 4)),
    and "commuting-with-absA*" (q(|companion*|) for a random real
    polynomial q of degree < dim, normalized to operator norm <= 1
    when large).
    """
    if spec.kind not in ENSEMBLE_KINDS:
        raise InvalidSpecError(
            f"unknown ensemble kind {spec.kind!r}; known: {ENSEMBLE_KINDS}"
        )
    if not 1 <= spec.dim <= 16:
        raise InvalidSpecError(f"dim must lie in 1..16, got {spec.dim}")
    rng = _rng(spec.seed)
    n = spec.dim
    if spec.kind == "ginibre":
        return _ginibre(rng, n)
    if spec.kind == "hermitian":
        g = _ginibre(rng, n)
        return 0.5 * (g + g.conj().T)
    if spec.kind == "unitary":
        return _haar_unitary(rng, n)
    if spec.kind == "positive-definite":
        m, big_m = spec.spectrum if spec.spectrum is not None else (1.0, 4.0)
        if not 0.0 < m <= big_m:
            raise InvalidSpecError(f"need 0 < m <= M, got ({m}, {big_m})")
        if n == 1:
            return np.array([[m]], dtype=np.complex128)
        eigs = np.concatenate([[m, big_m], rng.uniform(m, big_m, n - 2)])
        u = _haar_unitary(rng, n)
        p = (u * eigs) @ u.conj().T
        return 0.5 * (p + p.conj().T)
    # commuting-with-absA*
    if companion is None:
        raise InvalidSpecError("commuting kind needs a companion matrix")
    return _commuting(rng, companion)


# ---------------------------------------------------------------------------
# Matrix <-> JSON document (rows of [re, im] pairs)


def matrix_to_doc(m) -> dict:
    """Serialize a matrix as {"rows", "cols", "data"} with [re, im] entries."""
    m = as_cmatrix(m, "matrix")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [
            [[float(v.real), float(v.imag)] for v in row] for row in m
        ],
    }


def doc_to_matrix(doc: dict) -> np.ndarray:
    """Parse the document format produced by `matrix_to_doc`."""
    try:
        rows, cols, data = int(doc["rows"]), int(doc["cols"]), doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("matrix document dimensions do not match data")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        for j, pair in enumerate(row):
            re, im = float(pair[0]), float(pair[1])
            out[i, j] = complex(re, im)
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError("matrix document contains non-finite entries")
    return out


# ---------------------------------------------------------------------------
# Campaigns


def _expand_bounds(bounds) -> tuple[str, ...]:
    out: list[str] = []
    for b in bounds:
        for e in ALIASES.get(b, (b,)):
            required_operands(e)  # raises UnknownBoundId for junk
            if e not in out:
                out.append(e)
    return tuple(out)


@dataclass(frozen=True)
class CampaignConfig:
    """What to run: bound IDs, trial count, dimension cycle, seed, grids.

    ``params`` maps a bound ID to overrides of its family's grids, a
    subset of {"p": ..., "nu": ..., "pair": ..., "h": ..., "sigma": ...};
    values may be scalars or nonempty lists (cycled by trial index).  An
    override on any ID in a family applies to the family's shared
    evaluation.
    """

    bounds: tuple = ALL_BOUND_IDS
    trials: int = 200
    dims: tuple = (2, 3, 4, 5)
    seed: int = 42
    params: dict = field(default_factory=dict)
    atol: float = 1e-9
    rtol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "bounds", _expand_bounds(self.bounds))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.trials < 1:
            raise InvalidSpecError("trials must be >= 1")
        if not self.dims or any(not 1 <= d <= 16 for d in self.dims):
            raise InvalidSpecError("dims must be a nonempty list within 1..16")
        for bid, override in self.params.items():
            grids = family_of(bid).grids
            for key, v in override.items():
                if key not in grids:
                    raise InvalidSpecError(
                        f"{bid} has no parameter {key!r}; its family takes "
                        f"{', '.join(grids) or 'none'}")
                if isinstance(v, (list, tuple)) and not v:
                    raise InvalidSpecError(f"{bid} {key}: empty list")


def _fam_param(cfg: CampaignConfig, family, key, t):
    """Trial t's value of ``key``: the first override on any of the
    family's IDs, else the family's grid, lists cycled by trial index."""
    v = family.grids[key]
    for bid in family.ids:
        override = cfg.params.get(bid, {})
        if key in override:
            v = override[key]
            break
    if isinstance(v, (list, tuple)):
        v = v[t % len(v)]
    return float(v) if key in ("p", "nu") else v


def _trial(family, cfg, t, dim, seed, commuting):
    """Draw trial t's inputs for ``family`` and evaluate the family once.

    One Ginibre matrix per operand, in a, b, x order.  With ``commuting``,
    X is instead a polynomial in |A*|, rescaled on odd trials to a
    spectral radius from U_GRID so the r(X) <= 1 branches get exercised.
    Returns (reports in ``family.ids`` order, operand name -> matrix).
    """
    rng = _rng(seed)
    mats = {}
    for name in family.operands:
        if name == "x" and commuting:
            x = _commuting(rng, mats["a"])
            if t % 2 == 1:
                r = spectral_radius(x)
                if r > 0:
                    x = x * (U_GRID[(t // 2) % len(U_GRID)] / r)
            mats["x"] = x
        else:
            mats[name] = _ginibre(rng, dim)
    params = {key: _fam_param(cfg, family, key, t) for key in family.grids}
    return evaluate_family(family, mats, **params), mats


# params worth persisting in a failure record: exactly the kwargs
# evaluate_bound accepts, so records replay standalone
_REPLAY_KEYS = ("p", "nu", "pair", "h", "sigma")


def _fmt(v) -> str:
    return repr(float(v))


@dataclass
class CampaignReport:
    """Everything a campaign produced, in deterministic order."""

    config: dict
    rows: list = field(default_factory=list)
    per_bound: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    info_rows: list = field(default_factory=list)

    @property
    def total_failed(self) -> int:
        return sum(s["failed"] for s in self.per_bound.values())

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("bound_id,trial,dim,seed,lhs,rhs,slack,status\n")
        for r in list(self.rows) + list(self.info_rows):
            buf.write(
                f"{r['bound_id']},{r['trial']},{r['dim']},{r['seed']},"
                f"{_fmt(r['lhs'])},{_fmt(r['rhs'])},{_fmt(r['slack'])},"
                f"{r['status']}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "per_bound": self.per_bound,
            "rows": self.rows,
            "failures": self.failures,
            "info_rows": self.info_rows,
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True)

    def summary_lines(self) -> list:
        lines = []
        for bid, s in self.per_bound.items():
            mn = "-" if s["min_slack"] is None else f"{s['min_slack']:.3e}"
            lines.append(
                f"{bid:5s} trials={s['trials']:<5d} pass={s['passed']:<5d} "
                f"fail={s['failed']:<5d} skip={s['skipped']:<5d} min_slack={mn}"
            )
        return lines


def _row(bid, t, dim, seed, rep, status) -> dict:
    return {"bound_id": bid, "trial": t, "dim": dim, "seed": seed,
            "lhs": float(rep.lhs), "rhs": float(rep.rhs),
            "slack": float(rep.slack), "status": status}


def _stats_blank():
    return {"trials": 0, "passed": 0, "failed": 0, "skipped": 0,
            "min_slack": None, "mean_slack": None}


def run_campaign(cfg: CampaignConfig, with_info: bool = False) -> CampaignReport:
    """Run the falsification campaign described by ``cfg``.

    For every family containing a requested bound, each trial derives
    its own seed, draws inputs honoring the family's hypotheses,
    evaluates the family's checks once, and records one row per bound:
    status "pass"/"fail" by the slack tolerance, or "skip" when the
    hypothesis gate reports false.  Identical configs produce identical
    reports.

    ``with_info`` appends verdict-free rows probing each commuting-X
    family (B18-B21) on unconstrained X, tagged status "info".
    """
    report = CampaignReport(config={
        "bounds": list(cfg.bounds),
        "trials": cfg.trials,
        "dims": list(cfg.dims),
        "seed": cfg.seed,
        "params": {k: dict(v) for k, v in cfg.params.items()},
        "atol": cfg.atol,
        "rtol": cfg.rtol,
    })
    slack_accum: dict = {}
    for family in FAMILIES:
        wanted = [i for i in family.ids if i in cfg.bounds]
        if not wanted:
            continue
        for bid in wanted:
            report.per_bound[bid] = _stats_blank()
            slack_accum[bid] = []
        salt = zlib.crc32(family.name.encode())
        for t in range(cfg.trials):
            dim = cfg.dims[t % len(cfg.dims)]
            seed = mix_seed(cfg.seed, salt, t)
            reports, inputs = _trial(family, cfg, t, dim, seed,
                                     family.commuting_x)
            for bid, rep in zip(family.ids, reports):
                if bid not in wanted:
                    continue
                stats = report.per_bound[bid]
                stats["trials"] += 1
                if not rep.hypothesis_ok:
                    stats["skipped"] += 1
                    status = "skip"
                else:
                    ok = rep.slack >= -(cfg.atol + cfg.rtol * abs(rep.rhs))
                    status = "pass" if ok else "fail"
                    stats["passed" if ok else "failed"] += 1
                    slack_accum[bid].append(rep.slack)
                    if not ok:
                        report.failures.append({
                            "bound_id": bid,
                            "trial": t,
                            "dim": dim,
                            "seed": seed,
                            "lhs": rep.lhs,
                            "rhs": rep.rhs,
                            "slack": rep.slack,
                            "params": {k: rep.params[k] for k in _REPLAY_KEYS
                                       if k in rep.params},
                            "inputs": {
                                name.upper(): matrix_to_doc(inputs[name])
                                for name in required_operands(bid)
                            },
                        })
                report.rows.append(_row(bid, t, dim, seed, rep, status))
    for bid, slacks in slack_accum.items():
        if slacks:
            report.per_bound[bid]["min_slack"] = float(min(slacks))
            report.per_bound[bid]["mean_slack"] = float(sum(slacks) / len(slacks))
    if with_info:
        report.info_rows.extend(_unconstrained_alpha_rows(cfg))
    return report


def _unconstrained_alpha_rows(cfg: CampaignConfig) -> list:
    """Probe commuting-X families (B18-B21) with plain Ginibre X.

    These claims are only stated under the commutation hypothesis, so
    the rows carry status "info" and no verdict; they exist to document
    behavior outside the hypothesis.
    """
    rows = []
    for family in FAMILIES:
        wanted = [i for i in family.ids if i in cfg.bounds]
        if not (family.commuting_x and wanted):
            continue
        salt = zlib.crc32(f"{family.name}-unconstrained".encode())
        for t in range(cfg.trials):
            dim = cfg.dims[t % len(cfg.dims)]
            seed = mix_seed(cfg.seed, salt, t)
            reports, _ = _trial(family, cfg, t, dim, seed, False)
            rows.extend(_row(bid, t, dim, seed, rep, "info")
                        for bid, rep in zip(family.ids, reports)
                        if bid in wanted)
    return rows


def replay_failure(record: dict):
    """Re-evaluate a campaign failure record standalone.

    Returns the fresh BoundReport; determinism demands its slack equal
    the recorded one bit-for-bit.
    """
    kwargs = {name.lower(): doc_to_matrix(doc)
              for name, doc in record["inputs"].items()}
    params = {k: v for k, v in record.get("params", {}).items()
              if k in _REPLAY_KEYS}
    return evaluate_bound(record["bound_id"], **kwargs, **params)


# ---------------------------------------------------------------------------
# Reference examples (two fixed 2x2 input sets with published values)

_EX1_A = np.array([[1, 0], [-1, 2]], dtype=np.complex128)
_EX1_B = np.array([[1, 5], [-1, 2]], dtype=np.complex128)
_EX2_A = np.array([[1, 2], [3, 0]], dtype=np.complex128)
_EX2_B = np.array([[3, 4], [1, 5]], dtype=np.complex128)
_EX2_X = np.array([[1, 2], [0, 1]], dtype=np.complex128)


@dataclass(frozen=True)
class ReferenceRow:
    """One computed quantity next to its published reference value."""

    label: str
    computed: float
    reference: float
    abs_error: float
    tol: float

    @property
    def within(self) -> bool:
        return self.abs_error <= self.tol


def _ref_row(label, computed, reference, tol) -> ReferenceRow:
    computed = float(computed)
    return ReferenceRow(label, computed, reference,
                        abs(computed - reference), tol)


def reference_examples() -> tuple:
    """Recompute the five published reference quantities.

    Example set 1 (A, B fixed 2x2): the quarter-norm bound
    ||AA* + BB*||/4 and the product bound ||A|| ||B||/2.  Example set 2
    (A, B, X fixed 2x2): the Schwarz-type bound ||A*|X*|A + B*|X|B||/2,
    the block-refinement bound ||AA*X + XBB*||/4 +
    max(w(XBA*), w(BA*X))/2, and w(A*XB) itself.  Each row reports the
    deviation from the published value at printing precision (5e-4 for
    set 1, 1e-3 for set 2).

    Two published set-2 values are not the quantities their rows
    compute, so those rows are not ``within``.  The published 42.2677 is
    the operator norm ||A*XB|| = 42.26774, not w(A*XB) = 39.91461.  The
    published 57.7024 does not follow from the block-refinement formula
    above, which gives 51.52598 on these inputs.  Both computed values
    agree with the exact 2x2 numerical radius (elliptical range
    theorem) to roundoff.
    """
    a1, b1 = _EX1_A, _EX1_B
    r1 = 0.25 * op_norm(a1 @ a1.conj().T + b1 @ b1.conj().T)
    r2 = 0.5 * op_norm(a1) * op_norm(b1)

    a2, b2, x2 = _EX2_A, _EX2_B, _EX2_X
    s = (a2.conj().T @ abs_op(x2.conj().T) @ a2
         + b2.conj().T @ abs_op(x2) @ b2)
    r3 = 0.5 * op_norm(0.5 * (s + s.conj().T))
    block = check_block(a2, b2, x2)  # B14: rhs is the bound, lhs w(A*XB)
    r4, r5 = block.rhs, block.lhs

    return (
        _ref_row("ex1.quarter_norm", r1, 7.5432, 5e-4),
        _ref_row("ex1.half_norm_product", r2, 6.1962, 5e-4),
        _ref_row("ex2.schwarz_bound", r3, 59.5407, 1e-3),
        _ref_row("ex2.block_bound", r4, 57.7024, 1e-3),
        _ref_row("ex2.omega_product", r5, 42.2677, 1e-3),
    )


# ---------------------------------------------------------------------------
# Paired sharpness comparison


@dataclass(frozen=True)
class SharpnessReport:
    """Paired right-hand-side statistics for two bounds on one ensemble."""

    bound_a: str
    bound_b: str
    trials: int
    skipped: int
    wins_a: int
    wins_b: int
    ties: int
    mean_gap: float
    pairs: tuple

    @property
    def evaluated(self) -> int:
        return self.trials - self.skipped


def sharpness_compare(bound_a: str, bound_b: str,
                      cfg: CampaignConfig | None = None,
                      inputs=None, params_a=None, params_b=None) -> SharpnessReport:
    """Which bound's right side is tighter on a shared ensemble?

    Both bounds must consume the same operands.  Each trial draws one
    shared input tuple (the commuting-X ensemble when either bound's
    family needs it, as B18-B21 do), evaluates both right sides, and
    counts wins; gap = rhs_b - rhs_a, so positive mean gap means
    bound_a is the tighter one.  Pass ``inputs`` (a tuple of matrices
    matching the operand list) to compare on fixed inputs instead.
    """
    compatible_signatures(bound_a, bound_b)
    params_a = dict(params_a or {})
    params_b = dict(params_b or {})
    operands = required_operands(bound_a)

    def one(mats) -> tuple:
        kwargs = dict(zip(operands, mats))
        ra = evaluate_bound(bound_a, **kwargs, **params_a)
        rb = evaluate_bound(bound_b, **kwargs, **params_b)
        return ra, rb

    use_commuting = (family_of(bound_a).commuting_x
                     or family_of(bound_b).commuting_x)

    draws = []
    if inputs is not None:
        if len(inputs) != len(operands):
            raise InvalidSpecError(
                f"{bound_a} takes {len(operands)} input(s) "
                f"({', '.join(operands)}), got {len(inputs)}")
        draws.append(tuple(inputs))
        trials = 1
    else:
        cfg = cfg or CampaignConfig()
        trials = cfg.trials
        salt = zlib.crc32(f"sharpness:{bound_a}:{bound_b}".encode())
        for t in range(trials):
            dim = cfg.dims[t % len(cfg.dims)]
            rng = _rng(mix_seed(cfg.seed, salt, t))
            mats = [_ginibre(rng, dim) for _ in operands]
            if use_commuting and "x" in operands:
                mats[operands.index("x")] = _commuting(rng, mats[0])
            draws.append(tuple(mats))

    skipped = wins_a = wins_b = ties = 0
    gaps = []
    pairs = []
    for mats in draws:
        ra, rb = one(mats)
        if not (ra.hypothesis_ok and rb.hypothesis_ok):
            skipped += 1
            continue
        gap = rb.rhs - ra.rhs
        gaps.append(gap)
        pairs.append((float(ra.rhs), float(rb.rhs)))
        tie_tol = 1e-12 * (1.0 + abs(rb.rhs))
        if gap > tie_tol:
            wins_a += 1
        elif gap < -tie_tol:
            wins_b += 1
        else:
            ties += 1
    mean_gap = float(sum(gaps) / len(gaps)) if gaps else float("nan")
    return SharpnessReport(bound_a, bound_b, trials, skipped,
                           wins_a, wins_b, ties, mean_gap, tuple(pairs))
