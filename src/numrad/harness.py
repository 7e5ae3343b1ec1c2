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
import itertools
import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from .catalog import (  # the grids are re-exported for callers of this module
    ALIASES,
    ALL_BOUND_IDS,
    ATOL,
    FAMILIES,
    H_ALPHA_GRID,
    H_DEC_GRID,
    H_INC_GRID,
    NU_GRID,
    P_GRID,
    PAIR_GRID,
    RTOL,
    SIGMA_GRID,
    _need_tolerance,
    compatible_signatures,
    evaluate_bound,
    family_of,
    radius_values,
    required_operands,
    stage_family,
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

ENSEMBLE_KINDS = ("ginibre", "positive-definite")

U_GRID = (0.25, 0.5, 0.75, 1.0)  # target spectral radii for scaled-X trials

# trials that a campaign stages at once, of every family: each family's
# trials of one dimension are evaluated as one stack, their radii of one
# dimension come from one stacked call, and the memory that staged trials
# hold stays that of this many, however long the campaign
_STAGED_TRIALS = 256


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


def generate(spec: EnsembleSpec) -> np.ndarray:
    """Draw one matrix from the ensemble; deterministic per spec.

    Kinds: "ginibre" (i.i.d. standard complex Gaussian entries) and
    "positive-definite" (Haar conjugation of a diagonal whose endpoints
    are exactly spec.spectrum = (m, M), interior uniform in [m, M];
    default (1, 4)).  Campaigns and sharpness comparisons draw their
    trials with `_draw`, not here.
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
    m, big_m = spec.spectrum if spec.spectrum is not None else (1.0, 4.0)
    if not 0.0 < m <= big_m:
        raise InvalidSpecError(f"need 0 < m <= M, got ({m}, {big_m})")
    if n == 1:
        return np.array([[m]], dtype=np.complex128)
    eigs = np.concatenate([[m, big_m], rng.uniform(m, big_m, n - 2)])
    u = _haar_unitary(rng, n)
    p = (u * eigs) @ u.conj().T
    return 0.5 * (p + p.conj().T)


# ---------------------------------------------------------------------------
# Matrix <-> JSON document (rows of [re, im] pairs)


def matrix_to_doc(m) -> dict:
    """Serialize a matrix as {"rows", "cols", "data"} with [re, im] entries."""
    m = as_cmatrix(m, "matrix")
    rows, cols = m.shape
    return {"rows": rows, "cols": cols,
            "data": m.view(np.float64).reshape(rows, cols, 2).tolist()}


def doc_to_matrix(doc: dict) -> np.ndarray:
    """Parse the document format produced by `matrix_to_doc`.

    ``data`` holds ``rows`` lists of ``cols`` [re, im] pairs; an empty
    matrix has no pairs to hold, so ``data`` is then [] (no rows) or
    ``rows`` empty lists.  Anything else raises ValueError.
    """
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        data = np.array(doc["data"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if data.shape != (rows, cols, 2) and not (
            data.size == 0 and data.shape == (rows, cols)[:data.ndim]):
        raise ValueError("matrix document dimensions do not match data")
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix document contains non-finite entries")
    return data.reshape(rows, cols, 2).view(np.complex128).reshape(rows, cols)


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
    """What to run: bound IDs (aliases expanded), trial count, dimension
    cycle, master seed, and the tolerance (atol, rtol) of the verdicts.

    The trial count is an integer >= 1, each dimension an integer in
    1..16 (numpy integers are taken as Python ints) and each tolerance a
    finite number >= 0; anything else raises InvalidSpecError.

    Each family's parameters come from its grids in ``catalog.FAMILIES``,
    cycled by trial index.
    """

    bounds: tuple = ALL_BOUND_IDS
    trials: int = 200
    dims: tuple = (2, 3, 4, 5)
    seed: int = 42
    atol: float = ATOL
    rtol: float = RTOL

    def __post_init__(self):
        object.__setattr__(self, "bounds", _expand_bounds(self.bounds))
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise InvalidSpecError(f"trials must be an integer >= 1, got {self.trials!r}")
        dims = tuple(self.dims)
        if not dims or not all(isinstance(d, (int, np.integer)) and 0 < d <= 16 for d in dims):
            raise InvalidSpecError(f"dims must be a nonempty list of integers in 1..16, got {dims}")
        object.__setattr__(self, "dims", tuple(map(int, dims)))
        object.__setattr__(self, "trials", int(self.trials))
        _need_tolerance(self.atol, "atol")
        _need_tolerance(self.rtol, "rtol")


def _draw(cfg: CampaignConfig, operands, salt: int, t: int, commuting: bool):
    """Trial t's inputs, the one sampler behind campaigns, info rows and
    sharpness comparisons.

    The trial runs at dims[t % len(dims)] from seed mix_seed(cfg.seed,
    salt, t): one Ginibre matrix per name in ``operands``, in that order.
    With ``commuting``, X is instead a polynomial in |A*|, rescaled on odd
    trials to a spectral radius from U_GRID so the r(X) <= 1 branches get
    exercised.  Returns (dim, seed, operand name -> matrix).
    """
    dim = cfg.dims[t % len(cfg.dims)]
    seed = mix_seed(cfg.seed, salt, t)
    rng = _rng(seed)
    mats = {}
    for name in operands:
        if name == "x" and commuting:
            x = _commuting(rng, mats["a"])
            if t % 2 == 1:
                r = spectral_radius(x)
                if r > 0:
                    x = x * (U_GRID[(t // 2) % len(U_GRID)] / r)
            mats["x"] = x
        else:
            mats[name] = _ginibre(rng, dim)
    return dim, seed, mats


def _by_dim(cfg, operands, salt: int, commuting: bool, trials) -> list:
    """The `_draw`s of trials t in ``trials``, one stack per dimension:
    (draws, operand name -> (k, n, n) stack of their matrices) per
    dimension, the draws (t, dim, seed, operand name -> matrix) in trial
    order."""
    groups = {}
    for t in trials:
        dim, seed, mats = _draw(cfg, operands, salt, t, commuting)
        groups.setdefault(dim, []).append((t, dim, seed, mats))
    return [(draws, {n: np.stack([d[3][n] for d in draws]) for n in operands})
            for draws in groups.values()]


def _fmt(v) -> str:
    return repr(float(v))


# json.dumps(doc, sort_keys=True, allow_nan=True) encodes with these
# settings, so the pieces of a report it encodes join to that text
_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=True).encode


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

    def write_csv(self, fh) -> None:
        """Write the CSV of the verdict rows, then the info rows, to ``fh``."""
        fh.write("bound_id,trial,dim,seed,lhs,rhs,slack,status\n")
        for r in itertools.chain(self.rows, self.info_rows):
            fh.write(
                f"{r['bound_id']},{r['trial']},{r['dim']},{r['seed']},"
                f"{_fmt(r['lhs'])},{_fmt(r['rhs'])},{_fmt(r['slack'])},"
                f"{r['status']}\n"
            )

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def _json_parts(self):
        """The text of `to_json` in pieces, in sorted key order, a failure
        record at a time, so that a writer never holds the whole text."""
        yield '{"config": ' + _ENCODE(self.config) + ', "failures": ['
        for i, rec in enumerate(self.failures):
            yield ", " + _ENCODE(rec) if i else _ENCODE(rec)
        yield "]"
        for key in ("info_rows", "per_bound", "rows"):
            yield f', "{key}": '
            yield _ENCODE(getattr(self, key))
        yield "}"

    def write_json(self, fh) -> None:
        """Write `to_json`'s text to ``fh`` a piece at a time."""
        fh.writelines(self._json_parts())

    def to_json(self) -> str:
        """The report as one line of JSON, keys sorted, NaN and Infinity kept:
        json.dumps(doc, sort_keys=True, allow_nan=True) of the document with
        keys config, failures, info_rows, per_bound and rows."""
        return "".join(self._json_parts())

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


_COUNTED_AS = {"pass": "passed", "fail": "failed", "skip": "skipped"}


def _tally(rows) -> dict:
    """Per-bound verdict counts and slack statistics of verdict rows, keyed
    in first-appearance order.  The slack statistics cover the pass and
    fail rows; a bound with skips only has None for both."""
    stats, slacks = {}, {}
    for r in rows:
        bid = r["bound_id"]
        if bid not in stats:
            stats[bid] = {"trials": 0, "passed": 0, "failed": 0, "skipped": 0}
            slacks[bid] = []
        stats[bid]["trials"] += 1
        stats[bid][_COUNTED_AS[r["status"]]] += 1
        if r["status"] != "skip":
            slacks[bid].append(r["slack"])
    for bid, s in stats.items():
        got = slacks[bid]
        s["min_slack"] = min(got) if got else None
        s["mean_slack"] = sum(got) / len(got) if got else None
    return stats


def run_campaign(cfg: CampaignConfig, with_info: bool = False) -> CampaignReport:
    """Run the falsification campaign described by ``cfg``.

    For every family containing a requested bound, each trial derives
    its own seed, draws inputs honoring the family's hypotheses,
    evaluates the family's checks once, and records one row per bound:
    status "pass"/"fail" by the slack tolerance, or "skip" when the
    hypothesis gate reports false.  Identical configs produce identical
    reports.  Trials are drawn and staged, all families together, in
    blocks of _STAGED_TRIALS before any of the block is finished: each
    family's trials of one dimension are evaluated as one stack
    (`catalog.stage_family`), and every radius a block reads at one
    dimension comes from one stacked `numerical_radius` call (a campaign
    of up to 256 trials is one block).  Rows come out in trial order, and
    each equals its trial evaluated alone (`catalog.evaluate_bound`) bit
    for bit.

    ``with_info`` appends verdict-free rows probing each commuting-X
    family (B18-B21) on unconstrained X, tagged status "info".
    """
    report = CampaignReport(config={
        "bounds": list(cfg.bounds),
        "trials": cfg.trials,
        "dims": list(cfg.dims),
        "seed": cfg.seed,
        "atol": cfg.atol,
        "rtol": cfg.rtol,
    })
    runs = []  # (family, wanted ids, info rows?, salt, commuting), row order
    for family in FAMILIES:
        wanted = [i for i in family.ids if i in cfg.bounds]
        if not wanted:
            continue
        runs.append((family, wanted, False, family.name, family.commuting_x))
        if with_info and family.commuting_x:
            # the claims are stated only under the commutation hypothesis,
            # so plain Ginibre X gets rows without a verdict
            runs.append((family, wanted, True, f"{family.name}-unconstrained",
                         False))
    rows = [[] for _ in runs]
    failures = [[] for _ in runs]
    for first in range(0, cfg.trials, _STAGED_TRIALS):
        block = range(first, min(first + _STAGED_TRIALS, cfg.trials))
        staged = []  # (run, its draws of one dimension, radius inputs, finish)
        for i, (family, _, _, salt, commuting) in enumerate(runs):
            for draws, mats in _by_dim(cfg, family.operands, zlib.crc32(salt.encode()),
                                       commuting, block):
                params = {key: [grid[d[0] % len(grid)] for d in draws]
                          for key, grid in family.grids.items()}
                staged.append((i, draws, *stage_family(family, mats, **params)))
        values = iter(radius_values([m for *_, inputs, _ in staged for m in inputs]))
        done = [[] for _ in runs]  # (draw, reports), per run
        for i, draws, radius_inputs, finish in staged:
            done[i] += zip(draws, finish([next(values) for _ in radius_inputs]))
        for i, (family, wanted, info, _, _) in enumerate(runs):
            for (t, dim, seed, inputs), reports in sorted(done[i], key=lambda dr: dr[0][0]):
                for bid, rep in zip(family.ids, reports):
                    if bid not in wanted:
                        continue
                    row = _row(bid, t, dim, seed, rep,
                               "info" if info else rep.status(cfg.atol, cfg.rtol))
                    rows[i].append(row)
                    if row["status"] == "fail":
                        # a failure record is its verdict row without the
                        # status, plus what replays it
                        failures[i].append({
                            **{k: v for k, v in row.items() if k != "status"},
                            "params": {k: rep.params[k] for k in family.grids
                                       if k in rep.params},
                            "inputs": {
                                name.upper(): matrix_to_doc(inputs[name])
                                for name in required_operands(bid)
                            },
                        })
    for (_, _, info, _, _), out, failed in zip(runs, rows, failures):
        (report.info_rows if info else report.rows).extend(out)
        report.failures.extend(failed)
    report.per_bound = _tally(report.rows)
    return report


def replay_failure(record: dict):
    """Re-evaluate a campaign failure record standalone.

    The record's params are read for the keys of its family's grids,
    the ones a campaign varies.  Returns the fresh BoundReport;
    determinism demands its slack equal the recorded one bit-for-bit.
    """
    kwargs = {name.lower(): doc_to_matrix(doc)
              for name, doc in record["inputs"].items()}
    grids = family_of(record["bound_id"]).grids
    params = {k: v for k, v in record.get("params", {}).items() if k in grids}
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
    (A, B, X fixed 2x2): the Schwarz-type bound ||A*|X*|A + B*|X|B||/2
    (B05's right side at p = 1), the block-refinement bound
    ||AA*X + XBB*||/4 + max(w(XBA*), w(BA*X))/2, and w(A*XB) itself.
    Each row reports the deviation from the published value at printing
    precision (5e-4 for set 1, 1e-3 for set 2).

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
    r3 = evaluate_bound("B05", a=a2, b=b2, x=x2).rhs  # at p = 1
    block = evaluate_bound("B14", a=a2, b=b2, x=x2)  # rhs is the bound, lhs w(A*XB)
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
                      inputs=None) -> SharpnessReport:
    """Which bound's right side is tighter on a shared ensemble?

    Both bounds must consume the same operands.  Trial t shares one input
    tuple between them, drawn by `_draw` (the campaigns' sampler) with
    salt crc32("sharpness:<bound_a>:<bound_b>"); X is the commuting-X draw
    when either bound's family needs it, as B18-B21 do.  The trials of
    one dimension go through one stacked `evaluate_bound` call per bound
    (`_by_dim`, as campaigns group them).  Each bound is
    evaluated at its default parameters and wins are counted on the right
    sides; gap = rhs_b - rhs_a, so positive mean gap means bound_a is the
    tighter one.  Pass ``inputs`` (a tuple of matrices matching the
    operand list) to compare on fixed inputs instead.
    """
    compatible_signatures(bound_a, bound_b)
    operands = required_operands(bound_a)
    if inputs is not None:
        if len(inputs) != len(operands):
            raise InvalidSpecError(
                f"{bound_a} takes {len(operands)} input(s) "
                f"({', '.join(operands)}), got {len(inputs)}")
        mats = dict(zip(operands, inputs))
        reports = [(evaluate_bound(bound_a, **mats), evaluate_bound(bound_b, **mats))]
    else:
        cfg = cfg or CampaignConfig()
        salt = zlib.crc32(f"sharpness:{bound_a}:{bound_b}".encode())
        commuting = (family_of(bound_a).commuting_x
                     or family_of(bound_b).commuting_x)
        reports = [None] * cfg.trials
        for draws, mats in _by_dim(cfg, operands, salt, commuting, range(cfg.trials)):
            for d, pair in zip(draws, zip(evaluate_bound(bound_a, **mats),
                                          evaluate_bound(bound_b, **mats))):
                reports[d[0]] = pair

    pairs = tuple((ra.rhs, rb.rhs) for ra, rb in reports
                  if ra.hypothesis_ok and rb.hypothesis_ok)
    gaps = [b - a for a, b in pairs]
    # a gap within 1e-12 (1 + |rhs_b|) of zero is a tie
    tols = [1e-12 * (1.0 + abs(b)) for _, b in pairs]
    wins_a = sum(g > tol for g, tol in zip(gaps, tols))
    wins_b = sum(g < -tol for g, tol in zip(gaps, tols))
    mean_gap = float(sum(gaps) / len(gaps)) if gaps else float("nan")
    return SharpnessReport(bound_a, bound_b, len(reports), len(reports) - len(pairs),
                           wins_a, wins_b, len(pairs) - wins_a - wins_b, mean_gap, pairs)
