"""The four benchmark workloads: inputs from a seed, one timed operation, checks.

Each workload is driven as a closed loop from one client (see run.py): the
next operation starts only after the previous one has returned.  Operation
``i`` of a run with workload seed ``s`` draws its inputs from the pool index
``pool_index(s, i)``, which is also the campaign master seed.  The pool is
finite so that reference.json (written by record_reference.py) can hold the
per-bound pass/fail/skip counts of every campaign the benchmark runs at full
size; each of those campaigns is checked against it.

A workload object has four methods:

* ``prepare(seed)``     untimed set-up after warm-up; returns problems found;
* ``inputs(k)``         untimed inputs of the operation at pool index k;
* ``run(x)``            the timed operation;
* ``check(k, x, out)``  (verdicts, problems): every problem string is one
                        failed operation.

``final_checks(seed)`` runs untimed checks once per run and returns
(attempted, problems, info).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import traceback
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from numrad import catalog, cli, harness, radii
from numrad.harness import (
    H_DEC_GRID,
    H_INC_GRID,
    NU_GRID,
    SIGMA_GRID,
    CampaignConfig,
    EnsembleSpec,
    generate,
    mix_seed,
)
from numrad.matrixcore import abs_op, op_norm

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

POOL = 64          # pool indices with recorded reference counts
OPS_PER_SEED = 8   # consecutive workload seeds start this many indices apart

# family name -> bound ids; the names salt the campaign seeds, so they are stable
FAMILIES = {
    "classics": ("B01", "B02", "B03", "B04", "B05"),
    "mean_h": ("B06", "B06p"),
    "mean_h_weighted": ("B07",),
    "omega_harmonic": ("B08", "B09", "B10"),
    "mox": ("B11", "B12"),
    "aluthge": ("B13", "B15"),
    "block": ("B14",),
    "symmetrized": ("B16a", "B16b", "B17"),
    "alpha": ("B18", "B19", "B20", "B21"),
}

# bounds that are false as catalogued: a "fail" verdict on them is correct output
MAY_FAIL = frozenset({"B06", "B06p", "B07", "B08", "B09", "B10"})
REPLAY_BOUNDS = ("B06", "B07", "B08", "B09", "B10")

LEMMA_IDS = ("L01", "L02", "L03", "L04", "L05", "L06", "L07", "L08", "L09")
LEMMA_DIMS = (2, 3, 4, 5)
L02_FLOOR = -1e-8

# w(A) for A = diag(1, e^{-100is}, e^{-300is}, (1+2e-6) e^{-500.5is}),
# s = pi/720, is 1 + 2e-6; the 720-point sweep returns 1.0 (ROADMAP open
# item 2).  Misses listed here are known defects, reported but not counted
# as failed operations; any other probe that misses is one.
_S = math.pi / 720.0
MISSED_PEAK = np.diag([1.0, np.exp(-100j * _S), np.exp(-300j * _S),
                       (1.0 + 2e-6) * np.exp(-500.5j * _S)])
KNOWN_RADIUS_MISSES = frozenset({"missed-peak"})


@dataclass(frozen=True)
class Size:
    """Trials per operation (per family, per lemma, or behind the replayed
    report) and the dimension cycle."""

    trials: int
    dims: tuple


SIZES = {
    "campaign-small": {"full": Size(12, (2, 3, 4, 5)), "tiny": Size(1, (2, 3, 4, 5))},
    "campaign-wide": {"full": Size(2, (12, 16)), "tiny": Size(1, (12,))},
    "lemma-suite": {"full": Size(12, LEMMA_DIMS), "tiny": Size(1, LEMMA_DIMS)},
    "replay": {"full": Size(48, (2, 3, 4, 5)), "tiny": Size(2, (2, 3, 4, 5))},
}


def pool_index(seed: int, i: int) -> int:
    """Pool index (and campaign master seed) of operation i under a seed."""
    return (seed * OPS_PER_SEED + i) % POOL


def closed_loop(wl, seed, seconds, min_ops, tracer=None, label="op", first=0):
    """Run operations first, first+1, ... back to back for ``seconds`` (and
    at least ``min_ops`` of them).

    With a tracer, operation i is a root span with run id "<label>:<i>".
    Returns (per-operation verdicts/s, verdicts, problems).
    """
    rates, verdicts, problems = [], 0, []
    start = perf_counter()
    i = first
    while i < first + min_ops or perf_counter() - start < seconds:
        k = pool_index(seed, i)
        try:
            x = wl.inputs(k)
            t0 = perf_counter()
            out = tracer.op(f"{label}:{i}", wl.run, x) if tracer else wl.run(x)
            dt = perf_counter() - t0
            n, probs = wl.check(k, x, out)
        except Exception:  # a failed operation; the loop goes on
            traceback.print_exc()
            problems.append(f"operation {i} (pool {k}) raised")
        else:
            rates.append(n / dt)
            verdicts += n
            problems += probs
        i += 1
    return rates, verdicts, problems


def load_reference(name: str, size: Size) -> dict:
    """Reference counts {pool index: {bound: [pass, fail, skip]}} of a
    workload, recorded at the given size."""
    entry = json.loads(REFERENCE_PATH.read_text())[name]
    if entry["trials"] != size.trials or tuple(entry["dims"]) != size.dims:
        raise ValueError(f"{REFERENCE_PATH.name} holds {name} at "
                         f"{entry['trials']} trials, dims {entry['dims']}; "
                         f"run record_reference.py")
    return {int(k): v for k, v in entry["counts"].items()}


def bound_counts(per_bound: dict) -> dict:
    return {bid: [s["passed"], s["failed"], s["skipped"]]
            for bid, s in per_bound.items()}


def check_campaign(per_bound: dict, rows: list, expected: dict | None) -> list:
    """Problems in one campaign report; each string is one failed operation."""
    problems = []
    for bid, s in per_bound.items():
        if s["passed"] + s["failed"] + s["skipped"] != s["trials"]:
            problems.append(f"{bid}: pass+fail+skip != trials ({s})")
    problems += [f"{r['bound_id']} trial {r['trial']}: unexpected fail verdict"
                 for r in rows
                 if r["status"] == "fail" and r["bound_id"] not in MAY_FAIL]
    if expected is not None:
        got = bound_counts(per_bound)
        for bid in sorted(set(got) | set(expected)):
            if got.get(bid) != expected.get(bid):
                problems.append(f"{bid}: counts {got.get(bid)} differ from "
                                f"reference {expected.get(bid)}")
    return problems


def check_replays(records: list, slacks: list) -> list:
    """Problems in a replay: every slack must equal its record bit for bit."""
    if len(records) != len(slacks):
        return [f"{len(slacks)} replays for {len(records)} records"]
    return [f"{r['bound_id']} trial {r['trial']}: replayed slack {s!r} "
            f"!= recorded {r['slack']!r}"
            for r, s in zip(records, slacks)
            if float(s).hex() != float(r["slack"]).hex()]


def radius_probe(dims, seed: int, per_dim: int = 3):
    """Cross-check the sweep against the independent oracle (untimed).

    Returns (probes, problems, known_misses).  A probe misses when the
    sweep falls below the oracle by more than 1e-9 (1 + w); the oracle is
    a lower bound on w(A), so a miss is always a sweep defect.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    mats = [(f"ginibre-n{n}-{j}", ginibre(rng, n))
            for n in dims for j in range(per_dim)]
    mats.append(("missed-peak", MISSED_PEAK))
    problems, known = [], []
    for name, a in mats:
        w = radii.numerical_radius(a).value
        oracle = radii.numerical_radius_oracle(a)
        if w < oracle - 1e-9 * (1.0 + w):
            msg = f"radius probe {name}: sweep {w!r} < oracle {oracle!r}"
            (known if name in KNOWN_RADIUS_MISSES else problems).append(msg)
    return len(mats), problems, known


class Campaign:
    """`numrad campaign` through numrad.cli.main, the way users run it."""

    def __init__(self, name: str, size: Size, reference, workdir: Path):
        self.name, self.size, self.workdir = name, size, workdir
        self.reference = reference
        self.csv_sha256 = None

    def prepare(self, seed: int) -> list:
        return []

    def inputs(self, k: int) -> list:
        argv = ["campaign", "--seed", str(k), "--trials", str(self.size.trials),
                "--out", str(self.workdir / f"{self.name}-{k}")]
        if self.size.dims != (2, 3, 4, 5):
            argv[1:1] = ["--dims", ",".join(map(str, self.size.dims))]
        return argv

    def run(self, argv):
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, k: int, argv, code):
        prefix = Path(argv[-1])
        csv_path, json_path = prefix.with_suffix(".csv"), prefix.with_suffix(".json")
        doc = json.loads(json_path.read_text())
        if self.csv_sha256 is None:
            self.csv_sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        csv_path.unlink()
        json_path.unlink()
        expected = None if self.reference is None else self.reference[k]
        problems = check_campaign(doc["per_bound"], doc["rows"], expected)
        failed = sum(s["failed"] for s in doc["per_bound"].values())
        if code != (1 if failed else 0):
            problems.append(f"exit code {code} with {failed} fail verdicts")
        return len(doc["rows"]), problems

    def final_checks(self, seed: int):
        probes, problems, known = radius_probe(self.size.dims, seed)
        return probes, problems, {"known_radius_misses": known,
                                  "csv_sha256": self.csv_sha256}


def ginibre(rng, n):
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


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


def pos_def(rng, n):
    return generate(EnsembleSpec("positive-definite", n,
                                 seed=int(rng.integers(2 ** 32))))


def lemma_kwargs(lid: str, rng, n: int, t: int) -> dict:
    """Inputs of lemma ``lid`` at trial t: the acceptance-4 recipe."""
    if lid == "L01":
        return {"a": ginibre(rng, n), "x": _unit(rng, n), "y": _unit(rng, n),
                "pair": ("sqrt", "pow:0.3", "pow:0.7")[t % 3]}
    if lid == "L02":
        kw = {"a": pos_def(rng, n), "b": pos_def(rng, n), "h": H_DEC_GRID[t % 3],
              "sigma": SIGMA_GRID[t % 3], "tau": SIGMA_GRID[(t // 3) % 3],
              "nu": NU_GRID[t % 3]}
        if t % 2:
            m = max(1, n - 1)
            q, _ = np.linalg.qr(rng.standard_normal((n, m))
                                + 1j * rng.standard_normal((n, m)))
            kw["v"] = q
        return kw
    if lid == "L03":
        return {"a": pos_def(rng, n), "h": H_DEC_GRID[t % 3]}
    if lid == "L04":
        return {"a": ginibre(rng, n)}
    if lid == "L05":
        return {"a": ginibre(rng, n), "b": ginibre(rng, 2 + (n % 3))}
    if lid == "L06":
        return {k: ginibre(rng, n) for k in ("a1", "b1", "a2", "b2")}
    if lid == "L07":
        return {k: ginibre(rng, n) for k in ("a1", "b1", "a2", "b2", "x", "y")}
    if lid == "L08":
        a = ginibre(rng, n)
        return {"a": a, "b": _poly_in(rng, abs_op(a)),
                "x": _unit(rng, n), "y": _unit(rng, n),
                "pair": ("sqrt", "pow:0.4")[t % 2]}
    g1, g2 = ginibre(rng, n), ginibre(rng, n)
    return {"p": g1 @ g1.conj().T, "q": g2 @ g2.conj().T,
            "h": H_INC_GRID[t % 3], "nu": NU_GRID[t % 3]}


class LemmaSuite:
    """L01-L09 on the acceptance-4 inputs, master seed k instead of 42."""

    name = "lemma-suite"

    def __init__(self, size: Size):
        self.size = size

    def prepare(self, seed: int) -> list:
        return []

    def inputs(self, k: int) -> list:
        out = []
        for lid in LEMMA_IDS:
            salt = zlib.crc32(f"lemma:{lid}".encode())
            for t in range(self.size.trials):
                rng = np.random.default_rng(mix_seed(k, salt, t))
                n = self.size.dims[t % len(self.size.dims)]
                out.append((lid, lemma_kwargs(lid, rng, n, t)))
        return out

    def run(self, inputs):
        return [catalog.check_lemma(lid, **kw) for lid, kw in inputs]

    def check(self, k: int, inputs, reports):
        problems = []
        for (lid, _), rep in zip(inputs, reports):
            if not rep.hypothesis_ok:
                continue
            if not rep.satisfied:
                problems.append(f"{lid} (pool {k}): not satisfied")
            if lid == "L02" and rep.min_eig_of_difference < L02_FLOOR:
                problems.append(f"L02 (pool {k}): min eig "
                                f"{rep.min_eig_of_difference:.3e} < {L02_FLOOR}")
        return len(reports), problems

    def final_checks(self, seed: int):
        return 0, [], {}


class Replay:
    """Export a campaign report to JSON, parse it, replay every failure.

    The report of B06-B10 (whose fail verdicts are correct output) is made
    in set-up from pool index pool_index(seed, 0); every operation exports
    and replays that same report.
    """

    name = "replay"

    def __init__(self, size: Size, reference):
        self.size = size
        self.reference = reference
        self.report = None

    def prepare(self, seed: int) -> list:
        k = pool_index(seed, 0)
        self.report = harness.run_campaign(CampaignConfig(
            bounds=REPLAY_BOUNDS, trials=self.size.trials,
            dims=self.size.dims, seed=k))
        expected = None if self.reference is None else self.reference[k]
        return check_campaign(self.report.per_bound, self.report.rows, expected)

    def inputs(self, k: int):
        return self.report

    def run(self, report):
        doc = json.loads(report.to_json())
        return [harness.replay_failure(rec).slack for rec in doc["failures"]]

    def check(self, k: int, report, slacks):
        return len(slacks), check_replays(report.failures, slacks)

    def final_checks(self, seed: int):
        return 0, [], {}


def make(name: str, size: str, workdir: Path):
    """The workload called ``name`` at size "full" (checked against
    reference.json) or "tiny" (no reference counts)."""
    s = SIZES[name][size]
    if name == "lemma-suite":
        return LemmaSuite(s)
    reference = load_reference(name, s) if size == "full" else None
    if name == "replay":
        return Replay(s, reference)
    return Campaign(name, s, reference, workdir)
