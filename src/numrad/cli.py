"""Command-line interface: eval | check | campaign | repro.

Matrices travel as JSON documents {"rows": n, "cols": m, "data":
[[[re, im], ...], ...]}.  Exit codes: 0 success/satisfied, 1 violated
bound or campaign failures, 2 unparseable input, 3 dimension or
precondition error, 4 hypothesis not met.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .catalog import (
    ALL_BOUND_IDS,
    LEMMA_IDS,
    LEMMAS,
    _need_tolerance,
    aluthge_transform,
    check_lemma,
    evaluate_bound,
)
from .errors import (
    HypothesisViolatedError,
    InvalidSpecError,
    NumradError,
)
from .harness import (
    CampaignConfig,
    doc_to_matrix,
    matrix_to_doc,
    reference_examples,
    run_campaign,
)
from .matrixcore import abs_op, op_norm, polar
from .meansfuncs import mean, spectrum_bounds
from .radii import numerical_radius, spectral_radius

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_HYPOTHESIS = 4

class _ParseFailure(Exception):
    pass


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc_to_matrix(doc)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _report_doc(rep) -> dict:
    doc = dataclasses.asdict(rep)
    doc["params"] = {k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                     for k, v in doc.get("params", {}).items()}
    return doc


def _json_safe(v):
    """``v`` with every non-finite float, nested in dicts and lists too,
    as None."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_json_safe(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _print_json(doc):
    """Print ``doc`` as strict JSON, a non-finite number as null."""
    print(json.dumps(_json_safe(doc), indent=2, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------


def _each(fn):
    """A quantity of one matrix, evaluated on each --in file and keyed
    "<path>:<quantity>"."""
    return lambda q, mats, args: {f"{path}:{q}": fn(m, args) for path, m in mats}


def _mean_of_two(q, mats, args) -> dict:
    if len(mats) != 2:
        raise InvalidSpecError("mean needs exactly two --in files")
    return {"mean": matrix_to_doc(
        mean(mats[0][1], mats[1][1], args.sigma, args.nu))}


def _omega(m, args):
    r = numerical_radius(m)
    return {"value": r.value, "theta": r.theta} if args.json else r.value


def _polar(m, args) -> dict:
    parts = polar(m)
    return {"unitary": matrix_to_doc(parts.unitary),
            "positive": matrix_to_doc(parts.positive)}


# every `numrad eval` quantity: name -> f(name, [(path, matrix)], args),
# which returns the output entries
QUANTITIES = {
    "omega": _each(_omega),
    "specrad": _each(lambda m, args: spectral_radius(m)),
    "norm": _each(lambda m, args: op_norm(m)),
    "abs": _each(lambda m, args: matrix_to_doc(abs_op(m))),
    "polar": _each(_polar),
    "aluthge": _each(
        lambda m, args: matrix_to_doc(aluthge_transform(m, args.pair))),
    "mean": _mean_of_two,
    "kantorovich": _each(lambda m, args: spectrum_bounds([m]).kantorovich),
}


def cmd_eval(args) -> int:
    mats = [(p, load_matrix(p)) for p in args.inputs]
    out = {}
    for q in args.quantities:
        if q not in QUANTITIES:
            raise InvalidSpecError(
                f"unknown quantity {q!r}; known: {', '.join(QUANTITIES)}"
            )
        out.update(QUANTITIES[q](q, mats, args))
    if args.json:
        _print_json(out)
    else:
        for k, v in out.items():
            if isinstance(v, float):
                print(f"{k} = {v:.12g}")
            else:
                print(f"{k} = {json.dumps(v)}")
    return EXIT_OK


def _operands(args, flags: dict) -> dict:
    """The matrix files given for ``flags`` (flag -> keyword), loaded."""
    return {kw: load_matrix(getattr(args, flag)) for flag, kw in flags.items()
            if getattr(args, flag) is not None}


_EXIT = {"pass": EXIT_OK, "fail": EXIT_VIOLATED, "skip": EXIT_HYPOTHESIS}


def cmd_check(args) -> int:
    tol = () if args.tol is None else (_need_tolerance(args.tol, "--tol"),) * 2
    if args.bound in LEMMAS:
        lem = LEMMAS[args.bound]
        params = {name: getattr(args, name) for name in lem.params
                  if getattr(args, name) is not None}
        rep = check_lemma(args.bound, **_operands(args, lem.flags), **params)
    elif args.bound in ALL_BOUND_IDS:
        rep = evaluate_bound(
            args.bound, p=args.p, nu=args.nu, pair=args.pair, h=args.h,
            sigma=args.sigma, **_operands(args, {"A": "a", "B": "b", "X": "x"}),
        )
    else:
        raise InvalidSpecError(
            f"unknown identifier {args.bound!r}; "
            f"known: {', '.join(ALL_BOUND_IDS + LEMMA_IDS)}"
        )
    doc = _report_doc(rep)
    if args.json:
        _print_json(doc)
    else:
        for k, v in doc.items():
            print(f"{k} = {v}")
    return _EXIT[rep.status(*tol)]


def cmd_campaign(args) -> int:
    # an option not given takes CampaignConfig's default
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(CampaignConfig)}
    cfg = CampaignConfig(**{k: v for k, v in given.items() if v is not None})
    report = run_campaign(cfg, with_info=args.with_info)
    for line in report.summary_lines():
        print(line)
    print(f"total failures: {report.total_failed}")
    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            report.write_csv(fh)
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            report.write_json(fh)
        print(f"wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK if report.total_failed == 0 else EXIT_VIOLATED


def cmd_repro(args) -> int:
    rows = reference_examples()
    if args.json:
        _print_json([dataclasses.asdict(r) for r in rows])
    else:
        width = max(len(r.label) for r in rows)
        for r in rows:
            mark = "ok" if r.within else "DEVIATES"
            print(f"{r.label:<{width}}  computed={r.computed:<22.16g} "
                  f"reference={r.reference:<10g} abs_error={r.abs_error:.6g}  {mark}")
    return EXIT_OK if all(r.within for r in rows) else EXIT_VIOLATED


def _listed(item):
    """An argparse type: comma-separated values, each item(value); an
    empty text is None, as if the option were not given."""
    def listed(text):
        return tuple(map(item, text.split(","))) if text else None
    listed.__name__ = f"comma-separated {item.__name__}"  # argparse's name for it
    return listed


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="numrad",
        description="Numerical-radius computations and inequality checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate quantities on matrix files")
    ev.add_argument("--q", dest="quantities", action="append", required=True,
                    help=f"quantity, one of {', '.join(QUANTITIES)}")
    ev.add_argument("--in", dest="inputs", action="append", required=True,
                    help="matrix JSON file (repeatable)")
    ev.add_argument("--pair", default="sqrt")
    ev.add_argument("--sigma", default="arith")
    ev.add_argument("--nu", type=float, default=0.5)
    ev.add_argument("--json", action="store_true")
    ev.set_defaults(fn=cmd_eval)

    ck = sub.add_parser("check", help="evaluate one catalogued bound or lemma")
    ck.add_argument("--bound", required=True)
    # the bounds' operands, then every lemma's
    for flag in dict.fromkeys(
            ("A", "B", "X", *(f for lem in LEMMAS.values() for f in lem.flags))):
        ck.add_argument(f"--{flag}", default=None, help=f"matrix file for {flag}")
    ck.add_argument("--p", type=float)
    ck.add_argument("--nu", type=float)
    ck.add_argument("--h")
    ck.add_argument("--pair")
    ck.add_argument("--sigma")
    ck.add_argument("--tau")
    ck.add_argument("--tol", type=float, default=None,
                    help="override both tolerance constants")
    ck.add_argument("--json", action="store_true")
    ck.set_defaults(fn=cmd_check)

    cp = sub.add_parser("campaign", help="run a seeded falsification campaign")
    cp.add_argument("--bounds", type=_listed(str), help="comma-separated bound IDs")
    cp.add_argument("--trials", type=int)
    cp.add_argument("--dims", type=_listed(int), help="comma-separated dimensions")
    cp.add_argument("--seed", type=int, default=os.environ.get("RADII_SEED"))
    cp.add_argument("--out", default=None, help="prefix for .csv/.json reports")
    cp.add_argument("--atol", type=float)
    cp.add_argument("--rtol", type=float)
    cp.add_argument("--with-info", action="store_true",
                    help="append verdict-free unconstrained-X rows for B18-B21")
    cp.set_defaults(fn=cmd_campaign)

    rp = sub.add_parser("repro", help="recompute the published example values")
    rp.add_argument("--json", action="store_true")
    rp.set_defaults(fn=cmd_repro)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisViolatedError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
