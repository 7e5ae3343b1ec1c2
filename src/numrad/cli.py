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
import os
import sys

import numpy as np

from .catalog import (
    ALL_BOUND_IDS,
    LEMMA_IDS,
    BoundReport,
    LoewnerReport,
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
from .meansfuncs import kantorovich, mean, spectrum_bounds
from .radii import numerical_radius, spectral_radius

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_HYPOTHESIS = 4

QUANTITIES = ("omega", "specrad", "norm", "abs", "polar", "aluthge",
              "mean", "kantorovich")


class _ParseFailure(Exception):
    pass


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc_to_matrix(doc)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _as_vector(m: np.ndarray, name: str) -> np.ndarray:
    if 1 not in m.shape:
        raise InvalidSpecError(f"{name} must be a vector (n x 1 document)")
    return m.reshape(-1)


def _report_doc(rep) -> dict:
    doc = dataclasses.asdict(rep)
    doc["params"] = {k: (v if isinstance(v, (int, float, str, bool)) else str(v))
                     for k, v in doc.get("params", {}).items()}
    return doc


def _print(doc, as_json: bool):
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for k, v in doc.items():
            print(f"{k} = {v}")


# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    mats = [(p, load_matrix(p)) for p in args.inputs]
    out = {}
    for q in args.quantities:
        if q not in QUANTITIES:
            raise InvalidSpecError(
                f"unknown quantity {q!r}; known: {', '.join(QUANTITIES)}"
            )
        if q == "mean":
            if len(mats) != 2:
                raise InvalidSpecError("mean needs exactly two --in files")
            res = mean(mats[0][1], mats[1][1], args.sigma, args.nu)
            out["mean"] = matrix_to_doc(res)
            continue
        for path, m in mats:
            key = f"{path}:{q}"
            if q == "omega":
                r = numerical_radius(m)
                out[key] = {"value": r.value, "theta": r.theta} if args.json \
                    else r.value
            elif q == "specrad":
                out[key] = spectral_radius(m)
            elif q == "norm":
                out[key] = op_norm(m)
            elif q == "abs":
                out[key] = matrix_to_doc(abs_op(m))
            elif q == "polar":
                parts = polar(m)
                out[key] = {"unitary": matrix_to_doc(parts.unitary),
                            "positive": matrix_to_doc(parts.positive)}
            elif q == "aluthge":
                out[key] = matrix_to_doc(aluthge_transform(m, args.pair))
            elif q == "kantorovich":
                sb = spectrum_bounds([m])
                out[key] = kantorovich(sb.m, sb.M)
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for k, v in out.items():
            if isinstance(v, float):
                print(f"{k} = {v:.12g}")
            else:
                print(f"{k} = {json.dumps(v)}")
    return EXIT_OK


# lemma operand tables: flag name -> handler kwarg, and whether a vector
_LEMMA_SPEC = {
    "L01": ([("A", "a", "mat"), ("X", "x", "vec"), ("Y", "y", "vec")],
            ["pair"]),
    "L02": ([("A", "a", "mat"), ("B", "b", "mat"), ("V", "v", "optmat")],
            ["h", "sigma", "tau", "nu"]),
    "L03": ([("A", "a", "mat")], ["h"]),
    "L04": ([("A", "a", "mat")], []),
    "L05": ([("A", "a", "mat"), ("B", "b", "mat")], []),
    "L06": ([("A", "a1", "mat"), ("B", "b1", "mat"),
             ("A2", "a2", "mat"), ("B2", "b2", "mat")], []),
    "L07": ([("A", "a1", "mat"), ("B", "b1", "mat"),
             ("A2", "a2", "mat"), ("B2", "b2", "mat"),
             ("X", "x", "mat"), ("Y", "y", "mat")], []),
    "L08": ([("A", "a", "mat"), ("B", "b", "mat"),
             ("X", "x", "vec"), ("Y", "y", "vec")], ["pair"]),
    "L09": ([("A", "p", "mat"), ("B", "q", "mat")], ["h", "nu"]),
}


def _lemma_report(args) -> object:
    operands, param_names = _LEMMA_SPEC[args.bound]
    kwargs = {}
    for flag, kwarg, kind in operands:
        path = getattr(args, flag)
        if path is None:
            if kind == "optmat":
                continue
            raise InvalidSpecError(f"{args.bound} requires --{flag}")
        m = load_matrix(path)
        kwargs[kwarg] = _as_vector(m, flag) if kind == "vec" else m
    for name in param_names:
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    return check_lemma(args.bound, **kwargs)


def cmd_check(args) -> int:
    if args.bound in LEMMA_IDS:
        rep = _lemma_report(args)
    elif args.bound in ALL_BOUND_IDS:
        kwargs = {}
        for flag, kw in (("A", "a"), ("B", "b"), ("X", "x")):
            path = getattr(args, flag)
            if path is not None:
                kwargs[kw] = load_matrix(path)
        rep = evaluate_bound(
            args.bound, p=args.p, nu=args.nu, pair=args.pair,
            h=args.h, sigma=args.sigma, **kwargs,
        )
    else:
        raise InvalidSpecError(
            f"unknown identifier {args.bound!r}; "
            f"known: {', '.join(ALL_BOUND_IDS + LEMMA_IDS)}"
        )

    if isinstance(rep, BoundReport) and args.tol is not None:
        sat = rep.slack >= -(args.tol + args.tol * abs(rep.rhs))
    elif isinstance(rep, LoewnerReport) and args.tol is not None:
        sat = rep.min_eig_of_difference >= -args.tol
    else:
        sat = rep.satisfied
    _print(_report_doc(rep), args.json)
    if not rep.hypothesis_ok:
        return EXIT_HYPOTHESIS
    return EXIT_OK if sat else EXIT_VIOLATED


def cmd_campaign(args) -> int:
    bounds = tuple(args.bounds.split(",")) if args.bounds else ALL_BOUND_IDS
    dims = tuple(int(d) for d in args.dims.split(",")) if args.dims else (2, 3, 4, 5)
    cfg = CampaignConfig(bounds=bounds, trials=args.trials, dims=dims,
                         seed=args.seed, atol=args.atol, rtol=args.rtol)
    report = run_campaign(cfg, with_info=args.with_info)
    for line in report.summary_lines():
        print(line)
    print(f"total failures: {report.total_failed}")
    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK if report.total_failed == 0 else EXIT_VIOLATED


def cmd_repro(args) -> int:
    rows = reference_examples()
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in rows],
                         indent=2, sort_keys=True))
    else:
        width = max(len(r.label) for r in rows)
        for r in rows:
            mark = "ok" if r.within else "DEVIATES"
            print(f"{r.label:<{width}}  computed={r.computed:<22.16g} "
                  f"reference={r.reference:<10g} abs_error={r.abs_error:.6g}  {mark}")
    return EXIT_OK if all(r.within for r in rows) else EXIT_VIOLATED


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
    for flag in ("A", "B", "X", "Y", "A2", "B2", "V"):
        ck.add_argument(f"--{flag}", default=None, help=f"matrix file for {flag}")
    ck.add_argument("--p", type=float, default=1.0)
    ck.add_argument("--nu", type=float, default=0.5)
    ck.add_argument("--h", default=None)
    ck.add_argument("--pair", default="sqrt")
    ck.add_argument("--sigma", default="arith")
    ck.add_argument("--tau", default=None)
    ck.add_argument("--tol", type=float, default=None,
                    help="override both tolerance constants")
    ck.add_argument("--json", action="store_true")
    ck.set_defaults(fn=cmd_check)

    cp = sub.add_parser("campaign", help="run a seeded falsification campaign")
    cp.add_argument("--bounds", default=None, help="comma-separated bound IDs")
    cp.add_argument("--trials", type=int, default=200)
    cp.add_argument("--dims", default=None, help="comma-separated dimensions")
    cp.add_argument("--seed", type=int,
                    default=int(os.environ.get("RADII_SEED", "42")))
    cp.add_argument("--out", default=None, help="prefix for .csv/.json reports")
    cp.add_argument("--atol", type=float, default=1e-9)
    cp.add_argument("--rtol", type=float, default=1e-9)
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
