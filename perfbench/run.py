#!/usr/bin/env python3
"""numrad benchmark: verdict throughput of one workload, as a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-small --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json): campaign-small,
campaign-wide, lemma-suite, replay.  One process, one client, one BLAS
thread.  After set-up (import, warm-up, input generation; repeated
SETUP_REPS times, median reported) the workload's operation runs in a
closed loop for --seconds; each operation's output is checked.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are its per_layer metrics, from a
fixed amount of work so that counts repeat: the first TRACE_OPS operations
each run untraced and then with spans around every layer call, a tiny
traced operation of every workload follows (so every layer reports a
measured value), then untraced per-layer probes.  Spans are written to
perfbench/out/.  Lines before the last give provenance and a summary.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign-small", "campaign-wide", "lemma-suite", "replay")
SETUP_REPS = 3
MIN_OPS = 3
TRACE_OPS = {"full": 3, "tiny": 1}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: one small operation, for the benchmark's tests")
    return ap.parse_args(argv)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def provenance(numpy, src: Path) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        digest.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def measure(args, workdir: Path):
    """Run one workload; returns (result dict, summary dict)."""
    t_import = perf_counter()
    import numpy
    import numrad
    if Path(numrad.__file__).resolve().parent != (ROOT / "src" / "numrad").resolve():
        raise ImportError(f"numrad imported from {numrad.__file__}, not {ROOT / 'src'}")
    import tracing
    import workloads
    import_s = perf_counter() - t_import

    wl = workloads.make(args.workload, args.size, workdir)
    tiny = workloads.make(args.workload, "tiny", workdir)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        problems = tiny.prepare(args.seed)
        problems += workloads.closed_loop(tiny, args.seed, 0, 1)[2]
        problems += wl.prepare(args.seed)
        setup_times.append(perf_counter() - t0)

    if args.trace:
        tracer = tracing.Tracer()
        rates, verdicts, problems_t, t_rates, t_verdicts = traced_pass(
            args, wl, tracer, workdir)
        problems += problems_t
    else:
        rates, verdicts, probs = workloads.closed_loop(
            wl, args.seed, args.seconds, 1 if args.size == "tiny" else MIN_OPS)
        problems += probs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes, final_probs, info = wl.final_checks(args.seed)
    problems += final_probs
    attempted = verdicts + probes

    summary = {
        "provenance": provenance(numpy, ROOT / "src"),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "ops": len(rates),
        **info,
    }
    metrics = {
        "verdicts_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        summary.update(metrics)
        attempted += t_verdicts
        metrics = tracing.layer_metrics(tracer, t_verdicts)
        dims = wl.size.dims if isinstance(wl, workloads.Campaign) else workloads.LEMMA_DIMS
        metrics.update(tracing.probe_metrics(dims, args.seed, args.size == "tiny"))
        untraced, traced = statistics.median(rates), statistics.median(t_rates)
        metrics["trace.verdicts_per_s.untraced"] = untraced
        metrics["trace.verdicts_per_s.traced"] = traced
        metrics["trace.overhead"] = untraced / traced - 1.0
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "provenance": summary["provenance"]})

    summary["error_rate"] = len(problems) / max(1, attempted)
    for p in problems[:20]:
        print(f"FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": max(1, attempted),
              "failed": len(problems), "metrics": metrics}
    return result, summary


def traced_pass(args, wl, tracer, workdir: Path):
    """The first TRACE_OPS operations, each run untraced and then traced,
    followed by one traced tiny operation of every workload.

    Returns (untraced verdicts/s, verdicts checked, problems, traced
    verdicts/s, verdicts of the traced workload operations).
    """
    import workloads
    coverage = [workloads.make(name, "tiny", workdir) for name in WORKLOADS]
    problems = []
    for cov in coverage:
        problems += cov.prepare(args.seed)
    rates, verdicts, t_rates, t_verdicts = [], 0, [], 0
    for i in range(TRACE_OPS[args.size]):
        r, n, probs = workloads.closed_loop(wl, args.seed, 0, 1, first=i)
        rates, verdicts, problems = rates + r, verdicts + n, problems + probs
        tracer.install()
        try:
            r, n, probs = workloads.closed_loop(wl, args.seed, 0, 1, tracer,
                                                args.workload, first=i)
        finally:
            tracer.uninstall()
        t_rates, t_verdicts, problems = t_rates + r, t_verdicts + n, problems + probs
    tracer.install()
    try:
        for name, cov in zip(WORKLOADS, coverage):
            _, n, probs = workloads.closed_loop(cov, args.seed, 0, 1, tracer,
                                                f"coverage:{name}")
            verdicts, problems = verdicts + n, problems + probs
    finally:
        tracer.uninstall()
    return rates, verdicts, problems, t_rates, t_verdicts


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            result, summary = measure(args, Path(tmp))
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 3
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in section}
    print("provenance " + json.dumps(summary.pop("provenance"), sort_keys=True))
    print(f"summary {args.workload} seed={args.seed} trace={args.trace} "
          + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
