#!/usr/bin/env python3
"""Write reference.json: the per-bound verdict counts of every pool index.

    python3 perfbench/record_reference.py

The benchmark checks each campaign it runs (campaign-small, campaign-wide,
and the report behind replay) against these counts.  Record them at a
commit whose verdicts are trusted, and again only for a change that is
meant to alter verdicts, saying so in CHANGES.md.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from numrad.catalog import ALL_BOUND_IDS  # noqa: E402
from numrad.harness import CampaignConfig, run_campaign  # noqa: E402

from workloads import (  # noqa: E402
    POOL,
    REFERENCE_PATH,
    REPLAY_BOUNDS,
    SIZES,
    bound_counts,
)


def _format(doc: dict) -> str:
    """JSON with one line per pool index, so that changes diff by campaign."""
    lines = ["{", f' "pool": {doc["pool"]},']
    names = [k for k in doc if k != "pool"]
    for n, name in enumerate(names):
        entry = doc[name]
        lines.append(f' "{name}": {{"trials": {entry["trials"]}, '
                     f'"dims": {json.dumps(entry["dims"])}, "counts": {{')
        counts = list(entry["counts"].items())
        lines += [f'  "{k}": {json.dumps(v, sort_keys=True)}'
                  + ("," if j < len(counts) - 1 else "")
                  for j, (k, v) in enumerate(counts)]
        lines.append(" }}" + ("," if n < len(names) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def main() -> int:
    doc = {"pool": POOL}
    for name, bounds in (("campaign-small", ALL_BOUND_IDS),
                         ("campaign-wide", ALL_BOUND_IDS),
                         ("replay", REPLAY_BOUNDS)):
        size = SIZES[name]["full"]
        counts = {}
        for k in range(POOL):
            report = run_campaign(CampaignConfig(
                bounds=bounds, trials=size.trials, dims=size.dims, seed=k))
            counts[str(k)] = bound_counts(report.per_bound)
        doc[name] = {"trials": size.trials, "dims": list(size.dims),
                     "counts": counts}
        print(f"{name}: {POOL} campaigns recorded", flush=True)
    REFERENCE_PATH.write_text(_format(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
