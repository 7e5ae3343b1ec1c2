"""Peak memory and wall time of one `numrad campaign`, run in a child process.

The child is `python3 -m numrad.cli campaign --seed S --trials N --out
<tmp>/run`, on the interpreter running this script, with one BLAS
thread and PYTHONPATH=<tree>/src, so it measures the tree given
(default: the checkout holding this script).  Printed: the child's exit
code, its peak RSS in MB (`ru_maxrss` of RUSAGE_CHILDREN, the largest
of the children this process waited for, so run the script in a
process of its own), its wall time, and the sha256 and size of both
files it wrote.

    python3 tools/campaign_memory.py [--seed S] [--trials N] [--tree DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="checkout whose src/ is measured (default: this one)")
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    env = dict(os.environ, PYTHONPATH=str(args.tree.resolve() / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        cmd = [sys.executable, "-m", "numrad.cli", "campaign", "--seed", str(args.seed),
               "--trials", str(args.trials), "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        # Linux reports ru_maxrss in KiB
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        print(f"campaign --seed {args.seed} --trials {args.trials}: exit {proc.returncode}")
        print(f"peak_rss_mb {peak:.1f}")
        print(f"wall_s {wall:.2f}")
        # exit 1 is the campaign finding fail verdicts, which B06-B10 give
        if proc.returncode not in (0, 1):
            return proc.returncode
        for suffix in (".csv", ".json"):
            data = out.with_suffix(suffix).read_bytes()
            print(f"{suffix[1:]}_sha256 {hashlib.sha256(data).hexdigest()} {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
