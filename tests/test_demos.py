"""The demos run end to end, each in its own interpreter, against this tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("radius_tour.py", "sharpness_survey.py", "campaign_walkthrough.py")


def _run(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    out = _run(name)
    if name == "sharpness_survey.py":
        # the paired comparisons the survey reports, on its seeded draws
        for line in ("B16b vs B16a:  wins 150/0, ties 0, skipped 0, "
                     "mean gap +0.3985",
                     "B16b vs B17:  wins 150/0, ties 0, skipped 0, "
                     "mean gap +3.9979",
                     "B14 vs B05:  wins 107/43, ties 0, skipped 0, "
                     "mean gap +0.6064",
                     "B08 vs B05:  wins 150/0, ties 0, skipped 0, "
                     "mean gap +7.6576"):
            assert line in out
