"""Tests of the benchmark itself: run them with

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from numrad import radii  # noqa: E402
from numrad.harness import CampaignConfig, run_campaign  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in section}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "0",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tampered_replay_record_is_a_failed_operation(tmp_path):
    wl = workloads.make("replay", "tiny", tmp_path)
    assert wl.prepare(0) == []
    report = wl.inputs(0)
    assert report.failures, "the tiny replay report needs failure records"
    slacks = wl.run(report)
    assert wl.check(0, report, slacks) == (len(slacks), [])
    rec = report.failures[0]
    rec["slack"] = math.nextafter(rec["slack"], math.inf)
    _, problems = wl.check(0, report, slacks)
    assert len(problems) == 1


def test_tampered_reference_count_is_a_failed_operation(tmp_path):
    wl = workloads.make("campaign-small", "tiny", tmp_path)
    k = workloads.pool_index(0, 0)
    truth = run_campaign(CampaignConfig(trials=wl.size.trials, dims=wl.size.dims,
                                        seed=k))
    wl.reference = {k: workloads.bound_counts(truth.per_bound)}
    assert workloads.closed_loop(wl, 0, 0, 1)[2] == []
    wl.reference[k]["B11"][0] += 1
    problems = workloads.closed_loop(wl, 0, 0, 1)[2]
    assert len(problems) == 1 and problems[0].startswith("B11")


def test_fail_verdict_outside_the_false_bounds_is_a_failed_operation():
    report = run_campaign(CampaignConfig(bounds=("B01", "B06"), trials=2))
    rows = [dict(r) for r in report.rows]
    assert workloads.check_campaign(report.per_bound, rows, None) == []
    for r in rows:
        r["status"] = "fail"
    problems = workloads.check_campaign(report.per_bound, rows, None)
    assert [p.split()[0] for p in problems] == ["B01", "B01"]


def test_radius_probe_counts_a_new_miss(monkeypatch):
    probes, problems, _ = workloads.radius_probe((2, 3), seed=0, per_dim=2)
    assert probes == 5 and problems == []
    sweep = radii.numerical_radius

    def low(a):
        r = sweep(a)
        return type(r)(r.value * (1.0 - 1e-6), r.theta, r.witness)

    monkeypatch.setattr(radii, "numerical_radius", low)
    _, problems, _ = workloads.radius_probe((2, 3), seed=0, per_dim=2)
    assert len(problems) == 4
