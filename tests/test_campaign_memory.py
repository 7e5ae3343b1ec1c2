import hashlib
import importlib.util
from pathlib import Path

from numrad.harness import CampaignConfig, run_campaign

_spec = importlib.util.spec_from_file_location(
    "campaign_memory", Path(__file__).resolve().parents[1] / "tools" / "campaign_memory.py")
campaign_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(campaign_memory)


def test_campaign_memory_reports_the_childs_run(capsys):
    # the child's files are the report of the same config, so their
    # hashes are those of to_csv() and to_json()
    assert campaign_memory.main(["--seed", "3", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "campaign --seed 3 --trials 2: exit 1"
    assert float(lines[1].split()[1]) > 0 and lines[1].startswith("peak_rss_mb ")
    assert float(lines[2].split()[1]) > 0 and lines[2].startswith("wall_s ")
    rep = run_campaign(CampaignConfig(trials=2, seed=3))
    for line, text in zip(lines[3:], (rep.to_csv(), rep.to_json())):
        data = text.encode("utf-8")
        assert line.split()[1:3] == [hashlib.sha256(data).hexdigest(), str(len(data))]
    assert len(lines) == 5
