"""tools/mc_coverage.py: the outside-3-SE share of a tail-rate CSV, and
the command line that runs ``maxplus merton`` over many seeds."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "merton_tailrate.json"
HEADER = "T,xi,exact_value,mc_value,mc_se,sup_over_xi,target_minus_gstar"


def load_coverage_tool():
    path = ROOT / "tools" / "mc_coverage.py"
    spec = importlib.util.spec_from_file_location("mc_coverage", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outside_share_reads_the_conclusive_cells():
    tool = load_coverage_tool()
    rows = [
        HEADER,
        "25.0,0.5,-0.5,,,-0.25,-0.0625",  # inconclusive: skipped
        "25.0,1.0,-0.5,-0.125,0.125,-0.25,-0.0625",  # exactly 3 SE off: inside
        "25.0,1.5,-0.5,-0.0,0.125,-0.25,-0.0625",  # 4 SE off: outside
    ]
    assert tool.outside_share("\n".join(rows) + "\n") == 0.5
    assert tool.outside_share("\n".join(rows[:2]) + "\n") == math.inf


def test_main_prints_the_summary_over_seeds(capsys):
    tool = load_coverage_tool()
    tool.main(["--config", str(SCENARIO), "--seeds", "2"])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"{SCENARIO}, seeds 0-1: outside 3 SE mean ")
    assert line.endswith(" seeds above 2%")


def test_main_refuses_no_seeds(capsys):
    tool = load_coverage_tool()
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--seeds", "0"])
    assert exit_info.value.code == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
