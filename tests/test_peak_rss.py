"""tools/peak_rss.py: the peak resident memory of CLI calls, call by call."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_prints_the_peak_after_import_and_after_each_call():
    proc = subprocess.run(
        [sys.executable, "tools/peak_rss.py", "covering:scenarios/covering_identity.json"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    header, after_import, after_call = proc.stdout.splitlines()
    assert header.split() == ["after", "VmHWM", "MB", "wall", "s", "exit"]
    assert after_import.startswith("import maxplus.cli ")
    assert after_call.startswith("covering scenarios/covering_identity.json ")
    import_mb = float(after_import.split()[-1])
    call_mb, wall, rc = after_call.split()[-3:]
    assert 0.0 < import_mb <= float(call_mb)
    assert float(wall) > 0.0 and rc == "0"
