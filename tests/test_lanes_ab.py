"""scripts/lanes_ab.py runs against the current API and finds both sides bitwise equal."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "lanes_ab.py"


def test_lanes_ab_prints_a_row_per_workload(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--sentences", "1", "--steps", "1",
                           "--rounds", "2"],
                          cwd=tmp_path, env=dict(os.environ), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "outputs bitwise equal" in proc.stdout
    rows = [line.strip("|").split("|") for line in proc.stdout.splitlines()
            if line.startswith("| ") and "ms" in line]
    assert [row[0].strip().split(",")[0] for row in rows] == ["forward", "train step"]
    for row in rows:
        on, off = (float(cell.split()[0]) for cell in row[1:3])
        assert on > 0 and off > 0
