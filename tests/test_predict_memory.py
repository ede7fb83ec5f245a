"""scripts/predict_memory.py runs against the current API and prints one row per length."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "predict_memory.py"


def test_predict_memory_prints_a_row_per_length(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--lengths", "12", "7"],
                          cwd=tmp_path, env=dict(os.environ), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [line.strip("|").split("|") for line in proc.stdout.splitlines()
            if line.startswith("| ") and line[2].isdigit()]
    assert [(int(n), int(pairs)) for n, pairs, *_ in rows] == [(12, 36), (7, 16)]
    for row in rows:
        predict, built, peak = (float(cell.split()[0]) for cell in row[2:])
        assert predict > 0 and 0 < built <= peak
