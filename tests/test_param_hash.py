"""scripts/param_hash.py runs against the current API and replays its own hash."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "param_hash.py"


def run_param_hash(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--dims", "small", "--steps", "2"],
                          cwd=tmp_path, env=dict(os.environ), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    hashes = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("sha256 ")]
    assert len(hashes) == 1, proc.stdout
    assert len(hashes[0]) == 64
    return hashes[0]


def test_param_hash_replays(tmp_path):
    assert run_param_hash(tmp_path) == run_param_hash(tmp_path)
