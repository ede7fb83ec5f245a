"""scripts/reproduce_full.py at toy size: it trains through ``spantriplet train``
and so saves the CLI's bits, and it finds every split file before any run."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from spantriplet.data import load_checkpoint, make_fixture, write_corpus

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_full.py"
SPLITS = ("train", "dev", "test")
FLAGS = ["--epochs", "1", "--seeds", "0"]


def write_corpora(tmp_path):
    """5-sentence splits in the ASTE-Data-V2 directory spellings."""
    for offset, name in enumerate(("14res", "14lap")):
        directory = tmp_path / "data" / name
        directory.mkdir(parents=True)
        for index, split in enumerate(SPLITS):
            sentences = make_fixture(np.random.default_rng(10 * offset + index), 5)
            write_corpus(str(directory / f"{split}_triplets.txt"), sentences)
    return tmp_path / "data"


def run(tmp_path, args, blas_threads):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_runs_the_cli_per_dataset_with_its_bits(tmp_path):
    data = write_corpora(tmp_path)
    out = tmp_path / "out"
    proc = run(tmp_path, [str(SCRIPT), "--data", str(data), "--out", str(out),
                          "--datasets", "rest14", "lap14", *FLAGS], blas_threads="2")
    assert proc.returncode == 0, proc.stderr[-2000:]
    for dataset in ("rest14", "lap14"):
        for name in ("config.json", "report.json", "seed0.ckpt.npz"):
            assert (out / dataset / name).exists(), (dataset, name)
    table = proc.stdout[proc.stdout.index("dataset    mean_P"):].splitlines()
    assert [row.split()[0] for row in table[1:]] == ["rest14", "lap14"]

    # The same run straight through the CLI, with the BLAS variable unset.
    flags = [arg for split in SPLITS
             for arg in (f"--{split}", str(data / "14res" / f"{split}_triplets.txt"))]
    cli = run(tmp_path, ["-m", "spantriplet.cli", "train", *flags,
                         "--out", str(tmp_path / "cli"), *FLAGS], blas_threads=None)
    assert cli.returncode == 0, cli.stderr[-2000:]
    script_params, _ = load_checkpoint(str(out / "rest14" / "seed0.ckpt.npz"))
    cli_params, _ = load_checkpoint(str(tmp_path / "cli" / "seed0.ckpt.npz"))
    assert script_params.keys() == cli_params.keys()
    for name, array in cli_params.items():
        assert np.array_equal(script_params[name], array), name


def test_missing_split_fails_before_any_run(tmp_path):
    data = write_corpora(tmp_path)
    (data / "14lap" / "dev_triplets.txt").unlink()
    out = tmp_path / "out"
    proc = run(tmp_path, [str(SCRIPT), "--data", str(data), "--out", str(out),
                          "--datasets", "rest14", "lap14", *FLAGS], blas_threads="2")
    assert proc.returncode != 0
    assert "dev file for lap14" in proc.stderr
    assert not out.exists()


def test_two_releases_of_one_dataset_exit_2_before_any_run(tmp_path):
    data = write_corpora(tmp_path)
    (data / "14rest").mkdir()
    (data / "14rest" / "test_triplets.txt").write_text("ok .####[]\n")
    out = tmp_path / "out"
    proc = run(tmp_path, [str(SCRIPT), "--data", str(data), "--out", str(out),
                          "--datasets", "rest14", *FLAGS], blas_threads="2")
    assert proc.returncode == 2
    lines = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert "Traceback" not in proc.stderr and len(lines) == 1, proc.stderr
    assert "14rest" in lines[0] and "14res" + os.sep in lines[0]
    assert not out.exists()
