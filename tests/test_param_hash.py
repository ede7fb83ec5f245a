"""scripts/param_hash.py runs against the current API, replays its own hash and
prints the golden training bits."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "param_hash.py"

# OpenBLAS picks its kernels per core, so the bits are pinned per (core name,
# build config) as numpy's bundled OpenBLAS reports them. On any other core or
# build the golden test skips.
SKYLAKEX = ("SkylakeX", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
            "SkylakeX MAX_THREADS=64")
# (span mode, channel mode, dims, steps) -> SHA-256 of the parameters and AdamW moments
GOLDEN = {SKYLAKEX: {
    ("boundary", "dual", "small", 40):
        "f0e3083a981b0035ac3af9c881e6f1c9420262ace605c76ebf25afef806b4d80",
    ("boundary", "single", "small", 40):
        "d7a32e408c09682534f45f80fdafb65904d8fd5f0b788d5e88d27a42b661f728",
    ("max_pool", "dual", "small", 40):
        "29af55999e82778cc5b3d68ce3fe0998e190a91282c645bee6fcc476409e6dc3",
    ("max_pool", "single", "small", 40):
        "ff7410864622e9beab3dc0a229f4aadb35f70c6d9a40eddf55b050ab74060d3f",
    ("mean_pool", "dual", "small", 40):
        "0f82c2cb525af97a217a2f6275251ca5c8bb06af5bc13e5104e90915dd0be3ae",
    ("mean_pool", "single", "small", 40):
        "ae316b4d2af4ff429716103d32ab67dd2e3450bf06f46434bba7442f51a28444",
    ("boundary", "dual", "reference", 3):
        "eb0e37da85f8bc0a1229beb556dac9deb60e168360fc8c7393405f8adc88a33a",
}}
# numpy's bundled OpenBLAS reports its core name and build config through these
_BUILD_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_config64_")


def run_param_hash(tmp_path, *args, env=None):
    """The script's (BLAS library path, hash) for these arguments."""
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    hashes = [line.split()[1] for line in lines if line.startswith("sha256 ")]
    assert len(hashes) == 1, proc.stdout
    assert len(hashes[0]) == 64
    library = lines[0].removeprefix("BLAS ").rsplit(" at ", 1)[0]
    return library, hashes[0]


def blas_build(library: str) -> tuple[str, str] | None:
    """(core name, build config) of numpy's bundled OpenBLAS, or None for any other BLAS."""
    if library == "None":
        return None
    handle = ctypes.CDLL(library)
    if not all(hasattr(handle, name) for name in _BUILD_SYMBOLS):
        return None
    getters = [getattr(handle, name) for name in _BUILD_SYMBOLS]
    for getter in getters:
        getter.argtypes, getter.restype = [], ctypes.c_char_p
    return tuple(getter().decode() for getter in getters)


def test_param_hash_replays(tmp_path):
    first = run_param_hash(tmp_path, "--dims", "small", "--steps", "2")
    assert first == run_param_hash(tmp_path, "--dims", "small", "--steps", "2")


@pytest.mark.parametrize("span_mode, channel_mode, dims, steps", list(GOLDEN[SKYLAKEX]))
def test_golden_training_bits(tmp_path, span_mode, channel_mode, dims, steps):
    # Two BLAS threads in the environment: the script's in-process pin to one
    # thread must still give the one-thread bits, which matters at reference dims.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    library, digest = run_param_hash(
        tmp_path, "--span-mode", span_mode, "--channel-mode", channel_mode,
        "--dims", dims, "--steps", str(steps), env=env)
    build = blas_build(library)
    if build not in GOLDEN:
        pytest.skip(f"no golden hashes for BLAS {library}, core and config {build}")
    assert digest == GOLDEN[build][span_mode, channel_mode, dims, steps]
