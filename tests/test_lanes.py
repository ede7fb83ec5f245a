"""Two lanes keep the bits: ops forced onto the worker thread match the same ops run in turn."""

import math
import multiprocessing
import os
import queue
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spantriplet import autodiff as ad
from spantriplet import encoder as enc
from spantriplet.autodiff import Parameter
from spantriplet.data import make_fixture
from spantriplet.encoder import SPAN_MODES, Vocabulary
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.training import TrainConfig, make_optimizer, train_epoch

import test_autodiff

ROOT = Path(__file__).resolve().parent.parent
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2
# z = 4 keeps every span of a fixture sentence in both pools: a 6-token
# sentence makes 441 pairs, so relation layer 0 runs two blocks.
SMALL = dict(embedding_dim=6, lstm_hidden=5, ffnn_hidden=7, width_dim=2, distance_dim=3, z=4.0)


def lanes_on_and_off(monkeypatch, build, split=True):
    """``build()`` with the lanes forced on and then off, as (on, off).

    On, no call is too small, so an op that ``split``s its work makes the
    worker wherever the process may use two CPUs; off, every call is too
    small and no worker is made.
    """
    results = []
    for floor in (0, math.inf):
        monkeypatch.setattr(ad, "LANE_MIN_MULADDS", floor)
        monkeypatch.setattr(ad, "_worker", None)
        results.append(build())
        assert (ad._worker is not None) == (floor == 0 and split and TWO_CPUS)
    return results


def assert_same_bits(on, off):
    assert len(on) == len(off)
    for i, (a, b) in enumerate(zip(on, off)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), i


@pytest.mark.parametrize("n", [1, 7])
def test_bilstm(monkeypatch, n):
    def build():
        rng = np.random.default_rng(50 + n)
        fw, bw = enc.lstm_parameters("lstm", 5, 4, rng)
        for p in fw + bw:
            p.data[...] = rng.normal(size=p.shape)
        x = Parameter(rng.normal(size=(n, 5)), name="x")
        out = ad.bilstm(x, fw, bw)
        out.backward(seed=rng.normal(size=out.shape))
        return [out.data, x.grad] + [p.grad for p in fw + bw]

    on, off = lanes_on_and_off(monkeypatch, build)
    assert_same_bits(on, off)
    assert np.all(on[0] != 0.0) and np.all(on[1] != 0.0)  # both directions ran


@pytest.mark.parametrize("name", sorted(test_autodiff.pair_cases()))
def test_pair_linear(monkeypatch, name):
    n, t_idx, o_idx, with_table = test_autodiff.pair_cases()[name]
    per_block = max(1, ad.PAIR_BLOCK_ROWS // max(len(o_idx), 1))
    on, off = lanes_on_and_off(monkeypatch, lambda: test_autodiff.TestPairLinear.run(
        ad.pair_linear, n, t_idx, o_idx, with_table, seed=7), split=len(t_idx) > per_block)
    assert_same_bits(*([a for a in side if a is not None] for side in (on, off)))


def small_model(fixture, span_mode="boundary"):
    return SpanModel(ModelConfig(span_mode=span_mode, **SMALL),
                     Vocabulary.build(s.tokens for s in fixture), seed=0)


@pytest.mark.parametrize("span_mode", SPAN_MODES)
def test_training_step(monkeypatch, span_mode):
    fixture = make_fixture(np.random.default_rng(60), 4)
    longest = max(fixture, key=lambda s: len(s.tokens))

    def build():
        model = small_model(fixture, span_mode)
        optimizer = make_optimizer(model, TrainConfig())
        train_epoch(model, [longest], optimizer, np.random.default_rng(61))
        return ([p.data for p in optimizer.params] + optimizer.first_moment
                + optimizer.second_moment)

    assert len(small_model(fixture).forward(longest.tokens).pairs) > ad.PAIR_BLOCK_ROWS
    assert_same_bits(*lanes_on_and_off(monkeypatch, build))


def test_forked_child_makes_its_own_worker(monkeypatch):
    if not TWO_CPUS:
        pytest.skip("lanes need two usable CPUs")
    fixture = make_fixture(np.random.default_rng(62), 4)
    longest = max(fixture, key=lambda s: len(s.tokens))
    model = small_model(fixture)
    monkeypatch.setattr(ad, "LANE_MIN_MULADDS", 0)

    def forward():
        return model.forward(longest.tokens).relation_probs.tobytes()

    expected = forward()
    parent_worker = ad._worker
    assert parent_worker is not None
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=lambda: results.put(
        (forward(), ad._worker is not None and ad._worker is not parent_worker)))
    child.start()
    try:
        got, own_worker = results.get(timeout=120)
    except queue.Empty:
        pytest.fail("the forked child's forward did not finish")
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert got == expected and own_worker


def test_set_blas_threads_overrides_the_environment():
    code = ("from spantriplet.autodiff import set_blas_threads\n"
            "library, threads = set_blas_threads(1)\n"
            "print(library is not None, threads)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["True", "1"]
