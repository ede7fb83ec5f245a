"""The per-step losses of seeded training, held to committed constants at rtol 1e-10.

The golden hashes in test_param_hash.py pin the training bits, but only on
the OpenBLAS core and build they were taken on. This test runs on every
machine: it trains ``scripts/param_hash.py``'s model on its chained corpus,
one ``train_epoch`` per sentence, and compares each step's total, mention
and relation loss with ``loss_trajectory.json``. An exact reformulation or
another BLAS kernel moves these losses by about 1e-15; a change to the
update as small as lr x (1 + 1e-9) moves them past 1e-10 within 60 steps.

To print the constants from the current code (regenerate them only when
outputs really move, and record the old-versus-new diff)::

    PYTHONPATH=src python3 tests/test_loss_trajectory.py > tests/loss_trajectory.json
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from spantriplet.encoder import Vocabulary
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.training import TrainConfig, make_optimizer, train_epoch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("loss_trajectory.json")
_spec = importlib.util.spec_from_file_location("param_hash", ROOT / "scripts" / "param_hash.py")
param_hash = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(param_hash)

# (span mode, channel mode, dims, steps)
CASES = [(span, channel, "small", 60) for span in ("boundary", "max_pool", "mean_pool")
         for channel in ("dual", "single")] + [("boundary", "dual", "reference", 10)]


def case_key(span_mode, channel_mode, dims, steps):
    return f"{span_mode}/{channel_mode}/{dims}/{steps}"


def loss_trajectory(span_mode, channel_mode, dims, steps):
    """[total, mention, relation] loss of each of ``steps`` one-sentence updates."""
    seed = param_hash.SEED
    sentences = param_hash.chained_corpus(np.random.default_rng(seed), steps,
                                          *param_hash.LENGTHS)
    config = ModelConfig(span_mode=span_mode, channel_mode=channel_mode,
                         **(param_hash.SMALL_DIMS if dims == "small" else {}))
    model = SpanModel(config, Vocabulary.build(s.tokens for s in sentences), seed=seed + 1)
    optimizer = make_optimizer(model, TrainConfig(weight_decay=0.01))
    rng = np.random.default_rng(seed + 2)
    losses = []
    for sentence in sentences:
        stats = train_epoch(model, [sentence], optimizer, rng)
        losses.append([stats.mean_loss, stats.mean_mention_loss, stats.mean_relation_loss])
    return losses


@pytest.mark.parametrize("case", CASES, ids=[case_key(*case) for case in CASES])
def test_losses_follow_the_golden_trajectory(case):
    expected = json.loads(GOLDEN.read_text())[case_key(*case)]
    np.testing.assert_allclose(loss_trajectory(*case), expected, rtol=1e-10, atol=0.0)


if __name__ == "__main__":
    from spantriplet.autodiff import set_blas_threads

    set_blas_threads(1)  # the thread count the CLI and param_hash.py train with
    json.dump({case_key(*case): loss_trajectory(*case) for case in CASES}, sys.stdout,
              indent=1)
    print()
