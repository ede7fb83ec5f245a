"""``SpanModel.load`` builds the parameters unfilled and takes the checkpoint's arrays.

A loaded model must equal the saved one bit for bit, in its parameters, its
forward and one training epoch, without drawing initial values on the way.
``load_state_arrays`` keeps copying, because its callers keep their dict.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from spantriplet.autodiff import AdamW
from spantriplet.data import make_fixture
from spantriplet.encoder import Vocabulary
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.training import TrainConfig, make_optimizer, train_epoch

TINY = dict(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5, width_dim=3, distance_dim=3)
SENTENCES = make_fixture(np.random.default_rng(4), 5)


def saved_model(tmp_path, config, seed=2):
    model = SpanModel(config, Vocabulary.build(s.tokens for s in SENTENCES), seed=seed)
    path = str(tmp_path / "model.ckpt.npz")
    model.save(path)
    return model, path


def assert_same_parameters(a, b):
    assert [p.name for p in a.parameters()] == [p.name for p in b.parameters()]
    for p, q in zip(a.parameters(), b.parameters()):
        assert q.data.dtype == np.float64 and p.data.tobytes() == q.data.tobytes(), p.name


@pytest.mark.parametrize("settings", [
    pytest.param(dict(span_mode=span, channel_mode=channel), id=f"{span}-{channel}")
    for span in ("boundary", "max_pool", "mean_pool") for channel in ("dual", "single")
] + [pytest.param(dict(use_width_distance=False), id="no_width_distance"),
     pytest.param(None, id="reference")])
def test_round_trip_is_bitwise(tmp_path, settings):
    config = ModelConfig() if settings is None else ModelConfig(**TINY, **settings)
    model, path = saved_model(tmp_path, config)
    loaded = SpanModel.load(path)
    assert loaded.config == model.config and loaded.vocab.tokens == model.vocab.tokens
    assert_same_parameters(model, loaded)
    for sentence in SENTENCES[:2]:
        want, got = model.forward(sentence.tokens), loaded.forward(sentence.tokens)
        assert got.mention_probs.tobytes() == want.mention_probs.tobytes()
        assert got.relation_probs.tobytes() == want.relation_probs.tobytes()


def test_load_draws_nothing(tmp_path, monkeypatch):
    _, path = saved_model(tmp_path, ModelConfig(**TINY))

    def refuse(*args, **kwargs):
        raise AssertionError("a generator was made while loading a checkpoint")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    SpanModel.load(path)
    with pytest.raises(AssertionError, match="generator"):
        SpanModel(ModelConfig(**TINY), Vocabulary.build([["the"]]))


def test_loaded_parameters_train_like_the_saved_ones(tmp_path):
    model, path = saved_model(tmp_path, ModelConfig(**TINY))
    loaded = SpanModel.load(path)
    assert all(p.data.flags.writeable and p.data.dtype == np.float64
               for p in loaded.parameters())
    runs = []
    for m in (model, loaded):
        optimizer = make_optimizer(m, TrainConfig(weight_decay=0.01))
        stats = train_epoch(m, SENTENCES, optimizer, np.random.default_rng(9))
        runs.append((stats, optimizer))
    (want, want_opt), (got, got_opt) = runs
    assert (got.mean_loss, got.mean_mention_loss, got.mean_relation_loss) == \
        (want.mean_loss, want.mean_mention_loss, want.mean_relation_loss)
    assert_same_parameters(model, loaded)
    for moments in ("first_moment", "second_moment"):
        for a, b in zip(getattr(want_opt, moments), getattr(got_opt, moments)):
            assert a.tobytes() == b.tobytes()


def test_integer_weight_loads_as_float64(tmp_path):
    model, _ = saved_model(tmp_path, ModelConfig(**TINY))
    arrays = {"param/" + p.name: p.data for p in model.parameters()}
    arrays["param/relation.w2"] = np.arange(arrays["param/relation.w2"].size).reshape(
        arrays["param/relation.w2"].shape)
    meta = {"config": asdict(model.config), "vocab": model.vocab.tokens}
    path = tmp_path / "ints.ckpt.npz"
    np.savez(path, __format__=np.array("spantriplet-checkpoint-v1"),
             __meta__=np.array(json.dumps(meta)), **arrays)
    weight = SpanModel.load(str(path)).relation_ffnn.weights[-1]
    assert weight.data.dtype == np.float64
    np.testing.assert_array_equal(weight.data, arrays["param/relation.w2"])


def test_load_state_arrays_copies():
    model = SpanModel(ModelConfig(**TINY), Vocabulary.build(s.tokens for s in SENTENCES))
    arrays = SpanModel(model.config, model.vocab, seed=5).state_arrays()
    kept = {name: a.copy() for name, a in arrays.items()}
    model.load_state_arrays(arrays)
    optimizer = AdamW(model.parameters(), lr=1e-3)
    for p in model.parameters():
        p.grad = np.ones_like(p.data)
    optimizer.step()
    assert all(arrays[name].tobytes() == kept[name].tobytes() for name in arrays)
    assert all(p.data.tobytes() != kept[p.name].tobytes() for p in model.parameters())
    stepped = model.state_arrays()
    for a in arrays.values():
        a += 1.0
    assert all(p.data.tobytes() == stepped[p.name].tobytes() for p in model.parameters())
