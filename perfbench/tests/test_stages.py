"""The traced run's stage composition must reproduce ``SpanModel.forward``.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from spantriplet.data import make_fixture  # noqa: E402
from spantriplet.encoder import SPAN_MODES, Vocabulary  # noqa: E402
from spantriplet.model import ModelConfig, SpanModel  # noqa: E402
from spantriplet.training import compute_loss  # noqa: E402
from stages import (StageClock, graph_nodes, staged_backward, staged_forward,  # noqa: E402
                    staged_loss)
from workloads import make_corpus  # noqa: E402


def small_model(span_mode, channel_mode, sentences, dropout):
    config = ModelConfig(embedding_dim=6, lstm_hidden=5, ffnn_hidden=4, width_dim=3,
                         distance_dim=4, span_mode=span_mode, channel_mode=channel_mode,
                         lstm_dropout=dropout, ffnn_dropout=dropout)
    return SpanModel(config, Vocabulary.build(s.tokens for s in sentences), seed=3)


def pool_indices(output):
    return ([c.index for c in output.target_pool], [c.index for c in output.opinion_pool])


def parameter_grads(model):
    return {p.name: p.grad.copy() for p in model.parameters()}


@pytest.mark.parametrize("span_mode", SPAN_MODES)
@pytest.mark.parametrize("channel_mode", ["dual", "single"])
@pytest.mark.parametrize("training", [False, True])
def test_stages_reproduce_forward_loss_and_gradients(span_mode, channel_mode, training):
    sentences = make_fixture(np.random.default_rng(5), 5) + make_corpus(7, 2, (12, 20))
    model = small_model(span_mode, channel_mode, sentences, 0.3 if training else 0.0)
    for sentence in sentences:
        model.zero_grad()
        rng = np.random.default_rng(sentence.id) if training else None
        expected = model.forward(sentence.tokens, training=training, rng=rng)
        expected_loss = compute_loss(expected, sentence, channel_mode).total
        expected_loss.backward()
        expected_grads = parameter_grads(model)

        model.zero_grad()
        clock = StageClock()
        rng = np.random.default_rng(sentence.id) if training else None
        staged = staged_forward(model, sentence.tokens, clock, training=training, rng=rng)
        loss = staged_loss(staged, sentence, channel_mode, clock).total
        staged_backward(staged, clock)

        assert pool_indices(staged.output) == pool_indices(expected)
        assert staged.output.pair_spans == expected.pair_spans
        np.testing.assert_array_equal(staged.output.relation_probs, expected.relation_probs)
        np.testing.assert_array_equal(staged.output.mention_probs, expected.mention_probs)
        assert loss.item() == expected_loss.item()
        for name, grad in parameter_grads(model).items():
            np.testing.assert_allclose(grad, expected_grads[name], rtol=1e-12, atol=1e-14,
                                       err_msg=name)


def test_pinned_pools_follow_the_given_indices():
    sentence = make_fixture(np.random.default_rng(9), 1)[0]
    model = small_model("max_pool", "dual", [sentence], 0.0)
    pools = ([0, 3], [2])
    expected = model.forward(sentence.tokens, pools=pools)
    staged = staged_forward(model, sentence.tokens, StageClock(), pools=pools)
    assert pool_indices(staged.output) == pool_indices(expected) == ([0, 3], [2])
    np.testing.assert_array_equal(staged.output.relation_probs, expected.relation_probs)


def test_graph_walk_counts_each_node_once():
    sentence = make_fixture(np.random.default_rng(2), 1)[0]
    model = small_model("boundary", "dual", [sentence], 0.0)
    loss = compute_loss(model.forward(sentence.tokens), sentence).total
    count = graph_nodes(loss)
    assert count > len(model.parameters())
    assert graph_nodes(loss) == count
