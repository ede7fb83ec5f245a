import math
from dataclasses import asdict

import numpy as np
import pytest

from spantriplet import pruning
from spantriplet.autodiff import softmax_probabilities
from spantriplet.data import make_fixture, save_checkpoint
from spantriplet.encoder import Vocabulary, enumerate_spans
from spantriplet.errors import CheckpointError
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.pruning import MENTION_OPINION, MENTION_TARGET, SpanCandidate
from spantriplet.training import compute_loss, make_optimizer, TrainConfig


def make_candidates(rng, n, n_classes=3, tie_pool=None):
    """Random candidates; drawing scores from a small set forces ties."""
    spans = enumerate_spans(n, 8)
    candidates = []
    for i, span in enumerate(spans):
        if tie_pool is not None:
            raw = rng.choice(tie_pool, size=n_classes)
        else:
            raw = rng.random(n_classes)
        probs = raw / raw.sum()
        candidates.append(SpanCandidate(span, i, tuple(probs)))
    return candidates


def brute_force_top_k(candidates, score_of, k):
    ranked = sorted(candidates, key=lambda c: (-score_of(c), c.span[0], c.span[1]))
    return ranked[:k]


class TestMentionScores:
    def test_zero_logits_are_uniform(self):
        probs = softmax_probabilities(np.zeros(3))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-15)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_saturated_logit(self):
        probs = softmax_probabilities(np.array([10.0, -10.0, -10.0]))
        assert probs[0] > 0.9999

    def test_model_mention_probabilities_sum_to_one(self):
        fixture = make_fixture(np.random.default_rng(0), 5)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        model = SpanModel(ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                                      width_dim=3, distance_dim=3), vocab, seed=0)
        out = model.forward(fixture[0].tokens)
        np.testing.assert_allclose(out.mention_probs.sum(axis=1), 1.0, atol=1e-12)

    def test_mention_probabilities_are_the_scorer_softmax_of_span_reps(self):
        fixture = make_fixture(np.random.default_rng(0), 5)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        model = SpanModel(ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                                      width_dim=3, distance_dim=3), vocab, seed=0)
        out = model.forward(fixture[0].tokens)
        probs = softmax_probabilities(model.mention_ffnn(out.span_reps).data)
        np.testing.assert_allclose(probs, out.mention_probs, atol=1e-14)
        assert [c.probs for c in out.candidates] == [tuple(p) for p in out.mention_probs]


class TestDualChannelPruning:
    def test_pool_size_arithmetic(self):
        rng = np.random.default_rng(1)
        candidates = make_candidates(rng, 10)
        targets, opinions = pruning.prune_dual_channel(candidates, 10, 0.5)
        assert len(targets) == len(opinions) == 5

    def test_large_z_keeps_everything_in_score_order(self):
        rng = np.random.default_rng(2)
        candidates = make_candidates(rng, 4)
        targets, opinions = pruning.prune_dual_channel(candidates, 4, 100.0)
        assert len(targets) == len(candidates)
        scores = [c.probs[MENTION_TARGET] for c in targets]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("tie_pool", [None, [0.1, 0.2]])
    def test_matches_brute_force_oracle(self, tie_pool):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(1, 15))
            z = float(rng.choice([0.1, 0.25, 0.5, 1.0, 2.0]))
            candidates = make_candidates(rng, n, tie_pool=tie_pool)
            k = min(math.ceil(n * z), len(candidates))
            targets, opinions = pruning.prune_dual_channel(candidates, n, z)
            assert targets == brute_force_top_k(candidates, lambda c: c.probs[MENTION_TARGET], k)
            assert opinions == brute_force_top_k(candidates, lambda c: c.probs[MENTION_OPINION], k)

    def test_selected_scores_dominate_excluded(self):
        rng = np.random.default_rng(4)
        candidates = make_candidates(rng, 12)
        targets, opinions = pruning.prune_dual_channel(candidates, 12, 0.3)
        excluded_t = set(candidates) - set(targets)
        worst_kept = min(c.probs[MENTION_TARGET] for c in targets)
        assert all(c.probs[MENTION_TARGET] <= worst_kept for c in excluded_t)
        excluded_o = set(candidates) - set(opinions)
        worst_kept_o = min(c.probs[MENTION_OPINION] for c in opinions)
        assert all(c.probs[MENTION_OPINION] <= worst_kept_o for c in excluded_o)

    def test_pools_may_overlap(self):
        span_probs = [(0.9, 0.8, 0.0), (0.1, 0.1, 0.8), (0.0, 0.1, 0.9)]
        candidates = [SpanCandidate((i, i), i, p) for i, p in enumerate(span_probs)]
        targets, opinions = pruning.prune_dual_channel(candidates, 2, 0.5)
        assert targets[0] is candidates[0] and opinions[0] is candidates[0]


class TestSingleChannelPruning:
    def test_pair_count_is_k_squared(self):
        rng = np.random.default_rng(5)
        candidates = make_candidates(rng, 8, n_classes=2)
        pool = pruning.prune_single_channel(candidates, 8, 0.5)
        pairs = [(t, o) for t in pool for o in pool]
        assert len(pairs) == len(pool) ** 2 == 16

    def test_doubling_z_quadruples_pairs(self):
        rng = np.random.default_rng(6)
        candidates = make_candidates(rng, 8, n_classes=2)
        k1 = len(pruning.prune_single_channel(candidates, 8, 0.5))
        k2 = len(pruning.prune_single_channel(candidates, 8, 1.0))
        assert k2 ** 2 == 4 * k1 ** 2

    def test_degenerate_pool_yields_one_pair(self):
        rng = np.random.default_rng(7)
        candidates = make_candidates(rng, 1, n_classes=2)
        pool = pruning.prune_single_channel(candidates, 1, 0.5)
        assert len(pool) == 1

    def test_adjusted_single_channel_covers_dual_pool_sizes(self):
        # Single channel at 2z keeps at least as many distinct spans per
        # role as dual channel at z.
        rng = np.random.default_rng(8)
        for n in (3, 7, 12):
            dual = make_candidates(rng, n, n_classes=3)
            single = [SpanCandidate(c.span, c.index, (c.probs[0] + c.probs[1],
                                                      c.probs[2]))
                      for c in dual]
            targets, opinions = pruning.prune_dual_channel(dual, n, 0.5)
            pool = pruning.prune_single_channel(single, n, 1.0)
            assert len(pool) >= len(targets)
            assert len(pool) >= len(opinions)


class TestChannelHeadContract:
    """The prune functions trust the head width; the config and the loader make it right."""

    OTHER_MODE = {"dual": "single", "single": "dual"}

    def make_model(self, channel_mode):
        fixture = make_fixture(np.random.default_rng(21), 3)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        config = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5, width_dim=3,
                             distance_dim=3, channel_mode=channel_mode)
        return SpanModel(config, vocab, seed=0), fixture

    @pytest.mark.parametrize("channel_mode", ["dual", "single"])
    def test_mention_head_width_follows_channel_mode(self, channel_mode):
        model, fixture = self.make_model(channel_mode)
        tokens = fixture[0].tokens
        out = model.forward(tokens)
        k = pruning.pool_size(len(tokens), model.config.z, len(out.candidates))
        assert {len(c.probs) for c in out.candidates} == {len(model.config.mention_classes)}
        assert len(out.target_pool) == len(out.opinion_pool) == k
        if channel_mode == "single":
            assert out.target_pool == pruning.prune_single_channel(
                out.candidates, len(tokens), model.config.z)
        else:
            assert (out.target_pool, out.opinion_pool) == pruning.prune_dual_channel(
                out.candidates, len(tokens), model.config.z)

    @pytest.mark.parametrize("channel_mode", ["dual", "single"])
    def test_checkpoint_claiming_the_other_channel_mode_is_rejected(self, tmp_path,
                                                                    channel_mode):
        model, _ = self.make_model(channel_mode)
        config = asdict(model.config)
        config["channel_mode"] = self.OTHER_MODE[channel_mode]
        path = str(tmp_path / "relabelled.ckpt.npz")
        save_checkpoint(path, model.parameters(),
                        meta={"config": config, "vocab": model.vocab.tokens})
        with pytest.raises(CheckpointError, match="'mention.w"):
            SpanModel.load(path)


class TestSingleChannelPipeline:
    def test_trains_predicts_and_round_trips(self, tmp_path):
        fixture = make_fixture(np.random.default_rng(20), 6)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        config = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                             width_dim=3, distance_dim=3, lstm_dropout=0.0,
                             ffnn_dropout=0.0, channel_mode="single")
        model = SpanModel(config, vocab, seed=0)
        assert model.mention_ffnn.weights[-1].shape[1] == 2

        out = model.forward(fixture[0].tokens)
        assert out.target_pool == out.opinion_pool  # one shared pool
        optimizer = make_optimizer(model, TrainConfig())
        train_epoch_losses = []
        rng = np.random.default_rng(0)
        from spantriplet.training import train_epoch

        for _ in range(3):
            train_epoch_losses.append(
                train_epoch(model, fixture, optimizer, rng).mean_loss)
        assert train_epoch_losses[-1] < train_epoch_losses[0]
        model.predict(fixture[0].tokens)  # decoding works off the shared pool

        path = str(tmp_path / "single.ckpt.npz")
        model.save(path)
        again = SpanModel.load(path)
        assert again.config.channel_mode == "single"
        np.testing.assert_array_equal(
            again.forward(fixture[0].tokens).mention_probs,
            model.forward(fixture[0].tokens).mention_probs)


class TestGradientBlocking:
    def make_model(self):
        fixture = make_fixture(np.random.default_rng(0), 5)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        config = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                             width_dim=3, distance_dim=3, lstm_dropout=0.0,
                             ffnn_dropout=0.0)
        return SpanModel(config, vocab, seed=0), fixture

    def test_relation_loss_step_leaves_mention_ffnn_bitwise_unchanged(self):
        model, fixture = self.make_model()
        mention_before = [p.data.copy() for p in model.mention_ffnn.parameters()]
        optimizer = make_optimizer(model, TrainConfig())
        optimizer.zero_grad()
        out = model.forward(fixture[0].tokens, training=True,
                            rng=np.random.default_rng(1))
        parts = compute_loss(out, fixture[0])
        parts.relation.backward()
        optimizer.step()
        for before, p in zip(mention_before, model.mention_ffnn.parameters()):
            assert np.array_equal(before, p.data)
        # the relation side did move
        assert any(np.any(p.grad is not None) for p in model.relation_ffnn.parameters())

    def test_mention_loss_step_leaves_relation_ffnn_bitwise_unchanged(self):
        model, fixture = self.make_model()
        relation_before = [p.data.copy() for p in model.relation_ffnn.parameters()]
        optimizer = make_optimizer(model, TrainConfig())
        optimizer.zero_grad()
        out = model.forward(fixture[0].tokens, training=True,
                            rng=np.random.default_rng(1))
        parts = compute_loss(out, fixture[0])
        parts.mention.backward()
        optimizer.step()
        for before, p in zip(relation_before, model.relation_ffnn.parameters()):
            assert np.array_equal(before, p.data)

    def test_masked_losses_have_complementary_gradients(self):
        model, fixture = self.make_model()
        out = model.forward(fixture[0].tokens, training=True,
                            rng=np.random.default_rng(1))
        parts = compute_loss(out, fixture[0])
        model.zero_grad()
        parts.mention.backward()
        assert any(np.any(p.grad != 0.0) for p in model.mention_ffnn.parameters())
        assert all(np.all(p.grad == 0.0) for p in model.relation_ffnn.parameters())

        out = model.forward(fixture[0].tokens, training=True,
                            rng=np.random.default_rng(1))
        parts = compute_loss(out, fixture[0])
        model.zero_grad()
        parts.relation.backward()
        assert any(np.any(p.grad != 0.0) for p in model.relation_ffnn.parameters())
        assert all(np.all(p.grad == 0.0) for p in model.mention_ffnn.parameters())
