import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from spantriplet import autodiff as ad
from spantriplet import training
from spantriplet.data import GoldTriplet, Sentence, make_fixture
from spantriplet.encoder import Vocabulary, enumerate_spans
from spantriplet.errors import (ConfigurationError, DataError, NumericalError,
                               TrainingStateError)
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.pruning import (MENTION_INVALID, MENTION_OPINION, MENTION_TARGET,
                                 SINGLE_INVALID, SINGLE_VALID, SpanCandidate)
from spantriplet.training import (TrainConfig, assign_mention_labels,
                                  assign_relation_labels, compute_loss,
                                  make_optimizer, run_experiment, train_epoch)
from spantriplet.triplet import RELATION_INVALID

from fdcheck import max_gradient_error

TEST_CONFIG = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                          width_dim=3, distance_dim=3, lstm_dropout=0.0,
                          ffnn_dropout=0.0)


def tiny_model(sentences, config=TEST_CONFIG, seed=0):
    vocab = Vocabulary.build(s.tokens for s in sentences)
    return SpanModel(config, vocab, seed=seed)


class TestMentionLabels:
    def test_exact_match_definition(self):
        sentence = Sentence(0, list("abcdefgh"), [GoldTriplet((5, 6), (1, 2), "POS")])
        spans = enumerate_spans(8, 8)
        labels = assign_mention_labels(sentence, spans)
        by_span = dict(zip(spans, labels))
        assert by_span[(5, 6)] == MENTION_TARGET
        assert by_span[(1, 2)] == MENTION_OPINION
        assert all(label == MENTION_INVALID
                   for span, label in by_span.items() if span not in {(5, 6), (1, 2)})

    def test_no_triplets_means_all_invalid(self):
        sentence = Sentence(0, ["just", "words"], [])
        labels = assign_mention_labels(sentence, enumerate_spans(2, 8))
        assert set(labels) == {MENTION_INVALID}

    def test_overlap_without_equality_stays_invalid(self):
        sentence = Sentence(0, list("abcdefgh"), [GoldTriplet((5, 6), (1, 2), "POS")])
        labels = dict(zip(enumerate_spans(8, 8),
                          assign_mention_labels(sentence, enumerate_spans(8, 8))))
        assert labels[(5, 5)] == MENTION_INVALID

    def test_target_priority_for_double_annotated_span(self):
        sentence = Sentence(0, list("abcd"), [
            GoldTriplet((1, 1), (2, 2), "POS"),
            GoldTriplet((3, 3), (1, 1), "NEG"),
        ])
        labels = dict(zip(enumerate_spans(4, 8),
                          assign_mention_labels(sentence, enumerate_spans(4, 8))))
        assert labels[(1, 1)] == MENTION_TARGET

    def test_single_channel_label_collapse(self):
        sentence = Sentence(0, list("abcd"), [GoldTriplet((0, 0), (2, 2), "POS")])
        spans = enumerate_spans(4, 8)
        labels = dict(zip(spans, assign_mention_labels(sentence, spans, "single")))
        assert labels[(0, 0)] == SINGLE_VALID
        assert labels[(2, 2)] == SINGLE_VALID
        assert labels[(1, 1)] == SINGLE_INVALID

    def test_too_wide_gold_span_gets_no_label(self, caplog):
        sentence = Sentence(0, list("abcdefgh"), [GoldTriplet((0, 6), (7, 7), "POS")])
        spans = enumerate_spans(8, 2)
        with caplog.at_level("WARNING"):
            labels = dict(zip(spans, assign_mention_labels(sentence, spans)))
        assert labels[(7, 7)] == MENTION_OPINION
        assert set(labels.values()) == {MENTION_OPINION, MENTION_INVALID}
        assert not caplog.records


def candidate(span, index=0):
    return SpanCandidate(span, index, (0.5, 0.3, 0.2))


class TestRelationLabels:
    def test_surviving_gold_pair_gets_its_sentiment(self):
        sentence = Sentence(0, list("abcd"), [GoldTriplet((0, 0), (2, 2), "NEU")])
        pairs = [(candidate((0, 0)), candidate((2, 2))),
                 (candidate((0, 0)), candidate((3, 3)))]
        assert assign_relation_labels(sentence, pairs) == [2, RELATION_INVALID]

    def test_pruned_away_gold_target_leaves_all_invalid(self):
        sentence = Sentence(0, list("abcd"), [GoldTriplet((0, 0), (2, 2), "POS")])
        pairs = [(candidate((1, 1)), candidate((2, 2)))]
        assert assign_relation_labels(sentence, pairs) == [RELATION_INVALID]

    def test_matches_brute_force_matcher(self):
        rng = np.random.default_rng(0)
        spans = enumerate_spans(6, 3)
        for _ in range(30):
            triplets = [
                GoldTriplet(spans[int(rng.integers(len(spans)))],
                            spans[int(rng.integers(len(spans)))],
                            str(rng.choice(["POS", "NEG", "NEU"])))
                for _ in range(int(rng.integers(0, 3)))
            ]
            sentence = Sentence(0, ["w"] * 6, triplets)
            pool_t = [candidate(spans[i], i)
                      for i in rng.choice(len(spans), size=4, replace=False)]
            pool_o = [candidate(spans[i], i)
                      for i in rng.choice(len(spans), size=4, replace=False)]
            pairs = [(t, o) for t in pool_t for o in pool_o]
            got = assign_relation_labels(sentence, pairs)

            expected = []
            for t, o in pairs:
                label = RELATION_INVALID
                for g in triplets:
                    if g.target == t.span and g.opinion == o.span:
                        label = ["POS", "NEG", "NEU"].index(g.sentiment)
                expected.append(label)
            assert got == expected


class TestLoss:
    def test_uniform_outputs_hit_the_closed_form(self):
        fixture = make_fixture(np.random.default_rng(1), 5)
        model = tiny_model(fixture)
        for ffnn in (model.mention_ffnn, model.relation_ffnn):
            for p in ffnn.parameters():
                p.data[...] = 0.0
        sentence = fixture[0]
        out = model.forward(sentence.tokens)
        parts = compute_loss(out, sentence)
        n_spans = len(out.spans)
        n_pairs = len(out.pairs)
        assert n_pairs == len(out.target_pool) ** 2 == len(out.opinion_pool) ** 2
        expected = n_spans * math.log(3.0) + n_pairs * math.log(4.0)
        assert parts.total.item() == pytest.approx(expected, rel=1e-12)

    def test_loss_decomposes_into_nonnegative_parts(self):
        fixture = make_fixture(np.random.default_rng(2), 5)
        model = tiny_model(fixture)
        out = model.forward(fixture[3].tokens)
        parts = compute_loss(out, fixture[3])
        assert parts.mention.item() >= 0.0
        assert parts.relation.item() >= 0.0
        assert parts.total.item() == pytest.approx(
            parts.mention.item() + parts.relation.item(), rel=1e-12)

    def test_saturated_correct_predictions_drive_loss_to_zero(self):
        sentence = Sentence(0, "we walked home .".split(), [])
        model = tiny_model([sentence])
        for ffnn in (model.mention_ffnn, model.relation_ffnn):
            for p in ffnn.parameters():
                p.data[...] = 0.0
        # Bias every span and pair towards the no-mention / no-relation class.
        model.mention_ffnn.biases[-1].data[...] = [-40.0, -40.0, 40.0]
        model.relation_ffnn.biases[-1].data[...] = [-40.0, -40.0, -40.0, 40.0]
        out = model.forward(sentence.tokens)
        assert compute_loss(out, sentence).total.item() < 1e-6

    def test_total_loss_gradients_match_finite_differences(self):
        fixture = make_fixture(np.random.default_rng(3), 5)
        model = tiny_model(fixture)
        sentence = fixture[1]
        baseline = model.forward(sentence.tokens)
        pools = ([c.index for c in baseline.target_pool],
                 [c.index for c in baseline.opinion_pool])

        def loss():
            out = model.forward(sentence.tokens, pools=pools)
            return compute_loss(out, sentence).total

        assert max_gradient_error(loss, model.parameters()) < 1e-4


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr", -1e-3), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf), ("lr", "fast"),
        ("lr", True), ("weight_decay", -0.01), ("weight_decay", math.nan),
        ("weight_decay", "none"),
    ])
    def test_bad_optimizer_settings_are_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrainConfig(**{field: value})

    def test_valid_optimizer_settings_pass(self):
        TrainConfig(lr=1, weight_decay=0)
        TrainConfig(lr=np.float64(5e-4), weight_decay=1e-2)


class TestTrainEpoch:
    def test_empty_dataset_rejected(self):
        fixture = make_fixture(np.random.default_rng(4), 5)
        model = tiny_model(fixture)
        with pytest.raises(DataError):
            train_epoch(model, [], make_optimizer(model, TrainConfig()),
                        np.random.default_rng(0))

    def test_same_seed_gives_bitwise_identical_parameters(self):
        fixture = make_fixture(np.random.default_rng(5), 8)

        def run():
            model = tiny_model(fixture, seed=3)
            optimizer = make_optimizer(model, TrainConfig())
            train_epoch(model, fixture, optimizer, np.random.default_rng(11))
            return model.state_arrays()

        first, second = run(), run()
        assert first.keys() == second.keys()
        for name in first:
            assert np.array_equal(first[name], second[name]), name

    def test_stale_gradients_do_not_leak_into_the_epoch(self):
        fixture = make_fixture(np.random.default_rng(6), 4)

        def run(stale):
            model = tiny_model(fixture, seed=2)
            optimizer = make_optimizer(model, TrainConfig())
            if stale:
                for p in model.parameters():
                    p.grad = np.ones_like(p.data)
            train_epoch(model, fixture, optimizer, np.random.default_rng(7))
            assert all(not p.grad.any() for p in model.parameters())
            return model.state_arrays()

        clean, stale = run(False), run(True)
        for name in clean:
            assert clean[name].tobytes() == stale[name].tobytes(), name

    def test_determinism_holds_with_dropout_active(self):
        fixture = make_fixture(np.random.default_rng(12), 6)
        noisy = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                            width_dim=3, distance_dim=3, lstm_dropout=0.3,
                            ffnn_dropout=0.2)

        def run():
            model = tiny_model(fixture, config=noisy, seed=1)
            optimizer = make_optimizer(model, TrainConfig())
            stats = train_epoch(model, fixture, optimizer, np.random.default_rng(9))
            return stats.mean_loss, model.state_arrays()

        (loss_a, state_a), (loss_b, state_b) = run(), run()
        assert loss_a == loss_b
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name

    def test_forward_backward_stay_finite(self):
        fixture = make_fixture(np.random.default_rng(13), 6)
        model = tiny_model(fixture, seed=2)
        for sentence in fixture:
            model.zero_grad()
            out = model.forward(sentence.tokens, training=True,
                                rng=np.random.default_rng(1))
            parts = compute_loss(out, sentence)
            parts.total.backward()
            assert np.isfinite(out.mention_logits.data).all()
            assert np.isfinite(out.relation_logits.data).all()
            for p in model.parameters():
                assert np.isfinite(p.data).all() and np.isfinite(p.grad).all(), p.name

    @pytest.mark.parametrize("lstm_dropout,ffnn_dropout", [(0.3, 0.0), (0.0, 0.2)])
    def test_training_forward_with_dropout_needs_a_generator(self, lstm_dropout, ffnn_dropout):
        fixture = make_fixture(np.random.default_rng(14), 2)
        config = replace(TEST_CONFIG, lstm_dropout=lstm_dropout, ffnn_dropout=ffnn_dropout)
        model = tiny_model(fixture, config=config)
        with pytest.raises(TrainingStateError, match="seeded generator"):
            model.forward(fixture[0].tokens, training=True)

    def test_training_forward_without_dropout_needs_no_generator(self):
        fixture = make_fixture(np.random.default_rng(14), 2)
        model = tiny_model(fixture)
        trained = model.forward(fixture[0].tokens, training=True)
        inferred = model.forward(fixture[0].tokens)
        assert trained.relation_probs.tobytes() == inferred.relation_probs.tobytes()

    def test_mean_loss_decreases_on_memorization_fixture(self):
        fixture = make_fixture(np.random.default_rng(6), 20)
        model = tiny_model(fixture, seed=0)
        optimizer = make_optimizer(model, TrainConfig())
        rng = np.random.default_rng(0)
        losses = [train_epoch(model, fixture, optimizer, rng).mean_loss
                  for _ in range(5)]
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_snapshot(self):
        fixture = make_fixture(np.random.default_rng(7), 3)
        model = tiny_model(fixture)
        model.embedding.data[...] = np.inf
        with pytest.raises(NumericalError) as err:
            train_epoch(model, fixture, make_optimizer(model, TrainConfig()),
                        np.random.default_rng(0))
        assert "param_norms" in err.value.snapshot


    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        fixture = make_fixture(np.random.default_rng(7), 3)
        model = tiny_model(fixture)
        target = model.parameters()[0]
        real_compute_loss = training.compute_loss

        def poisoned_loss(output, sentence, channel_mode="dual"):
            # Adds a node whose value is 0 but whose gradient is NaN.
            parts = real_compute_loss(output, sentence, channel_mode)
            nan_grad = ad._make(np.asarray(0.0), (target,),
                                lambda g: target._accumulate(np.full_like(target.data, np.nan)))
            parts.total = ad.add(parts.total, nan_grad)
            return parts

        monkeypatch.setattr(training, "compute_loss", poisoned_loss)
        before = model.state_arrays()
        with pytest.raises(NumericalError, match="non-finite gradient") as err:
            train_epoch(model, fixture, make_optimizer(model, TrainConfig()),
                        np.random.default_rng(0))
        assert err.value.snapshot["non_finite_grads"] == [target.name]
        assert "param_norms" in err.value.snapshot
        after = model.state_arrays()
        for name, value in before.items():
            np.testing.assert_array_equal(after[name], value)


class TestReferenceScale:
    def test_one_training_step_at_default_dimensions(self):
        # Full-size configuration (300-d embeddings, 600-wide states,
        # 1220/2568-wide scorer inputs, dropout active) for one sentence.
        fixture = make_fixture(np.random.default_rng(14), 5)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        model = SpanModel(ModelConfig(), vocab, seed=0)
        assert model.mention_ffnn.weights[0].shape[0] == 1220
        assert model.relation_ffnn.weights[0].shape[0] == 2 * 1220 + 128
        optimizer = make_optimizer(model, TrainConfig())
        optimizer.zero_grad()
        out = model.forward(fixture[0].tokens, training=True,
                            rng=np.random.default_rng(0))
        parts = compute_loss(out, fixture[0])
        assert np.isfinite(parts.total.item())
        parts.total.backward()
        optimizer.step()
        for p in model.parameters():
            assert np.isfinite(p.data).all(), p.name
        triplets = model.predict(fixture[0].tokens)
        assert isinstance(triplets, list)


class TestTooWideGoldSpanWarning:
    @pytest.mark.parametrize("experiment", ["run_experiment", "prune_sweep"])
    def test_logged_once_per_experiment(self, caplog, experiment):
        # Two too-wide gold spans in a three-sentence corpus, two models of
        # two epochs each: one warning for the experiment, with the count.
        wide = [Sentence(0, list("abcdefgh"), [GoldTriplet((0, 6), (7, 7), "POS")]),
                Sentence(1, list("abcdefgh"), [GoldTriplet((1, 1), (2, 7), "NEG")]),
                Sentence(2, list("abcd"), [GoldTriplet((0, 1), (3, 3), "POS")])]
        config = ModelConfig(embedding_dim=4, lstm_hidden=3, ffnn_hidden=4, width_dim=2,
                             distance_dim=3, max_span_gap=2)
        with caplog.at_level("WARNING", logger=training.logger.name):
            if experiment == "run_experiment":
                run_experiment(wide, wide[2:], wide[2:], config,
                               TrainConfig(epochs=2, seeds=(0, 1)))
            else:
                training.prune_sweep(wide, wide[2:], config, TrainConfig(epochs=2, seeds=(0,)),
                                     z_values=[0.5], modes=("dual", "single"))
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith("2 gold spans") and "enumeration limit" in messages[0]


class TestRunExperiment:
    def test_degenerate_config_equals_direct_evaluation(self):
        fixture = make_fixture(np.random.default_rng(8), 6)
        config = TrainConfig(epochs=1, seeds=(0,))
        report = run_experiment(fixture, fixture, fixture, TEST_CONFIG, config)
        assert len(report.seeds) == 1
        row = report.seeds[0]
        assert row.best_epoch == 0
        assert report.mean_scores()["f1"] == pytest.approx(row.test.f1)

    def test_mean_matches_independent_recompute(self):
        fixture = make_fixture(np.random.default_rng(9), 6)
        config = TrainConfig(epochs=1, seeds=(0, 1))
        report = run_experiment(fixture, fixture, fixture, TEST_CONFIG, config)
        f1s = [r.test.f1 for r in report.seeds]
        assert report.mean_scores()["f1"] == pytest.approx(sum(f1s) / len(f1s))
        pooled = report.pooled_counts_prf()
        tp = sum(r.test.tp for r in report.seeds)
        fp = sum(r.test.fp for r in report.seeds)
        fn = sum(r.test.fn for r in report.seeds)
        expected_p = tp / (tp + fp) if tp + fp else 0.0
        assert pooled.precision == pytest.approx(expected_p)

    def test_identical_seeds_give_identical_rows(self):
        # Seeds in one experiment share its vocabulary and embeddings, so a
        # seed run after another must give the row it gives on its own.
        fixture = make_fixture(np.random.default_rng(10), 6)
        def rows(seeds):
            config = TrainConfig(epochs=1, seeds=seeds)
            return {r.seed: asdict(r) for r in
                    run_experiment(fixture, fixture, fixture, TEST_CONFIG, config).seeds}
        alone, after = rows((2,)), rows((3, 2))
        assert alone[2] == after[2] == rows((2,))[2]

    def test_missing_split_is_an_input_error(self):
        fixture = make_fixture(np.random.default_rng(11), 4)
        with pytest.raises(DataError, match="dev"):
            run_experiment(fixture, [], fixture, TEST_CONFIG,
                           TrainConfig(epochs=1, seeds=(0,)))
