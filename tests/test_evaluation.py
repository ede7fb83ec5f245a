import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from spantriplet import evaluation as ev
from spantriplet import training
from spantriplet.data import GoldTriplet, Sentence, make_fixture
from spantriplet.encoder import Vocabulary, span_width
from spantriplet.errors import ConfigurationError, DataError
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.training import TrainConfig
from spantriplet.triplet import TripletPrediction

TEST_CONFIG = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                          width_dim=3, distance_dim=3, lstm_dropout=0.0,
                          ffnn_dropout=0.0)


def brute_force_triplet_prf(gold, pred, mode, filter_side):
    """Independent set-matching oracle."""
    def keep(t):
        tw, ow = span_width(t[0]), span_width(t[1])
        return {
            "all": True,
            "single_word": tw == 1 and ow == 1,
            "multi_word": tw > 1 or ow > 1,
            "multi_word_target": tw > 1,
            "multi_word_opinion": ow > 1,
        }[mode]

    tp = fp = fn = 0
    for sid in gold:
        g = {t for t in gold[sid] if keep(t)}
        p = set(pred.get(sid, ()))
        if filter_side == "both":
            p = {t for t in p if keep(t)}
        for t in p:
            if t in g:
                tp += 1
            else:
                fp += 1
        for t in g:
            if t not in p:
                fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return tp, fp, fn, precision, recall, f1


def random_triplet_set(rng, max_items=4):
    out = set()
    for _ in range(int(rng.integers(0, max_items + 1))):
        t_start = int(rng.integers(0, 8))
        t_end = t_start + int(rng.integers(0, 3))
        o_start = int(rng.integers(0, 8))
        o_end = o_start + int(rng.integers(0, 3))
        tag = str(rng.choice(["POS", "NEG", "NEU"]))
        out.add(((t_start, t_end), (o_start, o_end), tag))
    return out


class TestTripletPrf:
    def test_identity(self):
        gold = {0: {((0, 0), (1, 1), "POS")}, 1: {((2, 3), (4, 4), "NEG")}}
        prf = ev.triplet_prf(gold, gold)
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_half_overlap_hand_count(self):
        a = ((0, 0), (1, 1), "POS")
        b = ((2, 2), (3, 3), "NEG")
        c = ((4, 4), (5, 5), "NEU")
        prf = ev.triplet_prf({0: {a, b}}, {0: {a, c}})
        assert (prf.precision, prf.recall, prf.f1) == (0.5, 0.5, 0.5)

    def test_unknown_sentence_id_rejected(self):
        with pytest.raises(DataError):
            ev.triplet_prf({0: set()}, {1: set()})

    @pytest.mark.parametrize("mode", ev.EVAL_MODES)
    @pytest.mark.parametrize("filter_side", ev.FILTER_SIDES)
    def test_matches_brute_force_oracle(self, mode, filter_side):
        rng = np.random.default_rng(hash((mode, filter_side)) % 2**32)
        for _ in range(40):
            n_sentences = int(rng.integers(1, 6))
            gold = {sid: random_triplet_set(rng) for sid in range(n_sentences)}
            pred = {sid: random_triplet_set(rng) for sid in range(n_sentences)}
            prf = ev.triplet_prf(gold, pred, mode, filter_side)
            tp, fp, fn, p, r, f1 = brute_force_triplet_prf(gold, pred, mode, filter_side)
            assert (prf.tp, prf.fp, prf.fn) == (tp, fp, fn)
            assert prf.precision == pytest.approx(p)
            assert prf.recall == pytest.approx(r)
            assert prf.f1 == pytest.approx(f1)

    def test_count_identities_in_mode_all(self):
        rng = np.random.default_rng(0)
        gold = {sid: random_triplet_set(rng) for sid in range(5)}
        pred = {sid: random_triplet_set(rng) for sid in range(5)}
        prf = ev.triplet_prf(gold, pred, "all")
        assert prf.tp + prf.fn == sum(len(g) for g in gold.values())
        assert prf.tp + prf.fp == sum(len(p) for p in pred.values())

    def test_single_and_multi_word_partition_true_positives(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gold = {sid: random_triplet_set(rng) for sid in range(4)}
            pred = {sid: random_triplet_set(rng) for sid in range(4)}
            tp_all = ev.triplet_prf(gold, pred, "all").tp
            tp_sw = ev.triplet_prf(gold, pred, "single_word").tp
            tp_mw = ev.triplet_prf(gold, pred, "multi_word").tp
            assert tp_all == tp_sw + tp_mw

    def test_zero_denominators_give_zero_scores(self):
        prf = ev.triplet_prf({0: set()}, {0: set()})
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


class TestSpanMatching:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            gold = {sid: {(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                          for _ in range(int(rng.integers(0, 4)))}
                    for sid in range(4)}
            pred = {sid: {(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                          for _ in range(int(rng.integers(0, 4)))}
                    for sid in range(4)}
            prf = ev.match_span_sets(gold, pred)
            tp = sum(len(gold[s] & pred[s]) for s in gold)
            fp = sum(len(pred[s] - gold[s]) for s in gold)
            fn = sum(len(gold[s] - pred[s]) for s in gold)
            assert (prf.tp, prf.fp, prf.fn) == (tp, fp, fn)


class TestMentionMetrics:
    def make_model(self, fixture):
        vocab = Vocabulary.build(s.tokens for s in fixture)
        return SpanModel(TEST_CONFIG, vocab, seed=0)

    def test_all_invalid_predictor_scores_zero(self):
        fixture = make_fixture(np.random.default_rng(3), 5)
        model = self.make_model(fixture)
        for p in model.mention_ffnn.parameters():
            p.data[...] = 0.0
        model.mention_ffnn.biases[-1].data[...] = [-40.0, -40.0, 40.0]
        prf = ev.evaluate_model(model, fixture)["mention_direct"]["ATE"]
        assert prf["tp"] == 0 and prf["precision"] == 0.0 and prf["recall"] == 0.0

    def test_unknown_task_rejected(self):
        fixture = make_fixture(np.random.default_rng(4), 3)
        with pytest.raises(ConfigurationError):
            ev.mention_prf_from_triplets({}, fixture, "ASTE")

    def test_from_triplets_ignores_sentiment(self):
        sentence = Sentence(0, "the pie is great .".split(),
                            [GoldTriplet((1, 1), (3, 3), "POS")])
        predictions = {0: [TripletPrediction((1, 1), (3, 3), "NEG", 0.7)]}
        assert ev.mention_prf_from_triplets(predictions, [sentence], "ATE").f1 == 1.0
        assert ev.mention_prf_from_triplets(predictions, [sentence], "OTE").f1 == 1.0

    def test_from_triplets_empty_predictions(self):
        sentence = Sentence(0, "the pie is great .".split(),
                            [GoldTriplet((1, 1), (3, 3), "POS")])
        prf = ev.mention_prf_from_triplets({0: []}, [sentence], "ATE")
        assert prf.tp == 0 and prf.fn == 1

    def test_from_triplets_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sentences = []
            predictions = {}
            for sid in range(3):
                gold = [GoldTriplet((int(a), int(a + rng.integers(0, 2))),
                                    (int(b), int(b)), "POS")
                        for a, b in rng.integers(0, 5, size=(int(rng.integers(0, 3)), 2))]
                sentences.append(Sentence(sid, ["w"] * 8, gold))
                predictions[sid] = [
                    TripletPrediction((int(a), int(a)), (int(b), int(b)),
                                      "NEU", 0.5)
                    for a, b in rng.integers(0, 5, size=(int(rng.integers(0, 3)), 2))]
            prf = ev.mention_prf_from_triplets(predictions, sentences, "OTE")
            tp = fp = fn = 0
            for s in sentences:
                gold_spans = {t.opinion for t in s.triplets}
                pred_spans = {p.opinion for p in predictions[s.id]}
                tp += len(gold_spans & pred_spans)
                fp += len(pred_spans - gold_spans)
                fn += len(gold_spans - pred_spans)
            assert (prf.tp, prf.fp, prf.fn) == (tp, fp, fn)


def reference_report(model, sentences, modes=ev.EVAL_MODES):
    """``evaluate_model`` composed from ``SpanModel.predict`` and a separate
    forward per sentence for the directly typed spans, as an oracle."""
    gold = ev.gold_triplet_sets(sentences)
    predictions = {s.id: model.predict(s.tokens) for s in sentences}
    keys = ev.predictions_to_keys(predictions)
    report = {side: {mode: ev.triplet_prf(gold, keys, mode, filter_side).as_dict()
                     for mode in modes}
              for side, filter_side in (("triplet", "both"),
                                        ("triplet_gold_side_filter", "gold"))}
    if model.config.channel_mode == "dual":
        report["mention_direct"] = {}
        for task, kind in ev.MENTION_TASKS.items():
            gold_spans = {s.id: {getattr(t, kind) for t in s.triplets} for s in sentences}
            typed = {s.id: model.forward(s.tokens).argmax_spans(ev.MENTION_KINDS[kind])
                     for s in sentences}
            report["mention_direct"][task] = ev.match_span_sets(gold_spans, typed).as_dict()
    report["mention_from_triplets"] = {
        task: ev.mention_prf_from_triplets(predictions, sentences, task).as_dict()
        for task in ev.MENTION_TASKS}
    return report


def guard_forwards(model):
    """Wrap ``model.forward`` to count its no-dropout calls and to assert
    that no earlier such call's output is still alive when the next starts.
    Training forwards pass through uncounted."""
    calls = []
    forward = model.forward

    def counting_forward(*args, **kwargs):
        if kwargs.get("training"):
            return forward(*args, **kwargs)
        # The previous sentence's graph must be gone before the next one
        # is built, or peak memory doubles on long sentences.
        assert all(ref() is None for ref in calls)
        output = forward(*args, **kwargs)
        calls.append(weakref.ref(output))
        return output

    model.forward = counting_forward
    return calls


class TestEvaluateModel:
    @pytest.mark.parametrize("channel_mode", ["dual", "single"])
    def test_one_forward_per_sentence_gives_the_composed_report(self, channel_mode):
        fixture = make_fixture(np.random.default_rng(8), 12)
        model = SpanModel(replace(TEST_CONFIG, channel_mode=channel_mode),
                          Vocabulary.build(s.tokens for s in fixture), seed=2)
        # A mention head biased toward targets and opinions makes the direct
        # term-extraction scores non-trivial.
        classes = model.mention_ffnn.weights[-1].shape[1]
        model.mention_ffnn.biases[-1].data[...] = [1.0, 1.0, -1.0][:classes]
        calls = guard_forwards(model)
        report = ev.evaluate_model(model, fixture)
        del model.forward
        assert len(calls) == len(fixture)
        assert report == reference_report(model, fixture)
        assert ("mention_direct" in report) == (channel_mode == "dual")


class TestPoolDiagnostics:
    def test_recall_is_monotone_in_z(self):
        fixture = make_fixture(np.random.default_rng(6), 10)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        recalls = []
        # z >= gap + 1 makes ceil(n * z) cover the whole enumeration. z does
        # not enter initialisation, so every model has the same parameters.
        for z in (0.125, 0.25, 0.5, 1.0, 2.0, 9.0):
            model = SpanModel(replace(TEST_CONFIG, z=z), vocab, seed=1)
            records = ev.corpus_pass(model, fixture).pool_records()
            kept = sum(r["gold_targets_kept"] + r["gold_opinions_kept"] for r in records)
            total = sum(r["gold_targets"] + r["gold_opinions"] for r in records)
            recalls.append(kept / total)
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0

    def test_records_carry_pool_contents(self):
        fixture = make_fixture(np.random.default_rng(7), 5)
        vocab = Vocabulary.build(s.tokens for s in fixture)
        model = SpanModel(TEST_CONFIG, vocab, seed=1)
        calls = guard_forwards(model)
        records = ev.corpus_pass(model, fixture).pool_records()
        assert len(calls) == len(fixture)
        for record, sentence in zip(records, fixture):
            assert record["n"] == len(sentence.tokens)
            assert len(record["target_pool"]) == record["k"]

    def test_diagnostics_file_is_json_lines(self, tmp_path):
        fixture = make_fixture(np.random.default_rng(8), 4)
        path = str(tmp_path / "pools.jsonl")
        training.prune_sweep(fixture, fixture, TEST_CONFIG, TrainConfig(epochs=1, seeds=(0,)),
                             z_values=[0.5], modes=("dual",), diagnostics_path=path)
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == 4
        assert {"sentence", "n", "k", "z", "mode"} <= set(lines[0])


class TestPruneSweep:
    def test_sweep_accounting_and_sc_adjusted_ratio(self, tmp_path):
        fixture = make_fixture(np.random.default_rng(9), 8)
        rows = training.prune_sweep(fixture, fixture, TEST_CONFIG,
                                    TrainConfig(epochs=1, seeds=(0,)),
                                    z_values=[0.5],
                                    diagnostics_path=str(tmp_path / "pools.jsonl"))
        by_mode = {r.mode: r for r in rows}
        assert set(by_mode) == {"dual", "single", "sc_adjusted"}
        assert by_mode["sc_adjusted"].effective_z == 1.0
        for row in rows:
            assert row.mean_pair_count == pytest.approx(row.mean_pool_size ** 2, rel=0.5)
        # SC-Adjusted doubles every pool, so pairs scale by 4 exactly when
        # no pool is clamped by the enumeration size.
        ratio = by_mode["sc_adjusted"].mean_pair_count / by_mode["single"].mean_pair_count
        assert 3.0 <= ratio <= 4.0

    def test_dev_scores_and_pool_records_are_those_of_the_restored_best_model(
            self, monkeypatch, tmp_path):
        fixture = make_fixture(np.random.default_rng(11), 6)
        fresh = []
        train_single_seed = training.train_single_seed

        def rescoring_train_single_seed(model, train, dev, *args):
            result = train_single_seed(model, train, dev, *args)
            # The model is back in its best-dev state here; score it anew.
            fresh.append(ev.corpus_pass(model, dev))
            return result

        monkeypatch.setattr(training, "train_single_seed", rescoring_train_single_seed)
        # Wide enough to score some triplets within a few epochs.
        config = replace(TEST_CONFIG, embedding_dim=16, lstm_hidden=12, ffnn_hidden=16,
                         width_dim=4, distance_dim=6)
        path = tmp_path / "pools.jsonl"
        rows = training.prune_sweep(fixture, fixture, config,
                                    TrainConfig(epochs=12, seeds=(0,)), z_values=[0.5],
                                    diagnostics_path=str(path))
        assert [r.dev_f1 for r in rows] == [p.score().f1 for p in fresh]
        assert max(r.dev_f1 for r in rows) > 0.0
        expected = [dict(record, z=0.5, mode=row.mode)
                    for row, p in zip(rows, fresh) for record in p.pool_records()]
        written = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == json.loads(json.dumps(expected))

    def test_each_epoch_scores_dev_once_and_the_sweep_never_again(self, monkeypatch):
        fixture = make_fixture(np.random.default_rng(12), 6)
        dev = fixture[:4]
        guarded = []
        train_single_seed = training.train_single_seed

        def guarded_train_single_seed(model, *args):
            calls = guard_forwards(model)
            result = train_single_seed(model, *args)
            guarded.append((calls, len(calls)))
            return result

        monkeypatch.setattr(training, "train_single_seed", guarded_train_single_seed)
        training.prune_sweep(fixture, dev, TEST_CONFIG, TrainConfig(epochs=2, seeds=(0,)),
                             z_values=[0.5], modes=("dual", "single"))
        assert len(guarded) == 2
        for calls, at_return in guarded:
            assert at_return == 2 * len(dev)
            assert len(calls) == at_return

    def test_needs_z_values(self):
        fixture = make_fixture(np.random.default_rng(10), 4)
        with pytest.raises(ConfigurationError):
            training.prune_sweep(fixture, fixture, TEST_CONFIG,
                                 TrainConfig(epochs=1, seeds=(0,)), z_values=[])

    def test_needs_a_sweep_mode(self):
        fixture = make_fixture(np.random.default_rng(10), 4)
        with pytest.raises(ConfigurationError, match="sweep_modes"):
            training.prune_sweep(fixture, fixture, TEST_CONFIG,
                                 TrainConfig(epochs=1, seeds=(0,)), z_values=[0.5], modes=[])

    def test_empty_dev_split_is_an_input_error(self):
        fixture = make_fixture(np.random.default_rng(10), 4)
        with pytest.raises(DataError, match="dev"):
            training.prune_sweep(fixture, [], TEST_CONFIG,
                                 TrainConfig(epochs=1, seeds=(0,)), z_values=[0.5])

    def test_more_than_one_seed_is_a_configuration_error(self):
        fixture = make_fixture(np.random.default_rng(10), 4)
        with pytest.raises(ConfigurationError, match="one seed"):
            training.prune_sweep(fixture, fixture, TEST_CONFIG,
                                 TrainConfig(epochs=1, seeds=(0, 1)), z_values=[0.5])

    @pytest.mark.parametrize("bad", [{"epochs": 0}, {"lr": -1.0}], ids=["epochs", "lr"])
    def test_train_config_is_validated(self, bad):
        fixture = make_fixture(np.random.default_rng(10), 4)
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            training.prune_sweep(fixture, fixture, TEST_CONFIG,
                                 TrainConfig(seeds=(0,), **bad), z_values=[0.5])
