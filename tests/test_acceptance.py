"""Acceptance suite.

Each test covers one gating criterion at its stated tolerance and prints a
pass line (visible with ``pytest -rA`` or ``-s``). Criterion 7 needs the
official benchmark corpora and is skipped when they are not supplied;
criterion 9 is a documented non-gating reproduction target.
"""

import math
import os
import time

import numpy as np
import pytest

from spantriplet import evaluation as ev
from spantriplet import pruning
from spantriplet.data import (GoldTriplet, Sentence, dataset_stats, find_benchmark_split,
                              load_corpus, make_fixture)
from spantriplet.encoder import Vocabulary, enumerate_spans
from spantriplet.errors import DataError
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.pruning import SpanCandidate
from spantriplet.training import (TrainConfig, compute_loss, make_optimizer,
                                  train_epoch)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from fdcheck import max_gradient_error


def announce(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def random_small_instance(rng, trial: int, span_mode: str = None,
                          use_width_distance: bool = True):
    """A random test-scale model (hidden <= 8) and a sentence of <= 6 tokens."""
    config = ModelConfig(
        embedding_dim=int(rng.integers(3, 6)),
        lstm_hidden=int(rng.integers(2, 9)),
        ffnn_hidden=int(rng.integers(2, 6)),
        width_dim=2, distance_dim=3, lstm_dropout=0.0, ffnn_dropout=0.0,
        span_mode=span_mode or ("boundary", "max_pool", "mean_pool")[trial % 3],
        use_width_distance=use_width_distance,
    )
    corpus = make_fixture(rng, 30)
    sentence = corpus[int(rng.integers(len(corpus)))]
    while len(sentence.tokens) > 6:
        sentence = corpus[int(rng.integers(len(corpus)))]
    model = SpanModel(config, Vocabulary.build([sentence.tokens]), seed=trial)
    # Resample every parameter: zero-init biases would park ReLU
    # pre-activations exactly on the kink, where central differences are
    # not a valid oracle for the (one-sided) gradient.
    for p in model.parameters():
        p.data = rng.normal(0.0, 0.4, size=p.shape)
    return model, sentence


def fixed_pool_loss(model, sentence):
    """Loss closure with the candidate pools pinned at the current scores.

    Pruning is a hard selection, so the differentiable function under test
    is the loss at fixed pools; pinning them keeps the finite-difference
    oracle on the same function the backward pass differentiates.
    """
    base = model.forward(sentence.tokens)
    pools = ([c.index for c in base.target_pool],
             [c.index for c in base.opinion_pool])

    def loss():
        return compute_loss(model.forward(sentence.tokens, pools=pools),
                            sentence).total

    return loss


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        model, sentence = random_small_instance(rng, trial)
        err = max_gradient_error(fixed_pool_loss(model, sentence),
                                 model.parameters())
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    announce(1, "gradient correctness",
             f"20 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_span_enumeration():
    start = time.perf_counter()
    for n in range(1, 51):
        for gap in range(0, 11):
            spans = enumerate_spans(n, gap)
            brute = [(i, j) for i in range(n) for j in range(n)
                     if i <= j and j - i <= gap]
            assert spans == brute
            w = min(n, gap + 1)
            assert len(spans) == n * w - w * (w - 1) // 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(2, "span enumeration", f"n in 1..50, gap in 0..10, {elapsed:.2f}s")


def test_criterion_3_pruning_contract():
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 20))
        z = float(rng.choice([0.125, 0.25, 0.5, 1.0, 1.5]))
        spans = enumerate_spans(n, 8)
        dual = [SpanCandidate(s, i, tuple(p / p.sum()))
                for i, (s, p) in enumerate(zip(spans, rng.random((len(spans), 3))))]
        k = min(math.ceil(n * z), len(spans))
        targets, opinions = pruning.prune_dual_channel(dual, n, z)
        assert len(targets) == len(opinions) == k
        pairs = [(t, o) for t in targets for o in opinions]
        assert len(pairs) == k * k

        single = [SpanCandidate(s, i, tuple(p / p.sum()))
                  for i, (s, p) in enumerate(zip(spans, rng.random((len(spans), 2))))]
        k1 = len(pruning.prune_single_channel(single, n, z))
        k2 = len(pruning.prune_single_channel(single, n, 2 * z))
        assert k2 <= 2 * k1  # approximate 4x pair growth, bounded above
        if (n * z) == int(n * z) and 2 * n * z <= len(spans):
            assert k2 ** 2 == 4 * k1 ** 2  # exact when ceil is inactive
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(3, "pruning contract", f"200 random score tables, {elapsed:.2f}s")


def test_criterion_4_gradient_blocking():
    start = time.perf_counter()
    fixture = make_fixture(np.random.default_rng(13), 6)
    vocab = Vocabulary.build(s.tokens for s in fixture)
    config = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5,
                         width_dim=3, distance_dim=3, lstm_dropout=0.0,
                         ffnn_dropout=0.0)
    for masked in ("relation", "mention"):
        model = SpanModel(config, vocab, seed=0)
        frozen_side = (model.mention_ffnn if masked == "relation"
                       else model.relation_ffnn)
        before = [p.data.copy() for p in frozen_side.parameters()]
        optimizer = make_optimizer(model, TrainConfig())
        optimizer.zero_grad()
        out = model.forward(fixture[0].tokens, training=True,
                            rng=np.random.default_rng(1))
        parts = compute_loss(out, fixture[0])
        (parts.relation if masked == "relation" else parts.mention).backward()
        optimizer.step()
        for old, p in zip(before, frozen_side.parameters()):
            assert np.array_equal(old, p.data), p.name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(4, "gradient blocking", f"bitwise-stable scorer params, {elapsed:.2f}s")


def _random_triplet_set(rng):
    out = set()
    for _ in range(int(rng.integers(0, 5))):
        a = int(rng.integers(0, 7))
        b = a + int(rng.integers(0, 3))
        c = int(rng.integers(0, 7))
        d = c + int(rng.integers(0, 3))
        out.add(((a, b), (c, d), str(rng.choice(["POS", "NEG", "NEU"]))))
    return out


def _brute_counts(gold, pred, keep, filter_side):
    tp = fp = fn = 0
    for sid in gold:
        g = {t for t in gold[sid] if keep(t)}
        p = set(pred.get(sid, ()))
        if filter_side == "both":
            p = {t for t in p if keep(t)}
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return tp, fp, fn


def test_criterion_5_metric_oracle_equivalence():
    from spantriplet.encoder import span_width
    from spantriplet.triplet import TripletPrediction

    rng = np.random.default_rng(14)
    start = time.perf_counter()

    predicates = {
        "all": lambda t: True,
        "single_word": lambda t: span_width(t[0]) == 1 and span_width(t[1]) == 1,
        "multi_word": lambda t: span_width(t[0]) > 1 or span_width(t[1]) > 1,
        "multi_word_target": lambda t: span_width(t[0]) > 1,
        "multi_word_opinion": lambda t: span_width(t[1]) > 1,
    }

    # A fixed random-weight model drives the direct mention route.
    corpus = make_fixture(rng, 8)
    vocab = Vocabulary.build(s.tokens for s in corpus)
    model = SpanModel(ModelConfig(embedding_dim=4, lstm_hidden=3, ffnn_hidden=3,
                                  width_dim=2, distance_dim=2, lstm_dropout=0.0,
                                  ffnn_dropout=0.0), vocab, seed=5)

    for case in range(1000):
        n_sentences = int(rng.integers(1, 4))
        gold = {sid: _random_triplet_set(rng) for sid in range(n_sentences)}
        pred = {sid: _random_triplet_set(rng) for sid in range(n_sentences)}

        for mode, keep in predicates.items():
            for side in ("both", "gold"):
                prf = ev.triplet_prf(gold, pred, mode, side)
                assert (prf.tp, prf.fp, prf.fn) == _brute_counts(gold, pred, keep, side)

        sentences = [
            Sentence(sid, ["w"] * 10,
                     [GoldTriplet(t, o, tag) for t, o, tag in gold[sid]])
            for sid in gold
        ]
        predictions = {sid: [TripletPrediction(t, o, tag, 0.9)
                             for t, o, tag in pred[sid]] for sid in pred}
        for task, attr in (("ATE", "target"), ("OTE", "opinion")):
            prf = ev.mention_prf_from_triplets(predictions, sentences, task)
            tp = fp = fn = 0
            for s in sentences:
                g = {getattr(t, attr) for t in s.triplets}
                p = {getattr(q, attr) for q in predictions[s.id]}
                tp += len(g & p)
                fp += len(p - g)
                fn += len(g - p)
            assert (prf.tp, prf.fp, prf.fn) == (tp, fp, fn)

        if case % 5 == 0:  # model-driven route on every fifth corpus
            batch = [corpus[int(rng.integers(len(corpus)))] for _ in range(2)]
            batch = [Sentence(i, s.tokens, s.triplets) for i, s in enumerate(batch)]
            report = ev.evaluate_model(model, batch)
            predicted = {s.id: {(p.target, p.opinion, p.sentiment)
                                for p in model.predict(s.tokens)} for s in batch}
            gold_keys = {s.id: s.triplet_keys() for s in batch}
            got = report["triplet"]["all"]
            assert (got["tp"], got["fp"], got["fn"]) == _brute_counts(
                gold_keys, predicted, predicates["all"], "both")
            for task, attr in (("ATE", "target"), ("OTE", "opinion")):
                wanted = {"ATE": pruning.MENTION_TARGET,
                          "OTE": pruning.MENTION_OPINION}[task]
                tp = fp = fn = 0
                for s in batch:
                    p = model.forward(s.tokens).argmax_spans(wanted)
                    g = {getattr(t, attr) for t in s.triplets}
                    tp += len(g & p)
                    fp += len(p - g)
                    fn += len(g - p)
                got = report["mention_direct"][task]
                assert (got["tp"], got["fp"], got["fn"]) == (tp, fp, fn)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(5, "metric oracle equivalence", f"1000 corpora, {elapsed:.1f}s")


MEMORIZATION_CONFIG = ModelConfig(embedding_dim=16, lstm_hidden=12, ffnn_hidden=16,
                                  width_dim=4, distance_dim=6, lstm_dropout=0.0,
                                  ffnn_dropout=0.0)


def _memorize(fixture, seed, max_epochs=300):
    vocab = Vocabulary.build(s.tokens for s in fixture)
    model = SpanModel(MEMORIZATION_CONFIG, vocab, seed=seed)
    optimizer = make_optimizer(model, TrainConfig())  # constant lr 1e-3
    rng = np.random.default_rng(seed)
    for epoch in range(max_epochs):
        train_epoch(model, fixture, optimizer, rng)
        if ev.corpus_pass(model, fixture).score().f1 == 1.0:
            return epoch, model.state_arrays()
    return None, model.state_arrays()


def test_criterion_6_memorization():
    start = time.perf_counter()
    fixture = make_fixture(np.random.default_rng(42), 20)
    first_epoch, first_state = _memorize(fixture, seed=0)
    assert first_epoch is not None, "did not reach F1 = 1.0 within 300 epochs"
    replay_epoch, replay_state = _memorize(fixture, seed=0)
    assert replay_epoch == first_epoch
    assert first_state.keys() == replay_state.keys()
    for name in first_state:
        assert np.array_equal(first_state[name], replay_state[name]), name
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    announce(6, "memorization",
             f"F1=1.0 at epoch {first_epoch}, bitwise replay, {elapsed:.1f}s")


def test_criterion_7_official_dataset_statistics():
    # The released files, under $SPANTRIPLET_DATA or ./data (see README).
    roots = [p for p in (os.environ.get("SPANTRIPLET_DATA"),
                         os.path.join(ROOT, "data")) if p]
    rest14_test = find_benchmark_split(roots, "rest14", "test")
    lap14_train = find_benchmark_split(roots, "lap14", "train")
    if rest14_test is None or lap14_train is None:
        pytest.skip("official benchmark files not supplied "
                    "(set SPANTRIPLET_DATA; see README)")
    start = time.perf_counter()
    stats = dataset_stats(load_corpus(rest14_test))
    assert stats.sentences == 492
    assert (stats.positive, stats.neutral, stats.negative) == (773, 66, 155)
    assert (stats.single_word, stats.multi_word) == (657, 337)
    lap_stats = dataset_stats(load_corpus(lap14_train))
    assert 1281 in (lap_stats.targets_unique, lap_stats.targets_total)
    assert 1268 in (lap_stats.opinions_unique, lap_stats.opinions_total)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(7, "official dataset statistics", f"{elapsed:.2f}s")


def test_official_corpus_finder_resolves_common_layouts(tmp_path):
    # not a numbered criterion: keeps the conditional path above honest
    layout_a = tmp_path / "rest14"
    layout_a.mkdir()
    (layout_a / "test_triplets.txt").write_text("ok .####[]\n")
    layout_b = tmp_path / "14lap"
    layout_b.mkdir()
    (layout_b / "train.txt").write_text("ok .####[]\n")
    roots = [str(tmp_path / "missing"), str(tmp_path)]
    assert find_benchmark_split(roots, "rest14", "test") == str(
        layout_a / "test_triplets.txt")
    assert find_benchmark_split(roots, "lap14", "train") == str(layout_b / "train.txt")
    assert find_benchmark_split(roots, "rest15", "test") is None
    # the ASTE-Data-V2 spelling cuts the restaurant domain to three letters
    for name, dataset in (("14res", "rest14"), ("15rest", "rest15"), ("16res", "rest16")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "dev_triplets.txt").write_text("ok .####[]\n")
        assert find_benchmark_split(roots, dataset, "dev") == str(
            tmp_path / name / "dev_triplets.txt")


def test_official_corpus_finder_refuses_two_releases_under_one_root(tmp_path):
    # ASTE-Data-V1 spells rest14 14rest, V2 spells it 14res: the finder
    # cannot tell which one the run means.
    for name in ("14rest", "14res"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "test_triplets.txt").write_text("ok .####[]\n")
    with pytest.raises(DataError) as info:
        find_benchmark_split([str(tmp_path)], "rest14", "test")
    for name in ("14rest", "14res"):
        assert str(tmp_path / name / "test_triplets.txt") in str(info.value)
    # an earlier root that has the split still wins
    first = tmp_path / "first"
    (first / "rest14").mkdir(parents=True)
    (first / "rest14" / "test.txt").write_text("ok .####[]\n")
    assert find_benchmark_split([str(first), str(tmp_path)], "rest14", "test") == str(
        first / "rest14" / "test.txt")


def test_criterion_8_ablation_plumbing():
    start = time.perf_counter()
    reference = ModelConfig()  # full-scale defaults
    assert reference.span_vector_dim == 1220
    assert reference.pair_vector_dim == 2 * 1220 + 128

    from dataclasses import replace

    for mode in ("max_pool", "mean_pool"):
        pooled = replace(reference, span_mode=mode)
        assert pooled.span_vector_dim == 620

    bare = replace(reference, use_width_distance=False)
    assert reference.span_vector_dim - bare.span_vector_dim == 20
    assert reference.pair_vector_dim - 2 * reference.span_vector_dim == 128
    assert bare.pair_vector_dim - 2 * bare.span_vector_dim == 0

    # a real forward at full-scale dims produces those widths
    sentence = make_fixture(np.random.default_rng(15), 1)[0]
    vocab = Vocabulary.build([sentence.tokens])
    for config, expected in ((reference, 1220),
                             (replace(reference, span_mode="max_pool"), 620),
                             (bare, 1200)):
        model = SpanModel(replace(config, lstm_dropout=0.0, ffnn_dropout=0.0),
                          vocab, seed=0)
        assert model.mention_ffnn.weights[0].shape[0] == expected

    # every ablation variant stays gradient-check clean at test scale
    rng = np.random.default_rng(16)
    worst = 0.0
    trial = 0
    for mode in ("boundary", "max_pool", "mean_pool"):
        for with_features in (True, False):
            model, sent = random_small_instance(rng, trial, span_mode=mode,
                                                use_width_distance=with_features)
            worst = max(worst, max_gradient_error(fixed_pool_loss(model, sent),
                                                  model.parameters()))
            trial += 1
    assert worst < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(8, "ablation plumbing",
             f"dims 1220/620/-20/-128, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_9_full_reproduction_is_documented():
    script = os.path.join(ROOT, "scripts", "reproduce_full.py")
    readme = os.path.join(ROOT, "README.md")
    assert os.path.exists(script), "full-scale reproduction script missing"
    with open(readme, "r", encoding="utf-8") as handle:
        assert "reproduce_full" in handle.read()
    announce(9, "full-scale reproduction",
             "documented as scripts/reproduce_full.py (non-gating)")
