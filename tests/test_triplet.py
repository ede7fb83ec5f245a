import numpy as np
import pytest

from spantriplet import triplet as tr
from spantriplet.autodiff import softmax_probabilities

import reference_ops as ref
from fdcheck import max_gradient_error


class TestPairDistance:
    def test_adjacent_spans(self):
        assert ref.pair_distance((0, 1), (2, 2)) == 1
        assert tr.pair_distance_bucket((0, 1), (2, 2)) == 1

    def test_overlapping_spans(self):
        assert ref.pair_distance((2, 4), (3, 3)) == 1

    def test_far_pair_lands_in_top_bucket(self):
        assert ref.pair_distance((0, 0), (70, 70)) == 70
        assert tr.pair_distance_bucket((0, 0), (70, 70)) == 9

    def test_symmetric_roles_can_touch(self):
        assert ref.pair_distance((0, 1), (1, 2)) == 0

    def test_distance_is_symmetric_and_never_negative(self):
        # The bucket rule trusts its input; the distance is never negative.
        from spantriplet.encoder import enumerate_spans

        spans = enumerate_spans(12, 8)
        for t in spans:
            for o in spans:
                assert ref.pair_distance(t, o) == ref.pair_distance(o, t) >= 0
                assert tr.pair_distance_bucket(t, o) == tr.pair_distance_bucket(o, t)

    def test_vectorized_buckets_match_every_pair(self):
        from spantriplet.encoder import enumerate_spans

        spans = enumerate_spans(100, 8)
        buckets = tr.pair_distance_buckets(spans, spans)
        expected = [tr.pair_distance_bucket(t, o) for t in spans for o in spans]
        assert buckets.tolist() == expected
        oracle = [ref.bucket_index(ref.pair_distance(t, o)) for t in spans for o in spans]
        assert expected == oracle
        assert max(ref.pair_distance(t, o) for t in spans for o in spans) >= 64
        assert tr.pair_distance_buckets(spans[:3], []).shape == (0,)


class TestRelationScores:
    def test_zero_logits_are_uniform(self):
        probs = softmax_probabilities(np.zeros(4))
        np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-15)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_saturated_positive(self):
        probs = softmax_probabilities(np.array([20.0, -5.0, -5.0, -5.0]))
        assert probs[0] > 0.9999

    def test_gradients_match_finite_differences(self):
        from spantriplet import autodiff as ad
        from spantriplet.autodiff import FeedForward, Tensor

        rng = np.random.default_rng(0)
        ffnn = FeedForward.create("relation", 9, 4, hidden_dim=5, hidden_layers=2,
                                  dropout_p=0.0, rng=rng)
        x = Tensor(rng.normal(size=(1, 9)))
        err = max_gradient_error(lambda: ad.softmax_nll(ffnn(x), [2]),
                                 ffnn.parameters())
        assert err < 1e-5


def tiny_model(use_width_distance=True, channel_mode="dual"):
    from spantriplet.data import make_fixture
    from spantriplet.encoder import Vocabulary
    from spantriplet.model import ModelConfig, SpanModel

    fixture = make_fixture(np.random.default_rng(0), 4)
    vocab = Vocabulary.build(s.tokens for s in fixture)
    model = SpanModel(ModelConfig(embedding_dim=5, lstm_hidden=3, ffnn_hidden=4,
                                  width_dim=2, distance_dim=3, lstm_dropout=0.0,
                                  ffnn_dropout=0.0, use_width_distance=use_width_distance,
                                  channel_mode=channel_mode),
                      vocab, seed=0)
    return model, fixture[0].tokens


def assert_pairs_match_per_pair_path(model, tokens):
    # The model builds all pair vectors with batched gathers; every row must
    # equal [target vector ; opinion vector ; distance embedding] built for
    # that pair alone and fed through the same scorer.
    from spantriplet.autodiff import Tensor

    out = model.forward(tokens)
    reps = out.span_reps.data
    for pair_ix, (t, o) in enumerate(out.pairs):
        parts = [reps[t.index], reps[o.index]]
        if model.distance_table is not None:
            parts.append(model.distance_table.data[tr.pair_distance_bucket(t.span, o.span)])
        logits = model.relation_ffnn(Tensor(np.concatenate(parts)[None, :]))
        np.testing.assert_allclose(out.relation_logits.data[pair_ix], logits.data[0],
                                   atol=1e-12)


class TestPairRepresentation:
    def test_without_distance_table(self):
        model, tokens = tiny_model(use_width_distance=False)
        assert model.relation_ffnn.weights[0].shape[0] == 2 * model.config.span_vector_dim
        assert_pairs_match_per_pair_path(model, tokens)

    def test_model_pair_assembly_matches_per_pair_path(self):
        model, tokens = tiny_model()
        assert model.relation_ffnn.weights[0].shape[0] == 2 * model.config.span_vector_dim + 3
        assert_pairs_match_per_pair_path(model, tokens)

    @pytest.mark.parametrize("channel_mode,pools", [("dual", None), ("single", None),
                                                    ("dual", ([4, 0, 1], [2, 7]))])
    def test_pairs_are_target_major(self, channel_mode, pools):
        model, tokens = tiny_model(channel_mode=channel_mode)
        out = model.forward(tokens, pools=pools)
        ko = len(out.opinion_pool)
        assert len(out.pairs) == len(out.target_pool) * ko > 1
        for a, t in enumerate(out.target_pool):
            for b, o in enumerate(out.opinion_pool):
                assert out.pairs[a * ko + b] == (t, o)

    @pytest.mark.parametrize("pools", [([4, 0], [999]), ([-1], [2])],
                             ids=["past_end", "negative"])
    def test_out_of_range_pinned_index_is_rejected(self, pools):
        model, tokens = tiny_model()
        size = len(model.forward(tokens).spans)
        with pytest.raises(IndexError, match=f"enumeration of {size} spans"):
            model.forward(tokens, pools=pools)

    @pytest.mark.parametrize("pools", [([4, 0, 4], [2, 7]), ([1], [3, 3])],
                             ids=["target", "opinion"])
    def test_repeated_pinned_index_is_rejected(self, pools):
        model, tokens = tiny_model()
        with pytest.raises(IndexError, match="repeats an index"):
            model.forward(tokens, pools=pools)

    def test_model_relation_probabilities_sum_to_one(self):
        model, tokens = tiny_model()
        probs = model.forward(tokens).relation_probs
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def graph_array_shapes(root):
    """Shapes of every array the graph under ``root`` holds.

    Walks ``_parents`` and, for each node, its data and the arrays its
    ``_backward`` closure captures, directly or in a list or tuple.
    """
    shapes, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        shapes.append(node.data.shape)
        for cell in getattr(node._backward, "__closure__", None) or ():
            value = cell.cell_contents
            for item in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(item, np.ndarray):
                    shapes.append(item.shape)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return shapes


class TestPairMatrixIsNotKept:
    def test_training_graph_holds_no_pair_matrix(self):
        import reference_ops as ref
        from spantriplet.data import make_fixture
        from spantriplet.encoder import Vocabulary
        from spantriplet.model import ModelConfig, SpanModel
        from spantriplet.training import compute_loss

        fixture = make_fixture(np.random.default_rng(1), 4)
        model = SpanModel(ModelConfig(embedding_dim=5, lstm_hidden=3, ffnn_hidden=4,
                                      width_dim=2, distance_dim=3),
                          Vocabulary.build(s.tokens for s in fixture), seed=0)
        sentence = max(fixture, key=lambda s: len(s.tokens))
        out = model.forward(sentence.tokens, training=True, rng=np.random.default_rng(2))
        pair_shape = (len(out.pairs), model.config.pair_vector_dim)
        assert len(out.pairs) > 1
        loss = compute_loss(out, sentence).total
        assert pair_shape not in graph_array_shapes(loss)
        # The walk does see the matrix when the scorer reads it materialized.
        matrix = ref.pair_features(out.span_reps, [t.index for t in out.target_pool],
                                   [o.index for o in out.opinion_pool], model.distance_table,
                                   tr.pair_distance_buckets([t.span for t in out.target_pool],
                                                            [o.span for o in out.opinion_pool]))
        materialized = model.relation_ffnn(matrix, training=True, rng=np.random.default_rng(3))
        assert pair_shape in graph_array_shapes(materialized)


def reference_decode(pairs, relation_probs):
    """``decode_triplets`` as one argmax per row, kept as an oracle."""
    best = {}
    for (target, opinion), probs in zip(pairs, relation_probs):
        label = int(np.argmax(probs))
        if label == tr.RELATION_INVALID:
            continue
        prediction = tr.TripletPrediction(target, opinion, tr.SENTIMENT_TAGS[label],
                                          float(probs[label]))
        held = best.get((target, opinion))
        if held is None or prediction.probability > held.probability:
            best[target, opinion] = prediction
    return [best[key] for key in sorted(best)]


def probs_for(label_index, confidence=0.9):
    rest = (1.0 - confidence) / 3.0
    probs = np.full(4, rest)
    probs[label_index] = confidence
    return probs


class TestDecodeTriplets:
    def test_all_invalid_is_empty(self):
        pairs = [((0, 0), (1, 1)), ((0, 0), (2, 2))]
        probs = np.stack([probs_for(3), probs_for(3)])
        assert tr.decode_triplets(pairs, probs) == []

    def test_single_positive_pair(self):
        pairs = [((0, 1), (3, 3))]
        probs = probs_for(0)[None, :]
        out = tr.decode_triplets(pairs, probs)
        assert out == [tr.TripletPrediction((0, 1), (3, 3), "POS", 0.9)]

    def test_matches_brute_force_argmax_oracle(self):
        rng = np.random.default_rng(1)
        targets = [(0, 0), (1, 2), (4, 4)]
        opinions = [(2, 2), (3, 3), (5, 6)]
        pairs = [(t, o) for t in targets for o in opinions]
        raw = rng.random((9, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        decoded = tr.decode_triplets(pairs, probs)

        expected = []
        for (t, o), p in zip(pairs, probs):
            best = 0
            for c in range(1, 4):
                if p[c] > p[best]:
                    best = c
            if best != 3:
                expected.append(tr.TripletPrediction(t, o, tr.SENTIMENT_TAGS[best],
                                                     float(p[best])))
        expected.sort(key=lambda pred: (pred.target, pred.opinion))
        assert decoded == expected

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        pairs = [((i, i), (j, j)) for i in range(3) for j in range(3, 6)]
        raw = rng.random((len(pairs), 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        baseline = tr.decode_triplets(pairs, probs)
        perm = rng.permutation(len(pairs))
        shuffled = tr.decode_triplets([pairs[i] for i in perm], probs[perm])
        assert shuffled == baseline

    def test_logit_shift_leaves_decoded_label_unchanged(self):
        logits = np.array([1.0, 0.5, -0.2, 0.9])
        base = softmax_probabilities(logits)[None, :]
        shifted = softmax_probabilities(logits + 123.0)[None, :]
        pair = [((0, 0), (1, 1))]
        assert (tr.decode_triplets(pair, base)[0].sentiment
                == tr.decode_triplets(pair, shifted)[0].sentiment)

    def test_argmax_tie_breaks_by_fixed_class_order(self):
        pair = [((0, 0), (1, 1))]
        probs = np.array([[0.3, 0.3, 0.2, 0.2]])
        assert tr.decode_triplets(pair, probs)[0].sentiment == "POS"
        probs = np.array([[0.2, 0.3, 0.3, 0.2]])
        assert tr.decode_triplets(pair, probs)[0].sentiment == "NEG"

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_row_loop_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        spans = [(i, i + w) for i in range(8) for w in range(2)]
        every_pair = [(t, o) for t in spans for o in spans]
        pairs = [every_pair[i] for i in rng.choice(len(every_pair), size=60, replace=False)]
        # Probabilities from a few levels force exact ties within and across rows.
        raw = rng.choice([0.1, 0.2, 0.3], size=(60, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        assert tr.decode_triplets(pairs, probs) == reference_decode(pairs, probs)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            tr.decode_triplets([((0, 0), (1, 1))], np.zeros((2, 4)))
