import re

import numpy as np
import pytest

from spantriplet import autodiff as ad
from spantriplet import encoder as enc
from spantriplet.autodiff import Parameter, Tensor
from spantriplet.data import load_embedding_file
from spantriplet.errors import DataError, ParseError
from spantriplet.model import ModelConfig, SpanModel

import reference_ops as ref
from fdcheck import max_gradient_error


class TestVocabulary:
    def test_lookup_and_unk(self):
        vocab = enc.Vocabulary.build([["It", "is", "Great"]])
        assert vocab.lookup("great") == vocab.lookup("Great")
        assert vocab.lookup("unseen") == 0
        assert vocab.tokens[0] == enc.UNK_TOKEN

    def test_dense_indices(self):
        vocab = enc.Vocabulary.build([["a", "b"], ["b", "c"]])
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_corpus_unk_token_is_the_unknown_row(self):
        vocab = enc.Vocabulary.build([["the", "<UNK>", "x"]])
        assert len(vocab) == 3
        assert vocab.lookup("<UNK>") == vocab.lookup(enc.UNK_TOKEN) == 0

    @pytest.mark.parametrize("tokens", [
        ("<unk>", "a"), 5, ["<unk>", 3], ["<unk>", "a", "a"], ["a", "<unk>"], [],
    ], ids=["tuple", "int", "non_string", "repeated", "unk_second", "empty"])
    def test_malformed_token_list_is_rejected(self, tokens):
        with pytest.raises(DataError):
            enc.Vocabulary(tokens)


class TestEmbeddingFile:
    def test_loads_good_file(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 0.1 0.2 0.3\nGreat -1 0 1\n")
        vectors, dim = load_embedding_file(str(path))
        assert dim == 3
        np.testing.assert_array_equal(vectors["great"], [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("text, expected", [
        ("the 1 1\nThe 2 2\n", [1.0, 1.0]),
        ("The 2 2\nthe 1 1\n", [1.0, 1.0]),
        ("The 2 2\nTHE 3 3\n", [2.0, 2.0]),
    ], ids=["lowercase_first", "lowercase_last", "two_cased_variants"])
    def test_cased_variants_do_not_replace_the_lowercase_vector(self, tmp_path, text,
                                                                expected):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        vectors, _ = load_embedding_file(str(path))
        assert list(vectors) == ["the"]
        np.testing.assert_array_equal(vectors["the"], expected)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 0.1 0.2\nbad 0.1 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embedding_file(str(path))

    @pytest.mark.parametrize("text, message", [
        ("the 0.1 0.2\nbad 0.1 oops\n",
         "line 2, column 5: non-numeric embedding value for token 'bad'"),
        ("\n", "line 1, column 1: embedding file is empty"),
    ], ids=["non_numeric", "empty"])
    def test_parse_error_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_embedding_file(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 2\nb 1 2 3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embedding_file(str(path))

    @pytest.mark.parametrize("text, line, column", [
        ("battery nan 0.3\n", 1, 9),
        ("the 0.1 0.2\nscreen  0.5 -inf\n", 2, 13),
        ("a 1 1e999\n", 1, 5),
    ])
    def test_non_finite_value_reports_line_and_column(self, tmp_path, text, line, column):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match="non-finite") as info:
            load_embedding_file(str(path))
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize("content", [None, b"caf\xe9 0.1 0.2\n"], ids=["missing", "latin1"])
    def test_unreadable_file_is_a_data_error_naming_it(self, tmp_path, content):
        path = tmp_path / "vectors.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_embedding_file(str(path))

    def test_random_fallback_is_seeded(self):
        vocab = enc.Vocabulary.build([["a", "b"]])
        t1 = enc.build_embedding_table(vocab, 4, np.random.default_rng(3))
        t2 = enc.build_embedding_table(vocab, 4, np.random.default_rng(3))
        np.testing.assert_array_equal(t1, t2)

    def test_pretrained_rows_override_random(self):
        vocab = enc.Vocabulary.build([["a", "b"]])
        table = enc.build_embedding_table(
            vocab, 2, np.random.default_rng(0), {"a": np.array([9.0, 9.0])})
        np.testing.assert_array_equal(table[vocab.lookup("a")], [9.0, 9.0])


class TestEmbedTokens:
    def test_known_token_returns_its_row(self):
        vocab = enc.Vocabulary.build([["hello"]])
        table = Parameter(np.arange(8.0).reshape(2, 4), name="emb")
        out = enc.embed_tokens(["hello"], vocab, table)
        np.testing.assert_array_equal(out.data[0], table.data[vocab.lookup("hello")])

    def test_unseen_token_maps_to_unk_row(self):
        vocab = enc.Vocabulary.build([["hello"]])
        table = Parameter(np.arange(8.0).reshape(2, 4), name="emb")
        out = enc.embed_tokens(["mystery"], vocab, table)
        np.testing.assert_array_equal(out.data[0], table.data[0])

    def test_empty_sentence_rejected(self):
        # enumerate_spans, which forward runs before the embedding, is the one check.
        config = ModelConfig(embedding_dim=4, lstm_hidden=3, ffnn_hidden=5, width_dim=2,
                             distance_dim=2)
        model = SpanModel(config, enc.Vocabulary.build([["hello"]]))
        for call in (model.forward, model.predict):
            with pytest.raises(DataError, match="sentence length"):
                call([])

    def test_gradient_reaches_only_looked_up_rows(self):
        vocab = enc.Vocabulary.build([["a", "b", "c"]])
        table = Parameter(np.random.default_rng(0).normal(size=(4, 3)), name="emb")
        ref.tensor_sum(enc.embed_tokens(["a", "c", "a"], vocab, table)).backward()
        used = {vocab.lookup("a"), vocab.lookup("c")}
        for i in range(4):
            if i in used:
                assert np.any(table.grad[i] != 0.0)
            else:
                np.testing.assert_array_equal(table.grad[i], np.zeros(3))
        err = max_gradient_error(
            lambda: ref.tensor_sum(ref.mul(enc.embed_tokens(["a", "c", "a"], vocab, table),
                                           enc.embed_tokens(["a", "c", "a"], vocab, table))),
            [table])
        assert err < 1e-6


def flat(lstm):
    """Both directions' weights in ``SpanModel.parameters()`` order."""
    return [*lstm[0], *lstm[1]]


class TestBiLstm:
    def test_single_token_output_width(self):
        rng = np.random.default_rng(0)
        lstm = enc.lstm_parameters("lstm", 4, 300, rng)
        out = enc.bilstm_forward(Tensor(rng.normal(size=(1, 4))), lstm)
        assert out.shape == (1, 600)

    def test_zero_weights_give_zero_states(self):
        lstm = enc.lstm_parameters("lstm", 3, 5, np.random.default_rng(0))
        for p in flat(lstm):
            p.data[...] = 0.0
        out = enc.bilstm_forward(Tensor(np.random.default_rng(1).normal(size=(4, 3))),
                                 lstm)
        np.testing.assert_array_equal(out.data, np.zeros((4, 10)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        lstm = enc.lstm_parameters("lstm", 4, 3, rng)
        x = Parameter(rng.normal(size=(3, 4)), name="x")
        weights = rng.normal(size=(3, 6))

        def loss():
            out = enc.bilstm_forward(x, lstm)
            return ref.tensor_sum(ref.mul(out, Tensor(weights)))

        assert max_gradient_error(loss, flat(lstm) + [x]) < 1e-4

    def test_matches_reference_lstm_implementation(self):
        torch = pytest.importorskip("torch")
        rng = np.random.default_rng(7)
        e_dim, hidden, n = 5, 4, 6
        lstm = enc.lstm_parameters("lstm", e_dim, hidden, rng)
        x = rng.normal(size=(n, e_dim))
        ours = enc.bilstm_forward(Tensor(x), lstm).data

        ref = torch.nn.LSTM(e_dim, hidden, bidirectional=True).double()
        with torch.no_grad():
            for direction, (w_ih, w_hh, bias) in zip(("", "_reverse"), lstm):
                getattr(ref, f"weight_ih_l0{direction}").copy_(torch.from_numpy(w_ih.data.T))
                getattr(ref, f"weight_hh_l0{direction}").copy_(torch.from_numpy(w_hh.data.T))
                getattr(ref, f"bias_ih_l0{direction}").copy_(torch.from_numpy(bias.data))
                getattr(ref, f"bias_hh_l0{direction}").zero_()
            theirs, _ = ref(torch.from_numpy(x).unsqueeze(1))
        np.testing.assert_allclose(ours, theirs.squeeze(1).numpy(), atol=1e-12)

    def test_direction_order_is_forward_then_backward(self):
        # With a zeroed backward cell, columns H..2H are all zero while the
        # forward half still varies with position.
        rng = np.random.default_rng(3)
        lstm = enc.lstm_parameters("lstm", 2, 3, rng)
        for p in lstm[1]:
            p.data[...] = 0.0
        out = enc.bilstm_forward(Tensor(rng.normal(size=(4, 2))), lstm)
        np.testing.assert_array_equal(out.data[:, 3:], np.zeros((4, 3)))
        assert np.any(out.data[:, :3] != 0.0)


def _reference_direction(embeddings, cell, reverse):
    w_ih, w_hh, bias = cell
    hidden = w_hh.shape[0]
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    order = range(embeddings.shape[0] - 1, -1, -1) if reverse else range(embeddings.shape[0])
    states = []
    for t in order:
        gates = ad.add(ad.add(ref.matmul(ref.row(embeddings, t), w_ih),
                              ref.matmul(h, w_hh)), bias)
        i = ref.sigmoid(ref.narrow(gates, 0, hidden))
        f = ref.sigmoid(ref.narrow(gates, hidden, 2 * hidden))
        g = ref.tanh(ref.narrow(gates, 2 * hidden, 3 * hidden))
        o = ref.sigmoid(ref.narrow(gates, 3 * hidden, 4 * hidden))
        c = ad.add(ref.mul(f, c), ref.mul(i, g))
        h = ref.mul(o, ref.tanh(c))
        states.append(h)
    if reverse:
        states.reverse()
    return ref.stack(states, axis=0)


def reference_bilstm(embeddings, lstm):
    """The BiLSTM composed per timestep from elementary ops, as an oracle."""
    return ad.concat([_reference_direction(embeddings, lstm[0], False),
                      _reference_direction(embeddings, lstm[1], True)], axis=1)


class TestFusedLstmMatchesReference:
    @staticmethod
    def _run(bilstm, x, lstm, seed):
        for p in flat(lstm) + [x]:
            p.grad = None
        out = bilstm(x, lstm)
        out.backward(seed=seed)
        grads = {p.name: p.grad.copy() for p in flat(lstm)}
        return out.data, grads, None if x.grad is None else x.grad.copy()

    @staticmethod
    def _assert_close(actual, expected):
        assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))

    def _compare(self, e_dim, hidden, n, x_requires_grad):
        rng = np.random.default_rng(100 + n)
        lstm = enc.lstm_parameters("lstm", e_dim, hidden, rng)
        for _, _, bias in lstm:
            bias.data[...] = rng.normal(size=bias.shape)
        x = Tensor(rng.normal(size=(n, e_dim)), requires_grad=x_requires_grad)
        seed = rng.normal(size=(n, 2 * hidden))
        out, grads, x_grad = self._run(enc.bilstm_forward, x, lstm, seed)
        ref_out, ref_grads, ref_x_grad = self._run(reference_bilstm, x, lstm, seed)
        self._assert_close(out, ref_out)
        for name, ref in ref_grads.items():
            self._assert_close(grads[name], ref)
        if x_requires_grad:
            self._assert_close(x_grad, ref_x_grad)
        else:
            assert x_grad is None

    @pytest.mark.parametrize("e_dim,hidden,n", [(5, 4, 1), (5, 4, 2), (5, 4, 7),
                                                (3, 6, 7), (300, 300, 40)])
    def test_outputs_and_gradients(self, e_dim, hidden, n):
        self._compare(e_dim, hidden, n, x_requires_grad=True)

    def test_input_without_requires_grad_gets_no_grad_buffer(self):
        self._compare(5, 4, 7, x_requires_grad=False)


class TestEnumerateSpans:
    def test_small_case(self):
        assert enc.enumerate_spans(3, 8) == [(0, 0), (0, 1), (0, 2), (1, 1),
                                             (1, 2), (2, 2)]

    def test_zero_gap_gives_singletons(self):
        assert enc.enumerate_spans(5, 0) == [(i, i) for i in range(5)]

    def test_counts_match_closed_form_and_brute_force(self):
        for n in range(1, 51):
            for gap in range(0, 11):
                spans = enc.enumerate_spans(n, gap)
                brute = []
                for i in range(n):
                    for j in range(n):
                        if i <= j and j - i <= gap:
                            brute.append((i, j))
                assert spans == sorted(brute)
                w = min(n, gap + 1)
                assert len(spans) == n * w - w * (w - 1) // 2

    def test_sorted_and_duplicate_free(self):
        spans = enc.enumerate_spans(12, 4)
        assert spans == sorted(set(spans))

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            enc.enumerate_spans(0, 8)


class TestBuckets:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
        (5, 5), (6, 5), (7, 5),
        (8, 6), (15, 6), (16, 7), (31, 7), (32, 8), (63, 8),
        (64, 9), (70, 9), (1000, 9),
    ])
    def test_bucket_boundaries(self, value, expected):
        assert enc.bucket_indices(value) == ref.bucket_index(value) == expected

    def test_elementwise_buckets_match_the_scalar_rule(self):
        values = np.arange(200)
        assert enc.bucket_indices(values).tolist() == [ref.bucket_index(v) for v in values]
        assert enc.bucket_indices(values.reshape(20, 10)).shape == (20, 10)


def span_vector(h, span, mode, width_table):
    return enc.span_representation_matrix(h, [span], mode, width_table).data[0]


class TestSpanRepresentation:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.h = Tensor(rng.normal(size=(5, 6)))
        self.width = Parameter(rng.normal(size=(enc.NUM_BUCKETS, 2)), name="width")

    def test_singleton_pooling_modes_coincide(self):
        for mode in ("max_pool", "mean_pool"):
            vec = span_vector(self.h, (2, 2), mode, self.width)
            np.testing.assert_array_equal(vec[:6], self.h.data[2])

    def test_boundary_dimension_arithmetic(self):
        vec = span_vector(self.h, (1, 3), "boundary", self.width)
        assert vec.shape == (6 + 6 + 2,)
        np.testing.assert_array_equal(vec[:6], self.h.data[1])
        np.testing.assert_array_equal(vec[6:12], self.h.data[3])

    def test_max_pool_picks_elementwise_max(self):
        h = Tensor(np.array([[1.0], [5.0], [3.0]]))
        vec = span_vector(h, (0, 2), "max_pool", None)
        np.testing.assert_array_equal(vec, [5.0])

    def test_width_feature_is_bucketed(self):
        # widths 5, 6, 7 share one bucket so their width vectors are identical
        h = Tensor(np.zeros((10, 4)))
        vecs = [span_vector(h, (0, w - 1), "boundary", self.width)[8:] for w in (5, 6, 7)]
        np.testing.assert_array_equal(vecs[0], vecs[1])
        np.testing.assert_array_equal(vecs[1], vecs[2])
        four = span_vector(h, (0, 3), "boundary", self.width)[8:]
        assert np.any(four != vecs[0])

    def test_disabling_width_drops_dimension(self):
        with_width = span_vector(self.h, (0, 1), "boundary", self.width)
        without = span_vector(self.h, (0, 1), "boundary", None)
        assert with_width.shape[0] - without.shape[0] == 2

    def test_out_of_range_span(self):
        for mode in enc.SPAN_MODES:
            # A reversed span is caught only by span_pool's bounds check;
            # enumerate_spans never yields one.
            reversed_span = () if mode == "boundary" else ((2, 1),)
            for span in ((3, 5), (-1, 0)) + reversed_span:
                with pytest.raises(IndexError):
                    enc.span_representation_matrix(self.h, [(0, 0), span], mode, self.width)

    def test_matrix_matches_single_span_path(self):
        spans = enc.enumerate_spans(5, 2)
        for mode in enc.SPAN_MODES:
            matrix = enc.span_representation_matrix(self.h, spans, mode, self.width)
            for row_ix, span in enumerate(spans):
                single = ref.span_representation(self.h, span, mode, self.width)
                np.testing.assert_array_equal(matrix.data[row_ix], single.data)


class TestSpanMatrixMatchesPerSpanOracle:
    """The batched span matrix against the per-span composition in ``reference_ops``.

    Hidden states are (n, 2H), so rows are at least two wide. Forward values
    must agree bitwise and gradients to 1e-12 relative.
    """

    @staticmethod
    def _run(build, h, spans, mode, width, seed):
        for t in (h, width):
            if t is not None:
                t.grad = None
        out = build(h, spans, mode, width)
        out.backward(seed=seed)
        return out.data, h.grad.copy(), None if width is None else width.grad.copy()

    @staticmethod
    def _assert_close(actual, expected):
        assert np.max(np.abs(actual - expected)) <= 1e-12 * max(np.max(np.abs(expected)),
                                                                 1e-300)

    @pytest.mark.parametrize("mode", enc.SPAN_MODES)
    @pytest.mark.parametrize("with_width", [True, False])
    @pytest.mark.parametrize("n,dim,max_gap", [(1, 2, 8), (6, 4, 8), (9, 3, 0),
                                               (20, 6, 3), (40, 10, 8)])
    def test_forward_bitwise_and_gradients(self, mode, with_width, n, dim, max_gap):
        rng = np.random.default_rng(1000 * n + max_gap)
        data = rng.normal(size=(n, dim))
        data[rng.random(size=data.shape) < 0.3] = 0.5  # ties inside max windows
        h = Tensor(data, requires_grad=True)
        width = (Parameter(rng.normal(size=(enc.NUM_BUCKETS, 3)), name="width")
                 if with_width else None)
        spans = enc.enumerate_spans(n, max_gap)
        assert {j - i + 1 for i, j in spans} == set(range(1, min(n, max_gap + 1) + 1))
        dim_out = (2 * dim if mode == "boundary" else dim) + (3 if with_width else 0)
        seed = rng.normal(size=(len(spans), dim_out))
        out, h_grad, w_grad = self._run(enc.span_representation_matrix, h, spans, mode,
                                        width, seed)
        ref_out, ref_h_grad, ref_w_grad = self._run(ref.span_representation_matrix, h,
                                                    spans, mode, width, seed)
        assert out.tobytes() == ref_out.tobytes()
        self._assert_close(h_grad, ref_h_grad)
        if with_width:
            self._assert_close(w_grad, ref_w_grad)

    def test_pooled_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        h = Parameter(rng.normal(size=(7, 3)), name="h")
        width = Parameter(rng.normal(size=(enc.NUM_BUCKETS, 2)), name="width")
        spans = enc.enumerate_spans(7, 4)
        weights = Tensor(rng.normal(size=(len(spans), 5)))
        for mode in ("max_pool", "mean_pool"):
            def loss():
                reps = enc.span_representation_matrix(h, spans, mode, width)
                return ref.tensor_sum(ref.mul(reps, weights))

            assert max_gradient_error(loss, [h, width]) < 1e-7


def graph_size(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize("mode", ["max_pool", "mean_pool"])
def test_pooled_loss_graph_size_does_not_grow_with_the_sentence(mode):
    from spantriplet.data import Sentence
    from spantriplet.model import ModelConfig, SpanModel
    from spantriplet.training import compute_loss

    words = [f"w{i}" for i in range(30)]
    model = SpanModel(ModelConfig(embedding_dim=4, lstm_hidden=3, ffnn_hidden=4,
                                  width_dim=2, distance_dim=3, span_mode=mode),
                      enc.Vocabulary.build([words]), seed=0)
    sizes = [graph_size(compute_loss(model.forward(words[:n]),
                                     Sentence(0, words[:n], [])).total)
             for n in (6, 30)]
    assert sizes[0] == sizes[1]
