import numpy as np
import pytest

from spantriplet import autodiff as ad
from spantriplet import encoder as enc
from spantriplet.autodiff import Parameter, Tensor
from spantriplet.errors import DataError, DimensionError, ParseError

from fdcheck import max_gradient_error


class TestVocabulary:
    def test_lookup_and_unk(self):
        vocab = enc.Vocabulary.build([["It", "is", "Great"]])
        assert vocab.lookup("great") == vocab.lookup("Great")
        assert vocab.lookup("unseen") == vocab.unk_index
        assert vocab.tokens[0] == enc.UNK_TOKEN

    def test_dense_indices(self):
        vocab = enc.Vocabulary.build([["a", "b"], ["b", "c"]])
        assert sorted(vocab.index.values()) == list(range(len(vocab)))


class TestEmbeddingFile:
    def test_loads_good_file(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 0.1 0.2 0.3\nGreat -1 0 1\n")
        vectors, dim = enc.load_embedding_file(str(path))
        assert dim == 3
        np.testing.assert_array_equal(vectors["great"], [-1.0, 0.0, 1.0])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("the 0.1 0.2\nbad 0.1 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            enc.load_embedding_file(str(path))

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1 2\nb 1 2 3\n")
        with pytest.raises(ParseError, match="line 2"):
            enc.load_embedding_file(str(path))

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
        np.testing.assert_array_equal(out.data[0], table.data[vocab.unk_index])

    def test_empty_sentence_rejected(self):
        vocab = enc.Vocabulary.build([["hello"]])
        with pytest.raises(DataError):
            enc.embed_tokens([], vocab, Parameter(np.zeros((2, 4)), name="emb"))

    def test_gradient_reaches_only_looked_up_rows(self):
        vocab = enc.Vocabulary.build([["a", "b", "c"]])
        table = Parameter(np.random.default_rng(0).normal(size=(4, 3)), name="emb")
        ad.tensor_sum(enc.embed_tokens(["a", "c", "a"], vocab, table)).backward()
        used = {vocab.lookup("a"), vocab.lookup("c")}
        for i in range(4):
            if i in used:
                assert np.any(table.grad[i] != 0.0)
            else:
                np.testing.assert_array_equal(table.grad[i], np.zeros(3))
        err = max_gradient_error(
            lambda: ad.tensor_sum(ad.mul(enc.embed_tokens(["a", "c", "a"], vocab, table),
                                         enc.embed_tokens(["a", "c", "a"], vocab, table))),
            [table])
        assert err < 1e-6


class TestBiLstm:
    def test_single_token_output_width(self):
        rng = np.random.default_rng(0)
        params = enc.BiLstmParams.create("lstm", 4, 300, rng)
        out = enc.bilstm_forward(Tensor(rng.normal(size=(1, 4))), params)
        assert out.shape == (1, 600)

    def test_zero_weights_give_zero_states(self):
        params = enc.BiLstmParams.create("lstm", 3, 5, np.random.default_rng(0))
        for p in params.parameters():
            p.data[...] = 0.0
        out = enc.bilstm_forward(Tensor(np.random.default_rng(1).normal(size=(4, 3))),
                                 params)
        np.testing.assert_array_equal(out.data, np.zeros((4, 10)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        params = enc.BiLstmParams.create("lstm", 4, 3, rng)
        x = Parameter(rng.normal(size=(3, 4)), name="x")
        weights = rng.normal(size=(3, 6))

        def loss():
            out = enc.bilstm_forward(x, params)
            return ad.tensor_sum(ad.mul(out, Tensor(weights)))

        assert max_gradient_error(loss, params.parameters() + [x]) < 1e-4

    def test_matches_reference_lstm_implementation(self):
        torch = pytest.importorskip("torch")
        rng = np.random.default_rng(7)
        e_dim, hidden, n = 5, 4, 6
        params = enc.BiLstmParams.create("lstm", e_dim, hidden, rng)
        x = rng.normal(size=(n, e_dim))
        ours = enc.bilstm_forward(Tensor(x), params).data

        ref = torch.nn.LSTM(e_dim, hidden, bidirectional=True).double()
        with torch.no_grad():
            for direction, cell in (("", params.forward), ("_reverse", params.backward)):
                getattr(ref, f"weight_ih_l0{direction}").copy_(
                    torch.from_numpy(cell.w_ih.data.T))
                getattr(ref, f"weight_hh_l0{direction}").copy_(
                    torch.from_numpy(cell.w_hh.data.T))
                getattr(ref, f"bias_ih_l0{direction}").copy_(
                    torch.from_numpy(cell.bias.data))
                getattr(ref, f"bias_hh_l0{direction}").zero_()
            theirs, _ = ref(torch.from_numpy(x).unsqueeze(1))
        np.testing.assert_allclose(ours, theirs.squeeze(1).numpy(), atol=1e-12)

    def test_direction_order_is_forward_then_backward(self):
        # With a zeroed backward cell, columns H..2H are all zero while the
        # forward half still varies with position.
        rng = np.random.default_rng(3)
        params = enc.BiLstmParams.create("lstm", 2, 3, rng)
        for p in params.backward.parameters():
            p.data[...] = 0.0
        out = enc.bilstm_forward(Tensor(rng.normal(size=(4, 2))), params)
        np.testing.assert_array_equal(out.data[:, 3:], np.zeros((4, 3)))
        assert np.any(out.data[:, :3] != 0.0)


def _reference_direction(embeddings, cell, reverse):
    hidden = cell.w_hh.shape[0]
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    order = range(embeddings.shape[0] - 1, -1, -1) if reverse else range(embeddings.shape[0])
    states = []
    for t in order:
        gates = ad.add(ad.add(ad.matmul(ad.row(embeddings, t), cell.w_ih),
                              ad.matmul(h, cell.w_hh)), cell.bias)
        i = ad.sigmoid(ad.narrow(gates, 0, hidden))
        f = ad.sigmoid(ad.narrow(gates, hidden, 2 * hidden))
        g = ad.tanh(ad.narrow(gates, 2 * hidden, 3 * hidden))
        o = ad.sigmoid(ad.narrow(gates, 3 * hidden, 4 * hidden))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        states.append(h)
    if reverse:
        states.reverse()
    return ad.stack(states, axis=0)


def reference_bilstm(embeddings, params):
    """The BiLSTM composed per timestep from elementary ops, as an oracle."""
    return ad.concat([_reference_direction(embeddings, params.forward, False),
                      _reference_direction(embeddings, params.backward, True)], axis=1)


class TestFusedLstmMatchesReference:
    @staticmethod
    def _run(bilstm, x, params, seed):
        for p in params.parameters() + [x]:
            p.grad = None
        out = bilstm(x, params)
        out.backward(seed=seed)
        grads = {p.name: p.grad.copy() for p in params.parameters()}
        return out.data, grads, None if x.grad is None else x.grad.copy()

    @staticmethod
    def _assert_close(actual, expected):
        assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))

    def _compare(self, e_dim, hidden, n, x_requires_grad):
        rng = np.random.default_rng(100 + n)
        params = enc.BiLstmParams.create("lstm", e_dim, hidden, rng)
        for cell in (params.forward, params.backward):
            cell.bias.data[...] = rng.normal(size=cell.bias.shape)
        x = Tensor(rng.normal(size=(n, e_dim)), requires_grad=x_requires_grad)
        seed = rng.normal(size=(n, 2 * hidden))
        out, grads, x_grad = self._run(enc.bilstm_forward, x, params, seed)
        ref_out, ref_grads, ref_x_grad = self._run(reference_bilstm, x, params, seed)
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

    def test_weight_shape_mismatch(self):
        params = enc.BiLstmParams.create("lstm", 5, 4, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            ad.lstm(Tensor(np.zeros((3, 5))), params.forward.w_ih,
                    params.backward.w_ih, params.forward.bias)


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
        with pytest.raises(DataError):
            enc.enumerate_spans(3, -1)


class TestBuckets:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
        (5, 5), (6, 5), (7, 5),
        (8, 6), (15, 6), (16, 7), (31, 7), (32, 8), (63, 8),
        (64, 9), (70, 9), (1000, 9),
    ])
    def test_bucket_boundaries(self, value, expected):
        assert enc.bucket_index(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            enc.bucket_index(-1)


class TestSpanRepresentation:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.h = Tensor(rng.normal(size=(5, 6)))
        self.width = Parameter(rng.normal(size=(enc.NUM_BUCKETS, 2)), name="width")

    def test_singleton_pooling_modes_coincide(self):
        for mode in ("max_pool", "mean_pool"):
            vec = enc.span_representation(self.h, (2, 2), mode, self.width)
            np.testing.assert_array_equal(vec.data[:6], self.h.data[2])

    def test_boundary_dimension_arithmetic(self):
        vec = enc.span_representation(self.h, (1, 3), "boundary", self.width)
        assert vec.shape == (6 + 6 + 2,)
        np.testing.assert_array_equal(vec.data[:6], self.h.data[1])
        np.testing.assert_array_equal(vec.data[6:12], self.h.data[3])

    def test_max_pool_picks_elementwise_max(self):
        h = Tensor(np.array([[1.0], [5.0], [3.0]]))
        vec = enc.span_representation(h, (0, 2), "max_pool", None)
        np.testing.assert_array_equal(vec.data, [5.0])

    def test_width_feature_is_bucketed(self):
        # widths 5, 6, 7 share one bucket so their width vectors are identical
        h = Tensor(np.zeros((10, 4)))
        vecs = [enc.span_representation(h, (0, w - 1), "boundary", self.width).data[8:]
                for w in (5, 6, 7)]
        np.testing.assert_array_equal(vecs[0], vecs[1])
        np.testing.assert_array_equal(vecs[1], vecs[2])
        four = enc.span_representation(h, (0, 3), "boundary", self.width).data[8:]
        assert np.any(four != vecs[0])

    def test_disabling_width_drops_dimension(self):
        with_width = enc.span_representation(self.h, (0, 1), "boundary", self.width)
        without = enc.span_representation(self.h, (0, 1), "boundary", None)
        assert with_width.shape[0] - without.shape[0] == 2

    def test_out_of_range_span(self):
        with pytest.raises(IndexError):
            enc.span_representation(self.h, (3, 5), "boundary", self.width)

    def test_matrix_matches_single_span_path(self):
        spans = enc.enumerate_spans(5, 2)
        for mode in enc.SPAN_MODES:
            matrix = enc.span_representation_matrix(self.h, spans, mode, self.width)
            for row_ix, span in enumerate(spans):
                single = enc.span_representation(self.h, span, mode, self.width)
                np.testing.assert_array_equal(matrix.data[row_ix], single.data)
