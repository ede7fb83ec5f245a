import inspect
import re
import tracemalloc

import numpy as np
import pytest

from spantriplet import autodiff as ad
from spantriplet.autodiff import AdamW, FeedForward, Parameter, Tensor
from spantriplet.data import make_fixture
from spantriplet.encoder import SPAN_MODES, Vocabulary, enumerate_spans
from spantriplet.errors import DimensionError, TrainingStateError
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.pruning import CHANNEL_MODES
from spantriplet.training import TrainConfig, make_optimizer, train_epoch

import reference_ops as ref
from fdcheck import max_gradient_error


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ref.matmul(a, b).data, b.data)

    def test_zero(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[0.0], [0.0]])
        np.testing.assert_array_equal(ref.matmul(a, b).data, [[0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ref.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Parameter(rng.normal(size=(3, 4)), name="a")
        b = Parameter(rng.normal(size=(4, 2)), name="b")
        # Weighted sum keeps the output scalar without symmetry artifacts.
        w = rng.normal(size=(3, 2))
        err = max_gradient_error(
            lambda: ref.tensor_sum(ref.mul(ref.matmul(a, b), Tensor(w))), [a, b])
        assert err < 1e-6

    def test_matvec_gradients(self):
        rng = np.random.default_rng(1)
        a = Parameter(rng.normal(size=(3, 4)), name="a")
        x = Parameter(rng.normal(size=4), name="x")
        err = max_gradient_error(lambda: ref.tensor_sum(ref.matmul(a, x)), [a, x])
        assert err < 1e-6


class TestLinear:
    def test_direct_definition(self):
        rng = np.random.default_rng(2)
        x = Parameter(rng.normal(size=(5, 4)), name="x")
        w = Parameter(rng.normal(size=(4, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")
        out = ad.linear(x, w, b)
        assert out.data.tobytes() == (x.data @ w.data + b.data).tobytes()
        g = rng.normal(size=(5, 3))
        out.backward(seed=g)
        assert x.grad.tobytes() == (g @ w.data.T).tobytes()
        assert w.grad.tobytes() == (x.data.T @ g).tobytes()
        assert b.grad.tobytes() == g.sum(axis=0).tobytes()

    def test_shape_mismatch_names_all_shapes(self):
        w, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
        for x in (Tensor(np.zeros((4, 2))), Tensor(np.zeros(3))):
            with pytest.raises(DimensionError, match=re.escape(f"{x.shape}, (3, 2) and (2,)")):
                ad.linear(x, w, b)
        with pytest.raises(DimensionError):
            ad.linear(Tensor(np.zeros((4, 3))), w, Tensor(np.zeros(3)))


class TestConcat:
    def test_direct_definition(self):
        out = ad.concat([Tensor([[1.0, 2.0], [4.0, 5.0]]), Tensor([[3.0], [6.0]])], axis=1)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_empty_identity(self):
        x = Tensor([[4.0, 5.0]])
        out = ad.concat([x, Tensor(np.zeros((1, 0)))], axis=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_gradient_slices_back_to_each_input(self):
        a = Parameter(np.ones((2, 2)), name="a")
        b = Parameter(np.ones((2, 3)), name="b")
        ad.concat([a, b], axis=1).backward(seed=np.arange(10.0).reshape(2, 5))
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

    @pytest.mark.parametrize("tensors, axis", [
        ([np.zeros((2, 3)), np.zeros((2, 3))], 0),
        ([np.zeros(2), np.zeros(3)], 1),
        ([np.zeros((2, 3)), np.zeros((3, 3))], 1),
        ([], 1),
    ], ids=["axis_0", "vectors", "row_counts_differ", "no_tensors"])
    def test_only_columns_of_matrices_join(self, tensors, axis):
        with pytest.raises(DimensionError, match="concat"):
            ad.concat([Tensor(t) for t in tensors], axis=axis)


def record_ops(monkeypatch):
    """List that receives the op name of every graph node built from now on."""
    made = []
    make = ad._make

    def recording_make(data, parents, backward):
        # An op's backward closure is named "<op>.<locals>.backward".
        made.append(backward.__qualname__.split(".")[0])
        return make(data, parents, backward)

    monkeypatch.setattr(ad, "_make", recording_make)
    return made


class TestFeedForward:
    def make(self, rng, in_dim=10, out_dim=3, dropout=0.0):
        return FeedForward.create("ffnn", in_dim, out_dim, hidden_dim=6,
                                  hidden_layers=2, dropout_p=dropout, rng=rng)

    def test_zero_weights_give_zero_logits(self):
        ffnn = self.make(np.random.default_rng(0))
        for p in ffnn.parameters():
            p.data[...] = 0.0
        out = ffnn(Tensor(np.random.default_rng(1).normal(size=(1, 10))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_zero_dropout_train_equals_eval(self):
        ffnn = self.make(np.random.default_rng(0), dropout=0.0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 10)))
        train = ffnn(x, training=True, rng=np.random.default_rng(2))
        infer = ffnn(x, training=False)
        np.testing.assert_array_equal(train.data, infer.data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        ffnn = self.make(rng)
        x = Tensor(rng.normal(size=(1, 10)))
        err = max_gradient_error(lambda: ref.tensor_sum(ffnn(x)), ffnn.parameters())
        assert err < 1e-5

    def test_width_mismatch(self):
        ffnn = self.make(np.random.default_rng(0))
        for bad in ((1, 7), (10,)):
            with pytest.raises(DimensionError):
                ffnn(Tensor(np.zeros(bad)))

    def test_call_is_layer0_then_from_layer0(self):
        rng = np.random.default_rng(4)
        ffnn = self.make(rng, dropout=0.5)
        x = Tensor(rng.normal(size=(3, 10)))
        whole = ffnn(x, training=True, rng=np.random.default_rng(5))
        layer0 = ad.linear(x, ffnn.weights[0], ffnn.biases[0])
        split = ffnn.from_layer0(layer0, training=True, rng=np.random.default_rng(5))
        assert whole.data.tobytes() == split.data.tobytes()

    def test_one_linear_node_per_layer(self, monkeypatch):
        ffnn = self.make(np.random.default_rng(0), dropout=0.5)
        made = record_ops(monkeypatch)
        ffnn(Tensor(np.zeros((2, 10))), training=True, rng=np.random.default_rng(1))
        assert made == ["linear", "relu", "dropout"] * 2 + ["linear"]


class TestSoftmaxNll:
    def test_uniform_symmetry(self):
        loss = ad.softmax_nll(Tensor([[0.0, 0.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)

    def test_stability_with_huge_logit(self):
        loss = ad.softmax_nll(Tensor([[1000.0, 0.0]]), [0])
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-300)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(4)
        logits = Parameter(rng.normal(size=(1, 4)), name="logits")
        ad.softmax_nll(logits, [2]).backward()
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = probs.copy()
        expected[0, 2] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)
        err = max_gradient_error(lambda: ad.softmax_nll(logits, [2]), [logits])
        assert err < 1e-6

    def test_batched_form_sums_rows(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(3, 4)))
        total = ad.softmax_nll(logits, [0, 1, 3]).item()
        per_row = sum(ad.softmax_nll(Tensor(logits.data[i:i + 1]), [g]).item()
                      for i, g in enumerate([0, 1, 3]))
        assert total == pytest.approx(per_row, rel=1e-12)

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_nll(Tensor([[0.0, 0.0]]), [2])

    def test_needs_one_gold_label_per_row_of_a_matrix(self):
        with pytest.raises(DimensionError):
            ad.softmax_nll(Tensor([0.0, 0.0]), [1])
        with pytest.raises(DimensionError):
            ad.softmax_nll(Tensor(np.zeros((2, 3))), [1])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert ad.dropout(x, 0.5, None, training=False) is x

    def test_inverted_scaling(self):
        rng = np.random.default_rng(6)
        x = Tensor(np.ones(10000))
        out = ad.dropout(x, 0.25, rng, training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_gradient_equals_mask(self):
        x = Parameter(np.ones(1000), name="x")
        out = ad.dropout(x, 0.5, np.random.default_rng(7), training=True)
        ref.tensor_sum(out).backward()
        np.testing.assert_array_equal(x.grad, out.data)

    def test_seeded_masks_are_deterministic(self):
        x = Tensor(np.ones(100))
        a = ad.dropout(x, 0.5, np.random.default_rng(8), training=True)
        b = ad.dropout(x, 0.5, np.random.default_rng(8), training=True)
        np.testing.assert_array_equal(a.data, b.data)


class TestStructuralOps:
    def test_mixed_graph_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        m = Parameter(rng.normal(size=(5, 4)), name="m")
        v = Parameter(rng.normal(size=4), name="v")

        def loss():
            picked = ad.rows(m, [0, 2, 2, 4])
            pooled = ref.reduce_mean(picked, axis=0)
            peak = ref.reduce_max(ref.narrow(m, 1, 4), axis=0)
            stacked = ref.stack([pooled, peak, ref.sigmoid(v), ref.row(m, 3)], axis=0)
            joined = ad.concat([stacked, ref.tanh(stacked)], axis=1)
            return ref.tensor_sum(ref.mul(joined, joined))

        assert max_gradient_error(loss, [m, v]) < 1e-6

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            ad.rows(Tensor(np.zeros((2, 2))), [0, 2])
        with pytest.raises(IndexError):
            ad.rows(Tensor(np.zeros((2, 2))), [0, -1])
        for starts, ends in (([0], [2]), ([-1], [0]), ([1], [0])):
            with pytest.raises(IndexError):
                ad.span_pool(Tensor(np.zeros((2, 2))), starts, ends, "max")

    def test_repeated_row_gathers_accumulate(self):
        m = Parameter(np.arange(6.0).reshape(3, 2), name="m")
        ref.tensor_sum(ad.rows(m, [1, 1, 0])).backward()
        np.testing.assert_array_equal(m.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(10)
        x = Parameter(rng.normal(size=(4, 3)), name="x")
        w = Parameter(rng.normal(size=(3, 2)), name="w")
        b = Parameter(rng.normal(size=2), name="b")
        err = max_gradient_error(lambda: ref.tensor_sum(ad.linear(x, w, b)), [x, w, b])
        assert err < 1e-8


def reference_rows_backward(x: Tensor, indices, g: np.ndarray) -> None:
    """Reference ``rows`` backward: scatter into zeros with np.add.at, then add."""
    buf = np.zeros_like(x.data)
    np.add.at(buf, np.asarray(indices, dtype=np.intp), g)
    x._accumulate(buf)


def pair_indices(rng, spans, k):
    """Target and opinion index lists of the k x k pair assembly."""
    targets = rng.choice(spans, size=k, replace=False)
    opinions = rng.choice(spans, size=k, replace=False)
    return np.repeat(targets, k), np.tile(opinions, k)


class TestRowsBackwardMatchesAddAt:
    """The loop-free row-gather backward gives the bits of np.add.at."""

    @staticmethod
    def index_patterns():
        rng = np.random.default_rng(21)
        spans = enumerate_spans(40, 8)
        t_idx, o_idx = pair_indices(rng, len(spans), 20)
        return {
            "pair targets (repeat)": (len(spans), t_idx),
            "pair opinions (tile)": (len(spans), o_idx),
            "boundary starts": (40, [s[0] for s in spans]),
            "boundary ends": (40, [s[1] for s in spans]),
            "tokens with repeats": (50, rng.integers(0, 12, size=60)),
            "distinct": (30, rng.permutation(30)[:17]),
            "one row": (5, [3]),
        }

    @pytest.mark.parametrize("prefilled", [False, True])
    def test_bitwise_equal_to_reference(self, prefilled):
        rng = np.random.default_rng(22)
        for name, (n, idx) in self.index_patterns().items():
            start = rng.normal(size=(n, 7))
            grad = rng.normal(size=(n, 7)) if prefilled else None
            new = Parameter(start, name="new")
            ref = Parameter(start, name="ref")
            new.grad = None if grad is None else grad.copy()
            ref.grad = None if grad is None else grad.copy()
            out = ad.rows(new, idx)
            out.backward(seed=rng.normal(size=out.shape))
            reference_rows_backward(ref, idx, out.grad)
            assert new.grad.tobytes() == ref.grad.tobytes(), name

    def test_empty_gather_still_allocates_the_gradient(self):
        x = Parameter(np.ones((3, 2)), name="x")
        ref.tensor_sum(ad.rows(x, [])).backward()
        np.testing.assert_array_equal(x.grad, np.zeros((3, 2)))

    def test_gather_returns_a_copy(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = ad.rows(x, [2, 0])
        out.data[...] = -1.0
        np.testing.assert_array_equal(x.data, np.arange(6.0).reshape(3, 2))


def composed_pair_features(reps, targets, opinions, table, buckets):
    """The pair matrix as ``concat`` over three ``rows`` gathers, as an oracle."""
    targets, opinions = np.asarray(targets), np.asarray(opinions)
    parts = [ad.rows(reps, np.repeat(targets, opinions.size)),
             ad.rows(reps, np.tile(opinions, targets.size))]
    if table is not None:
        parts.append(ad.rows(table, buckets))
    return ad.concat(parts, axis=1)


def pair_cases():
    """Pools over a sentence's spans: (span count, targets, opinions, with a table)."""
    rng = np.random.default_rng(27)
    spans = len(enumerate_spans(40, 8))
    t_idx, o_idx = (rng.choice(spans, size=k, replace=False) for k in (20, 20))
    # Pools whose pair rows cross pair_linear's block boundaries.
    block = ad.PAIR_BLOCK_ROWS
    rows = 2 * block + 2
    t_wide, o_wide = (rng.choice(rows, size=block + 1, replace=False) for _ in range(2))
    return {
        "k x k pools": (spans, t_idx, o_idx, True),
        "kt != ko": (spans, t_idx[:7], o_idx[:3], True),
        "k = 1": (spans, t_idx[:1], o_idx[:1], True),
        "overlapping pools": (12, [3, 5, 7, 9], [9, 4, 3], True),
        "repeated pinned indices": (12, [2, 2, 6, 2], [6, 6, 1], True),
        "empty target pool": (12, [], [1, 2], True),
        "empty opinion pool": (12, [1, 2], [], True),
        "no distance table": (spans, t_idx[:6], o_idx[:5], False),
        "rows = one block": (rows, t_wide[:block // 16], o_wide[:16], True),
        "one target group past a block": (rows, t_wide[:block // 16 + 1], o_wide[:16], True),
        "ko > block, one target per block": (rows, t_wide[:3], o_wide, True),
        "ko = 1, kt = block + 1": (rows, t_wide, o_wide[:1], True),
        "ko = 2 across blocks": (rows, t_wide[:block // 2 + 1], o_wide[:2], True),
        "across blocks, no distance table": (rows, t_wide[:40], o_wide[:9], False),
    }


class TestPairFeatures:
    """The reference pair matrix against the rows + rows + rows + concat composition."""

    @staticmethod
    def run(op, n, targets, opinions, with_table, seed):
        rng = np.random.default_rng(seed)
        reps = Parameter(rng.normal(size=(n, 5)), name="reps")
        table = Parameter(rng.normal(size=(10, 3)), name="table") if with_table else None
        buckets = (rng.integers(0, 10, size=len(targets) * len(opinions))
                   if with_table else None)
        # The pair matrix is one of two consumers of reps, as in the model.
        other = ad.linear(reps, Tensor(rng.normal(size=(5, 2))), Tensor(np.zeros(2)))
        out = op(reps, targets, opinions, table, buckets)
        seed_grad = rng.normal(size=out.shape)
        loss = ad.add(ref.tensor_sum(ref.mul(out, Tensor(seed_grad))), ref.tensor_sum(other))
        loss.backward()
        return out.data, reps.grad, None if table is None else table.grad

    def test_matches_the_composition(self):
        for seed, (name, (n, t_idx, o_idx, with_table)) in enumerate(pair_cases().items()):
            new = self.run(ref.pair_features, n, t_idx, o_idx, with_table, seed)
            old = self.run(composed_pair_features, n, t_idx, o_idx, with_table, seed)
            assert new[0].shape == (len(t_idx) * len(o_idx), 10 + 3 * with_table), name
            assert new[0].tobytes() == old[0].tobytes(), name
            # Summing a repeated index's pair blocks first reassociates its sum;
            # with distinct pool entries the order and so the bits are the same.
            distinct = len(set(t_idx)) == len(t_idx) and len(set(o_idx)) == len(o_idx)
            for got, want in zip(new[1:], old[1:]):
                if want is not None:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)
                    assert not distinct or got.tobytes() == want.tobytes(), name

    def test_rows_are_target_major(self):
        reps = Tensor(np.arange(12.0).reshape(6, 2))
        table = Tensor(np.arange(30.0).reshape(10, 3) + 100.0)
        buckets = [0, 1, 2, 3, 4, 9]
        out = ref.pair_features(reps, [4, 1], [0, 5, 2], table, buckets)
        for a, t in enumerate([4, 1]):
            for b, o in enumerate([0, 5, 2]):
                p = a * 3 + b
                np.testing.assert_array_equal(
                    out.data[p], np.r_[reps.data[t], reps.data[o], table.data[buckets[p]]])


def materialized_pair_linear(reps, targets, opinions, table, buckets, w, b):
    """Relation layer 0 as ``linear`` over the materialized pair matrix, as an oracle."""
    return ad.linear(ref.pair_features(reps, targets, opinions, table, buckets), w, b)


class TestPairLinear:
    """``pair_linear`` against ``linear`` over the reference pair matrix."""

    @staticmethod
    def run(op, n, targets, opinions, with_table, seed):
        rng = np.random.default_rng(seed)
        reps = Parameter(rng.normal(size=(n, 5)), name="reps")
        table = Parameter(rng.normal(size=(10, 3)), name="table") if with_table else None
        buckets = (rng.integers(0, 10, size=len(targets) * len(opinions))
                   if with_table else None)
        w = Parameter(rng.normal(size=(10 + 3 * with_table, 4)), name="w")
        b = Parameter(rng.normal(size=4), name="b")
        # The pair rows are one of two consumers of reps, as in the model.
        other = ad.linear(reps, Tensor(rng.normal(size=(5, 2))), Tensor(np.zeros(2)))
        out = op(reps, targets, opinions, table, buckets, w, b)
        seed_grad = rng.normal(size=out.shape)
        loss = ad.add(ref.tensor_sum(ref.mul(out, Tensor(seed_grad))), ref.tensor_sum(other))
        loss.backward()
        return out.data, reps.grad, None if table is None else table.grad, w.grad, b.grad

    def test_matches_linear_over_the_pair_matrix(self):
        for seed, (name, (n, t_idx, o_idx, with_table)) in enumerate(pair_cases().items()):
            new = self.run(ad.pair_linear, n, t_idx, o_idx, with_table, seed)
            old = self.run(materialized_pair_linear, n, t_idx, o_idx, with_table, seed)
            assert new[0].shape == (len(t_idx) * len(o_idx), 4), name
            assert new[0].tobytes() == old[0].tobytes(), name
            # Backward sums over the pools before the GEMMs, which reassociates
            # every gradient but the bias's.
            for got, want in zip(new[1:], old[1:]):
                if want is not None:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)
            assert new[4].tobytes() == old[4].tobytes(), name

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(28)
        reps = Parameter(rng.normal(size=(6, 3)), name="reps")
        table = Parameter(rng.normal(size=(4, 2)), name="table")
        w = Parameter(rng.normal(size=(8, 5)), name="w")
        b = Parameter(rng.normal(size=5), name="b")
        weights = Tensor(rng.normal(size=(6, 5)))

        def loss():
            out = ad.pair_linear(reps, [1, 4, 1], [4, 0], table, [0, 3, 3, 1, 0, 0], w, b)
            return ref.tensor_sum(ref.mul(ref.tanh(out), weights))

        assert max_gradient_error(loss, [reps, table, w, b]) < 1e-8

    def test_second_backward_doubles_the_weight_gradient(self):
        rng = np.random.default_rng(29)
        reps = Tensor(rng.normal(size=(7, 3)))
        table = Tensor(rng.normal(size=(4, 2)))
        w = Parameter(rng.normal(size=(8, 5)), name="w")
        b = Parameter(rng.normal(size=5), name="b")

        def loss():
            out = ad.pair_linear(reps, [1, 5], [6, 0, 2], table, [0, 3, 3, 1, 0, 2], w, b)
            return ref.tensor_sum(ad.relu(out))

        loss().backward()
        once = w.grad.copy()
        loss().backward()
        np.testing.assert_array_equal(w.grad, 2.0 * once)
        assert np.any(once != 0.0)

    def test_forward_never_holds_the_pair_matrix(self):
        rng = np.random.default_rng(30)
        dim, distance, hidden, k = 1220, 128, 150, 40  # reference widths, 6+ blocks
        reps = Tensor(rng.normal(size=(2 * k, dim)))
        table = Tensor(rng.normal(size=(10, distance)))
        buckets = rng.integers(0, 10, size=k * k)
        w = Tensor(rng.normal(size=(2 * dim + distance, hidden)))
        b = Tensor(rng.normal(size=hidden))

        def forward_peak():
            tracemalloc.start()
            try:
                ad.pair_linear(reps, range(k), range(k, 2 * k), table, buckets, w, b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        matrix, block = (rows * w.shape[0] * 8 for rows in (k * k, ad.PAIR_BLOCK_ROWS))
        output = k * k * hidden * 8
        assert k * k >= 4 * ad.PAIR_BLOCK_ROWS
        first, second = forward_peak(), forward_peak()
        # One block for each of the two lanes, the output and 1 MiB of
        # small arrays: less than the matrix or two blocks per lane.
        bound = 2 * block + output + 2 ** 20
        assert bound < min(matrix, 4 * block)
        assert first < bound, (first, bound)
        # The weight keeps the block buffer, so a second forward allocates none.
        assert second < block, (second, block)

    @pytest.mark.parametrize("ffnn_hidden", [4, 300], ids=["rows_larger", "weight_larger"])
    def test_training_keeps_one_weight_buffer_for_rows_and_gradient(self, ffnn_hidden):
        # Relation layer 0's weight builds its pair rows and its gradient
        # product in the same buffer, sized for the larger of the two.
        fixture = make_fixture(np.random.default_rng(30), 1)
        model = SpanModel(ModelConfig(embedding_dim=4, lstm_hidden=3, ffnn_hidden=ffnn_hidden,
                                      width_dim=2, distance_dim=3),
                          Vocabulary.build(s.tokens for s in fixture), seed=0)
        optimizer = make_optimizer(model, TrainConfig())
        w = model.relation_ffnn.weights[0]
        train_epoch(model, fixture, optimizer, np.random.default_rng(31))
        pairs = len(model.forward(fixture[0].tokens).pairs)
        assert 4 < pairs <= min(300, ad.PAIR_BLOCK_ROWS)  # one block holds every pair row
        kept = w._scratch
        assert kept.shape == (max(pairs, ffnn_hidden) * w.shape[0],)
        train_epoch(model, fixture, optimizer, np.random.default_rng(32))
        assert w._scratch is kept


class TestWeightGradientsAccumulate:
    """A second backward without zero_grad adds, never overwrites."""

    def test_linear_weight_gradient_doubles(self):
        rng = np.random.default_rng(23)
        w = Parameter(rng.normal(size=(4, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")
        x = Tensor(rng.normal(size=(5, 4)))

        def loss():
            return ref.tensor_sum(ad.relu(ad.linear(x, w, b)))

        loss().backward()
        once = w.grad.copy()
        active = x.data @ w.data + b.data > 0
        np.testing.assert_allclose(once, x.data.T @ active, rtol=1e-13)
        np.testing.assert_array_equal(b.grad, active.sum(axis=0))
        loss().backward()
        np.testing.assert_array_equal(w.grad, 2.0 * once)
        np.testing.assert_array_equal(b.grad, 2.0 * active.sum(axis=0))

    def test_linear_weight_gradients_of_two_consumers_add(self):
        rng = np.random.default_rng(26)
        w = Parameter(rng.normal(size=(4, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")
        x1, x2 = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(2, 4)))
        ad.add(ref.tensor_sum(ad.linear(x1, w, b)),
               ref.tensor_sum(ad.relu(ad.linear(x2, w, b)))).backward()
        active = x2.data @ w.data + b.data > 0
        expected = x1.data.T @ np.ones((5, 3)) + x2.data.T @ active
        np.testing.assert_allclose(w.grad, expected, rtol=1e-13)
        np.testing.assert_array_equal(b.grad, 5.0 + active.sum(axis=0))

    def test_bilstm_weight_gradients_double(self):
        rng = np.random.default_rng(24)
        fw, bw = ([Parameter(rng.normal(size=shape), name=f"{d}.{name}")
                   for name, shape in (("w_ih", (3, 8)), ("w_hh", (2, 8)), ("bias", 8))]
                  for d in ("fw", "bw"))
        x = Tensor(rng.normal(size=(5, 3)))
        weights = Tensor(rng.normal(size=(5, 4)))

        def loss():
            return ref.tensor_sum(ref.mul(ad.bilstm(x, fw, bw), weights))

        loss().backward()
        once = [w.grad.copy() for w in fw + bw]
        loss().backward()
        for w, grad in zip(fw + bw, once):
            np.testing.assert_array_equal(w.grad, 2.0 * grad)


def _multi_parent_ops():
    rng = np.random.default_rng(41)

    def normal(*shape):
        return rng.normal(size=shape)

    return {
        "add": (ad.add, [normal(4, 3), normal(4, 3)]),
        "linear": (ad.linear, [normal(4, 3), normal(3, 2), normal(2)]),
        "concat": (lambda a, b: ad.concat([a, b], axis=1), [normal(4, 3), normal(4, 2)]),
        "pair_linear": (lambda reps, table, w, b: ad.pair_linear(
            reps, [0, 2], [1, 3, 4], table, [0, 1, 2, 3, 0, 1], w, b),
            [normal(5, 3), normal(4, 2), normal(8, 2), normal(2)]),
        "bilstm": (lambda x, *cells: ad.bilstm(x, cells[:3], cells[3:]),
                   [normal(4, 3)] + [normal(3, 8), normal(2, 8), normal(8)] * 2),
    }


# Each op whose node has more than one parent, with inputs to build it from.
MULTI_PARENT_OPS = _multi_parent_ops()


class TestBackwardContract:
    def test_first_gradient_is_a_fresh_positive_zero_buffer(self):
        # add() hands the same seed array to both inputs; each input must get
        # its own buffer, and 0.0 + (-0.0) is +0.0 as with zeros plus g.
        a = Parameter(np.ones(3), name="a")
        b = Parameter(np.ones(3), name="b")
        seed = np.array([-0.0, 2.0, -3.0])
        ad.add(a, b).backward(seed=seed)
        for x in (a, b):
            np.testing.assert_array_equal(x.grad, [0.0, 2.0, -3.0])
            assert not np.signbit(x.grad[0])
            assert not np.shares_memory(x.grad, seed)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [0.0, 2.0, -3.0])
        np.testing.assert_array_equal(seed, [-0.0, 2.0, -3.0])

    def test_first_gradient_broadcasts_to_the_tensor_shape(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        x._accumulate(np.array([1.0, -0.0, 2.0]))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 2.0]] * 2)
        assert not np.signbit(x.grad).any()

    def test_detached_input_gets_no_grad_buffer(self):
        x = Parameter([1.0, 2.0], name="x")
        y = Tensor([3.0, 4.0])
        ref.tensor_sum(ref.mul(x, y)).backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, y.data)

    @pytest.mark.parametrize("op", sorted(MULTI_PARENT_OPS))
    def test_constant_input_of_a_multi_parent_op_gets_no_grad_buffer(self, op):
        # Each input in turn is a constant: it gets no gradient, its backward
        # neither allocates nor writes its scratch buffer (a constant relation
        # weight keeps its forward's), and the other inputs' gradients keep
        # the bits they have when that input is a Parameter too.
        build, arrays = MULTI_PARENT_OPS[op]
        seed = np.random.default_rng(42).normal(size=build(*map(Tensor, arrays)).shape)

        def backward(constant):
            inputs = [Tensor(a) if i == constant else Parameter(a, name=f"p{i}")
                      for i, a in enumerate(arrays)]
            out = build(*inputs)
            if constant is not None:
                scratch = inputs[constant]._scratch
                kept = None if scratch is None else scratch.tobytes()
            out.backward(seed=seed)
            if constant is not None:
                assert inputs[constant]._scratch is scratch
                assert kept == (None if scratch is None else scratch.tobytes())
            return inputs

        every_grad = [t.grad for t in backward(None)]
        for constant in range(len(arrays)):
            inputs = backward(constant)
            assert inputs[constant].grad is None
            for i, (t, reference) in enumerate(zip(inputs, every_grad)):
                if i != constant:
                    assert t.grad.tobytes() == reference.tobytes(), (constant, i)

    def test_fully_detached_graph_is_a_no_op(self):
        x = Tensor([1.0])
        out = ref.tensor_sum(x)
        out.backward()
        assert out.grad is None and x.grad is None

    def test_forward_backward_finiteness(self):
        rng = np.random.default_rng(11)
        w = Parameter(rng.normal(size=(6, 6)), name="w")
        x = Tensor(rng.normal(size=(6, 6)))
        out = ref.tensor_sum(ref.sigmoid(ref.matmul(ref.tanh(ref.matmul(x, w)), w)))
        out.backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(w.grad).all()


def graph_ops():
    """Names of the autodiff functions that build a graph node, i.e. define a backward."""
    return {name for name, f in vars(ad).items()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and any(getattr(c, "co_name", None) == "backward" for c in f.__code__.co_consts)}


def test_every_graph_op_is_on_the_model_path(monkeypatch):
    # One training step and one prediction per span mode and channel mode
    # build every op autodiff defines, and nothing else.
    fixture = make_fixture(np.random.default_rng(30), 2)
    vocab = Vocabulary.build(s.tokens for s in fixture)
    made = record_ops(monkeypatch)
    for span_mode in SPAN_MODES:
        for channel_mode in CHANNEL_MODES:
            model = SpanModel(ModelConfig(embedding_dim=4, lstm_hidden=3, ffnn_hidden=4,
                                          width_dim=2, distance_dim=3, span_mode=span_mode,
                                          channel_mode=channel_mode), vocab, seed=0)
            train_epoch(model, fixture[:1], make_optimizer(model, TrainConfig()),
                        np.random.default_rng(31))
            model.predict(fixture[1].tokens)
    assert set(made) == graph_ops() == {"add", "bilstm", "concat", "dropout", "linear",
                                         "pair_linear", "relu", "rows", "softmax_nll",
                                         "span_pool"}


def reference_sigmoid(d: np.ndarray) -> np.ndarray:
    """The logistic function split by sign with boolean masks, as an oracle."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    s[~pos] = ez / (1.0 + ez)
    return s


class TestSigmoid:
    def test_bitwise_equal_to_masked_reference(self):
        rng = np.random.default_rng(12)
        special = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 800.0, -800.0,
                   np.inf, -np.inf]
        for d in (rng.normal(scale=4.0, size=1200), rng.normal(scale=40.0, size=32),
                  np.array(special)):
            assert ad._sigmoid(d).tobytes() == reference_sigmoid(d).tobytes()


def reference_adamw_step(params, first, second, step, lr, weight_decay,
                         betas=(0.9, 0.999), eps=1e-8):
    """Reference AdamW update as whole-array expressions, on copies the test keeps."""
    b1, b2 = betas
    bias1 = 1.0 - b1 ** step
    bias2 = 1.0 - b2 ** step
    for p, m, v in zip(params, first, second):
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data -= lr * update
        p.grad.fill(0.0)


def adamw_starts(seed):
    """Start values for the AdamW oracle: sizes around the block, then a
    Fortran-ordered and a strided parameter."""
    rng = np.random.default_rng(seed)
    block = AdamW.BLOCK
    shapes = [(1,), (block - 1,), (block,), (block + 1,), (2001, 300), (3, 2 * block + 5)]
    starts = [rng.normal(size=shape) for shape in shapes]
    starts.append(np.asfortranarray(rng.normal(size=(37, 450))))
    starts.append(rng.normal(size=(40, 900))[:, ::3])
    return starts


class TestAdamW:
    def test_zero_gradient_zero_decay_is_fixed_point(self):
        p = Parameter([1.5, -2.0], name="p")
        before = p.data.copy()
        opt = AdamW([p], lr=1e-3)
        opt.zero_grad()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_matches_hand_computation(self):
        p = Parameter([1.0], name="p")
        opt = AdamW([p], lr=1e-3)
        opt.zero_grad()
        p.grad[...] = 1.0
        opt.step()
        # One update with g=1: m-hat = 1, v-hat = 1, so the step is lr / (1 + eps).
        expected = 1.0 - 1e-3 / (1.0 + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-15)
        np.testing.assert_array_equal(p.grad, [0.0])  # zeroed afterwards

    def test_decoupled_weight_decay_applies_without_gradient_signal(self):
        p = Parameter([2.0], name="p")
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_two_steps_replay_identically(self):
        def run():
            p = Parameter([0.3, -0.7], name="p")
            opt = AdamW([p], lr=1e-3)
            for g in ([1.0, -2.0], [0.5, 0.5]):
                opt.zero_grad()
                p.grad[...] = g
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_matches_reference_adamw_trajectory(self):
        torch = pytest.importorskip("torch")
        rng = np.random.default_rng(12)
        start = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(5)]

        p = Parameter(start.copy(), name="p")
        opt = AdamW([p], lr=1e-2, weight_decay=0.03)
        for g in grads:
            opt.zero_grad()
            p.grad[...] = g
            opt.step()

        ref_p = torch.nn.Parameter(torch.from_numpy(start.copy()))
        ref = torch.optim.AdamW([ref_p], lr=1e-2, betas=(0.9, 0.999), eps=1e-8,
                                weight_decay=0.03)
        for g in grads:
            ref.zero_grad()
            ref_p.grad = torch.from_numpy(g)
            ref.step()
        np.testing.assert_allclose(p.data, ref_p.detach().numpy(), atol=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.03])
    def test_blocked_step_matches_whole_array_reference(self, weight_decay):
        # Parameters wrap their start arrays, so layouts carry over to both sides.
        params = [Parameter(a, name=f"p{i}") for i, a in enumerate(adamw_starts(25))]
        refs = [Parameter(a, name=f"r{i}") for i, a in enumerate(adamw_starts(25))]
        assert params[-2].data.flags.f_contiguous and not params[-2].data.flags.c_contiguous
        assert not params[-1].data.flags.forc
        opt = AdamW(params, lr=1e-2, weight_decay=weight_decay)
        first = [np.zeros_like(r.data) for r in refs]
        second = [np.zeros_like(r.data) for r in refs]
        rng = np.random.default_rng(26)
        for step in range(1, 4):
            for p, r in zip(params, refs):
                p.grad = rng.normal(size=p.shape)
                r.grad = p.grad.copy()
            opt.step()
            reference_adamw_step(refs, first, second, step, 1e-2, weight_decay)
            for i, (p, r) in enumerate(zip(params, refs)):
                assert p.data.tobytes() == r.data.tobytes(), (step, i)
                assert opt.first_moment[i].tobytes() == first[i].tobytes(), (step, i)
                assert opt.second_moment[i].tobytes() == second[i].tobytes(), (step, i)
                assert not p.grad.any()

    def test_missing_gradient_is_an_error(self):
        p = Parameter([1.0], name="p")
        opt = AdamW([p])
        with pytest.raises(TrainingStateError, match="p"):
            opt.step()


class TestXavierInit:
    def test_same_seed_is_identical(self):
        a = ad.xavier_init((20, 30), np.random.default_rng(1))
        b = ad.xavier_init((20, 30), np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)

    def test_sampled_variance(self):
        w = ad.xavier_init((1000, 1000), np.random.default_rng(2))
        target = 2.0 / 2000.0
        assert abs(w.var() - target) < 0.1 * target

    def test_smallest_config_dims_give_non_empty_matrices(self):
        # xavier_init trusts its shape; every size comes from a config dim >= 1.
        config = ModelConfig(embedding_dim=1, lstm_hidden=1, ffnn_hidden=1, width_dim=1,
                             distance_dim=1)
        model = SpanModel(config, Vocabulary.build([["a"]]), seed=0)
        matrices = [p for p in model.parameters() if p.data.ndim == 2]
        assert len(matrices) >= 4
        assert all(min(p.shape) >= 1 and np.isfinite(p.data).all() for p in matrices)
        assert model.forward(["a", "b"]).mention_probs.shape[1] == 3
