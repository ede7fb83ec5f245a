"""Forwards that nothing differentiates run under ``no_grad`` and keep no graph.

Inside the context every op returns a leaf holding the same bits as the
graph forward's, so ``SpanModel.predict`` and ``evaluation.corpus_pass``
free each op's saved arrays as it returns. A training forward must never
run under it, which the source check at the end holds in place.
"""

import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import spantriplet
from spantriplet import autodiff as ad
from spantriplet.autodiff import Parameter, Tensor
from spantriplet.data import make_fixture
from spantriplet.encoder import SPAN_MODES, Vocabulary
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.pruning import CHANNEL_MODES
from spantriplet.training import compute_loss
from spantriplet.triplet import decode_triplets

SMALL = dict(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5, width_dim=3, distance_dim=3)


def small_model(fixture, **config):
    return SpanModel(ModelConfig(**SMALL, **config),
                     Vocabulary.build(s.tokens for s in fixture), seed=0)


def records_graph() -> bool:
    """Whether an op run now records its parents."""
    return ad.relu(Parameter(np.ones(2), name="p")).requires_grad


class TestContext:
    def test_ops_inside_record_nothing(self):
        x = Parameter(np.array([[1.0, -2.0]]), name="x")
        w = Parameter(np.eye(2), name="w")
        b = Parameter(np.zeros(2), name="b")
        with ad.no_grad():
            out = ad.relu(ad.linear(x, w, b))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])
        out.backward(seed=np.ones(out.shape))
        assert x.grad is None and w.grad is None and b.grad is None

    def test_nests_and_restores(self):
        assert records_graph()
        with ad.no_grad():
            with ad.no_grad():
                assert not records_graph()
            assert not records_graph()
        assert records_graph()

    def test_restores_after_an_error(self):
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert records_graph()
        with ad.no_grad():
            with pytest.raises(RuntimeError):
                with ad.no_grad():
                    raise RuntimeError("inner")
            assert not records_graph()
        assert records_graph()


class TestModelForward:
    def test_outputs_have_no_parents(self):
        fixture = make_fixture(np.random.default_rng(60), 1)
        model = small_model(fixture)
        with ad.no_grad():
            output = model.forward(fixture[0].tokens)
        for tensor in (output.span_reps, output.mention_logits, output.relation_logits):
            assert isinstance(tensor, Tensor)
            assert not tensor.requires_grad
            assert tensor._parents == () and tensor._backward is None

    @pytest.mark.parametrize("channel_mode", CHANNEL_MODES)
    @pytest.mark.parametrize("span_mode", SPAN_MODES)
    def test_probabilities_match_the_graph_forward_bitwise(self, span_mode, channel_mode):
        fixture = make_fixture(np.random.default_rng(61), 3)
        model = small_model(fixture, span_mode=span_mode, channel_mode=channel_mode)
        for sentence in fixture:
            graph = model.forward(sentence.tokens)
            assert graph.relation_logits.requires_grad
            with ad.no_grad():
                plain = model.forward(sentence.tokens)
            assert plain.mention_probs.tobytes() == graph.mention_probs.tobytes()
            assert plain.relation_probs.tobytes() == graph.relation_probs.tobytes()
            assert plain.pairs == graph.pairs
            assert model.predict(sentence.tokens) == decode_triplets(graph.pair_spans,
                                                                     graph.relation_probs)

    def test_training_forward_after_predict_backpropagates_to_every_parameter(self):
        fixture = make_fixture(np.random.default_rng(62), 2)
        sentence = fixture[0]
        model, twin = small_model(fixture), small_model(fixture)
        model.predict(sentence.tokens)
        grads = []
        for m in (model, twin):
            output = m.forward(sentence.tokens, training=True, rng=np.random.default_rng(63))
            compute_loss(output, sentence, m.config.channel_mode).total.backward()
            grads.append([p.grad for p in m.parameters()])
        assert all(g is not None for g in grads[0])
        assert [g.tobytes() for g in grads[0]] == [g.tobytes() for g in grads[1]]


def test_threads_keep_their_own_buffer_and_graph_state():
    # Two threads train while two predict, switching as often as the
    # interpreter allows: a buffer or a no_grad state shared between
    # threads would change a trainer's gradient bits or drop its graph.
    fixture = make_fixture(np.random.default_rng(64), 2)
    sentence = fixture[0]

    def gradients(model):
        model.zero_grad()
        output = model.forward(sentence.tokens)
        assert output.relation_logits.requires_grad
        compute_loss(output, sentence, model.config.channel_mode).total.backward()
        return [p.grad.tobytes() for p in model.parameters()]

    reference = gradients(small_model(fixture))
    failures: list[BaseException] = []

    def run(work):
        try:
            for _ in range(20):
                work()
        except BaseException as exc:  # handed to the main thread, which fails the test
            failures.append(exc)

    def train():
        model = small_model(fixture)

        def step():
            assert gradients(model) == reference

        run(step)

    def predict():
        model = small_model(fixture)
        run(lambda: model.predict(sentence.tokens))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for work in (train, predict, train, predict)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures


# ---------------------------------------------------------------------------
# Which library forwards run without a graph
# ---------------------------------------------------------------------------

NO_GRAD_FORWARDS = {"model.SpanModel.predict": True, "evaluation.corpus_pass": True,
                    "training.train_epoch": False}


def is_no_grad(item: ast.withitem) -> bool:
    call = item.context_expr
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    return (func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None) == "no_grad"


def forward_calls(tree: ast.Module, module: str) -> dict[str, list[bool]]:
    """Qualified function -> for each ``.forward(...)`` call in it, whether a ``no_grad`` encloses it."""
    found: dict[str, list[bool]] = {}

    def visit(node: ast.AST, scope: str, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope, guarded = f"{scope}.{node.name}", False
        if isinstance(node, ast.With) and any(map(is_no_grad, node.items)):
            guarded = True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "forward"):
            found.setdefault(scope, []).append(guarded)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, guarded)

    visit(tree, module, False)
    return found


def test_inference_forwards_run_under_no_grad_and_training_never_does():
    calls: dict[str, list[bool]] = {}
    for path in sorted(Path(spantriplet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls.update(forward_calls(tree, path.stem))
    for function, guarded in NO_GRAD_FORWARDS.items():
        assert calls.get(function), f"{function} calls no forward"
        assert all(g == guarded for g in calls[function]), (function, calls[function])
