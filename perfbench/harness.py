"""The three workloads, their output checks, and the traced per-layer run.

Every workload is a closed loop with one caller: the next sentence starts
when the previous one is done. ``run.py`` parses the command line, pins
the BLAS threads and imports this module.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import spantriplet
from spantriplet.autodiff import AdamW
from spantriplet.evaluation import (evaluate_model, gold_triplet_sets,
                                    mention_prf_from_triplets, predictions_to_keys,
                                    triplet_prf)
from spantriplet.model import SpanModel
from spantriplet.training import (TrainConfig, assign_relation_labels, compute_loss,
                                  make_optimizer, train_epoch)
from spantriplet.triplet import RELATION_INVALID, SENTIMENT_TAGS, decode_triplets

from stages import (BACKWARD_STAGES, FORWARD_STAGES, StageClock, graph_nodes,
                    staged_backward, staged_forward, staged_loss)
from workloads import (LONG_LENGTHS, SPAN_MODES, TRAIN_LENGTHS, benchmark_vocabulary,
                       make_corpus, reference_model, tiny_instances)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 20210726   # inputs of the committed reference outputs

MIN_TIMED = 100             # a p90 needs ten samples beyond it
SETUP_REPEATS = 3           # at least; cheap set-ups repeat up to SETUP_BUDGET_S
SETUP_BUDGET_S = 0.5
PREDICT_SHARE = 0.75        # infer-long: the rest of the window runs evaluate_model
EVAL_CHUNK = 4              # sentences per evaluate_model call
FD_STEPS = (1e-5, 1e-6, 1e-7)  # acceptance criterion 1 uses the first
FD_TOLERANCE = 1e-4            # acceptance criterion 1
TRACED_FD_EVALS = 40        # traced grad-tiny: paired loss evaluations per instance

# Tolerances of the committed references. Exact reformulations (another
# summation order, another sigmoid formula) moved these by about 1e-16; a
# sigmoid gradient 1% too large moved the second step's loss by 7e-6 and
# the gradient norms by 1e-3.
LOSS_RTOL = 1e-8
GRAD_NORM_RTOL = 1e-9
PROB_ATOL = 1e-9
COVERAGE_BOUNDS = (0.9, 1.0)  # stage times over the whole traced step

TRAIN_OP_STAGES = FORWARD_STAGES + ("training.loss_fwd",) + BACKWARD_STAGES + (
    "autodiff.adamw_step",)
PREDICT_OP_STAGES = FORWARD_STAGES + ("triplet.decode",)
LOSS_OP_STAGES = FORWARD_STAGES + ("training.loss_fwd",)


# The issue-level end-to-end figures, with the workload that measures each.
REPORTED = {
    "train_sents_per_s": "train-ref", "train_step_ms_p50": "train-ref",
    "train_step_ms_p90": "train-ref",
    "predict_sents_per_s": "infer-long", "predict_ms_p50": "infer-long",
    "predict_ms_p90": "infer-long", "eval_sents_per_s": "infer-long",
    "fd_evals_per_s": "grad-tiny",
}


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tmpdir: str
    attempted: int = 0
    failed: int = 0
    gated: dict = field(default_factory=dict)      # BENCHMARK.json end_to_end
    reported: dict = field(default_factory=dict)   # issue-level names
    layers: dict = field(default_factory=dict)     # BENCHMARK.json per_layer
    stage_ms: dict = field(default_factory=dict)   # stage -> per-call milliseconds
    counts: dict = field(default_factory=dict)     # per-layer count -> samples
    ratios: dict = field(default_factory=dict)     # per-layer ratio -> [hits, total]
    setup_s: list = field(default_factory=list)
    coverage: list = field(default_factory=list)
    overhead: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"# check failed: {what}", file=sys.stderr)

    def add_stages(self, clock: StageClock, names) -> None:
        for name in names:
            if name in clock.seconds:
                self.stage_ms.setdefault(name, []).append(1e3 * clock.seconds[name])

    def add_count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def add_ratio(self, name: str, hits: int, total: int) -> None:
        acc = self.ratios.setdefault(name, [0, 0])
        acc[0] += hits
        acc[1] += total

    def add_traced_op(self, clock: StageClock, op_stages, whole_s: float) -> None:
        self.add_stages(clock, op_stages)
        self.coverage.append(clock.total(op_stages) / whole_s)

    def paired(self, index: int, untraced, traced):
        """Run the workload's operation and, in a traced run, its staged twin.

        Both callables return (seconds, result). Which one runs first
        alternates, so neither always finds the caches warm; the ratio of
        their times is the tracing overhead.
        """
        if not self.trace:
            return untraced(), None
        if index % 2:
            second = traced()
            first = untraced()
        else:
            first = untraced()
            second = traced()
        self.overhead.append(second[0] / first[0] - 1.0)
        return first, second


def ms(seconds: float) -> float:
    return 1e3 * seconds


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def timed_setup(run: Run, build):
    """Run ``build`` several times and return the last result.

    Workloads call this again after the window, so the reported median
    mixes set-ups from both ends of the run.
    """
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < 25):
        seconds, state = timed(build)
        times.append(seconds)
    run.setup_s += times
    return state


def latency_metrics(run: Run, op_s: list, rate_name: str, p50_name: str,
                    p90_name: str) -> None:
    """Operations per second of the one caller, and per-operation percentiles."""
    op_ms = [ms(t) for t in op_s]
    n = len(op_ms)
    rate = Metric(n / sum(op_s), "1/s", n)
    p50 = Metric(float(np.percentile(op_ms, 50)), "ms", n)
    p90 = Metric(float(np.percentile(op_ms, 90)), "ms", n)
    run.gated.update(sents_per_s=rate, sent_ms_p50=p50, sent_ms_p90=p90)
    run.reported.update({rate_name: rate, p50_name: p50, p90_name: p90})


def window_open(start: float, seconds: float, done: int, minimum: int) -> bool:
    return time.perf_counter() - start < seconds or done < minimum


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def close(a, b, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                            rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# Outputs shared by the traced runs
# ---------------------------------------------------------------------------

def record_pools(run: Run, output, sentence, pair_dim: int) -> None:
    """Pool sizes and how much of the gold survives pruning, for one forward."""
    pairs = len(output.pairs)
    run.add_count("pruning.candidates", len(output.spans))
    run.add_count("pruning.pool_k", len(output.target_pool))
    run.add_count("triplet.pairs", pairs)
    run.add_count("triplet.pair_matrix_mb", pairs * pair_dim * 8 / 2**20)
    gold_t, gold_o = sentence.target_spans(), sentence.opinion_spans()
    kept = (len(gold_t & {c.span for c in output.target_pool})
            + len(gold_o & {c.span for c in output.opinion_pool}))
    run.add_ratio("pruning.gold_kept_ratio", kept, len(gold_t) + len(gold_o))
    labels = assign_relation_labels(sentence, output.pairs)
    run.add_ratio("triplet.gold_pair_ratio",
                  sum(label != RELATION_INVALID for label in labels), pairs)


def library_forward(run: Run, model: SpanModel, sentence, pools=None) -> None:
    """One untraced ``SpanModel.forward``: its time and the size of its loss graph."""
    start = time.perf_counter()
    output = model.forward(sentence.tokens, pools=pools)
    run.add_count("model.forward_ms", ms(time.perf_counter() - start))
    loss = compute_loss(output, sentence, model.config.channel_mode).total
    run.add_count("autodiff.graph_nodes", graph_nodes(loss))


def evaluate(run: Run, model: SpanModel, sentences) -> dict:
    """evaluate_model; the traced run counts the forwards of the benchmark's model."""
    if not run.trace:
        return evaluate_model(model, sentences)
    calls = [0]
    forward = model.forward

    def counting_forward(*args, **kwargs):
        calls[0] += 1
        return forward(*args, **kwargs)

    model.forward = counting_forward
    try:
        start = time.perf_counter()
        report = evaluate_model(model, sentences)
        elapsed = time.perf_counter() - start
    finally:
        del model.forward
    run.add_ratio("evaluation.forwards_per_sent", calls[0], len(sentences))
    run.add_ratio("evaluation.eval_ms_per_sent", ms(elapsed), len(sentences))
    return report


def traced_checkpoint_load(run: Run, model: SpanModel) -> None:
    path = os.path.join(run.tmpdir, "traced.ckpt.npz")
    model.save(path)
    start = time.perf_counter()
    SpanModel.load(path)
    run.add_count("autodiff.checkpoint_load_ms", ms(time.perf_counter() - start))
    os.unlink(path)


# ---------------------------------------------------------------------------
# train-ref: train_epoch, one sentence per step, dropout on, AdamW
# ---------------------------------------------------------------------------

def train_reference_outputs(vocab) -> dict:
    """Gradient norms at initialisation and the losses of five training steps."""
    corpus = make_corpus(REFERENCE_SEED, 5, TRAIN_LENGTHS)
    model = reference_model(vocab)
    first = corpus[0]
    compute_loss(model.forward(first.tokens), first).total.backward()
    grad_norms = {p.name: float(np.linalg.norm(p.grad)) for p in model.parameters()}
    optimizer = make_optimizer(model, TrainConfig())
    rng = np.random.default_rng(REFERENCE_SEED)
    losses = [train_epoch(model, [s], optimizer, rng).mean_loss for s in corpus]
    return {"grad_norms": grad_norms, "losses": losses}


def check_train_reference(run: Run, vocab, reference: dict) -> None:
    got = train_reference_outputs(vocab)
    run.check(len(got["losses"]) == len(reference["losses"]), "reference step count")
    for i, (loss, want) in enumerate(zip(got["losses"], reference["losses"])):
        run.check(close(loss, want, rtol=LOSS_RTOL), f"reference loss {i}: {loss!r} != {want!r}")
    for name, want in reference["grad_norms"].items():
        norm = got["grad_norms"].get(name, math.nan)
        run.check(close(norm, want, rtol=GRAD_NORM_RTOL),
                  f"reference gradient norm of {name}: {norm!r} != {want!r}")


def traced_train_step(run: Run, model: SpanModel, sentence, optimizer: AdamW,
                      rng: np.random.Generator) -> tuple[float, None]:
    clock = StageClock()
    start = time.perf_counter()
    optimizer.zero_grad()
    staged = staged_forward(model, sentence.tokens, clock, training=True, rng=rng)
    loss = staged_loss(staged, sentence, model.config.channel_mode, clock).total.item()
    staged_backward(staged, clock)
    with clock("autodiff.adamw_step"):
        optimizer.step()
    whole_s = time.perf_counter() - start
    run.add_traced_op(clock, TRAIN_OP_STAGES, whole_s)
    run.check(math.isfinite(loss) and loss > 0, f"traced loss {loss} on sentence {sentence.id}")
    with clock("triplet.decode"):
        decode_triplets(staged.output.pair_spans, staged.output.relation_probs)
    run.add_stages(clock, ("triplet.decode",))
    record_pools(run, staged.output, sentence, model.config.pair_vector_dim)
    library_forward(run, model, sentence)
    return whole_s, None


def train_ref(run: Run) -> None:
    check_train_reference(run, benchmark_vocabulary(), load_reference()["train-ref"])
    count = max(MIN_TIMED, math.ceil(8 * run.seconds))

    def build():
        corpus = make_corpus(run.seed, count, TRAIN_LENGTHS)
        model = reference_model(benchmark_vocabulary())
        return corpus, model, make_optimizer(model, TrainConfig())

    corpus, model, optimizer = timed_setup(run, build)
    rng = np.random.default_rng(run.seed)
    steps: list[float] = []
    start = time.perf_counter()
    while window_open(start, run.seconds, len(steps), 0 if run.trace else MIN_TIMED):
        sentence = corpus[len(steps) % len(corpus)]
        (step_s, stats), _ = run.paired(
            len(steps), lambda: timed(train_epoch, model, [sentence], optimizer, rng),
            lambda: traced_train_step(run, model, sentence, optimizer, rng))
        steps.append(step_s)
        run.check(math.isfinite(stats.mean_loss) and stats.mean_loss > 0,
                  f"loss {stats.mean_loss} on sentence {sentence.id}")
    latency_metrics(run, steps, "train_sents_per_s", "train_step_ms_p50", "train_step_ms_p90")
    timed_setup(run, build)
    if run.trace:
        evaluate(run, model, corpus[:EVAL_CHUNK])
        traced_checkpoint_load(run, model)


# ---------------------------------------------------------------------------
# infer-long: checkpoint load, SpanModel.predict, then evaluate_model
# ---------------------------------------------------------------------------

def triplet_digest(triplets) -> dict:
    """Exact fingerprint of the decoded spans and labels, plus their probabilities."""
    keys = json.dumps([[t.target, t.opinion, t.sentiment] for t in triplets])
    probs = np.array([t.probability for t in triplets])
    sketch = np.random.default_rng(REFERENCE_SEED).standard_normal(len(probs))
    return {"count": len(triplets), "sha256": hashlib.sha256(keys.encode()).hexdigest(),
            "probabilities": [float(probs.sum()), float(sketch @ probs)]}


def infer_reference_outputs(model: SpanModel) -> list[dict]:
    """Decoded triplets, sketches of every relation probability, and the eval report."""
    sentences = make_corpus(REFERENCE_SEED, 2, LONG_LENGTHS)
    outputs = []
    for sentence in sentences:
        probs = model.forward(sentence.tokens).relation_probs
        projection = np.random.default_rng(REFERENCE_SEED).standard_normal((2, len(probs)))
        outputs.append({
            "triplets": triplet_digest(model.predict(sentence.tokens)),
            "relation_prob_sums": probs.sum(axis=0).tolist(),
            "relation_prob_sketch": (projection @ probs).ravel().tolist(),
        })
    outputs.append({"evaluate_model": evaluate_model(model, sentences)})
    return outputs


def check_infer_reference(run: Run, model: SpanModel, reference: list) -> None:
    got = infer_reference_outputs(model)
    run.check(len(got) == len(reference), "reference sentence count")
    for i, (out, want) in enumerate(zip(got[:-1], reference[:-1])):
        digest, want_digest = out["triplets"], want["triplets"]
        run.check(digest["count"] == want_digest["count"]
                  and digest["sha256"] == want_digest["sha256"],
                  f"reference sentence {i}: decoded triplets differ")
        for got_values, want_values in ((digest["probabilities"], want_digest["probabilities"]),
                                        (out["relation_prob_sums"], want["relation_prob_sums"]),
                                        (out["relation_prob_sketch"],
                                         want["relation_prob_sketch"])):
            run.check(close(got_values, want_values, atol=PROB_ATOL),
                      f"reference sentence {i}: relation probabilities differ")
    run.check(got[-1] == reference[-1], "reference evaluate_model report differs")


def valid_triplets(triplets, n: int, max_gap: int) -> bool:
    def span_ok(span):
        return 0 <= span[0] <= span[1] < n and span[1] - span[0] <= max_gap

    return all(span_ok(t.target) and span_ok(t.opinion) and t.sentiment in SENTIMENT_TAGS
               and 0.25 <= t.probability <= 1.0 for t in triplets)


def check_evaluation(run: Run, report: dict, chunk, predictions: dict) -> None:
    """evaluate_model must score exactly what SpanModel.predict returned."""
    preds = {s.id: predictions[s.id] for s in chunk}
    expected = triplet_prf(gold_triplet_sets(chunk), predictions_to_keys(preds)).as_dict()
    ok = report["triplet"]["all"] == expected and all(
        report["mention_from_triplets"][task]
        == mention_prf_from_triplets(preds, chunk, task).as_dict() for task in ("ATE", "OTE"))
    run.check(ok, f"evaluate_model disagrees with predict on sentences {[s.id for s in chunk]}")


def traced_predict(run: Run, model: SpanModel, sentence, optimizer: AdamW,
                   saved: dict) -> tuple[float, list]:
    clock = StageClock()
    start = time.perf_counter()
    staged = staged_forward(model, sentence.tokens, clock)
    with clock("triplet.decode"):
        staged_triplets = decode_triplets(staged.output.pair_spans,
                                          staged.output.relation_probs)
    whole_s = time.perf_counter() - start
    run.add_traced_op(clock, PREDICT_OP_STAGES, whole_s)
    record_pools(run, staged.output, sentence, model.config.pair_vector_dim)
    # Backward and AdamW are not part of inference; time them on these
    # shapes for the per-layer table, then put the fixed model back.
    staged_loss(staged, sentence, model.config.channel_mode, clock)
    staged_backward(staged, clock)
    with clock("autodiff.adamw_step"):
        optimizer.step()
    run.add_stages(clock, ("training.loss_fwd",) + BACKWARD_STAGES + ("autodiff.adamw_step",))
    model.load_state_arrays(saved)
    library_forward(run, model, sentence)
    return whole_s, staged_triplets


def infer_long(run: Run) -> None:
    count = max(MIN_TIMED, math.ceil(6 * run.seconds))
    path = os.path.join(run.tmpdir, "model.ckpt.npz")
    load_s: list[float] = []

    def build():
        corpus = make_corpus(run.seed, count, LONG_LENGTHS)
        reference_model(benchmark_vocabulary()).save(path)
        start = time.perf_counter()
        model = SpanModel.load(path)
        load_s.append(time.perf_counter() - start)
        return corpus, model

    corpus, model = timed_setup(run, build)
    check_infer_reference(run, model, load_reference()["infer-long"])
    if run.trace:
        saved = model.state_arrays()
        optimizer = make_optimizer(model, TrainConfig())

    predictions: dict = {}
    op_s: list[float] = []
    start = time.perf_counter()
    while window_open(start, PREDICT_SHARE * run.seconds, len(op_s),
                      0 if run.trace else MIN_TIMED):
        sentence = corpus[len(op_s) % len(corpus)]
        (predict_s, triplets), traced = run.paired(
            len(op_s), lambda: timed(model.predict, sentence.tokens),
            lambda: traced_predict(run, model, sentence, optimizer, saved))
        op_s.append(predict_s)
        run.check(valid_triplets(triplets, len(sentence.tokens), model.config.max_span_gap),
                  f"malformed triplets on sentence {sentence.id}")
        if traced is not None:
            run.check(traced[1] == triplets, f"staged predict differs on sentence {sentence.id}")
        predictions[sentence.id] = triplets
    latency_metrics(run, op_s, "predict_sents_per_s", "predict_ms_p50", "predict_ms_p90")

    predicted = corpus[:min(len(op_s), len(corpus))]
    evaluated = 0
    eval_start = time.perf_counter()
    while evaluated == 0 or time.perf_counter() - start < run.seconds:
        chunk = [predicted[(evaluated + k) % len(predicted)] for k in range(EVAL_CHUNK)]
        check_evaluation(run, evaluate(run, model, chunk), chunk, predictions)
        evaluated += len(chunk)
    run.reported["eval_sents_per_s"] = Metric(
        evaluated / (time.perf_counter() - eval_start), "1/s", evaluated)
    timed_setup(run, build)
    for seconds in load_s:
        run.add_count("autodiff.checkpoint_load_ms", ms(seconds))


# ---------------------------------------------------------------------------
# grad-tiny: central finite differences over every parameter, pools pinned
# ---------------------------------------------------------------------------

def finite_differences(model: SpanModel, sentence, times: list):
    """Check backward() against central differences, one parameter entry per step.

    A generator: each ``next`` evaluates the loss at +h and -h for one
    entry and appends both timings to ``times``. It returns the worst
    relative error and the pinned pools. Pools are fixed at the current
    scores, so both sides see the same differentiable function.

    A central difference that straddles a ReLU or max-pool kink is no
    oracle for the one-sided gradient, so an entry over the tolerance is
    measured again with smaller steps: a kink crossing does not survive
    them, a wrong gradient does.
    """
    base = model.forward(sentence.tokens)
    pools = ([c.index for c in base.target_pool], [c.index for c in base.opinion_pool])

    def loss():
        return compute_loss(model.forward(sentence.tokens, pools=pools), sentence).total

    params = model.parameters()
    for p in params:
        p.grad = None
    loss().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    def relative_error(flat, i, analytic_i, step):
        saved = flat[i]
        flat[i] = saved + step
        t0 = time.perf_counter()
        f_plus = loss().item()
        t1 = time.perf_counter()
        flat[i] = saved - step
        f_minus = loss().item()
        t2 = time.perf_counter()
        flat[i] = saved
        times.extend((t1 - t0, t2 - t1))
        numeric = (f_plus - f_minus) / (2.0 * step)
        return abs(analytic_i - numeric) / max(1.0, abs(analytic_i), abs(numeric))

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.ravel()
        flat_grad = grad.ravel()
        for i in range(flat.size):
            for step in FD_STEPS:
                error = relative_error(flat, i, flat_grad[i], step)
                if error < FD_TOLERANCE:
                    break
            worst = max(worst, error)
            yield
    return worst, pools


def traced_instance(run: Run, model: SpanModel, sentence, pools) -> None:
    channel = model.config.channel_mode

    def library_loss():
        return compute_loss(model.forward(sentence.tokens, pools=pools), sentence,
                            channel).total.item()

    def traced_loss():
        clock = StageClock()
        start = time.perf_counter()
        staged = staged_forward(model, sentence.tokens, clock, pools=pools)
        loss = staged_loss(staged, sentence, channel, clock).total.item()
        whole_s = time.perf_counter() - start
        run.add_traced_op(clock, LOSS_OP_STAGES, whole_s)
        return whole_s, (loss, staged)

    for i in range(TRACED_FD_EVALS):
        (_, expected), (_, (loss, staged)) = run.paired(i, lambda: timed(library_loss),
                                                        traced_loss)
        run.check(loss == expected, f"staged loss {loss!r} != {expected!r}")
    clock = StageClock()
    with clock("triplet.decode"):
        decode_triplets(staged.output.pair_spans, staged.output.relation_probs)
    model.zero_grad()
    staged_backward(staged, clock)
    with clock("autodiff.adamw_step"):
        AdamW(model.parameters()).step()
    run.add_stages(clock, ("triplet.decode",) + BACKWARD_STAGES + ("autodiff.adamw_step",))
    record_pools(run, staged.output, sentence, model.config.pair_vector_dim)
    library_forward(run, model, sentence, pools)
    evaluate(run, model, [sentence])
    traced_checkpoint_load(run, model)


def grad_tiny(run: Run) -> None:
    def build():
        return tiny_instances(run.seed, max(len(SPAN_MODES), math.ceil(run.seconds)))

    instances = timed_setup(run, build)
    # One instance per span mode is in flight, and they advance round-robin,
    # so wherever the window closes the timed evaluations mix the three
    # modes evenly. Instances still open at the deadline are not checked.
    modes = len(SPAN_MODES)
    queues = [itertools.cycle(instances[mode::modes]) for mode in range(modes)]
    evals: list[float] = []
    checked = 0

    def begin(queue):
        model, sentence = next(queue)
        return model, sentence, finite_differences(model, sentence, evals)

    flight = [begin(queue) for queue in queues]
    start = time.perf_counter()
    while checked == 0 or time.perf_counter() - start < run.seconds:
        for slot, (model, sentence, steps) in enumerate(flight):
            try:
                next(steps)
                continue
            except StopIteration as done:
                worst, pools = done.value
            run.check(worst < FD_TOLERANCE, f"instance {checked} ({model.config.span_mode}): "
                                            f"worst relative error {worst:.2e}")
            checked += 1
            if run.trace:
                traced_instance(run, model, sentence, pools)
            flight[slot] = begin(queues[slot])
    latency_metrics(run, evals, "fd_evals_per_s", "fd_eval_ms_p50", "fd_eval_ms_p90")
    timed_setup(run, build)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

GATED = (("setup_s", "s"), ("sents_per_s", "1/s"), ("sent_ms_p50", "ms"),
         ("sent_ms_p90", "ms"), ("peak_rss_mb", "MiB"))

PER_LAYER = tuple(
    (f"{stage}_ms", "ms")
    for stage in LOSS_OP_STAGES + BACKWARD_STAGES + ("triplet.decode",)) + (
    ("pruning.candidates", "count"), ("pruning.pool_k", "count"),
    ("pruning.gold_kept_ratio", "ratio"), ("triplet.pairs", "count"),
    ("triplet.pair_matrix_mb", "MiB-computed"), ("triplet.gold_pair_ratio", "ratio"),
    ("autodiff.adamw_step_ms", "ms"), ("autodiff.graph_nodes", "count"),
    ("autodiff.checkpoint_load_ms", "ms"), ("evaluation.forwards_per_sent", "count"),
    ("evaluation.eval_ms_per_sent", "ms"), ("model.forward_ms", "ms"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)
UNITS = dict(PER_LAYER)


def layer_metrics(run: Run) -> None:
    """Medians of the traced samples, plus the coverage sanity check."""
    samples = {f"{stage}_ms": values for stage, values in run.stage_ms.items()}
    samples.update(run.counts)
    samples["trace.coverage"] = run.coverage
    samples["trace.overhead"] = run.overhead
    for name, values in samples.items():
        run.layers[name] = Metric(statistics.median(values), UNITS[name], len(values))
    for name, (hits, total) in run.ratios.items():
        if total:
            run.layers[name] = Metric(hits / total, UNITS[name], total)
    coverage = run.layers["trace.coverage"].value
    low, high = COVERAGE_BOUNDS
    run.check(low <= coverage <= high,
              f"stages cover {coverage:.3f} of the traced step, outside [{low}, {high}]")
    missing = [name for name, _ in PER_LAYER if name not in run.layers]
    run.check(not missing, f"per-layer metrics not measured: {missing}")


def machine_facts(run: Run) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "spantriplet": spantriplet.__version__,
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.trace),
    }


def print_metric(name: str, metric) -> None:
    if metric is None:
        print(f"# {name:<30} n/a (measured on {REPORTED.get(name, 'no workload here')})")
    else:
        print(f"# {name:<30} {metric.value:<14.6g} {metric.unit:<13} n={metric.samples}")


def finish(run: Run) -> dict:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.gated["peak_rss_mb"] = Metric(peak, "MiB", 1)
    run.gated["setup_s"] = Metric(statistics.median(run.setup_s), "s", len(run.setup_s))
    if run.trace:
        layer_metrics(run)
    error_rate = Metric(run.failed / max(run.attempted, 1), "ratio", run.attempted)
    print("# end-to-end (BENCHMARK.json):")
    for name, _ in GATED:
        print_metric(name, run.gated[name])
    print("# end-to-end (issue names):")
    print_metric("setup_s", run.gated["setup_s"])
    for name in REPORTED:
        print_metric(name, run.reported.get(name))
    print_metric("peak_rss_mb", run.gated["peak_rss_mb"])
    print_metric("error_rate", error_rate)
    if run.trace:
        print("# per-layer (traced run):")
        for name, _ in PER_LAYER:
            print_metric(name, run.layers.get(name))
        overhead = run.layers["trace.overhead"].value
        print(f"# tracing overhead: {100 * overhead:+.1f}% time per traced operation")
        chosen = {name: run.layers[name] for name, _ in PER_LAYER if name in run.layers}
    else:
        chosen = {name: run.gated[name] for name, _ in GATED}
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in chosen.items()},
    }


RUNNERS = {"train-ref": train_ref, "infer-long": infer_long, "grad-tiny": grad_tiny}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmpdir: str) -> dict:
    run = Run(workload, seed, seconds, trace, tmpdir)
    print("# machine: " + json.dumps(machine_facts(run)))
    RUNNERS[workload](run)
    return finish(run)


def write_reference(tmpdir: str) -> None:
    """Regenerate reference.json from the current code."""
    vocab = benchmark_vocabulary()
    path = os.path.join(tmpdir, "reference.ckpt.npz")
    reference_model(vocab).save(path)
    reference = {
        "seed": REFERENCE_SEED,
        "train-ref": train_reference_outputs(vocab),
        "infer-long": infer_reference_outputs(SpanModel.load(path)),
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
