"""BENCHMARK.json, layers.json and the harness must name the same things."""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import harness  # noqa: E402


def load(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_what_the_harness_prints():
    spec = load("BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(harness.RUNNERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.GATED)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


def test_layer_map_names_known_workloads_and_metrics():
    layers = load("perfbench", "layers.json")
    assert set(layers["workloads"]) == set(harness.RUNNERS)
    per_layer = {name for name, _ in harness.PER_LAYER}
    reported = set(harness.REPORTED) | {name for name, _ in harness.GATED}
    for workload in layers["workloads"].values():
        assert set(workload["gated"]) == {name for name, _ in harness.GATED}
    for prediction in layers["predictions"]:
        assert set(prediction["layer"]) <= per_layer
        for key in ("moves", "no_change", "smaller", "little"):
            for workload, metrics in prediction.get(key, {}).items():
                assert workload in harness.RUNNERS
                assert set(metrics) <= reported, metrics
