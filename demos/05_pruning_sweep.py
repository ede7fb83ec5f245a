#!/usr/bin/env python3
"""Sweep the pruning threshold across channel strategies.

The dual-channel strategy keeps separate target and opinion pools of
k = ceil(n*z) spans. The single-channel baseline keeps one mixed pool; to
consider as many candidates per role it must double z, which quadruples
the number of scored pairs ("sc_adjusted").
"""

import numpy as np

from spantriplet.data import make_fixture
from spantriplet.model import ModelConfig
from spantriplet.training import TrainConfig, prune_sweep, render_sweep_table

# Scoring the training sentences keeps this demo fast; the sweep shape is
# what matters here, not generalization.
train = make_fixture(np.random.default_rng(0), 16)
dev = train

config = ModelConfig(embedding_dim=12, lstm_hidden=8, ffnn_hidden=12,
                     width_dim=4, distance_dim=4,
                     lstm_dropout=0.0, ffnn_dropout=0.0)

# The shared single-channel pool dilutes relation supervision with n^2
# mostly-unrelated pairs, so those settings need more epochs to move.
rows = prune_sweep(train, dev, config, TrainConfig(epochs=60, seeds=(0,)),
                   z_values=[0.25, 0.5])
print(render_sweep_table(rows))

dual = {r.z: r for r in rows if r.mode == "dual"}
single = {r.z: r for r in rows if r.mode == "single"}
adjusted = {r.z: r for r in rows if r.mode == "sc_adjusted"}
print("\npair-count ratios at each z (sc_adjusted / single):")
for z in sorted(dual):
    ratio = adjusted[z].mean_pair_count / single[z].mean_pair_count
    print(f"  z={z}: {ratio:.2f}x  (4x when no pool is clamped)")
print("\n(the toy corpus is tiny; dev F1 columns are illustrative only)")
