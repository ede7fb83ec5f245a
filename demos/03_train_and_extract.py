#!/usr/bin/env python3
"""End to end: train on a synthetic corpus, extract triplets, save, reload."""

import os
import tempfile

import numpy as np

from spantriplet.data import make_fixture
from spantriplet.encoder import Vocabulary
from spantriplet.evaluation import corpus_pass
from spantriplet.model import ModelConfig, SpanModel
from spantriplet.training import TrainConfig, make_optimizer, train_epoch

corpus = make_fixture(np.random.default_rng(42), 20)
print("training corpus (first 5 sentences):")
for s in corpus[:5]:
    gold = [(" ".join(s.tokens[t.target[0]:t.target[1] + 1]),
             " ".join(s.tokens[t.opinion[0]:t.opinion[1] + 1]),
             t.sentiment) for t in s.triplets]
    print(f"  {' '.join(s.tokens):<38} {gold}")

config = ModelConfig(embedding_dim=16, lstm_hidden=12, ffnn_hidden=16,
                     width_dim=4, distance_dim=6,
                     lstm_dropout=0.0, ffnn_dropout=0.0)
model = SpanModel(config, Vocabulary.build(s.tokens for s in corpus), seed=0)
optimizer = make_optimizer(model, TrainConfig())  # AdamW, constant lr 1e-3
rng = np.random.default_rng(0)

print("\ntraining (one AdamW step per sentence):")
for epoch in range(80):
    stats = train_epoch(model, corpus, optimizer, rng)
    f1 = corpus_pass(model, corpus).score().f1
    if epoch % 10 == 0 or f1 == 1.0:
        print(f"  epoch {epoch:>3}: loss {stats.mean_loss:.4f}  train F1 {f1:.3f}")
    if f1 == 1.0:
        break

print("\nextractions:")
for s in corpus[:5]:
    triples = [(" ".join(s.tokens[p.target[0]:p.target[1] + 1]),
                " ".join(s.tokens[p.opinion[0]:p.opinion[1] + 1]),
                p.sentiment, round(p.probability, 3))
               for p in model.predict(s.tokens)]
    print(f"  {' '.join(s.tokens):<38} {triples}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.ckpt.npz")
    model.save(path)
    reloaded = SpanModel.load(path)
    same = corpus_pass(reloaded, corpus).score().f1
    print(f"\ncheckpoint round-trip: reloaded model F1 = {same:.3f}")
