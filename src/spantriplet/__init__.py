"""Span-level aspect sentiment triplet extraction.

A self-contained numpy implementation: reverse-mode autodiff engine,
BiLSTM encoder, span enumeration with dual-channel pruning, span-pair
sentiment classification, exact-match evaluation, and a CLI.
"""

from .autodiff import AdamW, FeedForward, Parameter, Tensor
from .data import GoldTriplet, Sentence, dataset_stats, load_corpus, make_fixture
from .encoder import Span, Vocabulary, enumerate_spans
from .evaluation import PRF, evaluate_model, triplet_prf
from .model import ModelConfig, SpanModel
from .training import TrainConfig, compute_loss, run_experiment, train_epoch
from .triplet import TripletPrediction, decode_triplets

__version__ = "0.1.0"

__all__ = [
    "AdamW", "FeedForward", "Parameter", "Tensor",
    "GoldTriplet", "Sentence", "dataset_stats", "load_corpus", "make_fixture",
    "Span", "Vocabulary", "enumerate_spans",
    "PRF", "evaluate_model", "triplet_prf",
    "ModelConfig", "SpanModel",
    "TrainConfig", "compute_loss", "run_experiment", "train_epoch",
    "TripletPrediction", "decode_triplets",
    "__version__",
]
