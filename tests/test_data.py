import json
import os
import re
import stat
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantriplet import data as dataio
from spantriplet.data import (QUOTE_WIDTH, GoldTriplet, Sentence, dataset_stats, make_fixture,
                              parse_dataset_line, serialize_sentence)
from spantriplet.autodiff import Parameter
from spantriplet.cli import main
from spantriplet.encoder import Vocabulary, span_width
from spantriplet.errors import CheckpointError, DataError, ParseError
from spantriplet.model import ModelConfig, SpanModel


def tiny_model():
    config = ModelConfig(embedding_dim=6, lstm_hidden=4, ffnn_hidden=5, width_dim=3,
                         distance_dim=3)
    return SpanModel(config, Vocabulary.build([["the", "pizza", "is", "great"]]))


class TestParse:
    def test_documented_example(self):
        s = parse_dataset_line("It is great .####[([0], [2], 'POS')]")
        assert s.tokens == ["It", "is", "great", "."]
        assert s.triplets == [GoldTriplet((0, 0), (2, 2), "POS")]
        # round-trip through the serializer confirms the reading
        assert serialize_sentence(s) == "It is great .####[([0], [2], 'POS')]"

    def test_zero_triplets(self):
        s = parse_dataset_line("No opinions here .####[]")
        assert s.tokens == ["No", "opinions", "here", "."]
        assert s.triplets == []

    def test_multi_word_spans_normalize_index_order(self):
        s = parse_dataset_line("a b c d####[([2, 1], [3], 'NEG')]")
        assert s.triplets == [GoldTriplet((1, 2), (3, 3), "NEG")]

    def test_missing_separator(self):
        with pytest.raises(ParseError, match="separator"):
            parse_dataset_line("no separator here", line=7)

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_dataset_line("a b####[([0], [1 'POS')]", line=3)
        assert err.value.line == 3
        assert err.value.column > len("a b####")

    @pytest.mark.parametrize("literal,message", [
        ("[([0], [9], 'POS')]", "out of range"),
        ("[([0, 2], [1], 'POS')]", "not contiguous"),
        ("[([], [1], 'POS')]", "non-empty"),
        ("[([0], [1], 'GOOD')]", "unknown sentiment"),
        ("[([0], [1], 'POS'), 'junk']", "3-tuple"),
        ("[([0.5], [1], 'POS')]", "integers"),
        ("{}", "must be a list"),
    ])
    def test_invalid_annotations(self, literal, message):
        with pytest.raises(ParseError, match=message):
            parse_dataset_line(f"a b c####{literal}")

    @pytest.mark.parametrize("literal", ["{[0]}", "{[0]: 1}", "-" * 5000 + "1",
                                         "-" * 100000 + "1"],
                             ids=["unhashable_set", "unhashable_key", "deep", "deeper"])
    def test_literal_the_evaluator_cannot_build_is_malformed(self, literal):
        with pytest.raises(ParseError, match="malformed triplet literal") as err:
            parse_dataset_line(f"a b c####{literal}", line=4)
        assert (err.value.line, err.value.column) == (4, len("a b c####") + 1)

    @pytest.mark.parametrize("width", [QUOTE_WIDTH, QUOTE_WIDTH + 1])
    def test_malformed_literal_is_quoted_up_to_a_fixed_width(self, width):
        literal = "[" * width
        with pytest.raises(ParseError) as err:
            parse_dataset_line(f"a b c####{literal}")
        quoted = repr(literal) if width == QUOTE_WIDTH else f"{literal[:QUOTE_WIDTH]!r}..."
        assert str(err.value).endswith(f"malformed triplet literal: {quoted}")

    def test_sentence_without_tokens(self):
        with pytest.raises(ParseError, match="no tokens"):
            parse_dataset_line("####[]")


class TestSerialize:
    def test_round_trip_on_fixture_corpus(self):
        fixture = make_fixture(np.random.default_rng(0), 20)
        for sentence in fixture:
            line = serialize_sentence(sentence)
            again = parse_dataset_line(line, sentence_id=sentence.id)
            assert again == sentence

    def test_zero_triplet_line_has_empty_literal(self):
        line = serialize_sentence(Sentence(0, ["hi", "there"]))
        assert line.endswith("####[]")

    def test_corpus_file_round_trip(self, tmp_path):
        fixture = make_fixture(np.random.default_rng(1), 10)
        path = str(tmp_path / "corpus.txt")
        dataio.write_corpus(path, fixture)
        again = dataio.load_corpus(path)
        assert again == fixture

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin1"])
    def test_unreadable_corpus_is_a_data_error_naming_it(self, tmp_path, kind):
        path = tmp_path / "corpus.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "latin1":
            path.write_bytes("café is great .####[]\n".encode("latin-1"))
        with pytest.raises(DataError, match=re.escape(str(path))):
            dataio.load_corpus(str(path))

    def test_malformed_line_names_the_file_line_and_column(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("fine line####[]\nbroken line without separator\n")
        with pytest.raises(ParseError) as info:
            dataio.load_corpus(str(path))
        assert str(info.value) == f"{path}: line 2, column 30: missing '####' separator"
        assert (info.value.line, info.value.column) == (2, 30)

    def test_write_into_a_missing_directory_is_a_data_error(self, tmp_path):
        path = tmp_path / "absent" / "corpus.txt"
        with pytest.raises(DataError, match=re.escape(str(path))):
            dataio.write_corpus(str(path), [])


@st.composite
def sentences(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    tokens = draw(st.lists(st.sampled_from(["nice", "food", "but", "bad", "wifi",
                                            "x1", "lamp", "."]),
                           min_size=n, max_size=n))
    triplets = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        t_start = draw(st.integers(min_value=0, max_value=n - 1))
        t_end = draw(st.integers(min_value=t_start, max_value=min(n - 1, t_start + 3)))
        o_start = draw(st.integers(min_value=0, max_value=n - 1))
        o_end = draw(st.integers(min_value=o_start, max_value=min(n - 1, o_start + 3)))
        tag = draw(st.sampled_from(["POS", "NEG", "NEU"]))
        triplets.append(GoldTriplet((t_start, t_end), (o_start, o_end), tag))
    return Sentence(0, tokens, triplets)


class TestRoundTripProperty:
    @given(sentences())
    @settings(max_examples=200, deadline=None)
    def test_random_valid_sentences_round_trip(self, sentence):
        assert parse_dataset_line(serialize_sentence(sentence)) == sentence


def brute_force_stats(sentences):
    """Independent single-pass recount used as the oracle."""
    out = dict(sentences=0, triplets=0, positive=0, neutral=0, negative=0,
               single_word=0, multi_word=0, targets_unique=0, opinions_unique=0,
               targets_total=0, opinions_total=0)
    for s in sentences:
        out["sentences"] += 1
        seen_t, seen_o = set(), set()
        for t in s.triplets:
            out["triplets"] += 1
            out[{"POS": "positive", "NEU": "neutral", "NEG": "negative"}[t.sentiment]] += 1
            both_single = (t.target[1] == t.target[0]) and (t.opinion[1] == t.opinion[0])
            out["single_word" if both_single else "multi_word"] += 1
            seen_t.add(t.target)
            seen_o.add(t.opinion)
            out["targets_total"] += 1
            out["opinions_total"] += 1
        out["targets_unique"] += len(seen_t)
        out["opinions_unique"] += len(seen_o)
    return out


class TestDatasetStats:
    def test_empty_corpus_is_all_zero(self):
        stats = dataset_stats([])
        assert all(v == 0 for v in asdict(stats).values())

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(2)
        for size in (1, 7, 30):
            corpus = make_fixture(rng, size)
            assert asdict(dataset_stats(corpus)) == brute_force_stats(corpus)

    def test_sw_mw_partition_triplets(self):
        corpus = make_fixture(np.random.default_rng(3), 25)
        stats = dataset_stats(corpus)
        assert stats.single_word + stats.multi_word == stats.triplets

    def test_dedup_rule_counts_repeated_span_once(self):
        s = Sentence(0, "the pie and cake are great tasty".split(), [
            GoldTriplet((1, 1), (5, 5), "POS"),
            GoldTriplet((1, 1), (6, 6), "POS"),
        ])
        stats = dataset_stats([s])
        assert stats.targets_unique == 1
        assert stats.targets_total == 2
        assert stats.opinions_unique == 2

    def test_table_rendering_contains_counts(self):
        corpus = make_fixture(np.random.default_rng(4), 10)
        stats = dataset_stats(corpus)
        table = dataio.format_stats_table({"train": stats})
        assert str(stats.sentences) in table
        assert "#SW" in table


class TestFixture:
    def test_deterministic_for_fixed_seed(self):
        a = make_fixture(np.random.default_rng(5), 20)
        b = make_fixture(np.random.default_rng(5), 20)
        assert a == b

    def test_invariants_hold_for_every_planted_triplet(self):
        corpus = make_fixture(np.random.default_rng(6), 40)
        for s in corpus:
            assert s.tokens
            for t in s.triplets:
                for span in (t.target, t.opinion):
                    assert 0 <= span[0] <= span[1] < len(s.tokens)
                assert t.sentiment in ("POS", "NEG", "NEU")

    def test_covers_all_planted_shapes(self):
        corpus = make_fixture(np.random.default_rng(7), 20)
        has_sw = any(span_width(t.target) == 1 and span_width(t.opinion) == 1
                     for s in corpus for t in s.triplets)
        has_mw_target = any(span_width(t.target) > 1
                            for s in corpus for t in s.triplets)
        has_mw_opinion = any(span_width(t.opinion) > 1
                             for s in corpus for t in s.triplets)
        has_empty = any(not s.triplets for s in corpus)
        shared_opinion = any(
            len({t.opinion for t in s.triplets}) < len(s.triplets)
            for s in corpus if len(s.triplets) >= 2)
        assert has_sw and has_mw_target and has_mw_opinion and has_empty and shared_opinion

    def test_size_must_be_positive(self):
        with pytest.raises(DataError):
            make_fixture(np.random.default_rng(8), 0)


class TestAtomicWrite:
    @pytest.fixture
    def umask_027(self):
        old = os.umask(0o027)
        yield
        os.umask(old)

    def test_new_file_gets_the_umask_mode(self, tmp_path, umask_027):
        path = tmp_path / "new.txt"
        dataio.atomic_write_text(str(path), "x\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_replaced_file_gets_the_umask_mode(self, tmp_path, umask_027):
        path = tmp_path / "old.txt"
        path.write_text("old\n")
        path.chmod(0o600)
        dataio.atomic_write_text(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert list(tmp_path.iterdir()) == [path]


class TestCheckpointIO:
    def test_roundtrip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(3)
        params = [Parameter(rng.normal(size=(3, 2)), name="w"),
                  Parameter(rng.normal(size=5), name="b")]
        path = str(tmp_path / "model.npz")
        dataio.save_checkpoint(path, params, meta={"note": "x"})
        arrays, meta = dataio.load_checkpoint(path)
        assert meta == {"note": "x"}
        fresh = [Parameter(np.zeros((3, 2)), name="w"),
                 Parameter(np.zeros(5), name="b")]
        dataio.restore_parameters(fresh, arrays)
        for old, new in zip(params, fresh):
            np.testing.assert_array_equal(old.data, new.data)

    def test_shape_mismatch_names_parameter(self, tmp_path):
        path = str(tmp_path / "model.npz")
        dataio.save_checkpoint(path, [Parameter(np.zeros((3, 2)), name="w")])
        arrays, _ = dataio.load_checkpoint(path)
        with pytest.raises(CheckpointError, match="'w'"):
            dataio.restore_parameters([Parameter(np.zeros((2, 2)), name="w")], arrays)

    @pytest.mark.parametrize("damage", [
        lambda raw: b"definitely not a checkpoint",
        lambda raw: raw[:-100],
        lambda raw: raw[:len(raw) // 2],
        lambda raw: b"PK\x03\x04" + bytes(len(raw)),
        lambda raw: b"",
    ], ids=["junk", "cut_100_bytes", "cut_to_half", "zip_header_then_zeros", "empty"])
    def test_not_a_checkpoint(self, tmp_path, capsys, damage):
        good = tmp_path / "good.ckpt.npz"
        tiny_model().save(str(good))
        path = str(tmp_path / "damaged.ckpt.npz")
        with open(path, "wb") as handle:
            handle.write(damage(good.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(path)):
            dataio.load_checkpoint(path)
        corpus = str(tmp_path / "corpus.txt")
        dataio.write_corpus(corpus, make_fixture(np.random.default_rng(0), 2))
        for argv in (["eval"], ["predict", "--out", str(tmp_path / "p.txt")]):
            assert main(argv + ["--checkpoint", path, "--test", corpus]) == 2
            err = capsys.readouterr().err
            lines = [line for line in err.splitlines() if line.startswith("error:")]
            assert "Traceback" not in err and len(lines) == 1 and path in lines[0], err

    @pytest.mark.parametrize("values", [np.array([1.0, np.inf]), np.array([np.nan]),
                                        np.array(["1.0"])], ids=["inf", "nan", "string"])
    def test_non_finite_or_non_real_parameter_is_named(self, tmp_path, values):
        path = str(tmp_path / "model.npz")
        np.savez(path, __format__=np.array("spantriplet-checkpoint-v1"),
                 **{"param/w": np.zeros(2), "param/bad": values})
        with pytest.raises(CheckpointError, match=re.escape(path) + ".*'bad'"):
            dataio.load_checkpoint(path)

    def test_missing_and_unexpected_parameters(self, tmp_path):
        path = str(tmp_path / "model.npz")
        dataio.save_checkpoint(path, [Parameter(np.zeros(2), name="w")])
        arrays, _ = dataio.load_checkpoint(path)
        with pytest.raises(CheckpointError, match="missing"):
            dataio.restore_parameters([Parameter(np.zeros(2), name="w"),
                                       Parameter(np.zeros(2), name="extra")], arrays)
        with pytest.raises(CheckpointError, match="unexpected"):
            dataio.restore_parameters([], arrays)

    def test_hand_written_file_in_the_current_layout_loads(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "hand.ckpt.npz"
        meta = {"config": asdict(model.config), "vocab": model.vocab.tokens}
        arrays = {"param/" + p.name: p.data for p in model.parameters()}
        np.savez(path, __format__=np.array("spantriplet-checkpoint-v1"),
                 __meta__=np.array(json.dumps(meta)), **arrays)
        loaded = SpanModel.load(str(path))
        assert loaded.config == model.config and loaded.vocab.tokens == model.vocab.tokens
        for old, new in zip(model.parameters(), loaded.parameters()):
            assert old.name == new.name and old.data.tobytes() == new.data.tobytes()

    def test_save_writes_exactly_the_current_layout(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.ckpt.npz"
        model.save(str(path), extra_meta={"seed": 3})
        with np.load(path, allow_pickle=False) as npz:
            assert set(npz.files) == ({"__format__", "__meta__"}
                                      | {"param/" + p.name for p in model.parameters()})
            assert str(npz["__format__"][()]) == "spantriplet-checkpoint-v1"
            meta = json.loads(str(npz["__meta__"][()]))
        assert meta == {"config": asdict(model.config), "vocab": model.vocab.tokens,
                        "seed": 3}

    def test_save_into_a_missing_directory_is_a_data_error(self, tmp_path):
        path = tmp_path / "absent" / "model.ckpt.npz"
        with pytest.raises(DataError, match=re.escape(str(path))):
            dataio.save_checkpoint(str(path), [Parameter(np.zeros(2), name="w")])
        assert list(tmp_path.rglob("*.tmp")) == []
