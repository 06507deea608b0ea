import hashlib

import numpy as np
import pytest

from ekd import binio
from ekd.config import FEATURE_DIM, build_transform, default_config
from ekd.corpus import (Corpus, DomainSpec, Utterance, generate_corpus, load_corpus, save_corpus,
                        split_corpus, transcript_read_count)
from ekd.vocab import default_vocabulary, symbol_prototypes

from oracles import expected_mean_frames, nearest_prototype_transcript, tiled_generate_corpus

# Regression pin: SHA-256 of the serialized reference corpus below. Any change
# to the generator's random stream or the file format must be deliberate.
REFERENCE_CORPUS_SHA256 = "eb2ac1e97bca604c7ceb64de8f8766f6005dd4599c257aa058a568cabda326b2"


def make_spec(noise=0.25, frames=(2, 4), words=(2, 4), lexicon=("ab", "cd", "bca", "da"),
              strength=0.5, seed=42, F=6, name="dom"):
    scale, bias = build_transform(F, strength, seed)
    return DomainSpec(name, noise, scale, bias, frames, words, lexicon)


@pytest.fixture
def vocab():
    return default_vocabulary("abcd")


def test_zero_noise_single_frames_exact(vocab):
    spec = make_spec(noise=0.0, frames=(1, 1), words=(1, 1), lexicon=("ab",))
    corpus = generate_corpus(spec, vocab, 1, seed=3)
    utt = corpus.utterances[0]
    protos = symbol_prototypes(vocab, spec.feature_dim) @ spec.feature_scale.T + spec.feature_bias
    assert utt.num_frames == 2
    assert np.array_equal(utt.features[0], protos[vocab.graphemes.index("a")])
    assert np.array_equal(utt.features[1], protos[vocab.graphemes.index("b")])
    assert list(utt.transcript) == [vocab.graphemes.index("a"), vocab.graphemes.index("b")]



@pytest.mark.parametrize("noise", [0.0, 0.25])
@pytest.mark.parametrize("frames", [(1, 1), (2, 4)])
@pytest.mark.parametrize("words", [(1, 1), (6, 6)])
def test_generation_matches_the_per_symbol_oracle(vocab, noise, frames, words):
    spec = make_spec(noise=noise, frames=frames, words=words)
    for seed in (0, 7, 2024):
        got = generate_corpus(spec, vocab, 12, seed)
        want = tiled_generate_corpus(spec, vocab, 12, seed)
        assert [u.id for u in got.utterances] == [u.id for u in want.utterances]
        for g, w in zip(got.utterances, want.utterances, strict=True):
            assert g.features.dtype == w.features.dtype and g.features.shape == w.features.shape
            assert g.features.tobytes() == w.features.tobytes()
            assert g.transcript.dtype == w.transcript.dtype
            assert np.array_equal(g.transcript, w.transcript)


def test_default_domains_match_the_per_symbol_oracle():
    cfg = default_config()
    for name, spec in cfg.expand_domains().items():
        got = generate_corpus(spec, cfg.vocabulary(), 8, seed=5)
        want = tiled_generate_corpus(spec, cfg.vocabulary(), 8, seed=5)
        assert got == want, name

def test_generation_deterministic(vocab):
    spec = make_spec()
    a = generate_corpus(spec, vocab, 20, seed=7)
    b = generate_corpus(spec, vocab, 20, seed=7)
    assert a == b
    c = generate_corpus(spec, vocab, 20, seed=8)
    assert a != c


def test_mean_frame_count_matches_expectation(vocab):
    spec = make_spec(words=(2, 5), frames=(2, 4))
    corpus = generate_corpus(spec, vocab, 100, seed=7)
    expected = expected_mean_frames(spec)
    empirical = np.mean([u.num_frames for u in corpus.utterances])
    assert abs(empirical - expected) / expected < 0.10


def test_empty_lexicon_rejected(vocab):
    spec = make_spec(lexicon=())
    with pytest.raises(ValueError, match="lexicon"):
        generate_corpus(spec, vocab, 1, seed=0)


def test_degenerate_transform_rejected(vocab):
    spec = make_spec()
    bad = DomainSpec("bad", 0.1, np.zeros((6, 6)), np.zeros(6), (1, 2), (1, 2), ("ab",))
    with pytest.raises(ValueError, match="degenerate"):
        generate_corpus(bad, vocab, 1, seed=0)


def test_zero_noise_corpora_exactly_recoverable(vocab):
    # Lexicons avoid adjacent repeated graphemes, so a nearest-prototype frame
    # classifier recovers every transcript exactly.
    spec = make_spec(noise=0.0, frames=(2, 4), words=(2, 4))
    corpus = generate_corpus(spec, vocab, 25, seed=13)
    protos = symbol_prototypes(vocab, spec.feature_dim) @ spec.feature_scale.T + spec.feature_bias
    for utt in corpus.utterances:
        decoded = nearest_prototype_transcript(utt.features, protos, vocab.blank_index)
        assert decoded == tuple(utt.transcript)


def test_domain_separation_exceeds_noise(vocab):
    # Same-symbol prototypes across the default experiment domains sit farther
    # apart than the emission noise scale.
    cfg = default_config()
    specs = cfg.expand_domains()
    protos = symbol_prototypes(cfg.vocabulary(), FEATURE_DIM)
    names = list(specs)
    emitting = [i for i in range(cfg.vocabulary().size) if i != cfg.vocabulary().blank_index]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = specs[names[i]], specs[names[j]]
            pa = protos @ a.feature_scale.T + a.feature_bias
            pb = protos @ b.feature_scale.T + b.feature_bias
            mean_dist = np.mean([np.linalg.norm(pa[g] - pb[g]) for g in emitting])
            assert mean_dist > max(a.emission_noise_std, b.emission_noise_std)


def test_round_trip_single_utterance(tmp_path, vocab):
    spec = make_spec()
    corpus = generate_corpus(spec, vocab, 1, seed=5)
    path = tmp_path / "one.ekdc"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_round_trip_hash_regression(tmp_path, vocab):
    spec = make_spec()
    corpus = generate_corpus(spec, vocab, 10, seed=7)
    path = tmp_path / "ref.ekdc"
    save_corpus(corpus, path)
    first = hashlib.sha256(path.read_bytes()).hexdigest()
    again = tmp_path / "ref2.ekdc"
    save_corpus(load_corpus(path), again)
    second = hashlib.sha256(again.read_bytes()).hexdigest()
    assert first == second
    assert first == REFERENCE_CORPUS_SHA256


def test_truncated_record_is_corrupted(tmp_path, vocab):
    corpus = generate_corpus(make_spec(), vocab, 3, seed=1)
    path = tmp_path / "c.ekdc"
    save_corpus(corpus, path)
    data = path.read_bytes()
    path.write_bytes(data[:-20])
    with pytest.raises(binio.FormatError, match="corrupted record"):
        load_corpus(path)


def test_version_mismatch_detected(tmp_path, vocab):
    corpus = generate_corpus(make_spec(), vocab, 1, seed=1)
    path = tmp_path / "c.ekdc"
    save_corpus(corpus, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # version byte
    path.write_bytes(bytes(data))
    with pytest.raises(binio.FormatError, match="version mismatch"):
        load_corpus(path)


def test_vocabulary_hash_mismatch_detected(tmp_path, vocab):
    corpus = generate_corpus(make_spec(), vocab, 1, seed=1)
    path = tmp_path / "c.ekdc"
    save_corpus(corpus, path)
    text = path.read_bytes()
    hash_hex = vocab.content_hash().encode()
    tampered = text.replace(hash_hex, b"0" * len(hash_hex))
    path.write_bytes(tampered)
    with pytest.raises(binio.FormatError, match="vocabulary-hash mismatch"):
        load_corpus(path)


def test_split_identity(vocab):
    corpus = generate_corpus(make_spec(), vocab, 10, seed=2)
    only, rest = split_corpus(corpus, 10, seed=0)
    assert only == corpus and len(rest) == 0
    rest_only = split_corpus(corpus, 0, seed=0)[1]
    assert [u.id for u in rest_only.utterances] == [u.id for u in corpus.utterances]


def test_split_halves(vocab):
    corpus = generate_corpus(make_spec(), vocab, 10, seed=2)
    a, b = split_corpus(corpus, 5, seed=3)
    assert len(a) == 5 and len(b) == 5
    assert a.name == b.name == corpus.name
    ids = {u.id for u in a.utterances} | {u.id for u in b.utterances}
    assert ids == {u.id for u in corpus.utterances}


def test_split_deterministic(vocab):
    corpus = generate_corpus(make_spec(), vocab, 11, seed=2)
    first = split_corpus(corpus, 3, seed=9)
    second = split_corpus(corpus, 3, seed=9)
    assert all(x == y for x, y in zip(first, second))


def test_split_keeps_the_fraction_split_ids(vocab):
    # The ids the earlier fraction split, split_corpus(corpus, [3/11, 8/11], 9),
    # picked: taking a count keeps every existing train/test split.
    corpus = generate_corpus(make_spec(), vocab, 11, seed=2)
    first, rest = split_corpus(corpus, 3, seed=9)
    assert [u.id for u in first.utterances] == ["dom-2-00002", "dom-2-00005", "dom-2-00007"]
    assert [u.id for u in rest.utterances] == [
        "dom-2-00000", "dom-2-00001", "dom-2-00003", "dom-2-00004", "dom-2-00006",
        "dom-2-00008", "dom-2-00009", "dom-2-00010"]


def test_split_out_of_range_names_corpus(vocab):
    corpus = generate_corpus(make_spec(), vocab, 4, seed=2)
    for n_first in (-1, 5):
        with pytest.raises(ValueError, match=f"corpus 'dom': cannot take {n_first} of 4"):
            split_corpus(corpus, n_first, seed=0)


def test_transcript_reads_are_counted(vocab):
    corpus = generate_corpus(make_spec(), vocab, 2, seed=2)
    before = transcript_read_count()
    _ = corpus.utterances[0].transcript
    _ = corpus.utterances[1].transcript
    assert transcript_read_count() - before == 2
    assert corpus.utterances[0].has_transcript
    assert transcript_read_count() - before == 2  # presence check is free


def test_without_transcripts_strips(vocab):
    corpus = generate_corpus(make_spec(), vocab, 2, seed=2)
    stripped = corpus.without_transcripts()
    assert not any(u.has_transcript for u in stripped.utterances)
    assert all(u.has_transcript for u in corpus.utterances)


def test_transcript_with_blank_rejected(vocab):
    utt = Utterance("u", np.zeros((2, 3)), transcript=np.array([vocab.blank_index]))
    with pytest.raises(ValueError, match="blank"):
        Corpus("c", vocab, [utt])


def test_transcript_out_of_range_rejected(vocab):
    for index in (-1, vocab.size):
        utt = Utterance("u", np.zeros((2, 3)), transcript=np.array([1, index]))
        with pytest.raises(ValueError, match=r"utterance 'u': transcript index out of range"):
            Corpus("c", vocab, [utt])


def test_inconsistent_feature_dims_rejected(vocab):
    utts = [Utterance("u0", np.zeros((2, 3))), Utterance("u1", np.zeros((2, 4)))]
    with pytest.raises(ValueError, match=r"corpus 'c': inconsistent feature dims"):
        Corpus("c", vocab, utts)


def test_first_bad_utterance_named_by_its_first_failing_check(vocab):
    good = Utterance("ok", np.zeros((2, 3)), transcript=np.array([1, 2]))
    blank = Utterance("blank", np.zeros((2, 3)), transcript=np.array([vocab.blank_index]))
    blank_and_range = Utterance("both", np.zeros((2, 3)),
                                transcript=np.array([vocab.blank_index, vocab.size]))
    wide = Utterance("wide", np.zeros((2, 4)), transcript=np.array([vocab.blank_index]))
    cases = [
        ([good, blank, blank_and_range, wide], r"utterance 'blank': transcript contains blank"),
        ([good, blank_and_range, blank, wide], r"utterance 'both': transcript index out of range"),
        ([good, wide, blank_and_range], r"corpus 'c': inconsistent feature dims"),
        ([good, Utterance("unlabelled", np.zeros((2, 4))), blank],
         r"corpus 'c': inconsistent feature dims"),
    ]
    for utts, message in cases:
        with pytest.raises(ValueError, match=message):
            Corpus("c", vocab, utts)
    assert len(Corpus("c", vocab, [good, Utterance("unlabelled", np.zeros((1, 3)))])) == 2


def test_transcript_must_be_one_dimensional():
    for transcript in (np.array([[1, 2], [3, 4]]), np.array(3)):
        with pytest.raises(ValueError, match=r"utterance 'u': transcript must be 1-D"):
            Utterance("u", np.zeros((2, 3)), transcript=transcript)
