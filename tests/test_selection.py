import re

import numpy as np
import pytest

from ekd import binio
from ekd.config import build_transform
from ekd.corpus import DomainSpec, generate_corpus
from ekd.ctc import PosteriorSequence
from ekd.model import ModelConfig
from ekd.selection import (SELECTION_FORMAT_VERSION, CorpusSelection, SelectionOutcome, Strategy,
                           TeacherBundle, elitist_scores, elitist_select, framewise_max,
                           load_posteriors, load_selection, save_posteriors, save_selection,
                           select_corpus, teacher_average)
from ekd.training import TrainConfig, train_student
from ekd.vocab import default_vocabulary

from conftest import random_posteriors
from oracles import collapse, naive_mean, two_pass_confidence

BLANK = 0


def make_bundle(rng, K=3, T=6, z=5, uid="u"):
    return TeacherBundle(uid, [random_posteriors(rng, T, z, uid) for _ in range(K)])


def uniform_sequence(T, z, uid="u"):
    return PosteriorSequence(np.full((T, z), 1.0 / z), uid)


# -- elitist scores ---------------------------------------------------------------

def test_scores_arithmetic():
    probs = np.array([[0.9, 0.1, 0.0], [0.8, 0.1, 0.1], [0.15, 0.7, 0.15]])
    bundle = TeacherBundle("u", [PosteriorSequence(probs)])
    assert elitist_scores(bundle)[0] == pytest.approx(0.8)


def test_uniform_teacher_scores_one_over_z():
    bundle = TeacherBundle("u", [uniform_sequence(4, 5)])
    assert elitist_scores(bundle)[0] == pytest.approx(0.2)


def test_scores_match_two_pass_oracle(rng):
    for _ in range(100):
        bundle = make_bundle(rng, K=int(rng.integers(1, 5)), T=int(rng.integers(1, 9)),
                             z=int(rng.integers(2, 6)))
        got = elitist_scores(bundle)
        want = [two_pass_confidence(p.probs) for p in bundle.per_teacher_posteriors]
        assert np.allclose(got, want, atol=1e-12, rtol=0)
        assert all(1.0 / bundle.per_teacher_posteriors[0].vocab_size - 1e-12 <= s <= 1.0 + 1e-12
                   for s in got)


# -- teacher average ---------------------------------------------------------------

def test_average_single_teacher_identity(rng):
    bundle = make_bundle(rng, K=1)
    out = teacher_average(bundle, BLANK)
    assert np.array_equal(out.selected_posteriors.probs, bundle.per_teacher_posteriors[0].probs)


def test_average_two_opposed_rows():
    a = PosteriorSequence(np.array([[1.0, 0.0]]))
    b = PosteriorSequence(np.array([[0.0, 1.0]]))
    out = teacher_average(TeacherBundle("u", [a, b]), BLANK)
    assert np.allclose(out.selected_posteriors.probs, [[0.5, 0.5]])


def test_average_matches_naive_loop(rng):
    bundle = make_bundle(rng, K=3)
    out = teacher_average(bundle, BLANK)
    want = naive_mean([p.probs for p in bundle.per_teacher_posteriors])
    assert np.allclose(out.selected_posteriors.probs, want, atol=1e-12, rtol=0)
    assert np.allclose(out.selected_posteriors.probs.sum(axis=1), 1.0, atol=1e-9)


def test_average_confidence_and_transcript(rng):
    bundle = make_bundle(rng, K=3)
    out = teacher_average(bundle, BLANK)
    mean = naive_mean([p.probs for p in bundle.per_teacher_posteriors])
    assert out.sequence_confidence == pytest.approx(two_pass_confidence(mean), abs=1e-12)
    assert out.pseudo_transcript.tolist() == list(collapse(np.argmax(mean, axis=1), BLANK))


# -- framewise max -----------------------------------------------------------------

def test_framewise_max_single_teacher_identity(rng):
    bundle = make_bundle(rng, K=1)
    out = framewise_max(bundle, BLANK)
    assert np.array_equal(out.selected_posteriors.probs, bundle.per_teacher_posteriors[0].probs)


def test_framewise_max_copies_most_confident_row():
    t0 = PosteriorSequence(np.array([[0.9, 0.05, 0.05], [0.2, 0.3, 0.5]]))
    t1 = PosteriorSequence(np.array([[0.6, 0.2, 0.2], [0.1, 0.8, 0.1]]))
    out = framewise_max(TeacherBundle("u", [t0, t1]), BLANK)
    assert np.array_equal(out.selected_posteriors.probs[0], t0.probs[0])
    assert np.array_equal(out.selected_posteriors.probs[1], t1.probs[1])


def test_framewise_max_identical_teachers(rng):
    p = random_posteriors(rng, 5, 4)
    bundle = TeacherBundle("u", [p, PosteriorSequence(p.probs.copy())])
    out = framewise_max(bundle, BLANK)
    assert np.array_equal(out.selected_posteriors.probs, p.probs)


def test_framewise_max_tie_breaks_low_index():
    a = PosteriorSequence(np.array([[0.5, 0.25, 0.25]]))
    b = PosteriorSequence(np.array([[0.25, 0.5, 0.25]]))
    out = framewise_max(TeacherBundle("u", [a, b]), BLANK)
    assert np.array_equal(out.selected_posteriors.probs[0], a.probs[0])


# -- elitist select ----------------------------------------------------------------

def test_elitist_argmax():
    rows = [np.array([[0.8, 0.2]]), np.array([[0.9, 0.1]]), np.array([[0.85, 0.15]])]
    bundle = TeacherBundle("u", [PosteriorSequence(r) for r in rows])
    out = elitist_select(bundle, BLANK)
    assert out.winning_teacher == 1
    assert out.sequence_confidence == pytest.approx(0.9)
    assert out.per_teacher_scores == pytest.approx([0.8, 0.9, 0.85])
    assert out.sequence_confidence == out.per_teacher_scores[out.winning_teacher]


def test_elitist_tie_breaks_low_index(rng):
    p = random_posteriors(rng, 4, 3)
    bundle = TeacherBundle("u", [PosteriorSequence(p.probs.copy()) for _ in range(3)])
    out = elitist_select(bundle, BLANK)
    assert out.winning_teacher == 0


def test_elitist_copies_winner_bitwise(rng):
    bundle = make_bundle(rng, K=4)
    out = elitist_select(bundle, BLANK)
    winner = bundle.per_teacher_posteriors[out.winning_teacher]
    assert out.selected_posteriors is winner


def test_elitist_temperature_rescale_recomputed(rng):
    # Flattening one teacher's distribution changes its score; the argmax over
    # recomputed scores matches recomputation from scratch.
    bundle = make_bundle(rng, K=3)
    out = elitist_select(bundle, BLANK)
    flat = bundle.per_teacher_posteriors[out.winning_teacher].probs
    flat = flat ** 0.1
    flat /= flat.sum(axis=1, keepdims=True)
    posts = list(bundle.per_teacher_posteriors)
    posts[out.winning_teacher] = PosteriorSequence(flat, "u")
    new_bundle = TeacherBundle("u", posts)
    new_out = elitist_select(new_bundle, BLANK)
    want = int(np.argmax([two_pass_confidence(p.probs) for p in posts]))
    assert new_out.winning_teacher == want


def test_k1_identity_across_strategies(rng):
    bundle = make_bundle(rng, K=1)
    outs = [teacher_average(bundle, BLANK), framewise_max(bundle, BLANK),
            elitist_select(bundle, BLANK)]
    ref = outs[0]
    for out in outs[1:]:
        assert np.array_equal(out.selected_posteriors.probs, ref.selected_posteriors.probs)
        assert np.array_equal(out.pseudo_transcript, ref.pseudo_transcript)
        assert out.sequence_confidence == pytest.approx(ref.sequence_confidence, abs=1e-12)


def test_uniform_teacher_degradation_property(rng):
    # Appending a uniform teacher never changes the elitist winner's rows but
    # always changes the frame-wise average.
    for _ in range(50):
        bundle = make_bundle(rng, K=int(rng.integers(1, 4)), T=int(rng.integers(1, 7)),
                             z=int(rng.integers(2, 6)))
        T, z = bundle.per_teacher_posteriors[0].probs.shape
        extended = TeacherBundle(
            "u", list(bundle.per_teacher_posteriors) + [uniform_sequence(T, z)])
        before = elitist_select(bundle, BLANK)
        after = elitist_select(extended, BLANK)
        assert np.array_equal(before.selected_posteriors.probs,
                              after.selected_posteriors.probs)
        avg_before = teacher_average(bundle, BLANK).selected_posteriors.probs
        avg_after = teacher_average(extended, BLANK).selected_posteriors.probs
        assert not np.array_equal(avg_before, avg_after)


def test_permutation_equivariance(rng):
    bundle = make_bundle(rng, K=4)
    perm = [2, 0, 3, 1]
    permuted = TeacherBundle("u", [bundle.per_teacher_posteriors[i] for i in perm])
    a = elitist_select(bundle, BLANK)
    b = elitist_select(permuted, BLANK)
    assert perm[b.winning_teacher] == a.winning_teacher
    assert np.array_equal(a.selected_posteriors.probs, b.selected_posteriors.probs)


# -- corpus-level ------------------------------------------------------------------

def test_select_corpus_empty():
    result = select_corpus(Strategy.ELITIST, [], BLANK)
    assert result.outcomes == [] and result.skipped == [] and result.win_counts == []


def test_select_corpus_dominating_teacher(rng):
    bundles = []
    for i in range(10):
        sharp = random_posteriors(rng, 5, 4, f"u{i}").probs ** 8
        sharp /= sharp.sum(axis=1, keepdims=True)
        posts = [uniform_sequence(5, 4, f"u{i}"), uniform_sequence(5, 4, f"u{i}"),
                 PosteriorSequence(sharp, f"u{i}")]
        bundles.append(TeacherBundle(f"u{i}", posts))
    result = select_corpus(Strategy.ELITIST, bundles, BLANK)
    assert result.win_counts == [0, 0, 10]


def test_select_corpus_win_counts_match_recount(rng):
    bundles = [make_bundle(rng, K=3, uid=f"u{i}") for i in range(40)]
    result = select_corpus(Strategy.ELITIST, bundles, BLANK)
    recount = [0, 0, 0]
    for o in result.outcomes:
        recount[o.winning_teacher] += 1
    assert result.win_counts == recount
    assert sum(result.win_counts) == len(bundles) - len(result.skipped)


def test_select_corpus_skips_bad_bundle(rng, caplog):
    good = make_bundle(rng, K=2, uid="good")
    bad = make_bundle(rng, K=3, uid="bad")
    with caplog.at_level("WARNING"):
        result = select_corpus(Strategy.ELITIST, [good, bad], BLANK)
    assert len(result.outcomes) == 1
    assert result.skipped[0][0] == "bad"


# -- persistence -------------------------------------------------------------------

def test_posteriors_round_trip(tmp_path, rng):
    posts = [random_posteriors(rng, int(rng.integers(1, 7)), 4, f"u{i}") for i in range(5)]
    path = tmp_path / "p.ekdp"
    save_posteriors(path, posts, "teacher_x", "hash123")
    header, loaded = load_posteriors(path)
    assert header["model_id"] == "teacher_x"
    assert len(loaded) == 5
    for a, b in zip(posts, loaded):
        assert a.utterance_id == b.utterance_id
        assert np.array_equal(a.probs, b.probs)
    again = tmp_path / "p2.ekdp"
    save_posteriors(again, loaded, header["model_id"], header["vocabulary_hash"])
    assert again.read_bytes() == path.read_bytes()


def test_load_posteriors_refuses_non_finite_entries(tmp_path, rng):
    posts = [random_posteriors(rng, 3, 4, f"u{i}") for i in range(3)]
    posts[1].probs[2, 0] = np.nan
    path = tmp_path / "p.ekdp"
    save_posteriors(path, posts, "teacher_x", "hash123")
    with pytest.raises(ValueError, match="'u1'.*finite"):
        load_posteriors(path)


def test_selection_round_trip(tmp_path, rng):
    bundles = [make_bundle(rng, K=3, uid=f"u{i}") for i in range(6)]
    bundles.append(make_bundle(rng, K=2, uid="bad"))
    result = select_corpus(Strategy.ELITIST, bundles, BLANK)
    path = tmp_path / "s.ekds"
    save_selection(path, result, "hash123")
    header, loaded = load_selection(path)
    assert header["vocabulary_hash"] == "hash123"
    assert loaded.strategy is Strategy.ELITIST
    assert loaded.win_counts == result.win_counts
    assert loaded.skipped == result.skipped
    assert len(loaded.outcomes) == len(result.outcomes)
    for a, b in zip(result.outcomes, loaded.outcomes):
        assert b.utterance_id == a.utterance_id
        assert b.selected_posteriors is None
        assert np.array_equal(a.pseudo_transcript, b.pseudo_transcript)
        assert a.sequence_confidence == b.sequence_confidence
        assert a.winning_teacher == b.winning_teacher
        assert a.per_teacher_scores == b.per_teacher_scores
    # The header holds every outcome; there are no arrays.
    header, arrays = binio.read_container(path, "selection", SELECTION_FORMAT_VERSION)
    assert arrays == [] and len(header["outcomes"]) == len(result.outcomes)
    again = tmp_path / "s2.ekds"
    save_selection(again, loaded, "hash123")
    assert again.read_bytes() == path.read_bytes()


def test_selection_round_trips_bit_exactly(tmp_path, rng):
    # Scores and confidences come back with every bit, transcripts with
    # every symbol, also for floats that print long or are subnormal.
    hard = [0.1 + 0.2, 1.0 - 2.0 ** -53, 5e-324, 2.0 ** -1022, 1 / 3, 0.0, 1.0]
    outcomes = [SelectionOutcome(f"u{i}", None, i % 3, [float(x) for x in rng.uniform(size=3)],
                                 rng.integers(1, 7, size=int(rng.integers(1, 12))),
                                 float(rng.uniform())) for i in range(20)]
    outcomes += [SelectionOutcome(f"h{i}", None, 0, [x, 1.0 - x, x / 7], [1], x)
                 for i, x in enumerate(hard)]
    selection = CorpusSelection(Strategy.ELITIST, outcomes, [9, 10, 8], [("bad", "too short")])
    path = tmp_path / "s.ekds"
    save_selection(path, selection, "hash123")
    _, loaded = load_selection(path)

    def bits(values):
        return np.array(values, dtype=np.float64).tobytes()

    assert [o.utterance_id for o in loaded.outcomes] == [o.utterance_id for o in outcomes]
    for a, b in zip(outcomes, loaded.outcomes):
        assert bits(b.per_teacher_scores) == bits(a.per_teacher_scores)
        assert bits([b.sequence_confidence]) == bits([a.sequence_confidence])
        assert b.pseudo_transcript.dtype == np.int64
        assert np.array_equal(b.pseudo_transcript, a.pseudo_transcript)
        assert b.winning_teacher == a.winning_teacher
    assert (loaded.win_counts, loaded.skipped) == ([9, 10, 8], [("bad", "too short")])


def test_confidence_out_of_range_rejected():
    for confidence in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="u7: sequence_confidence"):
            SelectionOutcome("u7", None, None, None, [0], confidence)


def test_load_selection_rejects_confidence_out_of_range(tmp_path, rng):
    selection = select_corpus(Strategy.ELITIST, [make_bundle(rng, uid="u0")], BLANK)
    path = tmp_path / "s.ekds"
    for confidence in (1.5, float("nan")):
        selection.outcomes[0].sequence_confidence = confidence
        save_selection(path, selection, "hash123")
        with pytest.raises(binio.FormatError, match=f"^{re.escape(str(path))}: .*u0: sequence_confidence"):
            load_selection(path)


def test_student_trains_the_same_on_a_loaded_selection(tmp_path, rng):
    # The pipeline trains students on load_selection outcomes, which carry no
    # posteriors; the result must equal training on the in-memory outcomes.
    vocab = default_vocabulary("abcd")
    scale, bias = build_transform(6, 0.5, 42)
    spec = DomainSpec("dom", 0.25, scale, bias, (2, 3), (2, 4), ("ab", "cd", "bca", "da"))
    corpus = generate_corpus(spec, vocab, 12, seed=3).without_transcripts()
    bundles = [TeacherBundle(u.id, [random_posteriors(rng, u.num_frames, vocab.size, u.id)
                                    for _ in range(2)]) for u in corpus.utterances]
    selection = select_corpus(Strategy.ELITIST, bundles, vocab.blank_index)
    path = tmp_path / "s.ekds"
    save_selection(path, selection, vocab.content_hash())

    def train(outcomes):
        return train_student(outcomes, corpus, ModelConfig(hidden_sizes=(8,), seed=1),
                             TrainConfig(epochs=2, batch_size=4, seed=2))

    in_memory, loaded = train(selection.outcomes), train(load_selection(path)[1].outcomes)
    assert all(np.array_equal(a, b) for a, b in zip(in_memory.weights, loaded.weights))
    assert in_memory.training_meta == loaded.training_meta


def test_summary_text_counts(rng):
    bundles = [make_bundle(rng, K=2, uid=f"u{i}") for i in range(4)]
    result = select_corpus(Strategy.ELITIST, bundles, BLANK)
    text = result.summary_text()
    assert "win counts" in text and "selected: 4" in text
