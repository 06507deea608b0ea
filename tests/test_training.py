import dataclasses
import tracemalloc

import numpy as np
import pytest

from ekd.config import build_transform
from ekd.corpus import Corpus, DomainSpec, Utterance, generate_corpus, transcript_read_count
from ekd import training
from ekd.ctc import (PosteriorSequence, ctc_lattices, ctc_loss, log_softmax, prepare_target,
                     softmax)
from ekd.model import ModelConfig, forward_features, init_model
from ekd.selection import Strategy, TeacherBundle, select_corpus
from ekd.training import (TrainConfig, activation_frame_indices, corpus_posteriors,
                          dump_activations, greedy_corpus_wer, train_student, train_teacher)
from ekd.vocab import default_vocabulary
from oracles import stacked_dump_activations


VOCAB = default_vocabulary("abcd")


def make_spec(noise=0.25, strength=0.5, seed=42, name="dom"):
    scale, bias = build_transform(6, strength, seed)
    return DomainSpec(name, noise, scale, bias, (2, 3), (2, 4),
                      ("ab", "cd", "bca", "da", "adc"))


MODEL_CFG = ModelConfig(context_window=1, hidden_sizes=(20, 14), activation="tanh", seed=1)
TRAIN_CFG = TrainConfig(epochs=14, batch_size=8, learning_rate=3e-3, optimizer="adam",
                        gradient_clip=5.0, seed=5, eval_every=4)


@pytest.fixture(scope="module")
def spec():
    return make_spec()


@pytest.fixture(scope="module")
def corpus(spec):
    return generate_corpus(spec, VOCAB, 48, seed=11)


@pytest.fixture(scope="module")
def teacher(corpus):
    return train_teacher(corpus, MODEL_CFG, TRAIN_CFG)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for optimizer in ("rmsprop", "sgd"):
        with pytest.raises(ValueError, match=f"optimizer '{optimizer}': only 'adam'"):
            TrainConfig(optimizer=optimizer)


def test_overfits_single_utterance(spec):
    tiny = generate_corpus(spec, VOCAB, 1, seed=4)
    cfg = TrainConfig(epochs=200, batch_size=1, learning_rate=1e-2, optimizer="adam", seed=2)
    model = train_teacher(tiny, MODEL_CFG, cfg)
    assert model.training_meta["final_mean_loss"] < 0.1


def test_training_deterministic(corpus):
    a = train_teacher(corpus, MODEL_CFG, TRAIN_CFG)
    b = train_teacher(corpus, MODEL_CFG, TRAIN_CFG)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_in_domain_beats_out_of_domain(teacher, spec):
    other = make_spec(strength=0.9, seed=999, name="other")
    in_test = generate_corpus(spec, VOCAB, 16, seed=77)
    out_test = generate_corpus(other, VOCAB, 16, seed=77)
    assert greedy_corpus_wer(teacher, in_test) < greedy_corpus_wer(teacher, out_test)


def test_missing_transcripts_rejected(corpus):
    with pytest.raises(ValueError, match="transcripts"):
        train_teacher(corpus.without_transcripts(), MODEL_CFG, TRAIN_CFG)


def test_unscorable_teacher_transcript_fails_before_training(spec, monkeypatch):
    small = generate_corpus(spec, VOCAB, 4, seed=21)
    bad = small.utterances[2]
    monkeypatch.setattr(training, "init_model",
                        lambda *args, **kwargs: pytest.fail("training started"))
    for transcript, reason in (([], "target must be non-empty"),
                               ([1, 2] * bad.num_frames,
                                f"needs {2 * bad.num_frames} frames, got {bad.num_frames}")):
        utterances = list(small.utterances)
        utterances[2] = Utterance(bad.id, bad.features, transcript)
        broken = dataclasses.replace(small, utterances=utterances)
        with pytest.raises(ValueError, match=f"{small.name!r}.*{bad.id}.*{reason}"):
            train_teacher(broken, MODEL_CFG, TRAIN_CFG)


def test_mean_loss_logged_every_eval_every(spec, caplog):
    small = generate_corpus(spec, VOCAB, 4, seed=21)
    with caplog.at_level("INFO", logger="ekd.training"):
        model = train_teacher(small, MODEL_CFG,
                              dataclasses.replace(TRAIN_CFG, epochs=5, eval_every=2))
    curve = model.training_meta["loss_curve"]
    assert [r.getMessage() for r in caplog.records] == [
        f"{small.name} epoch {e}: mean loss {curve[e - 1]:.6f} over 4 utterances"
        for e in (2, 4, 5)]


def test_divergence_aborts_with_diagnostic(corpus):
    from ekd.training import TrainingDivergedError

    model_cfg = ModelConfig(context_window=1, hidden_sizes=(12, 8), seed=1)
    wild = TrainConfig(epochs=8, batch_size=4, learning_rate=1e100, gradient_clip=1e12, seed=5)
    with np.errstate(all="ignore"):  # the diverging batch overflows on purpose
        with pytest.raises(TrainingDivergedError,
                           match="^epoch 1: non-finite weights after an update"):
            train_teacher(corpus, model_cfg, wild)


def test_loss_curve_recorded(teacher):
    curve = teacher.training_meta["loss_curve"]
    assert len(curve) == TRAIN_CFG.epochs
    assert curve[-1] < curve[0]


def test_end_to_end_gradient_tiny_model(rng):
    # Whole-network finite differences on a model small enough to perturb.
    cfg = ModelConfig(context_window=0, hidden_sizes=(3,), activation="tanh", seed=8)
    model = init_model(cfg, 2, 3, "h")  # 2*3+3 + 3*3+3 = 21 weights
    feats = rng.normal(size=(4, 2))
    target = np.array([0, 1])

    def total_loss(weights):
        saved = [w.copy() for w in model.weights]
        for w, nw in zip(model.weights, weights):
            w[:] = nw
        logits, _, _ = forward_features(model, feats, with_cache=True)
        loss = ctc_loss(log_softmax(logits), target, blank=2).loss
        for w, s in zip(model.weights, saved):
            w[:] = s
        return loss

    logits, _, cache = forward_features(model, feats, with_cache=True)
    result = ctc_loss(log_softmax(logits), target, blank=2)
    from ekd.model import backward_features

    grads = backward_features(model, cache, result.grad_logits)
    eps = 1e-6
    for wi in range(len(model.weights)):
        flat = model.weights[wi].ravel()
        for k in range(flat.size):
            up = [w.copy() for w in model.weights]
            dn = [w.copy() for w in model.weights]
            up[wi].ravel()[k] += eps
            dn[wi].ravel()[k] -= eps
            fd = (total_loss(up) - total_loss(dn)) / (2 * eps)
            analytic = grads[wi].ravel()[k]
            assert abs(analytic - fd) / max(1.0, abs(fd)) < 1e-3


# -- student training ------------------------------------------------------------

def make_selection(teacher_model, corpus):
    posts = corpus_posteriors(teacher_model, corpus)
    bundles = [TeacherBundle(p.utterance_id, [p]) for p in posts]
    return select_corpus(Strategy.ELITIST, bundles, VOCAB.blank_index)


def test_student_never_reads_labels(teacher, corpus):
    selection = make_selection(teacher, corpus)
    unlabeled = corpus.without_transcripts()
    before = transcript_read_count()
    train_student(selection.outcomes, unlabeled, MODEL_CFG,
                  dataclasses.replace(TRAIN_CFG, epochs=2))
    assert transcript_read_count() - before == 0


def test_posteriors_refuse_another_vocabulary(teacher, corpus):
    # Same size, other symbols: a corpus regenerated with new vocabulary letters.
    relabelled = dataclasses.replace(corpus, vocabulary=default_vocabulary("dcba"))
    with pytest.raises(ValueError, match=f"corpus {corpus.name!r}: vocabulary differs"):
        corpus_posteriors(teacher, relabelled)
    with pytest.raises(ValueError, match="vocabulary differs"):
        greedy_corpus_wer(teacher, relabelled)


def test_corpus_posteriors_match_a_softmax_per_utterance(teacher, corpus):
    # One softmax over the whole corpus gives every row the bits of a
    # softmax of its utterance alone.
    assert len({u.num_frames for u in corpus.utterances}) > 1
    posts = corpus_posteriors(teacher, corpus)
    assert [p.utterance_id for p in posts] == [u.id for u in corpus.utterances]
    for p, u in zip(posts, corpus.utterances):
        alone = softmax(forward_features(teacher, u.features)[0], u.id)
        assert np.array_equal(p.probs, alone.probs)


def test_non_finite_logits_name_their_utterance(teacher, corpus, monkeypatch):
    third = corpus.utterances[2]
    real = training.forward_features

    def forward(model, features, *args, **kwargs):
        logits, acts = real(model, features, *args, **kwargs)
        if features is third.features:
            logits = logits.copy()
            logits[1, 0] = np.nan
        return logits, acts

    monkeypatch.setattr(training, "forward_features", forward)
    with pytest.raises(ValueError, match=f"^utterance {third.id!r}: non-finite logits$"):
        corpus_posteriors(teacher, corpus)


def test_student_requires_stripped_corpus(teacher, corpus):
    selection = make_selection(teacher, corpus)
    with pytest.raises(ValueError, match="strip"):
        train_student(selection.outcomes, corpus, MODEL_CFG, TRAIN_CFG)


def test_zero_confidence_freezes_weights(teacher, corpus):
    selection = make_selection(teacher, corpus)
    for o in selection.outcomes:
        o.sequence_confidence = 0.0
    unlabeled = corpus.without_transcripts()
    model = train_student(selection.outcomes, unlabeled, MODEL_CFG,
                          dataclasses.replace(TRAIN_CFG, epochs=2))
    fresh = init_model(MODEL_CFG, corpus.feature_dim, VOCAB.size, VOCAB.content_hash())
    for w, f in zip(model.weights, fresh.weights):
        assert np.array_equal(w, f)


def test_coverage_gap_skipped(teacher, corpus, caplog):
    selection = make_selection(teacher, corpus)
    partial = selection.outcomes[:-3]
    unlabeled = corpus.without_transcripts()
    with caplog.at_level("WARNING"):
        model = train_student(partial, unlabeled, MODEL_CFG,
                              dataclasses.replace(TRAIN_CFG, epochs=1))
    assert "no selection" in caplog.text
    assert model.training_meta["covered_utterances"] == len(corpus) - 3
    with pytest.raises(ValueError, match=f"corpus {corpus.name!r}: no utterance to train on"):
        train_student([], unlabeled, MODEL_CFG, TRAIN_CFG)


def test_training_meta_of_teacher_and_student(teacher, corpus):
    shared = {"corpus", "epochs", "final_mean_loss", "final_sum_loss", "loss_curve", "objective"}
    meta = teacher.training_meta
    assert meta.keys() == shared
    assert (meta["corpus"], meta["epochs"], meta["objective"]) == (corpus.name, 14, "ctc")
    assert meta["final_mean_loss"] == meta["loss_curve"][-1]
    assert meta["final_sum_loss"] == meta["final_mean_loss"] * len(corpus)
    partial = make_selection(teacher, corpus).outcomes[:-3]
    student = train_student(partial, corpus.without_transcripts(), MODEL_CFG,
                            dataclasses.replace(TRAIN_CFG, epochs=2))
    meta = student.training_meta
    assert meta.keys() == shared | {"covered_utterances"}
    assert (meta["corpus"], meta["epochs"], meta["objective"], meta["covered_utterances"]) == (
        corpus.name, 2, "soft_ctc_kd/posterior_weighted_ctc", len(corpus) - 3)
    assert len(meta["loss_curve"]) == 2
    assert meta["final_mean_loss"] == meta["loss_curve"][-1]
    assert meta["final_sum_loss"] == meta["final_mean_loss"] * (len(corpus) - 3)


def test_student_learns_from_good_teacher(teacher, corpus, spec):
    selection = make_selection(teacher, corpus)
    unlabeled = corpus.without_transcripts()
    student = train_student(selection.outcomes, unlabeled, MODEL_CFG,
                            dataclasses.replace(TRAIN_CFG, epochs=10))
    held_out = generate_corpus(spec, VOCAB, 16, seed=123)
    teacher_wer = greedy_corpus_wer(teacher, held_out)
    student_wer = greedy_corpus_wer(student, held_out)
    assert student_wer <= teacher_wer + 0.10


def test_snapshot_hook_cadence(corpus):
    seen = []
    train_teacher(corpus, MODEL_CFG, dataclasses.replace(TRAIN_CFG, epochs=8, eval_every=3),
                  snapshot_hook=lambda e, m: seen.append(e))
    assert seen == [3, 6, 8]


# -- minibatch lattices -----------------------------------------------------------

def _one_at_a_time(log_probs_list, prepared):
    return [ctc_lattices([lp], [t])[0] for lp, t in zip(log_probs_list, prepared)]


def test_batched_lattices_train_bit_identical_models(teacher, corpus, monkeypatch):
    cfg = dataclasses.replace(TRAIN_CFG, epochs=3)
    selection = make_selection(teacher, corpus)
    unlabeled = corpus.without_transcripts()

    def both():
        return (train_teacher(corpus, MODEL_CFG, cfg),
                train_student(selection.outcomes, unlabeled, MODEL_CFG, cfg))

    batched = both()
    monkeypatch.setattr(training, "ctc_lattices", _one_at_a_time)
    for got, want in zip(both(), batched):
        assert got.training_meta["loss_curve"] == want.training_meta["loss_curve"]
        assert all(np.array_equal(g, w) for g, w in zip(got.weights, want.weights))


def test_each_target_is_prepared_once_per_run(corpus, monkeypatch):
    prepared = []

    def counting(target, n_frames, z, blank):
        prepared.append((tuple(target), n_frames))
        return prepare_target(target, n_frames, z, blank)

    monkeypatch.setattr(training, "prepare_target", counting)
    train_teacher(corpus, MODEL_CFG, dataclasses.replace(TRAIN_CFG, epochs=3))
    assert prepared == [(tuple(u.transcript), u.num_frames) for u in corpus.utterances]


def _posteriors(labels, top, uid):
    """Posteriors whose every frame puts ``top`` on its label of ``labels``."""
    probs = np.full((len(labels), VOCAB.size), (1.0 - top) / (VOCAB.size - 1))
    probs[np.arange(len(labels)), labels] = top
    return PosteriorSequence(probs, uid)


def test_select_records_an_unscorable_winner_as_skipped(caplog):
    """An all-blank winner leaves no CTC target: select records the utterance
    under ``skipped`` with the reason, warns once and counts no win."""
    blank = VOCAB.blank_index
    a, b = [k for k in range(VOCAB.size) if k != blank][:2]
    spoken, silent = [a, blank, b, b, blank], [blank] * 5
    bundles = [TeacherBundle(uid, [_posteriors(first, p, uid), _posteriors(second, q, uid)])
               for uid, first, p, second, q in (("u0", spoken, 0.9, spoken, 0.8),
                                                ("u1", spoken, 0.6, silent, 0.9),
                                                ("u2", spoken, 0.7, spoken, 0.8))]
    with caplog.at_level("WARNING"):
        result = select_corpus(Strategy.ELITIST, bundles, blank)
    assert [o.utterance_id for o in result.outcomes] == ["u0", "u2"]
    assert result.skipped == [("u1", "target must be non-empty")]
    assert result.win_counts == [1, 1]
    assert "utterances skipped: 1" in result.summary_text()
    assert [r.getMessage() for r in caplog.records] == [
        "selection failed for u1: target must be non-empty"]


@pytest.mark.parametrize("transcript, reason", [
    ([], "target must be non-empty"),
    ("too long", "needs {} frames, got {}"),
    ([1, VOCAB.size], "target index out of range"),
    ([-1, 1], "target index out of range"),
    ([1, VOCAB.blank_index], "target must not contain the blank symbol")],
    ids=["empty", "infeasible", "out-of-range", "negative", "blank"])
def test_unscorable_pseudo_transcript_fails_before_training(teacher, spec, monkeypatch,
                                                            transcript, reason):
    small = generate_corpus(spec, VOCAB, 8, seed=21)
    bad = small.utterances[3]
    if transcript == "too long":
        transcript, reason = [1, 2] * bad.num_frames, reason.format(2 * bad.num_frames,
                                                                    bad.num_frames)
    outcomes = [dataclasses.replace(o, pseudo_transcript=transcript) if o.utterance_id == bad.id
                else o for o in make_selection(teacher, small).outcomes]
    monkeypatch.setattr(training, "init_model",
                        lambda *args, **kwargs: pytest.fail("training started"))
    with pytest.raises(ValueError, match=f"corpus {small.name!r}: transcript of {bad.id} "
                                         f"cannot be scored: .*{reason}"):
        train_student(outcomes, small.without_transcripts(), MODEL_CFG, TRAIN_CFG)


def test_student_with_nothing_scorable_names_the_corpus(teacher, corpus):
    outcomes = [dataclasses.replace(o, pseudo_transcript=[])
                for o in make_selection(teacher, corpus).outcomes]
    first = corpus.utterances[0].id
    with pytest.raises(ValueError, match=f"corpus {corpus.name!r}: transcript of {first} "
                                         "cannot be scored: target must be non-empty"):
        train_student(outcomes, corpus.without_transcripts(), MODEL_CFG, TRAIN_CFG)


# -- activation dumps --------------------------------------------------------------

def test_activation_indices_shared(corpus):
    a = activation_frame_indices(1000, 64, seed=5)
    b = activation_frame_indices(1000, 64, seed=5)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == 64
    for n in (1, 7, 10709):  # a full sample is every frame, in order
        assert np.array_equal(activation_frame_indices(n, n, seed=5), np.arange(n))


def test_dump_all_frames(teacher, corpus):
    total = sum(u.num_frames for u in corpus.utterances)
    acts = dump_activations(teacher, corpus, total, seed=0)
    assert acts["hidden_0"].data.shape == (total, 20)
    assert acts["hidden_1"].data.shape == (total, 14)


def test_dump_deterministic_and_shared_indices(teacher, corpus):
    a = dump_activations(teacher, corpus, 100, seed=3)
    b = dump_activations(teacher, corpus, 100, seed=3)
    assert np.array_equal(a["hidden_0"].data, b["hidden_0"].data)
    other = train_teacher(corpus, dataclasses.replace(MODEL_CFG, seed=99), TRAIN_CFG)
    c = dump_activations(other, corpus, 100, seed=3)
    assert c["hidden_0"].data.shape == a["hidden_0"].data.shape
    assert not np.array_equal(a["hidden_0"].data, c["hidden_0"].data)


def test_dump_too_many_frames_rejected(teacher, corpus):
    total = sum(u.num_frames for u in corpus.utterances)
    with pytest.raises(ValueError, match="exceeds"):
        dump_activations(teacher, corpus, total + 1, seed=0)


@pytest.mark.parametrize("n_frames", [0, 1, 32, "all"])
def test_dump_matches_stacked_oracle(teacher, corpus, n_frames):
    lengths = [u.num_frames for u in corpus.utterances]
    n_frames = sum(lengths) if n_frames == "all" else n_frames
    if n_frames == 32:  # the first utterance and 21 others have no sampled frame
        sampled = np.unique(np.searchsorted(
            np.cumsum(lengths), activation_frame_indices(sum(lengths), 32, 3), side="right"))
        assert sampled[0] == 1 and sampled.size == 26
    got = dump_activations(teacher, corpus, n_frames, seed=3)
    want = stacked_dump_activations(teacher, corpus, n_frames, seed=3)
    assert list(got) == list(want) == ["hidden_0", "hidden_1"]
    for name in want:
        assert got[name].layer_name == name
        assert got[name].data.shape == want[name].data.shape
        assert got[name].data.shape[0] == n_frames
        assert got[name].data.tobytes() == want[name].data.tobytes()


def test_dump_memory_does_not_grow_with_the_corpus(teacher, corpus):
    """The traced peak of one call holds the sample and one utterance's
    activations, not every frame of the corpus."""
    def traced_peak(c) -> int:
        dump_activations(teacher, c, 256, seed=3)  # warm-up: lazy imports, caches
        tracemalloc.start()
        try:
            dump_activations(teacher, c, 256, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    repeated = Corpus(corpus.name, corpus.vocabulary, corpus.utterances * 4)
    assert traced_peak(repeated) < 1.5 * traced_peak(corpus)
