"""Acceptance suite: every release criterion, one test each, with a printed
pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``).

Criteria 7-10 share a single five-seed run of the default experiment config
(session fixture), and so do the check that LM-off greedy decoding gives the
beam's words and the check of seed 11's files against their pinned digests; the
determinism criterion re-runs a compact config twice.
"""
import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from ekd import pipeline
from ekd.beam import BeamConfig, beam_decode
from ekd.config import default_config
from ekd.corpus import load_corpus, transcript_read_count
from ekd.ctc import (PosteriorSequence, ctc_loss, greedy_decode, min_frames_for_target,
                     softmax)
from ekd.lm import load_arpa, train_lm
from ekd.model import load_checkpoint
from ekd.pipeline import SeedPaths, _eval_matrix, run_pipeline
from ekd.report import ResultTable
from ekd.selection import (Strategy, TeacherBundle, elitist_scores, elitist_select,
                           framewise_max, teacher_average)
from ekd.svcca import ActivationMatrix, cca, svcca
from ekd.training import corpus_posteriors
from ekd.vocab import default_vocabulary
from ekd.wer import wer

import golden_digests
from conftest import compact_config, random_posteriors
from oracles import (brute_cca, brute_ctc, fd_ctc_gradient, recursive_edit_distance,
                     two_pass_confidence)


def record(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {status}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One full run of the default config (3 unequal teachers, 1 unseen
    student domain, 5 seeds); shared by criteria 7-10."""
    root = tmp_path_factory.mktemp("default-run") / "out"
    cfg = default_config()
    start = time.monotonic()
    run_pipeline(cfg, str(root))
    elapsed = time.monotonic() - start
    tables = {}
    for seed in cfg.seeds:
        paths = SeedPaths(root, seed)
        tables[seed] = ResultTable.from_tsv((paths.report / "results.tsv").read_text())
    return cfg, root, tables, elapsed


def test_criterion_01_ctc_oracle_equivalence(rng):
    start = time.monotonic()
    checked = 0
    worst = 0.0
    while checked < 1000:
        T = int(rng.integers(1, 7))
        z = int(rng.integers(2, 5))
        L = int(rng.integers(1, 4))
        target = rng.integers(0, z - 1, size=L)
        if min_frames_for_target(target) > T:
            continue
        probs = random_posteriors(rng, T, z).probs
        got = ctc_loss(np.log(probs), target, blank=z - 1).loss
        want = -math.log(brute_ctc(probs, target, blank=z - 1))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        checked += 1
    elapsed = time.monotonic() - start
    record(1, "ctc_loss equals the exhaustive path-sum oracle on 1000 instances",
           worst < 1e-10 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_ctc_gradient(rng):
    worst = 0.0
    checked = 0
    while checked < 100:
        T = int(rng.integers(2, 7))
        z = int(rng.integers(2, 5))
        L = int(rng.integers(1, 4))
        target = rng.integers(0, z - 1, size=L)
        if min_frames_for_target(target) > T:
            continue
        logits = rng.normal(size=(T, z))
        analytic = ctc_loss(softmax(logits).log_probs(), target, blank=z - 1).grad_logits
        fd = fd_ctc_gradient(logits, target, blank=z - 1, eps=1e-5)
        worst = max(worst, float(np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd)))))
        checked += 1
    record(2, "analytic CTC gradient matches central finite differences on 100 instances",
           worst < 1e-4, f"max rel err {worst:.2e}")


def _random_bundle(rng, K=None, uid="u"):
    K = K or int(rng.integers(1, 5))
    T = int(rng.integers(1, 8))
    z = int(rng.integers(2, 6))
    return TeacherBundle(uid, [random_posteriors(rng, T, z, uid) for _ in range(K)])


def test_criterion_03_selection_invariants(rng):
    ok = True
    for i in range(1000):
        bundle = _random_bundle(rng, uid=f"u{i}")
        T, z = bundle.per_teacher_posteriors[0].probs.shape
        # K=1 identity across all three strategies
        solo = TeacherBundle(bundle.utterance_id, [bundle.per_teacher_posteriors[0]])
        outs = [teacher_average(solo, 0), framewise_max(solo, 0), elitist_select(solo, 0)]
        for out in outs[1:]:
            ok &= np.array_equal(out.selected_posteriors.probs,
                                 outs[0].selected_posteriors.probs)
            ok &= np.array_equal(out.pseudo_transcript, outs[0].pseudo_transcript)
        # elitist passes the winner through bitwise
        chosen = elitist_select(bundle, 0)
        ok &= chosen.selected_posteriors is bundle.per_teacher_posteriors[chosen.winning_teacher]
        # appending a uniform teacher: elitist winner rows unchanged, average changed
        uniform = PosteriorSequence(np.full((T, z), 1.0 / z), bundle.utterance_id)
        extended = TeacherBundle(bundle.utterance_id,
                                 list(bundle.per_teacher_posteriors) + [uniform])
        ok &= np.array_equal(chosen.selected_posteriors.probs,
                             elitist_select(extended, 0).selected_posteriors.probs)
        ok &= not np.array_equal(teacher_average(bundle, 0).selected_posteriors.probs,
                                 teacher_average(extended, 0).selected_posteriors.probs)
        if not ok:
            break
    record(3, "selection invariants (K=1 identity, bitwise winner, uniform-teacher "
              "degradation) over 1000 bundles", ok)


def test_criterion_04_elitist_score_oracle(rng):
    worst = 0.0
    for i in range(1000):
        bundle = _random_bundle(rng, uid=f"u{i}")
        got = elitist_scores(bundle)
        want = [two_pass_confidence(p.probs) for p in bundle.per_teacher_posteriors]
        worst = max(worst, float(np.max(np.abs(np.asarray(got) - np.asarray(want)))))
    record(4, "elitist scores match the independent two-pass oracle on 1000 bundles",
           worst <= 1e-12, f"max abs err {worst:.2e}")


def test_criterion_05_svcca_properties(rng):
    ok = True
    details = []
    # self-correlation
    a = ActivationMatrix("l", rng.normal(size=(400, 6)))
    self_rho = svcca(a, a, 0.99).mean_rho
    ok &= abs(self_rho - 1.0) <= 1e-6
    details.append(f"self {self_rho:.8f}")
    # affine invariance
    m = rng.normal(size=(6, 6)) + 4 * np.eye(6)
    b = ActivationMatrix("l", a.data @ m + rng.normal(size=6))
    base = cca(a, a).canonical_correlations
    inv = cca(a, b).canonical_correlations
    affine_err = float(np.max(np.abs(base - inv)))
    ok &= affine_err <= 1e-6
    details.append(f"affine err {affine_err:.2e}")
    # small-dimension oracle agreement
    worst = 0.0
    for _ in range(25):
        da, db = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = ActivationMatrix("x", rng.normal(size=(200, da)))
        y = ActivationMatrix("y", rng.normal(size=(200, db))
                             + 0.2 * np.tile(x.data.mean(axis=1, keepdims=True), db))
        got = cca(x, y).canonical_correlations
        want = brute_cca(x.data, y.data)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok &= worst <= 1e-8
    details.append(f"oracle err {worst:.2e}")
    # independent high-sample correlations stay low
    low = 0
    for seed in range(20):
        g = np.random.default_rng(seed)
        u = ActivationMatrix("u", g.normal(size=(10000, 5)))
        v = ActivationMatrix("v", g.normal(size=(10000, 5)))
        if cca(u, v).mean_rho < 0.1:
            low += 1
    ok &= low >= 18
    details.append(f"low-corr seeds {low}/20")
    record(5, "SVCCA self-correlation, affine invariance, small-d oracle, and "
              "independent-noise bounds", ok, ", ".join(details))


def test_criterion_06_wer_and_decoder_reduction(rng):
    pool = ["aa", "bb", "cc", "dd", "ee"]
    ok = True
    for _ in range(10000):
        r = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 9))]
        h = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 9))]
        if wer(r, h).total_errors != recursive_edit_distance(r, h):
            ok = False
            break
    vocab = default_vocabulary("abc")
    # A trained LM at zero weight, with no bonus: the search is acoustic alone.
    lm = train_lm([["ab", "c"], ["ca", "b", "ab"], ["bc"]], order=2)
    cfg = BeamConfig(beam_width=1, lm_weight=0.0, word_insertion_bonus=0.0)
    batch = [random_posteriors(rng, int(rng.integers(1, 13)), vocab.size, f"u{i}")
             for i in range(1000)]
    want = [vocab.indices_to_words(greedy_decode(posts, vocab.blank_index)) for posts in batch]
    reduction_ok = beam_decode(batch, lm, cfg, vocab) == want
    record(6, "WER totals match the recursive oracle (10000 pairs) and beam_width=1 "
              "reduces to greedy decoding (1000 posteriors)", ok and reduction_ok)


def _mean_wer(tables, cfg, model, lm_on):
    test_set = f"{cfg.student_domain.name}_test"
    return float(np.mean([tables[s].get(test_set, model, lm_on).breakdown.wer
                          for s in cfg.seeds]))


def test_criterion_07_student_ordering(default_run):
    cfg, root, tables, elapsed = default_run
    elitist = _mean_wer(tables, cfg, "student_elitist", False)
    fw_max = _mean_wer(tables, cfg, "student_framewise_max", False)
    avg = _mean_wer(tables, cfg, "student_teacher_average", False)
    ok = elitist < fw_max and elitist < avg and elapsed < 20 * 60
    record(7, "mean held-out WER ordering: elitist student beats frame-wise-max and "
              "teacher-average students (5 seeds, default config)",
           ok, f"elitist {elitist:.3f} vs fw_max {fw_max:.3f} vs avg {avg:.3f}, "
               f"pipeline {elapsed:.0f}s")


def test_criterion_08_teacher_diagonal_dominance(default_run):
    cfg, root, tables, _ = default_run
    test_sets = [f"{r.name}_test" for r in cfg.all_domains()]
    ok = True
    for seed in cfg.seeds:
        for recipe in cfg.teacher_domains:
            model = f"teacher_{recipe.name}"
            own = f"{recipe.name}_test"
            for lm_on in (False, True):
                own_wer = tables[seed].get(own, model, lm_on).breakdown.wer
                for ts in test_sets:
                    if ts == own:
                        continue
                    if not own_wer < tables[seed].get(ts, model, lm_on).breakdown.wer:
                        ok = False
    record(8, "every teacher's in-domain test WER is strictly lowest, all seeds, "
              "with and without LM", ok)


def test_criterion_09_lm_effect(default_run):
    cfg, root, tables, _ = default_run
    test_set = f"{cfg.student_domain.name}_test"
    models = [f"teacher_{r.name}" for r in cfg.teacher_domains]
    models += [f"student_{s}" for s in cfg.strategies]
    ok = True
    details = []
    for model in models:
        wins = sum(tables[s].get(test_set, model, True).breakdown.wer
                   <= tables[s].get(test_set, model, False).breakdown.wer
                   for s in cfg.seeds)
        details.append(f"{model}:{wins}/5")
        if wins < 4:
            ok = False
    record(9, "decoding with the out-of-domain LM does not hurt (>=4 of 5 seeds, "
              "every model, student-domain test)", ok, " ".join(details))


def test_lm_off_greedy_words_equal_the_zero_weight_search(default_run, monkeypatch):
    # Every model of the first seed: the greedy words that evaluate scores
    # without the LM are the words of the beam search with the seed's LM at
    # zero weight and no bonus on every utterance, so decoding LM-off
    # greedily changes no word.
    cfg, root, _, _ = default_run
    paths = SeedPaths(root, cfg.seeds[0])
    test_corpus = functools.cache(load_corpus)
    references, posteriors = [], []
    for _, checkpoint, test_sets in _eval_matrix(cfg, paths):
        model = load_checkpoint(checkpoint)
        for _, path in test_sets:
            corpus = test_corpus(path)
            references.append([corpus.vocabulary.indices_to_words(utt.transcript)
                               for utt in corpus.utterances])
            posteriors.append(corpus_posteriors(model, corpus))
    vocab = cfg.vocabulary()
    greedy = []

    def scoring(reference, hypothesis):
        greedy.append(hypothesis)
        return wer(reference, hypothesis)

    monkeypatch.setattr(pipeline, "wer", scoring)
    pipeline.evaluate_model(references, posteriors, None, cfg, vocab)
    zero = dataclasses.replace(cfg.beam, lm_weight=0.0, word_insertion_bonus=0.0)
    searched = beam_decode([p for posts in posteriors for p in posts],
                           load_arpa(paths.lm / "ngram.arpa"), zero, vocab)
    same = sum(g == s for g, s in zip(greedy, searched))
    print(f"\nLM-off greedy words equal to the zero-weight search's, seed {cfg.seeds[0]}: "
          f"{same} of {len(searched)}")
    assert len(greedy) == len(searched) and same == len(searched) > 0


def test_criterion_10_layer_difference_trend(default_run):
    cfg, root, tables, _ = default_run
    first = "hidden_0"
    last = f"hidden_{len(cfg.model.hidden_sizes) - 1}"
    wins = 0
    pairs = []
    for seed in cfg.seeds:
        paths = SeedPaths(root, seed)
        diffs = {}
        for line in (paths.svcca / "layer_diffs.tsv").read_text().splitlines()[1:]:
            layer, value = line.split("\t")
            diffs[layer] = float(value)
        pairs.append(f"{diffs[first]:.4f}<{diffs[last]:.4f}")
        if diffs[first] < diffs[last]:
            wins += 1
    record(10, "original-vs-pseudo-label SVCCA difference is smaller at the first "
               "hidden layer than at the last (>=4 of 5 seeds)",
           wins >= 4, f"{wins}/5 seeds: " + " ".join(pairs))


def test_seed_11_outputs_match_the_pinned_digests(default_run):
    # Every output byte of default seed 11, against tests/golden/seed_11.sha256.
    # Another Python, NumPy or BLAS may round differently: the test then
    # skips, and never re-pins the file (the README says how to).
    cfg, root, _, _ = default_run
    pinned_env, pinned = golden_digests.read(golden_digests.PINNED.read_text())
    env = golden_digests.environment()
    if env != pinned_env:
        pytest.skip(f"digests pinned under {pinned_env}; this environment is {env}")
    assert 11 in cfg.seeds
    diff = golden_digests.compare(golden_digests.digests(SeedPaths(root, 11).base), pinned)
    assert not any(diff.values()), (f"seed_11 differs from {golden_digests.PINNED.name}: "
                                    + "; ".join(f"{kind}: {paths}" for kind, paths in diff.items()))


def test_criterion_11_label_free_student(tmp_path):
    from ekd.corpus import generate_corpus
    from ekd.selection import select_corpus
    from ekd.training import corpus_posteriors, train_student, train_teacher

    cfg = compact_config(str(tmp_path))
    specs = cfg.expand_domains()
    vocab = cfg.vocabulary()
    teacher_corpus = generate_corpus(specs["beta"], vocab, 24, seed=1)
    teacher = train_teacher(teacher_corpus, cfg.model, cfg.train)
    student_corpus = generate_corpus(specs["delta"], vocab, 24, seed=2)
    posts = corpus_posteriors(teacher, student_corpus)
    bundles = [TeacherBundle(p.utterance_id, [p]) for p in posts]
    selection = select_corpus(Strategy.ELITIST, bundles, vocab.blank_index)
    unlabeled = student_corpus.without_transcripts()
    before = transcript_read_count()
    train_student(selection.outcomes, unlabeled, cfg.model, cfg.train)
    reads = transcript_read_count() - before
    record(11, "instrumented target-transcript reads during student training equal zero",
           reads == 0, f"reads {reads}")


def test_criterion_12_pipeline_determinism(tmp_path):
    cfg_a = compact_config(str(tmp_path / "a"))
    cfg_b = compact_config(str(tmp_path / "b"))
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    seed = cfg_a.seeds[0]
    files = ["report/results.tsv", "report/results.txt", "report/win_counts.txt"]
    same = all((tmp_path / "a" / f"seed_{seed}" / f).read_bytes()
               == (tmp_path / "b" / f"seed_{seed}" / f).read_bytes() for f in files)
    same &= ((tmp_path / "a" / "summary" / "summary.tsv").read_bytes()
             == (tmp_path / "b" / "summary" / "summary.tsv").read_bytes())
    record(12, "full pipeline re-run with identical config/seeds is bit-identical", same)
