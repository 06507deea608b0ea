import numpy as np
import pytest

from ekd.beam import BeamConfig, beam_decode
from ekd.ctc import PosteriorSequence, greedy_decode
from ekd.lm import NgramLm, train_lm
from ekd.vocab import default_vocabulary

from conftest import random_posteriors
from oracles import exhaustive_beam_best, object_beam_decode

VOCAB = default_vocabulary("ab")
TRANSCRIPTS = [["a", "b"], ["ab", "a"], ["b", "ab"], ["a"], ["ab", "b", "a"], ["ba", "ab"]]
LM = train_lm(TRANSCRIPTS, order=2)
LM3 = train_lm(TRANSCRIPTS, order=3)


def test_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(beam_width=0)
    with pytest.raises(ValueError):
        BeamConfig(lm_weight=-0.1)


def test_width_one_no_lm_equals_greedy(rng):
    cfg = BeamConfig(beam_width=1, lm_weight=0.4, word_insertion_bonus=0.0)
    for _ in range(200):
        posts = random_posteriors(rng, int(rng.integers(1, 16)), VOCAB.size)
        want = VOCAB.indices_to_words(greedy_decode(posts, VOCAB.blank_index))
        assert beam_decode(posts, None, cfg, VOCAB) == want


def test_lm_weight_zero_ignores_lm(rng):
    cfg = BeamConfig(beam_width=6, lm_weight=0.0, word_insertion_bonus=0.3)
    for _ in range(50):
        posts = random_posteriors(rng, int(rng.integers(1, 10)), VOCAB.size)
        assert beam_decode(posts, LM, cfg, VOCAB) == beam_decode(posts, None, cfg, VOCAB)


def test_matches_exhaustive_oracle(rng):
    cfg = BeamConfig(beam_width=4096, lm_weight=0.7, word_insertion_bonus=0.4)
    for _ in range(60):
        posts = random_posteriors(rng, int(rng.integers(1, 6)), VOCAB.size)
        got = beam_decode(posts, LM, cfg, VOCAB)
        want = exhaustive_beam_best(posts.probs, LM, cfg.lm_weight,
                                    cfg.word_insertion_bonus, VOCAB)
        assert got == want


def test_matches_exhaustive_oracle_no_lm(rng):
    cfg = BeamConfig(beam_width=4096, lm_weight=0.0, word_insertion_bonus=0.0)
    for _ in range(40):
        posts = random_posteriors(rng, int(rng.integers(1, 6)), VOCAB.size)
        got = beam_decode(posts, None, cfg, VOCAB)
        assert got == exhaustive_beam_best(posts.probs, None, 0.0, 0.0, VOCAB)


def test_score_monotone_toward_full_width(rng):
    # A beam wide enough to cover the whole state space never scores below
    # any narrower beam. (Adjacent widths are not pairwise comparable: beam
    # pruning sets do not nest, so a width-2 run can lose the width-1
    # survivor; only the comparison against the complete search is sound.)
    for _ in range(40):
        posts = random_posteriors(rng, int(rng.integers(2, 6)), VOCAB.size)
        full = _score_of(posts.probs,
                         beam_decode(posts, LM, BeamConfig(4096, 0.5, 0.2), VOCAB))
        for width in (1, 2, 8):
            narrow = _score_of(posts.probs,
                               beam_decode(posts, LM, BeamConfig(width, 0.5, 0.2), VOCAB))
            assert narrow <= full + 1e-12


def _score_of(probs, words):
    # score the decoded words under the published rule via the oracle's tables
    from oracles import brute_best_paths, split_words
    import math

    best_ac = brute_best_paths(probs, VOCAB.blank_index)
    matching = [ac for seq, ac in best_ac.items()
                if split_words(seq, VOCAB.word_separator_index, VOCAB.graphemes) == words]
    ac = max(matching)
    return ac + 0.2 * len(words) + 0.5 * math.log(10.0) * LM.sentence_log10_prob(words)


def test_separator_only_output_is_empty(rng):
    probs = np.zeros((3, VOCAB.size))
    probs[:, VOCAB.word_separator_index] = 1.0
    posts = PosteriorSequence(probs)
    assert beam_decode(posts, None, BeamConfig(beam_width=4), VOCAB) == []


def test_posterior_width_must_match_vocab(rng):
    posts = random_posteriors(rng, 4, 3)
    with pytest.raises(ValueError, match="vocabulary"):
        beam_decode(posts, None, BeamConfig(), VOCAB)


def quantised_posteriors(rng, T, z):
    """Probabilities in quarters: many exact score ties, and exact zeros whose
    log is -inf."""
    return PosteriorSequence(rng.multinomial(4, np.full(z, 1.0 / z), size=T) / 4.0)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 12])
@pytest.mark.parametrize("lm", [None, LM, LM3], ids=["no_lm", "bigram", "trigram"])
@pytest.mark.parametrize("bonus", [0.5, -0.3])
def test_matches_object_decoder(width, lm, bonus):
    rng = np.random.default_rng([width, 0 if lm is None else lm.order, int(bonus > 0)])
    cfg = BeamConfig(beam_width=width, lm_weight=0.6, word_insertion_bonus=bonus)
    for i in range(60):
        T = int(rng.integers(1, 20))
        posts = (random_posteriors(rng, T, VOCAB.size) if i % 2
                 else quantised_posteriors(rng, T, VOCAB.size))
        assert beam_decode(posts, lm, cfg, VOCAB) == object_beam_decode(posts, lm, cfg, VOCAB)


def test_matches_object_decoder_on_default_vocabulary(rng):
    vocab = default_vocabulary()
    lm = train_lm([["abc", "de"], ["fgh", "abc"], ["de", "ha", "abc"], ["bad"]], order=3)
    cfg = BeamConfig()
    for i in range(20):
        T = int(rng.integers(20, 60))
        posts = (random_posteriors(rng, T, vocab.size) if i % 2
                 else quantised_posteriors(rng, T, vocab.size))
        for model in (None, lm):
            assert (beam_decode(posts, model, cfg, vocab)
                    == object_beam_decode(posts, model, cfg, vocab))


def test_lm_queried_through_its_method(monkeypatch):
    # The traced benchmark counts LM queries on NgramLm.log10_prob; a decoder
    # that bypasses the method would hide them.
    queried = []
    original = NgramLm.log10_prob

    def counting(self, word, context=()):
        queried.append(word)
        return original(self, word, context)

    monkeypatch.setattr(NgramLm, "log10_prob", counting)
    a, b, sep = VOCAB.index_of("a"), VOCAB.index_of("b"), VOCAB.word_separator_index
    probs = np.full((4, VOCAB.size), 0.1)
    for t, g in enumerate((a, sep, b, sep)):
        probs[t, g] = 1.0 - 0.1 * (VOCAB.size - 1)
    assert beam_decode(PosteriorSequence(probs), LM, BeamConfig(), VOCAB) == ["a", "b"]
    assert "a" in queried and "</s>" in queried
