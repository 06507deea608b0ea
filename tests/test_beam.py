import dataclasses

import numpy as np
import pytest

from ekd import beam
from ekd.beam import BeamConfig, _Prefixes, beam_decode
from ekd.ctc import PosteriorSequence, greedy_decode
from ekd.lm import NgramLm, train_lm
from ekd.vocab import default_vocabulary

from conftest import random_posteriors
from oracles import exhaustive_beam_best, object_beam_decode

VOCAB = default_vocabulary("ab")
TRANSCRIPTS = [["a", "b"], ["ab", "a"], ["b", "ab"], ["a"], ["ab", "b", "a"], ["ba", "ab"]]
LM1 = train_lm(TRANSCRIPTS, order=1)
LM = train_lm(TRANSCRIPTS, order=2)
LM3 = train_lm(TRANSCRIPTS, order=3)


def test_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(beam_width=0)
    with pytest.raises(ValueError):
        BeamConfig(lm_weight=-0.1)
    # A NaN weight would make every fused score NaN.
    for key in ("lm_weight", "word_insertion_bonus"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                BeamConfig(**{key: value})


def fused(lm, cfg):
    """The (LM, config) that ``beam_decode`` takes for the search that
    ``object_beam_decode(posts, lm, cfg, vocab)`` runs. The LM-free search
    (``lm`` None) is a trained LM fused at zero weight."""
    return (LM3, dataclasses.replace(cfg, lm_weight=0.0)) if lm is None else (lm, cfg)


def batch_of(rng, n, max_frames, z=VOCAB.size, min_frames=1):
    """``n`` posteriors of mixed lengths, each named by its position."""
    return [random_posteriors(rng, int(rng.integers(min_frames, max_frames + 1)), z, f"u{i}")
            for i in range(n)]


def test_width_one_no_lm_equals_greedy(rng):
    # A trained LM at zero weight, with no bonus.
    cfg = BeamConfig(beam_width=1, lm_weight=0.0, word_insertion_bonus=0.0)
    batch = batch_of(rng, 200, 15)
    want = [VOCAB.indices_to_words(greedy_decode(posts, VOCAB.blank_index)) for posts in batch]
    assert beam_decode(batch, LM, cfg, VOCAB) == want


def test_lm_weight_zero_ignores_lm(rng, monkeypatch):
    # At zero weight, every LM order gives the LM-free reference's words, on
    # random and quantised posteriors and in chunks of several sizes.
    cfg = BeamConfig(beam_width=6, lm_weight=0.0, word_insertion_bonus=0.3)
    batch = mixed_batch(rng, 50, 20, VOCAB.size)
    want = [object_beam_decode(posts, None, cfg, VOCAB) for posts in batch]
    for chunk in (3, 7, 160):
        monkeypatch.setattr(beam, "_CHUNK", chunk)
        for lm in (LM1, LM, LM3):
            assert beam_decode(batch, lm, cfg, VOCAB) == want


def test_matches_exhaustive_oracle(rng):
    cfg = BeamConfig(beam_width=4096, lm_weight=0.7, word_insertion_bonus=0.4)
    batch = batch_of(rng, 60, 5)
    want = [exhaustive_beam_best(posts.probs, LM, cfg.lm_weight, cfg.word_insertion_bonus, VOCAB)
            for posts in batch]
    assert beam_decode(batch, LM, cfg, VOCAB) == want


def test_matches_exhaustive_oracle_no_lm(rng):
    # A trained LM at zero weight, with no bonus.
    cfg = BeamConfig(beam_width=4096, lm_weight=0.0, word_insertion_bonus=0.0)
    batch = batch_of(rng, 40, 5)
    want = [exhaustive_beam_best(posts.probs, None, 0.0, 0.0, VOCAB) for posts in batch]
    assert beam_decode(batch, LM, cfg, VOCAB) == want


def test_score_monotone_toward_full_width(rng):
    # A beam wide enough to cover the whole state space never scores below
    # any narrower beam. (Adjacent widths are not pairwise comparable: beam
    # pruning sets do not nest, so a width-2 run can lose the width-1
    # survivor; only the comparison against the complete search is sound.)
    batch = batch_of(rng, 40, 5, min_frames=2)
    full = beam_decode(batch, LM, BeamConfig(4096, 0.5, 0.2), VOCAB)
    for width in (1, 2, 8):
        narrow = beam_decode(batch, LM, BeamConfig(width, 0.5, 0.2), VOCAB)
        for posts, best, words in zip(batch, full, narrow):
            assert _score_of(posts.probs, words) <= _score_of(posts.probs, best) + 1e-12


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
    assert beam_decode([posts], LM, BeamConfig(beam_width=4), VOCAB) == [[]]


def test_empty_batch_decodes_to_nothing():
    assert beam_decode([], LM, BeamConfig(), VOCAB) == []


def test_posterior_width_must_match_vocab(rng, monkeypatch):
    # The bad utterance is named, and refused before any decoding: the LM is
    # never queried for the good utterances ahead of it.
    queried = []
    monkeypatch.setattr(NgramLm, "log10_prob", lambda self, *args: queried.append(args))
    batch = [random_posteriors(rng, 4, VOCAB.size, "good"),
             random_posteriors(rng, 4, 3, "narrow")]
    with pytest.raises(ValueError, match="'narrow'.*vocabulary"):
        beam_decode(batch, LM, BeamConfig(), VOCAB)
    assert queried == []


def quantised_posteriors(rng, T, z):
    """Probabilities in quarters: many exact score ties, and exact zeros whose
    log is -inf."""
    return PosteriorSequence(rng.multinomial(4, np.full(z, 1.0 / z), size=T) / 4.0)


def mixed_batch(rng, n, max_frames, z, min_frames=1):
    """Random and quantised posteriors of lengths ``min_frames..max_frames``."""
    return [(random_posteriors(rng, T, z, f"u{i}") if i % 2 else quantised_posteriors(rng, T, z))
            for i, T in enumerate(rng.integers(min_frames, max_frames + 1, size=n).tolist())]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 12])
@pytest.mark.parametrize("lm", [None, LM1, LM, LM3], ids=["no_lm", "unigram", "bigram", "trigram"])
@pytest.mark.parametrize("bonus", [0.5, -0.3])
def test_matches_object_decoder(width, lm, bonus):
    # One batch of mixed lengths against the per-utterance reference decoder.
    rng = np.random.default_rng([width, 0 if lm is None else lm.order, int(bonus > 0)])
    cfg = BeamConfig(beam_width=width, lm_weight=0.6, word_insertion_bonus=bonus)
    batch = mixed_batch(rng, 60, 60, VOCAB.size)
    assert (beam_decode(batch, *fused(lm, cfg), VOCAB)
            == [object_beam_decode(posts, lm, cfg, VOCAB) for posts in batch])


@pytest.mark.parametrize("vocab", [default_vocabulary(),
                                   default_vocabulary("abcdefghijklmnopqrstuvwxyz")],
                         ids=["z10", "z28"])
def test_matches_object_decoder_on_default_vocabulary(rng, vocab):
    lm = train_lm([["abc", "de"], ["fgh", "abc"], ["de", "ha", "abc"], ["bad"]], order=3)
    cfg = BeamConfig()
    batch = mixed_batch(rng, 20, 60, vocab.size, min_frames=20)
    for model in (None, lm):
        assert (beam_decode(batch, *fused(model, cfg), vocab)
                == [object_beam_decode(posts, model, cfg, vocab) for posts in batch])


@pytest.mark.parametrize("width", [1, 3, 12])
def test_batch_matches_batches_of_one(width):
    rng = np.random.default_rng(width)
    cfg = BeamConfig(beam_width=width, lm_weight=0.6, word_insertion_bonus=0.5)
    batch = mixed_batch(rng, 30, 60, VOCAB.size)
    for lm, c in (fused(None, cfg), (LM3, cfg)):
        assert (beam_decode(batch, lm, c, VOCAB)
                == [words for posts in batch for words in beam_decode([posts], lm, c, VOCAB)])


def models_batches(rng, z):
    """Three "models'" test utterances: random, quantised (exact ties) and
    sharp posteriors (near one-hot, as a trained model's)."""
    sharp = []
    for i, T in enumerate(rng.integers(1, 40, size=9).tolist()):
        probs = np.full((T, z), 0.02)
        probs[np.arange(T), rng.integers(0, z, size=T)] = 1.0
        sharp.append(PosteriorSequence(probs / probs.sum(axis=1, keepdims=True), f"s{i}"))
    return [batch_of(rng, 7, 40, z), [quantised_posteriors(rng, int(T), z)
                                      for T in rng.integers(1, 40, size=8)], sharp]


@pytest.mark.parametrize("chunk", [2, 3])
@pytest.mark.parametrize("width", [1, 3, 12])
def test_one_call_over_several_models_matches_per_model_calls(width, chunk, monkeypatch):
    # One call decodes every model's utterances longest first in chunks that
    # mix the models; each utterance's words are those of its own model's
    # call and of the reference decoder, LM on (fused, with a bonus) and off
    # (zero weight against the LM-free reference, no bonus).
    rng = np.random.default_rng([width, chunk])
    monkeypatch.setattr(beam, "_CHUNK", chunk)
    models = models_batches(rng, VOCAB.size)
    batch = [posts for model in models for posts in model]
    for lm, bonus in ((LM3, 0.5), (None, 0.0)):
        cfg = BeamConfig(beam_width=width, lm_weight=0.6, word_insertion_bonus=bonus)
        want = [object_beam_decode(posts, lm, cfg, VOCAB) for posts in batch]
        assert beam_decode(batch, *fused(lm, cfg), VOCAB) == want
        assert [words for model in models
                for words in beam_decode(model, *fused(lm, cfg), VOCAB)] == want


def test_lm_queried_once_per_pair_across_chunks(rng, monkeypatch):
    # The chunks of one call share its LM table.
    cfg = BeamConfig(beam_width=6, lm_weight=0.6, word_insertion_bonus=0.5)
    batch = mixed_batch(rng, 30, 30, VOCAB.size)
    want = [object_beam_decode(posts, LM3, cfg, VOCAB) for posts in batch]
    queried = []
    original = NgramLm.log10_prob

    def counting(self, word, context=()):
        queried.append((word, tuple(context)))
        return original(self, word, context)

    monkeypatch.setattr(NgramLm, "log10_prob", counting)
    monkeypatch.setattr(beam, "_CHUNK", 3)
    assert beam_decode(batch, LM3, cfg, VOCAB) == want
    assert queried and len(set(queried)) == len(queried)


@pytest.mark.parametrize("width", [5, 12])
def test_survivors_takes_every_cut_off_path(width, monkeypatch):
    # Quantised posteriors tie at the cut-off, and a width above the
    # vocabulary size leaves the first frame's rows short of candidates.
    # Each row is classed by its cut-off, found here by a full sort: exactly
    # ``width`` at or above it, more (ranked ties), or a NaN cut-off.
    real, seen = beam._survivors, {"exact": 0, "tied": 0, "short": 0}

    def spy(cand, w, rank):
        ranked = set()

        def ranking(r, kept):
            ranked.add(r)
            return rank(r, kept)

        top = real(cand, w, ranking)
        cutoff = -np.sort(-cand, axis=1)[:, w - 1]
        # _survivors returns flat indices into cand; row r's columns follow.
        columns = top - np.arange(len(cand))[:, None] * cand.shape[1]
        for r, row in enumerate(columns.tolist()):
            kept = set(np.flatnonzero(cand[r] >= cutoff[r]).tolist())
            if np.isnan(cutoff[r]):
                seen["short"] += 1
                assert set(np.flatnonzero(~np.isnan(cand[r])).tolist()) <= set(row)
            elif len(kept) == w:
                seen["exact"] += 1
                assert set(row) == kept
            else:
                seen["tied"] += 1
                assert r in ranked and set(row) <= kept
            assert len(set(row)) == w
        assert ranked == {r for r in range(len(cand))
                          if np.count_nonzero(cand[r] >= cutoff[r]) > w}
        return top

    monkeypatch.setattr(beam, "_survivors", spy)
    rng = np.random.default_rng(width)
    batch = [quantised_posteriors(rng, int(T), VOCAB.size) for T in rng.integers(1, 30, size=40)]
    for lm in (None, LM3):
        cfg = BeamConfig(beam_width=width, lm_weight=0.6, word_insertion_bonus=0.5)
        assert (beam_decode(batch, *fused(lm, cfg), VOCAB)
                == [object_beam_decode(posts, lm, cfg, VOCAB) for posts in batch])
    assert all(seen.values()), seen


@pytest.mark.parametrize("width", [1, 3, 12])
@pytest.mark.parametrize("lm", [None, LM3], ids=["no_lm", "trigram"])
def test_finish_ranks_tied_final_scores(width, lm, monkeypatch):
    # Quantised posteriors tie final scores exactly. A row whose best final
    # score is tied takes the first tied slot in (prefix, last) order, read
    # back here one slot at a time through the parent links.
    real, tied = beam._finish, []

    def spy(final, pid, last, prefixes, vocab):
        words = real(final, pid, last, prefixes, vocab)

        def symbols(p):
            out = []
            while prefixes.symbol[p] != beam.NO_LAST:
                out.append(int(prefixes.symbol[p]))
                p = prefixes.parent[p]
            return out[::-1]

        best = np.fmax.reduce(final, axis=1)
        for r in np.flatnonzero(np.count_nonzero(final == best[:, None], axis=1) > 1).tolist():
            if best[r] > -np.inf:
                w = min(np.flatnonzero(final[r] == best[r]).tolist(),
                        key=lambda w: (symbols(pid[r, w]), last[r, w]))
                assert words[r] == vocab.indices_to_words(symbols(pid[r, w]))
                tied.append(r)
        return words

    monkeypatch.setattr(beam, "_finish", spy)
    rng = np.random.default_rng([width, 29])
    batch = [quantised_posteriors(rng, int(T), VOCAB.size) for T in rng.integers(1, 30, size=40)]
    cfg = BeamConfig(beam_width=width, lm_weight=0.6, word_insertion_bonus=0.5)
    assert (beam_decode(batch, *fused(lm, cfg), VOCAB)
            == [object_beam_decode(posts, lm, cfg, VOCAB) for posts in batch])
    # One slot per row cannot tie.
    assert bool(tied) == (width > 1)


@pytest.fixture
def loop_sizes(monkeypatch):
    """The number of utterances of each frame-loop run."""
    real, sizes = beam._frame_loop, []

    def spy(log_probs, starts, lengths, *args):
        sizes.append(len(starts))
        return real(log_probs, starts, lengths, *args)

    monkeypatch.setattr(beam, "_frame_loop", spy)
    return sizes


# (lm, bonus); "lm_off" is the search at zero weight with a zero bonus.
PREFIX_TABLE_CASES = {"no_lm": (None, 0.5), "trigram": (LM3, 0.5), "lm_off": (None, 0.0)}


@pytest.mark.parametrize("lm, bonus, n_utts, chunk",
                         [pytest.param(*case, 24, None, id=name)
                          for name, case in PREFIX_TABLE_CASES.items()]
                         + [pytest.param(*case, 17, 5, id=f"{name}-chunks_of_5")
                            for name, case in PREFIX_TABLE_CASES.items()])
def test_prefix_table_grows_and_keeps_every_id(lm, bonus, n_utts, chunk, monkeypatch,
                                               loop_sizes):
    # A batch long enough to grow the prefix table several times. Each chunk
    # builds its own table: two rows per utterance, the first n_utts (its
    # empty prefixes) in use and every row at its fill value. Each grow keeps
    # every used row as it was, and at the end of each chunk every prefix it
    # interned sits in the child column under its parent and its symbol, and
    # nothing else does.
    rng = np.random.default_rng(7)
    cfg = BeamConfig(beam_width=12, lm_weight=0.6, word_insertion_bonus=bonus)
    batch = mixed_batch(rng, n_utts, 150, VOCAB.size, min_frames=100)
    if chunk is not None:
        monkeypatch.setattr(beam, "_CHUNK", chunk)
    tables, rows, grown, finished = [], [], [], []
    real_init, real_grow, real_finish = _Prefixes.__init__, _Prefixes._grow, beam._finish

    def init(self, terms, config, vocab, n):
        real_init(self, terms, config, vocab, n)
        assert self.size == n and len(self.parent) == 2 * n
        for name, fill in self.COLUMNS.items():
            assert np.all(getattr(self, name) == fill), name
        tables.append(self)
        rows.append(n)

    def grow(self, room):
        before = {name: getattr(self, name)[:self.size].copy() for name in self.COLUMNS}
        real_grow(self, room)
        assert self.size + room <= len(self.parent)
        for name, used in before.items():
            assert np.array_equal(getattr(self, name)[:self.size], used)
        grown.append(self)

    def finish(final, pid, last, prefixes, vocab):
        assert prefixes is tables[-1]
        kids = np.arange(len(final), prefixes.size)
        assert np.all(prefixes.parent[kids] < kids)
        assert (prefixes.child[prefixes.parent[kids], prefixes.symbol[kids]].tolist()
                == kids.tolist())
        assert np.count_nonzero(prefixes.child != -1) == len(kids)
        finished.append(len(kids))
        return real_finish(final, pid, last, prefixes, vocab)

    monkeypatch.setattr(_Prefixes, "__init__", init)
    monkeypatch.setattr(_Prefixes, "_grow", grow)
    monkeypatch.setattr(beam, "_finish", finish)
    assert (beam_decode(batch, *fused(lm, cfg), VOCAB)
            == [object_beam_decode(posts, lm, cfg, VOCAB) for posts in batch])
    sizes = [n_utts] if chunk is None else [5, 5, 5, 2]
    assert loop_sizes == rows == sizes and len(finished) == len(sizes) and len(grown) >= 3
    # Every chunk interned prefixes.
    assert all(finished)


def test_lm_queried_through_its_method(monkeypatch):
    # The traced benchmark counts LM queries on NgramLm.log10_prob; a decoder
    # that bypasses the method would hide them.
    queried = []
    original = NgramLm.log10_prob

    def counting(self, word, context=()):
        queried.append(word)
        return original(self, word, context)

    monkeypatch.setattr(NgramLm, "log10_prob", counting)
    a, b, sep = VOCAB.graphemes.index("a"), VOCAB.graphemes.index("b"), VOCAB.word_separator_index
    probs = np.full((4, VOCAB.size), 0.1)
    for t, g in enumerate((a, sep, b, sep)):
        probs[t, g] = 1.0 - 0.1 * (VOCAB.size - 1)
    assert beam_decode([PosteriorSequence(probs)], LM, BeamConfig(), VOCAB) == [["a", "b"]]
    assert "a" in queried and "</s>" in queried
