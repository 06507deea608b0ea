"""Time-synchronous beam search over CTC posteriors with LM shallow fusion.

Hypotheses are (collapsed prefix, last path symbol) states scored by the
best-alignment acoustic log probability plus, when a language model is
supplied, ``lm_weight * ln p_lm`` for every completed word and a per-word
insertion bonus. Word boundaries are the vocabulary's separator symbol; the
trailing partial word and the sentence end are scored at finalization.

The beam is three arrays: score, prefix id and last symbol. A frame scores
every extension at once as ``score[:, None] + log_probs[t]``, the same IEEE
additions as extending one hypothesis at a time; a separator that completes
a word then adds the bonus and the LM term, in that order. Prefixes are
interned: per id a table holds the symbol tuple, partial word, LM context,
the word's LM term (one LM query per id) and the merge key of each
extension. An extension whose child prefix is not interned yet has a
virtual key, negative and derived from (parent id, symbol); only extensions
that survive the frame's pruning are interned.

Equal (prefix, last) keys merge by maximum score; the key fixes partial
word, context and word count, so tied duplicates are identical. The
``beam_width`` best keys survive, and only candidates tied at the cut-off
score are ranked by (prefix tuple, last). Order within the beam never
matters: finalization visits hypotheses by (prefix, last) and keeps the
first strict maximum.

With beam_width=1, no LM and zero bonus this reduces exactly to greedy
decoding (the single kept state always extends by the frame argmax).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctc import PosteriorSequence
from .lm import BOS, EOS, UNK, NgramLm
from .vocab import Vocabulary

LN10 = math.log(10.0)
NO_LAST = -1


@dataclass
class BeamConfig:
    beam_width: int = 12
    lm_weight: float = 0.4
    word_insertion_bonus: float = 0.5

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.lm_weight < 0:
            raise ValueError("lm_weight must be >= 0")


def beam_decode(posteriors: PosteriorSequence, lm: NgramLm | None,
                config: BeamConfig, vocab: Vocabulary) -> list[str]:
    """Best word sequence under acoustic + (optional) LM + bonus scoring."""
    lp = posteriors.log_probs()
    T, z = lp.shape
    if z != vocab.size:
        raise ValueError(f"posterior width {z} does not match vocabulary size {vocab.size}")
    blank = vocab.blank_index
    sep = vocab.word_separator_index
    fuse = lm is not None and config.lm_weight > 0
    lm_scale = config.lm_weight * LN10
    bonus = config.word_insertion_bonus
    width = config.beam_width
    span = z + 1  # a merge key is prefix id * span + (last symbol + 1)

    # Prefix table; each frame interns at most `width` prefixes. keys[p, g]
    # starts virtual (the key of child id -(p*z + g) - 1), and blank keeps p.
    # adds[p] is what a separator adds to p's score: (bonus, LM term) when p
    # ends in a partial word, else zeros. ends[p] is p's context once that
    # word is in.
    ids = np.arange(1 + T * width)[:, None]
    symbols = np.arange(z)
    keys = (-(ids * z + symbols) - 1) * span + symbols + 1
    keys[:, blank] = ids[:, 0] * span
    adds = np.zeros((len(ids), 2))
    prefixes: list[tuple[int, ...]] = []
    partials: list[tuple[int, ...]] = []
    contexts: list[tuple[str, ...]] = []
    ends: list[tuple[str, ...]] = []

    def intern(prefix, partial, context) -> int:
        p = len(prefixes)
        end = context
        if partial:
            adds[p, 0] = bonus
            if fuse:
                word = "".join(vocab.graphemes[i] for i in partial)
                adds[p, 1] = lm_scale * lm.log10_prob(word, context)
                if lm.order > 1:
                    end = (context + (word if word in lm.vocabulary else UNK,))[-(lm.order - 1):]
        prefixes.append(prefix)
        partials.append(partial)
        contexts.append(context)
        ends.append(end)
        return p

    def state(key: int) -> tuple[tuple[int, ...], int]:
        p, last = divmod(key, span)
        if p >= 0:
            return prefixes[p], last - 1
        parent, g = divmod(-p - 1, z)
        return prefixes[parent] + (g,), last - 1

    # The beam: per hypothesis its score, prefix id, last symbol and own key.
    beam_score = [0.0]
    beam_pid = [intern((), (), (BOS,) * (lm.order - 1) if fuse else ())]
    beam_last = [NO_LAST]
    beam_key = [0]
    rows = np.arange(width)
    for t in range(T):
        pid = np.array(beam_pid)
        scores = np.array(beam_score)[:, None] + lp[t]
        add = adds[pid]
        scores[:, sep] += add[:, 0]
        scores[:, sep] += add[:, 1]
        cand = keys[pid]
        # Blank and a repeated symbol keep the row's own (prefix, last) key.
        cand[rows[:len(pid)], [blank if g == NO_LAST else g for g in beam_last]] = beam_key
        flat_score = scores.ravel().tolist()
        flat_key = cand.ravel().tolist()
        kept: dict[int, float] = {}
        cutoff = None
        for c in np.argsort(-scores, axis=None).tolist():
            score = flat_score[c]
            if cutoff is not None and score < cutoff:
                break
            if flat_key[c] not in kept:
                kept[flat_key[c]] = score
                if len(kept) == width:
                    cutoff = score
        survivors = list(kept.items())
        if len(survivors) > width:
            survivors.sort(key=lambda kv: (-kv[1], *state(kv[0])))
            del survivors[width:]
        beam_score, beam_pid, beam_last, beam_key = [], [], [], []
        for key, score in survivors:
            p, last = divmod(key, span)
            if p < 0:
                parent, g = divmod(-p - 1, z)
                if g == sep:
                    p = intern(prefixes[parent] + (g,), (), ends[parent])
                else:
                    p = intern(prefixes[parent] + (g,), partials[parent] + (g,), contexts[parent])
                key = keys[parent, g] = p * span + last
            beam_score.append(score)
            beam_pid.append(p)
            beam_last.append(last - 1)
            beam_key.append(key)

    best_words: list[str] | None = None
    best_final = -np.inf
    for p, last, final in sorted(zip(beam_pid, beam_last, beam_score),
                                 key=lambda h: (prefixes[h[0]], h[1])):
        if partials[p]:
            final = final + adds[p, 0] + adds[p, 1]
        if fuse:
            final += lm_scale * lm.log10_prob(EOS, ends[p])
        if final > best_final:
            best_final = final
            best_words = vocab.indices_to_words(prefixes[p])
    return best_words if best_words is not None else []
