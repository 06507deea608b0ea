"""Frame-synchronous beam search over CTC posteriors with LM shallow fusion,
for a batch of utterances at once.

Hypotheses are (collapsed prefix, last path symbol) states scored by the
best-alignment acoustic log probability plus ``lm_weight * ln p_lm`` for
every completed word and a per-word insertion bonus. Word boundaries are the
vocabulary's separator symbol; the trailing partial word and the sentence
end are scored at finalization. At ``lm_weight = 0`` every LM term is ±0.0,
which changes no score, so the search ranks by acoustics and bonus alone.

A batch may hold any utterances, of one model or of several. It runs
longest first in chunks of at most ``_CHUNK`` utterances; each chunk takes
one log of its concatenated posteriors and has its own prefix table. All
chunks share one LM table, so each (token, context) pair is queried once
per call. An utterance's words never depend on the others in its batch or
chunk.

Each utterance keeps ``beam_width`` slots of (score, prefix id, last symbol);
an empty slot scores NaN. Within a chunk, those still running are a leading
block, and every frame advances all their beams with the same fixed set of
numpy calls over the whole block:

* every extension is scored as ``score + log_probs[t]`` (the same IEEE
  additions as extending one hypothesis at a time), and a separator that
  completes a word then adds the bonus and the LM term, in that order;
* equal (prefix, last) keys merge by maximum score. A beam's keys are
  distinct and a prefix ends in its hypotheses' last symbol, so a key is
  reached twice only in two ways: the two hypotheses of one prefix, (p,
  none) and (p, p's last symbol), extend alike by every symbol but that
  last one; and the repeat of (p, g) is also the extension of p's parent by
  g. Both are merged by slot position, without comparing keys;
* the ``beam_width`` best candidates of each utterance survive. One
  partition of the scores finds each utterance's cut-off, its
  ``beam_width``-th best score, and the candidates at or above it are kept:
  exactly ``beam_width`` of them in almost every row; more when some tie
  at the cut-off, ranked then by (prefix, last), the published tie rule; and
  with fewer than ``beam_width`` candidates (as at the first frames) the
  cut-off is NaN and ``argpartition`` keeps them all. A survivor is its
  flat index ``slot * z + symbol`` over the block's candidates, so one
  ``divmod`` gives its source slot and symbol. Survivors that extend a
  prefix by a new symbol are interned in one batch: a prefix is its
  parent's id and symbol, found again in the flat ``child`` table at
  ``parent * z + symbol``, with a partial word id, LM contexts and the
  word's LM term.

The key fixes partial word, context and word count, so tied duplicates are
identical and order within a beam never matters. A chunk finishes in one
step: the sentence end is scored, each utterance's winner is its best
final score, found as a frame finds its cut-off with a width of one (tied
maxima go to the first in (prefix, last) order), and the prefixes of all
winners are read back together through the parent links, one numpy step
per symbol. Python runs only to query the LM, once per (token, context)
pair and call, and to rank the rare candidates tied at a cut-off or at an
utterance's best final score.

A prefix keeps its id for the whole chunk, and no prefix is dropped within
a chunk: when an extension would overflow the prefix columns, they double
and the used rows are copied. Most prefixes die within a frame of being
interned, so a chunk's prefixes grow with its utterances and its frames,
and ``_CHUNK`` bounds them.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ctc import PosteriorSequence
from .lm import BOS, EOS, UNK, NgramLm
from .vocab import Vocabulary

LN10 = math.log(10.0)
NO_LAST = -1
# Utterances per chunk: about one teacher's test sets, which keeps a chunk's
# log posteriors and prefix table small while each frame's numpy calls
# advance many beams.
_CHUNK = 160


@dataclass
class BeamConfig:
    beam_width: int = 12
    lm_weight: float = 0.4
    word_insertion_bonus: float = 0.5

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        for name in ("lm_weight", "word_insertion_bonus"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lm_weight < 0:
            raise ValueError("lm_weight must be >= 0")


class _WordTerms:
    """The LM side of one call, shared by its chunks: partial words, the LM
    contexts met, and the LM term of each (token, context) pair, queried
    once per call. A word outside the LM's vocabulary is scored as
    ``<unk>``, so partial words are told apart only while they can still
    grow into an LM token: they are the prefixes of the tokens (0 is the
    empty word), and every other word is the one word ``DEAD``, whose
    extensions stay dead."""

    DEAD = 1

    def __init__(self, lm: NgramLm, lm_scale: float, vocab: Vocabulary):
        self.lm, self.lm_scale = lm, lm_scale
        self.tokens = sorted(lm.vocabulary | {UNK, EOS})
        token_ids = {tok: i for i, tok in enumerate(self.tokens)}
        self.eos = token_ids[EOS]
        words = ["", None, *sorted({tok[:i] for tok in self.tokens
                                    for i in range(1, len(tok) + 1)})]
        word_ids = {word: i for i, word in enumerate(words) if word is not None}
        # child[w, g] is word w extended by symbol g; token[w] is how the LM scores w.
        self.child = np.array([[self.DEAD if w is None else word_ids.get(w + g, self.DEAD)
                                for g in vocab.graphemes] for w in words])
        self.token = np.array([token_ids.get(w, token_ids[UNK]) for w in words])
        start = (BOS,) * (lm.order - 1)
        self.contexts = [start]
        self.context_ids = {start: 0}
        # [token, context] -> LM term (NaN until queried) and context after it.
        self.term = np.full((len(self.tokens), 16), np.nan)
        self.end = np.zeros((len(self.tokens), 16), np.int64)

    def extend(self, words: np.ndarray, symbols: np.ndarray,
               contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each word extended by its symbol: (word ids, LM terms in their
        contexts, the contexts once the words are in)."""
        words = self.child.take(words * self.child.shape[1] + symbols)
        return (words, *self.terms(self.token.take(words), contexts))

    def terms(self, tokens: np.ndarray, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lm_weight * ln p(token | context), the context after the token)
        for each pair of token and context ids."""
        keys = tokens * self.term.shape[1] + contexts
        terms = self.term.take(keys)
        missing = np.isnan(terms)
        if missing.any():
            n_ctx = self.term.shape[1]
            for key in _distinct(keys[missing]).tolist():
                self._query(*divmod(key, n_ctx))
            # A query may have widened the table.
            keys = tokens * self.term.shape[1] + contexts
            terms = self.term.take(keys)
        return terms, self.end.take(keys)

    def _query(self, token: int, cid: int) -> None:
        lm, word, context = self.lm, self.tokens[token], self.contexts[cid]
        self.term[token, cid] = self.lm_scale * lm.log10_prob(word, context)
        if lm.order > 1:
            after = (context + (word,))[-(lm.order - 1):]
            if after not in self.context_ids:
                self.context_ids[after] = len(self.contexts)
                self.contexts.append(after)
                if len(self.contexts) > self.term.shape[1]:
                    self.term = _grown(self.term, np.nan)
                    self.end = _grown(self.end, 0)
            self.end[token, cid] = self.context_ids[after]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted (np.unique imports numpy.ma, a megabyte)."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _grown(table: np.ndarray, fill) -> np.ndarray:
    """``table`` with twice the columns, the new ones set to ``fill``."""
    return np.concatenate((table, np.full_like(table, fill)), axis=1)


class _Prefixes:
    """The collapsed prefixes of one chunk, in columns indexed by prefix id:
    the ids below ``size`` are in use, the rows past it are room and hold the
    fill values, and the first ``n_utts`` are the chunk's empty prefixes. A
    parent's id is below its children's. A prefix holds its parent, its last
    symbol (NO_LAST for a root), its partial word (a ``_WordTerms`` word id,
    0 for none), the LM contexts before and after that word, and the word's
    LM term. ``child[p, g]`` is the id of p extended by symbol g, or -1;
    ``slots[p]`` maps p's beam hypotheses (last none, last symbol) to their
    flat slot during a frame's merge, else -1. A separator adds the bonus to
    a prefix whose last symbol is a letter: ``sep_bonus[symbol]``, whose last
    entry serves NO_LAST."""

    # Each column's fill value.
    COLUMNS = {"parent": -1, "symbol": NO_LAST, "child": -1, "slots": -1,
               "word": 0, "context": 0, "end": 0, "lm_add": 0.0}

    def __init__(self, terms: _WordTerms, config: BeamConfig, vocab: Vocabulary,
                 n_utts: int):
        self.lm = terms
        self.z, self.sep = vocab.size, vocab.word_separator_index
        self.sep_bonus = np.full(vocab.size + 1, config.word_insertion_bonus)
        self.sep_bonus[[self.sep, NO_LAST]] = 0.0
        self.size = n_utts
        for name in self.COLUMNS:
            setattr(self, name, self._column(name, 2 * n_utts))

    def _column(self, name: str, capacity: int) -> np.ndarray:
        shape = {"child": (capacity, self.z), "slots": (capacity, 2)}.get(name, capacity)
        return np.full(shape, self.COLUMNS[name], float if name == "lm_add" else np.int32)

    def _grow(self, room: int) -> None:
        """Double the capacity until ``room`` more prefixes fit, copying the
        used rows; every id stays."""
        capacity = len(self.parent)
        while self.size + room > capacity:
            capacity *= 2
        for name in self.COLUMNS:
            column = self._column(name, capacity)
            column[:self.size] = getattr(self, name)[:self.size]
            setattr(self, name, column)

    def extend(self, parents: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """Intern each parent extended by its symbol, in the parent's
        ``child`` row; returns the new ids."""
        if self.size + len(parents) > len(self.parent):
            self._grow(len(parents))
        new = slice(self.size, self.size + len(parents))
        ids = np.arange(new.start, new.stop)
        self.size = new.stop
        self.parent[new] = parents
        self.symbol[new] = symbols
        self.child.reshape(-1)[parents * self.z + symbols] = ids
        # A separator closes the parent's word; a letter extends it.
        letter = symbols != self.sep
        context = np.where(letter, self.context.take(parents), self.end.take(parents))
        self.context[new] = context
        self.end[new] = context
        at = letter.nonzero()[0]
        if len(at):
            (self.word[new][at], self.lm_add[new][at], self.end[new][at]) = self.lm.extend(
                self.word.take(parents.take(at)), symbols.take(at), context.take(at))
        return ids

    def spell(self, ids: np.ndarray) -> list[list[int]]:
        """The symbols of each prefix, first to last, read back through the
        parent links of all of them together, one step per symbol."""
        steps = []
        while True:
            symbols = self.symbol.take(ids)
            going = symbols != NO_LAST
            if not going.any():
                break
            steps.append(symbols)
            ids = np.where(going, self.parent.take(ids), ids)
        # Row i: NO_LAST as often as prefix i is shorter than the longest,
        # then its symbols.
        table = np.array(steps, np.int64).reshape(len(steps), len(ids)).T[:, ::-1]
        lengths = np.count_nonzero(table != NO_LAST, axis=1)
        return [row[len(steps) - k:] for row, k in zip(table.tolist(), lengths.tolist())]

    def merge_duplicates(self, scores: np.ndarray, pid: np.ndarray, last: np.ndarray,
                         live: np.ndarray) -> None:
        """Merge candidates of equal (prefix, last) key into one by maximum
        score; the others become NaN. ``scores`` is [slots, z]; ``pid`` and
        ``last`` give each slot's hypothesis and ``live`` the occupied slots."""
        p, g = pid.take(live), last.take(live)
        rep = g != NO_LAST
        # slots[2p + rep] is the slot of hypothesis (p, none) or (p, symbol).
        keys = 2 * p + rep
        slots = self.slots.reshape(-1)
        slots[keys] = live
        flat, z = scores.reshape(-1), scores.shape[1]
        # (p, none) and (p, p's last symbol) reach the same key with every
        # symbol but that last one: blank keeps p, others extend p alike.
        none = (~rep).nonzero()[0]
        second = slots.take(keys.take(none) + 1)
        paired = second >= 0
        if paired.any():
            a, b = live.take(none[paired]), second[paired]
            # Each keeps its own entry of b's last symbol.
            own = np.array((a, b)) * z + last.take(b)
            held = flat.take(own)
            scores[a] = np.fmax(scores[a], scores[b])
            scores[b] = np.nan
            flat[own] = held
        # The repeat of (p, g) is the extension of p's parent by g, held by
        # the parent's (q, none) hypothesis, or else by (q, q's last symbol)
        # unless g repeats that symbol.
        at = rep.nonzero()[0]
        hit, g = live.take(at), g.take(at)
        q = self.parent.take(p.take(at))
        q2 = 2 * q
        source = slots.take(q2)
        source = np.where(source >= 0, source,
                          np.where(g != self.symbol.take(q), slots.take(q2 + 1), -1))
        found = (source >= 0).nonzero()[0]
        if len(found):
            g = g.take(found)
            into, out = hit.take(found) * z + g, source.take(found) * z + g
            flat[into] = np.fmax(flat.take(into), flat.take(out))
            flat[out] = np.nan
        slots[keys] = -1


def beam_decode(posteriors: Sequence[PosteriorSequence], lm: NgramLm,
                config: BeamConfig, vocab: Vocabulary) -> list[list[str]]:
    """Best word sequence of each utterance, in input order, under acoustic
    + LM + bonus scoring. The LM is required; ``lm_weight = 0`` searches by
    acoustics and bonus alone."""
    posteriors = list(posteriors)
    for posts in posteriors:
        if posts.vocab_size != vocab.size:
            raise ValueError(f"utterance {posts.utterance_id!r}: posterior width "
                             f"{posts.vocab_size} does not match vocabulary size {vocab.size}")
    terms = _WordTerms(lm, config.lm_weight * LN10, vocab)
    # Longest first, so the utterances still running are a leading block of
    # each chunk.
    lengths = np.array([posts.num_frames for posts in posteriors])
    order = np.argsort(-lengths, kind="stable")
    out: list[list[str]] = [[] for _ in posteriors]
    for first in range(0, len(order), _CHUNK):
        chunk = order[first:first + _CHUNK]
        chunk_lengths = lengths[chunk]
        starts = np.cumsum(chunk_lengths) - chunk_lengths
        # One log in place, with the bits of PosteriorSequence.log_probs().
        log_probs = np.concatenate([posteriors[i].probs for i in chunk.tolist()])
        with np.errstate(divide="ignore"):
            np.log(log_probs, out=log_probs)
        words = _frame_loop(log_probs, starts, chunk_lengths, terms, config, vocab)
        for i, best in zip(chunk.tolist(), words):
            out[i] = best
    return out


def _frame_loop(log_probs: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                terms: _WordTerms, config: BeamConfig,
                vocab: Vocabulary) -> list[list[str]]:
    """The beam search of the utterances whose log posteriors are the rows
    ``starts[i]`` on, ``lengths[i]`` of them, longest first, in a prefix
    table of their own; their words in that order. The table is freed on
    return, before the next chunk allocates anything, so the chunks' tables
    reuse the same memory."""
    z, blank, sep = vocab.size, vocab.blank_index, vocab.word_separator_index
    width = config.beam_width
    running = np.searchsorted(-lengths, -np.arange(lengths[0]))
    n_utts = len(lengths)
    prefixes = _Prefixes(terms, config, vocab, n_utts)
    score = np.full((n_utts, width), np.nan)
    score[:, 0] = 0.0
    pid = np.full((n_utts, width), -1, np.int64)
    pid[:, 0] = np.arange(n_utts)
    last = np.full((n_utts, width), NO_LAST, np.int64)
    for t, n in enumerate(running.tolist()):
        p, s = pid[:n], score[:n]
        cand = s[:, :, None] + log_probs.take(starts[:n] + t, axis=0)[:, None, :]
        cand[:, :, sep] += prefixes.sep_bonus.take(prefixes.symbol.take(p))
        cand[:, :, sep] += prefixes.lm_add.take(p)
        flat_pid, flat_last = p.ravel(), last[:n].ravel()
        # An empty slot's score is NaN, the one value unequal to itself.
        prefixes.merge_duplicates(cand.reshape(-1, z), flat_pid, flat_last,
                                  np.flatnonzero(s == s))
        cand = cand.reshape(n, width * z)

        def rank(r: int, kept: list[int]) -> list[int]:
            # Candidates tied at the cut-off: by score, then (prefix, last).
            src = r * width + np.array(kept) // z
            spelled = prefixes.spell(flat_pid.take(src))
            keys = [(-cand[r, c], *_after(prefix, old, c % z, blank))
                    for c, prefix, old in zip(kept, spelled, flat_last.take(src).tolist())]
            return [c for _, c in sorted(zip(keys, kept))]

        # Each survivor is candidate g of flat slot src.
        flat = _survivors(cand, width, rank)
        new_score = cand.take(flat)
        src, g = np.divmod(flat, z)
        src_pid, src_last = flat_pid.take(src), flat_last.take(src)
        extended = (g != blank) & (g != src_last)
        kid = prefixes.child.take(src_pid * z + g)
        fresh = np.flatnonzero(extended & (kid < 0) & (new_score == new_score))
        score[:n] = new_score
        last[:n] = np.where(g == blank, NO_LAST, g)
        # A fresh prefix is interned below.
        pid[:n] = np.where(extended, kid, src_pid)
        if len(fresh):
            pid[:n].reshape(-1)[fresh] = prefixes.extend(src_pid.take(fresh), g.take(fresh))

    final = score + prefixes.sep_bonus[prefixes.symbol[pid]] + prefixes.lm_add[pid]
    live = ~np.isnan(score)
    ends = prefixes.end[pid[live]]
    final[live] += prefixes.lm.terms(np.full_like(ends, prefixes.lm.eos), ends)[0]
    return _finish(final, pid, last, prefixes, vocab)


def _finish(final: np.ndarray, pid: np.ndarray, last: np.ndarray, prefixes: _Prefixes,
            vocab: Vocabulary) -> list[list[str]]:
    """The words of each row's winner among its slots' ``final`` scores
    (NaN is empty): its strict maximum, or the first of tied maxima in
    (prefix, last) order; no words when every path scores -inf."""
    def rank(r: int, tied: list[int]) -> list[int]:
        # Tied maxima: by (prefix, last).
        keys = zip(prefixes.spell(pid[r].take(tied)), last[r].take(tied).tolist())
        return [w for _, w in sorted(zip(keys, tied))]

    win = _survivors(final, 1, rank)[:, 0]
    spelled = prefixes.spell(pid.take(win))
    return [vocab.indices_to_words(symbols) if best > -np.inf else []
            for symbols, best in zip(spelled, final.take(win).tolist())]


def _survivors(cand: np.ndarray, width: int, rank) -> np.ndarray:
    """The flat indices into ``cand`` of each row's ``width`` best candidates
    (NaN is none). One partition finds each row's cut-off, its
    ``width``-th best score, and ``kept = cand >= cutoff`` the candidates at
    or above it. A row with exactly ``width`` kept takes them; a row with
    more (ties at the cut-off) takes the first ``width`` of ``rank(row, kept
    columns)``; a row with fewer than ``width`` candidates has a NaN
    cut-off, keeps none, and takes them all from ``argpartition``, padded
    with empty columns."""
    n, m = cand.shape
    # Negated, NaN sorts last; partitioned in place.
    neg = -cand
    neg.partition(width - 1, axis=1)
    cutoff = -neg[:, width - 1:width]
    kept = cand >= cutoff
    # A row with a cut-off keeps at least ``width``, so n * width kept and no
    # NaN cut-off mean exactly ``width`` in every row.
    if np.count_nonzero(kept) == n * width and not np.isnan(cutoff).any():
        return np.flatnonzero(kept).reshape(n, width)
    n_kept = np.count_nonzero(kept, axis=1)
    exact = n_kept == width
    top = np.empty((n, width), np.intp)
    top[exact] = np.flatnonzero(kept & exact[:, None]).reshape(-1, width)
    short = n_kept < width
    if short.any():
        rows = np.flatnonzero(short)[:, None]
        top[short] = rows * m + np.argpartition(-cand[short], width - 1, axis=1)[:, :width]
    for r in np.flatnonzero(n_kept > width).tolist():
        top[r] = [r * m + c for c in rank(r, np.flatnonzero(kept[r]).tolist())[:width]]
    return top


def _after(prefix: list[int], last: int, g: int, blank: int) -> tuple[list[int], int]:
    """The (prefix, last) of hypothesis (prefix, last) extended by symbol g."""
    if g == blank:
        return prefix, NO_LAST
    if g == last:
        return prefix, last
    return prefix + [g], g
