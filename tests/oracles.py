"""Independent brute-force reference implementations used only by tests.

Nothing here shares code with the production package: CTC is an explicit
sum over every frame-level path, or separate alpha and beta passes for the
bit-exact check of the packed recursion; CCA is a generalized eigenproblem,
edit distance is the textbook recursion, and the decoder oracle scores every
collapsed label sequence exhaustively. ``numpy_wer`` is the word alignment
as first written, on an ``np.int64`` matrix, kept as the reference for the
error breakdown. ``object_beam_decode`` is the beam search as first
written, one object per hypothesis, kept as the bit-exact reference for the
array-backed decoder. ``stacked_dump_activations`` is
the activation sampler as first written, stacking every frame of the corpus
before it indexes the sample; it reuses the model's forward pass and frame
subsample and is the bit-exact reference for the per-utterance sampler.
``padded_context_expand`` is the context window as first written, a zero-
padded copy of the features sliced once per offset and concatenated.
``tiled_generate_corpus`` is the corpus generator as first written, one
tiled and noised block per symbol; it is the bit-exact reference for the
whole-utterance generator.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
import scipy.linalg

from ekd.corpus import Corpus, Utterance
from ekd.lm import BOS, EOS, UNK
from ekd.model import forward_features
from ekd.svcca import ActivationMatrix
from ekd.training import activation_frame_indices
from ekd.vocab import symbol_prototypes


# -- CTC ----------------------------------------------------------------------

def collapse(path, blank):
    out = []
    prev = None
    for s in path:
        if s != prev:
            out.append(s)
        prev = s
    return tuple(s for s in out if s != blank)


def brute_ctc(probs: np.ndarray, target, blank: int) -> float:
    """Exact CTC probability: sum over all z^T paths whose collapse equals
    the target. Refuses instances beyond 10^7 paths."""
    T, z = probs.shape
    if z ** T > 10 ** 7:
        raise ValueError("instance too large for exhaustive enumeration")
    target = tuple(int(x) for x in target)
    total = 0.0
    for path in itertools.product(range(z), repeat=T):
        if collapse(path, blank) == target:
            p = 1.0
            for t, s in enumerate(path):
                p *= probs[t, s]
            total += p
    return total


def brute_ctc_all(probs: np.ndarray, blank: int) -> dict[tuple[int, ...], float]:
    """Probability of every collapsed output (sums to one over all outputs)."""
    T, z = probs.shape
    if z ** T > 10 ** 7:
        raise ValueError("instance too large for exhaustive enumeration")
    sums: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(z), repeat=T):
        p = 1.0
        for t, s in enumerate(path):
            p *= probs[t, s]
        seq = collapse(path, blank)
        sums[seq] = sums.get(seq, 0.0) + p
    return sums


def brute_best_paths(probs: np.ndarray, blank: int) -> dict[tuple[int, ...], float]:
    """Best-alignment log probability of every collapsed output."""
    T, z = probs.shape
    logp = np.log(probs)
    best: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(z), repeat=T):
        s = float(sum(logp[t, g] for t, g in enumerate(path)))
        seq = collapse(path, blank)
        if seq not in best or s > best[seq]:
            best[seq] = s
    return best


def fd_ctc_gradient(logits: np.ndarray, target, blank: int, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the CTC loss through the softmax."""
    from ekd.ctc import ctc_loss, softmax

    def loss_of(u):
        return ctc_loss(softmax(u).log_probs(), target, blank).loss

    grad = np.zeros_like(logits)
    for t in range(logits.shape[0]):
        for k in range(logits.shape[1]):
            up = logits.copy()
            dn = logits.copy()
            up[t, k] += eps
            dn[t, k] -= eps
            grad[t, k] = (loss_of(up) - loss_of(dn)) / (2 * eps)
    return grad


def two_pass_lattice(log_probs: np.ndarray, target, blank: int) -> tuple[np.ndarray, np.ndarray]:
    """Alpha and beta, ``[T, S]`` each, by separate passes with each frame
    built with concatenate/where. Raises ValueError with ``ctc_loss``'s
    messages for an unscorable pair."""
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[0] < 1:
        raise ValueError("log_probs must be [T>=1, z]")
    if np.any(np.isnan(lp)):
        raise ValueError("NaN in log posteriors")
    target = np.asarray(target, dtype=np.int64)
    if target.size == 0:
        raise ValueError("target must be non-empty")
    T, z = lp.shape
    if target.min() < 0 or target.max() >= z:
        raise ValueError("target index out of range")
    if np.any(target == blank):
        raise ValueError("target must not contain the blank symbol")
    min_frames = int(target.size + np.sum(target[1:] == target[:-1]))
    if T < min_frames:
        raise ValueError(f"target of length {target.size} needs {min_frames} frames, got {T}")

    S = 2 * target.size + 1
    ext = np.full(S, blank, dtype=np.int64)
    ext[1::2] = target
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    lp_ext = lp[:, ext]
    neg_inf = -np.inf

    alpha = np.full((T, S), neg_inf)
    alpha[0, 0] = lp_ext[0, 0]
    alpha[0, 1] = lp_ext[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        step = np.concatenate(([neg_inf], prev[:-1]))
        skip = np.concatenate(([neg_inf, neg_inf], prev[:-2]))
        skip = np.where(skip_ok, skip, neg_inf)
        alpha[t] = np.logaddexp(np.logaddexp(prev, step), skip) + lp_ext[t]

    beta = np.full((T, S), neg_inf)
    beta[T - 1, S - 1] = lp_ext[T - 1, S - 1]
    beta[T - 1, S - 2] = lp_ext[T - 1, S - 2]
    skip_fwd = np.zeros(S, dtype=bool)
    skip_fwd[:-2] = skip_ok[2:]
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1]
        step = np.concatenate((nxt[1:], [neg_inf]))
        skip = np.concatenate((nxt[2:], [neg_inf, neg_inf]))
        skip = np.where(skip_fwd, skip, neg_inf)
        beta[t] = np.logaddexp(np.logaddexp(nxt, step), skip) + lp_ext[t]
    return alpha, beta


def two_pass_ctc_loss(log_probs: np.ndarray, target, blank: int) -> tuple[float, np.ndarray]:
    """CTC loss and logit gradient from :func:`two_pass_lattice` and a
    per-state gamma loop: the arithmetic ``ekd.ctc.ctc_loss`` must repeat
    bit for bit. Raises ValueError with ``ctc_loss``'s messages on the same
    inputs."""
    alpha, beta = two_pass_lattice(log_probs, target, blank)
    lp = np.asarray(log_probs, dtype=np.float64)
    T, z = lp.shape
    S = alpha.shape[1]
    ext = np.full(S, blank, dtype=np.int64)
    ext[1::2] = target
    lp_ext = lp[:, ext]
    log_p = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2])
    if not np.isfinite(log_p):
        raise ValueError("target has zero probability under the given posteriors")

    ab = alpha + beta
    with np.errstate(invalid="ignore", over="ignore"):
        occ = np.where(np.isneginf(ab), 0.0, np.exp(ab - lp_ext - log_p))
    gamma = np.zeros((T, z))
    for s in range(S):
        gamma[:, ext[s]] += occ[:, s]
    return float(-log_p), np.exp(lp) - gamma


# -- distillation / selection --------------------------------------------------

def naive_mean(stacks: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(stacks[0])
    for t in range(out.shape[0]):
        for g in range(out.shape[1]):
            out[t, g] = sum(s[t, g] for s in stacks) / len(stacks)
    return out


def two_pass_confidence(probs: np.ndarray) -> float:
    """Greedy-decode the frame labels, then average those labels' posteriors."""
    labels = [int(np.argmax(probs[t])) for t in range(probs.shape[0])]
    return sum(probs[t, lab] for t, lab in enumerate(labels)) / probs.shape[0]


# -- WER -----------------------------------------------------------------------

def recursive_edit_distance(r, h) -> int:
    """Unit-cost edit distance by (memoized) recursion; |r|, |h| <= 8."""
    r = tuple(r)
    h = tuple(h)
    if len(r) > 8 or len(h) > 8:
        raise ValueError("sequences too long for the recursive oracle")

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(r):
            return len(h) - j
        if j == len(h):
            return len(r) - i
        if r[i] == h[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def numpy_wer(reference, hypothesis) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) from an ``np.int64`` edit
    matrix with numpy-scalar indexing, backtraced with substitution over
    deletion over insertion on cost ties: ``ekd.wer.wer`` as first written."""
    r, h = list(reference), list(hypothesis)
    R, H = len(r), len(h)
    d = np.zeros((R + 1, H + 1), dtype=np.int64)
    d[:, 0] = np.arange(R + 1)
    d[0, :] = np.arange(H + 1)
    for i in range(1, R + 1):
        for j in range(1, H + 1):
            d[i, j] = min(d[i - 1, j - 1] + (r[i - 1] != h[j - 1]), d[i - 1, j] + 1,
                          d[i, j - 1] + 1)
    subs = ins = dels = 0
    i, j = R, H
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + (r[i - 1] != h[j - 1]):
            subs += r[i - 1] != h[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and d[i, j] == d[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return int(subs), ins, dels


# -- CCA -----------------------------------------------------------------------

def brute_cca(a: np.ndarray, b: np.ndarray, ridge_scale: float = 1e-8) -> np.ndarray:
    """Canonical correlations via the generalized eigenproblem
    (Sab Sbb^-1 Sba) v = rho^2 Saa v, for d <= 3."""
    if a.shape[1] > 3 or b.shape[1] > 3:
        raise ValueError("oracle limited to d <= 3")
    n = a.shape[0]
    xa = a - a.mean(axis=0)
    xb = b - b.mean(axis=0)
    saa = xa.T @ xa / (n - 1)
    sbb = xb.T @ xb / (n - 1)
    sab = xa.T @ xb / (n - 1)
    saa = saa + (ridge_scale * np.trace(saa) / saa.shape[0]) * np.eye(saa.shape[0])
    sbb = sbb + (ridge_scale * np.trace(sbb) / sbb.shape[0]) * np.eye(sbb.shape[0])
    m = sab @ np.linalg.inv(sbb) @ sab.T
    vals = scipy.linalg.eigh(m, saa, eigvals_only=True)
    rho = np.sqrt(np.clip(vals, 0.0, 1.0))[::-1]
    return rho[: min(a.shape[1], b.shape[1])]


# -- decoder -------------------------------------------------------------------

def split_words(seq, separator_index: int, graphemes) -> list[str]:
    words = []
    current = []
    for idx in seq:
        if idx == separator_index:
            if current:
                words.append("".join(current))
                current = []
        else:
            current.append(graphemes[idx])
    if current:
        words.append("".join(current))
    return words


def exhaustive_beam_best(probs: np.ndarray, lm, lm_weight: float, bonus: float,
                         vocab) -> list[str]:
    """Argmax over every collapsed label sequence under the decoder's scoring
    rule (best-alignment acoustics + LM sentence score + per-word bonus)."""
    best_ac = brute_best_paths(probs, vocab.blank_index)
    ln10 = math.log(10.0)
    best_score = -np.inf
    best_words: list[str] = []
    for seq, ac in best_ac.items():
        words = split_words(seq, vocab.word_separator_index, vocab.graphemes)
        score = ac + bonus * len(words)
        if lm is not None and lm_weight > 0:
            score += lm_weight * ln10 * lm.sentence_log10_prob(words)
        if score > best_score:
            best_score = score
            best_words = words
    return best_words


LN10 = math.log(10.0)
NO_LAST = -1


class _Hyp:
    __slots__ = ("prefix", "last", "score", "context", "partial", "n_words")

    def __init__(self, prefix, last, score, context, partial, n_words):
        self.prefix = prefix      # collapsed symbol indices so far
        self.last = last          # last path symbol (NO_LAST after blank/start)
        self.score = score        # acoustic + committed LM + committed bonus
        self.context = context    # completed words (trimmed to LM order)
        self.partial = partial    # graphemes of the in-progress word
        self.n_words = n_words


def _word_of(partial: tuple[int, ...], vocab) -> str:
    return "".join(vocab.graphemes[i] for i in partial)


def object_beam_decode(posteriors, lm, config, vocab) -> list[str]:
    """The decoder as first written: one ``_Hyp`` object per candidate and a
    dict merge per frame, one utterance at a time. ``ekd.beam.beam_decode``
    must return the same words for each utterance of a batch."""
    lp = posteriors.log_probs()
    T, z = lp.shape
    if z != vocab.size:
        raise ValueError(f"posterior width {z} does not match vocabulary size {vocab.size}")
    blank = vocab.blank_index
    sep = vocab.word_separator_index
    fuse = lm is not None and config.lm_weight > 0
    lm_scale = config.lm_weight * LN10
    bonus = config.word_insertion_bonus

    def commit_word(hyp_score, context, partial, n_words):
        word = _word_of(partial, vocab)
        score = hyp_score + bonus
        if fuse:
            score += lm_scale * lm.log10_prob(word, context)
            if lm.order > 1:
                context = (context + (word if word in lm.vocabulary else UNK,))[-(lm.order - 1):]
        return score, context, n_words + 1

    start_context = (BOS,) * (lm.order - 1) if fuse else ()
    beams: dict[tuple, _Hyp] = {}
    start = _Hyp(prefix=(), last=NO_LAST, score=0.0, context=start_context, partial=(), n_words=0)
    beams[(start.prefix, start.last)] = start

    for t in range(T):
        frame = lp[t]
        nxt: dict[tuple, _Hyp] = {}
        for hyp in beams.values():
            for g in range(z):
                score = hyp.score + frame[g]
                if g == blank:
                    cand = _Hyp(hyp.prefix, NO_LAST, score, hyp.context, hyp.partial, hyp.n_words)
                elif g == hyp.last:
                    cand = _Hyp(hyp.prefix, g, score, hyp.context, hyp.partial, hyp.n_words)
                elif g == sep:
                    context, partial, n_words = hyp.context, hyp.partial, hyp.n_words
                    if partial:
                        score, context, n_words = commit_word(score, context, partial, n_words)
                        partial = ()
                    cand = _Hyp(hyp.prefix + (g,), g, score, context, partial, n_words)
                else:
                    cand = _Hyp(hyp.prefix + (g,), g, score, hyp.context,
                                hyp.partial + (g,), hyp.n_words)
                key = (cand.prefix, cand.last)
                kept = nxt.get(key)
                if kept is None or cand.score > kept.score:
                    nxt[key] = cand
        ranked = sorted(nxt.values(), key=lambda h: (-h.score, h.prefix, h.last))
        beams = {(h.prefix, h.last): h for h in ranked[:config.beam_width]}

    best_words: list[str] | None = None
    best_final = -np.inf
    for hyp in sorted(beams.values(), key=lambda h: (h.prefix, h.last)):
        final = hyp.score
        context = hyp.context
        if hyp.partial:
            final, context, _ = commit_word(final, context, hyp.partial, hyp.n_words)
        if fuse:
            final += lm_scale * lm.log10_prob(EOS, context)
        if final > best_final:
            best_final = final
            best_words = vocab.indices_to_words(hyp.prefix)
    return best_words if best_words is not None else []


# -- corpus --------------------------------------------------------------------

def expected_mean_frames(spec) -> float:
    """Exact expected frames per utterance under the generator's distributions."""
    mean_words = (spec.utterance_length_range[0] + spec.utterance_length_range[1]) / 2
    mean_word_len = sum(len(w) for w in spec.lexicon) / len(spec.lexicon)
    mean_symbols = mean_words * mean_word_len + (mean_words - 1)  # separators
    mean_frames_per_symbol = (spec.frames_per_symbol[0] + spec.frames_per_symbol[1]) / 2
    return mean_symbols * mean_frames_per_symbol


def tiled_generate_corpus(spec, vocab, n_utterances: int, seed: int) -> Corpus:
    """One ``np.tile`` of the symbol's prototype per symbol, plus its noise
    block. ``ekd.corpus.generate_corpus`` must return the same corpus."""
    if n_utterances < 1:
        raise ValueError("n_utterances must be >= 1")
    if not spec.lexicon:
        raise ValueError(f"domain {spec.name!r}: empty lexicon")
    if np.linalg.matrix_rank(spec.feature_scale) < spec.feature_dim:
        raise ValueError(f"domain {spec.name!r}: degenerate (non-invertible) feature transform")

    protos = symbol_prototypes(vocab, spec.feature_dim)
    transformed = protos @ spec.feature_scale.T + spec.feature_bias

    rng = np.random.default_rng(seed)
    word_indices = [vocab.word_to_indices(w) for w in spec.lexicon]
    flo, fhi = spec.frames_per_symbol
    wlo, whi = spec.utterance_length_range

    utterances = []
    for i in range(n_utterances):
        n_words = int(rng.integers(wlo, whi + 1))
        picks = rng.integers(0, len(spec.lexicon), size=n_words)
        transcript: list[int] = []
        for k, wi in enumerate(picks):
            if k > 0:
                transcript.append(vocab.word_separator_index)
            transcript.extend(word_indices[int(wi)])
        frames = []
        for sym in transcript:
            count = int(rng.integers(flo, fhi + 1))
            block = np.tile(transformed[sym], (count, 1))
            if spec.emission_noise_std > 0:
                block = block + rng.normal(0.0, spec.emission_noise_std, size=block.shape)
            frames.append(block)
        features = np.concatenate(frames, axis=0)
        utterances.append(Utterance(
            id=f"{spec.name}-{seed}-{i:05d}",
            features=features,
            transcript=np.asarray(transcript, dtype=np.int64),
        ))
    return Corpus(name=spec.name, vocabulary=vocab, utterances=utterances)


def nearest_prototype_transcript(features: np.ndarray, transformed_protos: np.ndarray,
                                 blank_index: int) -> tuple[int, ...]:
    """Classify each frame to its nearest non-blank prototype, then merge
    consecutive duplicates."""
    symbols = []
    for frame in features:
        best, best_d = None, np.inf
        for g in range(transformed_protos.shape[0]):
            if g == blank_index:
                continue
            d = float(np.sum((frame - transformed_protos[g]) ** 2))
            if d < best_d:
                best, best_d = g, d
        symbols.append(best)
    out = []
    prev = None
    for s in symbols:
        if s != prev:
            out.append(s)
        prev = s
    return tuple(out)


# -- model ---------------------------------------------------------------------

def padded_context_expand(features: np.ndarray, window: int) -> np.ndarray:
    """Each frame with its +-window neighbours, from a zero-padded copy:
    ``ekd.model.context_expand`` must return the same array."""
    T, F = features.shape
    padded = np.zeros((T + 2 * window, F))
    padded[window:window + T] = features
    return np.concatenate([padded[k:k + T] for k in range(2 * window + 1)], axis=1)


# -- activation sampling ------------------------------------------------------

def stacked_dump_activations(model, corpus, n_frames: int, seed: int) -> dict:
    """Every frame's activations stacked per layer, then the sample indexed.
    ``ekd.training.dump_activations`` must return the same matrices."""
    per_layer: dict[str, list[np.ndarray]] = {}
    for utt in corpus.utterances:
        _, acts = forward_features(model, utt.features)
        for name, a in acts.items():
            per_layer.setdefault(name, []).append(a)
    stacked = {name: np.concatenate(blocks, axis=0) for name, blocks in per_layer.items()}
    total = next(iter(stacked.values())).shape[0]
    idx = activation_frame_indices(total, n_frames, seed)
    return {name: ActivationMatrix(layer_name=name, data=mat[idx])
            for name, mat in stacked.items()}
