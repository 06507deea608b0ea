"""Back-off n-gram language model over word strings.

Katz-style back-off with a Good-Turing-derived absolute discount per order
(D = n1 / (n1 + 2*n2), falling back to 0.5 when the count-of-counts are
degenerate). Conditional probabilities over any context sum to one exactly:
the discounted mass of seen continuations is redistributed to unseen ones
through the back-off weight, and at the unigram level the leftover mass is
the probability of the unknown-word type.

Serialized in the standard textual back-off format: a header with per-order
entry counts, then one entry per line (log10 probability, n-gram, optional
log10 back-off weight).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import binio

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


@dataclass
class NgramLm:
    order: int
    vocabulary: frozenset[str]                     # predictable tokens (words, </s>, <unk>)
    log_probs: dict[tuple[str, ...], float]        # n-gram -> log10 conditional prob
    backoffs: dict[tuple[str, ...], float]         # context -> log10 back-off weight

    def _canon(self, token: str) -> str:
        return token if (token in self.vocabulary or token == BOS) else UNK

    def log10_prob(self, word: str, context: tuple[str, ...] = ()) -> float:
        """log10 p(word | context).

        Unknown predicted words map to the <unk> type; unknown context words
        are canonicalized the same way, which sends the query down the
        back-off chain.
        """
        w = word if word in self.vocabulary else UNK
        if self.order > 1:
            ctx = tuple(self._canon(t) for t in tuple(context)[-(self.order - 1):])
        else:
            ctx = ()
        return self._lookup(ctx + (w,))

    def _lookup(self, gram: tuple[str, ...]) -> float:
        if gram in self.log_probs:
            return self.log_probs[gram]
        ctx = gram[:-1]
        if not ctx:
            return self.log_probs[(gram[-1],)]  # <unk> guarantees this exists
        return self.backoffs.get(ctx, 0.0) + self._lookup(gram[1:])

    def sentence_log10_prob(self, words: list[str]) -> float:
        """log10 probability of the word sequence followed by </s>."""
        total = 0.0
        history: tuple[str, ...] = (BOS,) * (self.order - 1)
        for w in [str(x) for x in words] + [EOS]:
            total += self.log10_prob(w, history)
            if self.order > 1:
                history = (history + (self._canon(w),))[-(self.order - 1):]
        return total


def _discount(counts: dict, fallback: float = 0.5) -> float:
    n1 = sum(1 for c in counts.values() if c == 1)
    n2 = sum(1 for c in counts.values() if c == 2)
    if n1 > 0 and n2 > 0:
        return n1 / (n1 + 2.0 * n2)
    return fallback


def _entry_grams(log_probs: dict, backoffs: dict, order: int) -> list[list[tuple[str, ...]]]:
    """Grams emitted per order: probability entries plus back-off-only
    contexts (those ending in <s>, which are never predicted)."""
    per_order: list[set[tuple[str, ...]]] = [set() for _ in range(order)]
    for gram in log_probs:
        per_order[len(gram) - 1].add(gram)
    for ctx in backoffs:
        per_order[len(ctx) - 1].add(ctx)
    return [sorted(s) for s in per_order]


def train_lm(transcripts: list[list[str]], order: int = 3) -> NgramLm:
    """Deterministic back-off model from word-sequence transcripts."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not transcripts:
        raise ValueError("transcripts must be non-empty")

    counts: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
    for words in transcripts:
        padded = [BOS] * (order - 1) + [str(w) for w in words] + [EOS]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i:i + k])
                if gram[-1] == BOS:
                    continue  # <s> is never a predicted token
                counts[k - 1][gram] = counts[k - 1].get(gram, 0) + 1

    log_probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}

    # Unigrams: discounted mass of seen types, leftover assigned to <unk>.
    uni = counts[0]
    total = sum(uni.values())
    d1 = _discount(uni)
    for gram, c in uni.items():
        log_probs[gram] = math.log10((c - d1) / total)
    log_probs[(UNK,)] = math.log10(d1 * len(uni) / total)

    # Higher orders, bottom-up so back-off weights can query lower levels.
    linear_lower = {g: 10.0 ** lp for g, lp in log_probs.items()}
    for k in range(2, order + 1):
        level = counts[k - 1]
        dk = _discount(level)
        by_ctx: dict[tuple[str, ...], list[tuple[str, int]]] = {}
        for gram, c in level.items():
            by_ctx.setdefault(gram[:-1], []).append((gram[-1], c))
        level_linear: dict[tuple[str, ...], float] = {}
        for ctx, conts in by_ctx.items():
            ctx_total = sum(c for _, c in conts)
            seen_mass = 0.0
            lower_seen_mass = 0.0
            for w, c in conts:
                p = (c - dk) / ctx_total
                level_linear[ctx + (w,)] = p
                log_probs[ctx + (w,)] = math.log10(p)
                seen_mass += p
                # A counted k-gram's suffix is a counted (k-1)-gram.
                lower_seen_mass += linear_lower[ctx[1:] + (w,)]
            backoffs[ctx] = math.log10((1.0 - seen_mass) / (1.0 - lower_seen_mass))
        linear_lower.update(level_linear)

    vocabulary = frozenset(g[0] for g in uni) | {UNK}
    return NgramLm(order=order, vocabulary=vocabulary, log_probs=log_probs, backoffs=backoffs)


# -- textual back-off format --------------------------------------------------

def save_arpa(lm: NgramLm, path) -> None:
    entries = _entry_grams(lm.log_probs, lm.backoffs, lm.order)
    lines = ["\\data\\"]
    for k in range(lm.order):
        lines.append(f"ngram {k + 1}={len(entries[k])}")
    lines.append("")
    for k in range(lm.order):
        lines.append(f"\\{k + 1}-grams:")
        for gram in entries[k]:
            lp = lm.log_probs.get(gram, -99.0)  # -99: placeholder for back-off-only grams
            entry = f"{lp!r}\t{' '.join(gram)}"
            if gram in lm.backoffs:
                entry += f"\t{lm.backoffs[gram]!r}"
            lines.append(entry)
        lines.append("")
    lines.append("\\end\\")
    binio.atomic_write_text(path, "\n".join(lines) + "\n")


def load_arpa(path) -> NgramLm:
    """The model in a file that ``save_arpa`` wrote. ValueError naming the
    file if it is malformed or truncated: a section whose entry count is not
    the one ``\\data\\`` declares, or no ``\\end\\`` line."""
    text = Path(path).read_text()
    log_probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    declared: list[int] = []
    found: dict[int | None, int] = {}  # entries per section
    section: int | str | None = None
    ended = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "\\data\\":
            section = "data"
            continue
        if line == "\\end\\":
            ended = True
            break
        if line.startswith("\\") and line.endswith("-grams:"):
            section = int(line[1:].split("-")[0])
            found.setdefault(section, 0)
            continue
        if section == "data":
            if line.startswith("ngram"):
                declared.append(int(line.split("=")[1]))
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}: malformed entry {line!r}")
        found[section] = found.get(section, 0) + 1
        gram = tuple(parts[1].split(" "))
        if gram[-1] != BOS:  # <s>-final grams are back-off-weight carriers only
            log_probs[gram] = float(parts[0])
        if len(parts) == 3:
            backoffs[gram] = float(parts[2])
    if not declared:
        raise ValueError(f"{path}: missing \\data\\ section")
    if found != {k + 1: n for k, n in enumerate(declared)}:
        raise ValueError(f"{path}: entries per section {found} differ from the \\data\\ "
                         f"counts {declared} (truncated file?)")
    if not ended:
        raise ValueError(f"{path}: missing \\end\\ (truncated file?)")
    vocabulary = frozenset(g[0] for g in log_probs if len(g) == 1)
    return NgramLm(order=len(declared), vocabulary=vocabulary, log_probs=log_probs,
                   backoffs=backoffs)
