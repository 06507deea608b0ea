"""Word error rate from a minimum-edit alignment at the word level."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class WerBreakdown:
    substitutions: int
    insertions: int
    deletions: int
    reference_words: int

    @property
    def total_errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer_defined(self) -> bool:
        return self.reference_words > 0

    @property
    def wer(self) -> float:
        if not self.wer_defined:
            return math.nan
        return self.total_errors / self.reference_words

    def __add__(self, other: "WerBreakdown") -> "WerBreakdown":
        return WerBreakdown(
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
            self.reference_words + other.reference_words,
        )


def wer(reference: list[str], hypothesis: list[str]) -> WerBreakdown:
    """Unit-cost Levenshtein alignment of two word sequences.

    On cost ties the backtrace prefers substitution over deletion over
    insertion; that choice shapes the breakdown, never the total.
    """
    r, h = list(reference), list(hypothesis)
    R, H = len(r), len(h)
    d = [list(range(H + 1))]
    for i in range(1, R + 1):
        prev, row, word = d[-1], [i], r[i - 1]
        for j in range(1, H + 1):
            row.append(min(prev[j - 1] + (word != h[j - 1]), prev[j] + 1, row[j - 1] + 1))
        d.append(row)

    subs = ins = dels = 0
    i, j = R, H
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (r[i - 1] != h[j - 1]):
            subs += r[i - 1] != h[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerBreakdown(substitutions=subs, insertions=ins, deletions=dels, reference_words=R)


def accumulate(parts: list[WerBreakdown]) -> WerBreakdown:
    """Corpus-level breakdown: summed error counts over summed reference words."""
    total = WerBreakdown(0, 0, 0, 0)
    for p in parts:
        total = total + p
    return total
