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

    Words the two share at either end never reach the table: identical
    sequences have no errors, and the common suffix, then the common
    prefix, is stripped first. A shared last word is the backtrace's first
    step, a free diagonal. With a common prefix of length k, the cells from
    row and column k on equal the table of the rest, and a backtrace that
    reaches row or column k costs its length difference from there, all
    insertions or all deletions, as in the table of the rest.
    """
    r, h = list(reference), list(hypothesis)
    n_ref, n_hyp = len(r), len(h)
    if r == h:
        return WerBreakdown(0, 0, 0, n_ref)
    shared = min(n_ref, n_hyp)
    end = 0
    while end < shared and r[-1 - end] == h[-1 - end]:
        end += 1
    start = 0
    while start < shared - end and r[start] == h[start]:
        start += 1
    r, h = r[start:n_ref - end], h[start:n_hyp - end]
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
    return WerBreakdown(substitutions=subs, insertions=ins, deletions=dels,
                        reference_words=n_ref)


def accumulate(parts: list[WerBreakdown]) -> WerBreakdown:
    """Corpus-level breakdown: summed error counts over summed reference words."""
    total = WerBreakdown(0, 0, 0, 0)
    for p in parts:
        total = total + p
    return total
