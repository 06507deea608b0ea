"""Grapheme vocabulary and the shared per-symbol feature prototypes."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Vocabulary:
    """Ordered grapheme inventory with designated blank and word-separator symbols.

    The symbol order is part of the identity of every downstream artifact
    (posteriors, checkpoints, selection files), so it is captured in a stable
    content hash.
    """

    graphemes: tuple[str, ...]
    blank_index: int
    word_separator_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "graphemes", tuple(self.graphemes))
        if len(self.graphemes) < 2:
            raise ValueError("vocabulary needs at least a blank and one symbol")
        if len(set(self.graphemes)) != len(self.graphemes):
            raise ValueError("grapheme symbols must be unique")
        n = len(self.graphemes)
        if not (0 <= self.blank_index < n):
            raise ValueError(f"blank_index {self.blank_index} out of range")
        if not (0 <= self.word_separator_index < n):
            raise ValueError(f"word_separator_index {self.word_separator_index} out of range")
        if self.blank_index == self.word_separator_index:
            raise ValueError("blank and word separator must be distinct symbols")

    @property
    def size(self) -> int:
        return len(self.graphemes)

    def content_hash(self) -> str:
        """SHA-256 over the ordered symbols and the special indices."""
        h = hashlib.sha256()
        h.update(f"{self.blank_index}|{self.word_separator_index}|".encode())
        for g in self.graphemes:
            h.update(g.encode())
            h.update(b"\x00")
        return h.hexdigest()

    # -- word <-> symbol-index helpers ------------------------------------
    # Lexicon words are concatenations of single-character graphemes.

    def word_to_indices(self, word: str) -> list[int]:
        lut = {g: i for i, g in enumerate(self.graphemes)}
        out = []
        for ch in word:
            if ch not in lut:
                raise KeyError(f"word {word!r} uses unknown grapheme {ch!r}")
            idx = lut[ch]
            if idx == self.blank_index:
                raise ValueError(f"word {word!r} contains the blank symbol")
            out.append(idx)
        return out

    def indices_to_words(self, seq) -> list[str]:
        """Split a (blank-free) symbol-index sequence, an integer array or a
        sequence of ints, into word strings."""
        words: list[str] = []
        current: list[str] = []
        for i in seq.tolist() if isinstance(seq, np.ndarray) else seq:
            if i == self.word_separator_index:
                if current:
                    words.append("".join(current))
                    current = []
            else:
                current.append(self.graphemes[i])
        if current:
            words.append("".join(current))
        return words


def default_vocabulary(letters: str = "abcdefgh") -> Vocabulary:
    """Blank at index 0, letters, and a trailing space separator."""
    graphemes = ("_",) + tuple(letters) + (" ",)
    return Vocabulary(graphemes=graphemes, blank_index=0, word_separator_index=len(graphemes) - 1)


def symbol_prototypes(vocab: Vocabulary, feature_dim: int) -> np.ndarray:
    """Canonical feature vector per symbol, shared by all domains.

    Drawn once from a seed derived from the vocabulary hash, so every corpus
    built over the same vocabulary sees the same prototypes before its
    domain transform. The blank symbol is never emitted and gets a zero row.
    """
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    seed_material = f"{vocab.content_hash()}:{feature_dim}".encode()
    seed = int.from_bytes(hashlib.sha256(seed_material).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(vocab.size, feature_dim))
    protos[vocab.blank_index] = 0.0
    return protos
