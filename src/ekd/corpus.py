"""Utterance/corpus data model, synthetic domain generation, and persistence."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import binio
from .vocab import Vocabulary, symbol_prototypes

CORPUS_FORMAT_VERSION = 2

# Counts every access to Utterance.transcript; lets callers prove a code path
# (student training) never touched the labels.
_TRANSCRIPT_READS = 0


def transcript_read_count() -> int:
    return _TRANSCRIPT_READS


class Utterance:
    """One utterance: feature frames plus an optional reference transcript.

    ``transcript`` is a counted property so label accesses are auditable;
    use :func:`transcript_read_count` deltas around a code region.
    """

    __slots__ = ("id", "features", "_transcript")

    def __init__(self, id: str, features: np.ndarray,
                 transcript: np.ndarray | None = None) -> None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError(f"utterance {id!r}: features must be [T>=1, F]")
        if transcript is not None:
            transcript = np.asarray(transcript, dtype=np.int64)
            if transcript.ndim != 1:
                raise ValueError(f"utterance {id!r}: transcript must be 1-D")
        self.id = id
        self.features = features
        self._transcript = transcript

    @property
    def transcript(self) -> np.ndarray | None:
        global _TRANSCRIPT_READS
        _TRANSCRIPT_READS += 1
        return self._transcript

    @property
    def has_transcript(self) -> bool:
        """Presence check that does not count as a label read."""
        return self._transcript is not None

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def without_transcript(self) -> "Utterance":
        return Utterance(self.id, self.features)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Utterance):
            return NotImplemented
        if self.id != other.id:
            return False
        if not np.array_equal(self.features, other.features):
            return False
        a, b = self._transcript, other._transcript
        if (a is None) != (b is None):
            return False
        return a is None or np.array_equal(a, b)

    def __repr__(self) -> str:
        t = "none" if self._transcript is None else f"len={len(self._transcript)}"
        return f"Utterance(id={self.id!r}, frames={self.num_frames}, transcript={t})"


@dataclass
class Corpus:
    """One domain's utterances, named by the domain, sharing one vocabulary."""

    name: str
    vocabulary: Vocabulary
    utterances: list[Utterance]

    def __post_init__(self) -> None:
        """Refuse the first bad utterance, in corpus order, by its first
        failing check: feature dims, then transcript range, then blank."""
        n = len(self.utterances)
        if not n:
            return
        dims = np.array([u.feature_dim for u in self.utterances])
        transcripts = [u._transcript for u in self.utterances]
        labelled = [t for t in transcripts if t is not None]
        symbols = np.concatenate(labelled) if labelled else np.zeros(0, dtype=np.int64)
        owners = np.repeat(np.arange(n), [0 if t is None else t.size for t in transcripts])

        def per_utterance(symbol_fails: np.ndarray) -> np.ndarray:
            return np.bincount(owners[symbol_fails], minlength=n) > 0

        failing = np.stack([dims != dims[0],
                            per_utterance((symbols < 0) | (symbols >= self.vocabulary.size)),
                            per_utterance(symbols == self.vocabulary.blank_index)])
        bad = np.flatnonzero(failing.any(axis=0))
        if bad.size:
            first = self.utterances[bad[0]].id
            raise ValueError((f"corpus {self.name!r}: inconsistent feature dims",
                              f"utterance {first!r}: transcript index out of range",
                              f"utterance {first!r}: transcript contains blank",
                              )[int(np.argmax(failing[:, bad[0]]))])

    def __len__(self) -> int:
        return len(self.utterances)

    @property
    def feature_dim(self) -> int:
        if not self.utterances:
            raise ValueError("empty corpus has no feature dim")
        return self.utterances[0].feature_dim

    def without_transcripts(self) -> "Corpus":
        return Corpus(self.name, self.vocabulary,
                      [u.without_transcript() for u in self.utterances])


@dataclass(eq=False)
class DomainSpec:
    """Parametric recipe for one synthetic acoustic domain.

    Features for a symbol are ``scale @ prototype + bias`` plus isotropic
    gaussian noise; the affine transform is what makes domains mutually
    out-of-domain while sharing symbol identities.
    """

    name: str
    emission_noise_std: float
    feature_scale: np.ndarray
    feature_bias: np.ndarray
    frames_per_symbol: tuple[int, int]
    utterance_length_range: tuple[int, int]
    lexicon: tuple[str, ...]

    def __post_init__(self) -> None:
        self.feature_scale = np.asarray(self.feature_scale, dtype=np.float64)
        self.feature_bias = np.asarray(self.feature_bias, dtype=np.float64)
        if self.emission_noise_std < 0:
            raise ValueError("emission_noise_std must be >= 0")
        if self.feature_scale.ndim != 2 or self.feature_scale.shape[0] != self.feature_scale.shape[1]:
            raise ValueError("feature_scale must be square")
        if self.feature_bias.shape != (self.feature_scale.shape[0],):
            raise ValueError("feature_bias dimension does not match feature_scale")
        lo, hi = self.frames_per_symbol
        if not (1 <= lo <= hi):
            raise ValueError("frames_per_symbol range must satisfy 1 <= lo <= hi")
        lo, hi = self.utterance_length_range
        if not (1 <= lo <= hi):
            raise ValueError("utterance_length_range must satisfy 1 <= lo <= hi")
        self.lexicon = tuple(self.lexicon)

    @property
    def feature_dim(self) -> int:
        return self.feature_scale.shape[0]

    def differs_from(self, other: "DomainSpec") -> bool:
        """True if the two specs differ in transform, noise, or lexicon."""
        return (not np.array_equal(self.feature_scale, other.feature_scale)
                or not np.array_equal(self.feature_bias, other.feature_bias)
                or self.emission_noise_std != other.emission_noise_std
                or self.lexicon != other.lexicon)


def generate_corpus(spec: DomainSpec, vocab: Vocabulary, n_utterances: int,
                    seed: int) -> Corpus:
    """Synthesize a corpus: sampled lexicon words rendered as noisy prototype frames.

    Deterministic: identical (spec, vocab, n_utterances, seed) yields a
    byte-identical corpus. One generator, seeded by ``seed``, is drawn in
    this order, and the order fixes the bytes. Per utterance: the word
    count, then the word picks. Then per symbol of its transcript: the frame
    count, then that symbol's ``(count, F)`` noise block (none at zero
    noise). An utterance's features are its symbols' transformed prototypes,
    each repeated for its frame count, plus the noise blocks stacked in
    order.
    """
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
    std = spec.emission_noise_std
    F = spec.feature_dim

    utterances = []
    for i in range(n_utterances):
        n_words = int(rng.integers(wlo, whi + 1))
        picks = rng.integers(0, len(spec.lexicon), size=n_words)
        transcript: list[int] = []
        for k, wi in enumerate(picks):
            if k > 0:
                transcript.append(vocab.word_separator_index)
            transcript.extend(word_indices[int(wi)])
        counts = []
        noise = []
        for _ in transcript:
            count = int(rng.integers(flo, fhi + 1))
            counts.append(count)
            if std > 0:
                noise.append(rng.normal(0.0, std, size=(count, F)))
        labels = np.asarray(transcript, dtype=np.int64)
        features = np.repeat(transformed[labels], counts, axis=0)
        if noise:
            features += np.concatenate(noise)
        utterances.append(Utterance(
            id=f"{spec.name}-{seed}-{i:05d}",
            features=features,
            transcript=labels,
        ))
    return Corpus(name=spec.name, vocabulary=vocab, utterances=utterances)


def save_corpus(corpus: Corpus, path) -> None:
    """One array per utterance, its features; the header lists the ids and
    transcripts in the same order."""
    header = {
        "name": corpus.name,
        "vocabulary": asdict(corpus.vocabulary),
        "vocabulary_hash": corpus.vocabulary.content_hash(),
        "ids": [u.id for u in corpus.utterances],
        "transcripts": [None if u._transcript is None else u._transcript.tolist()
                        for u in corpus.utterances],
    }
    binio.write_container(path, "corpus", CORPUS_FORMAT_VERSION, header,
                          [u.features for u in corpus.utterances])


def load_corpus(path) -> Corpus:
    """The corpus saved at ``path``."""
    header, features = binio.read_container(path, "corpus", CORPUS_FORMAT_VERSION)
    with binio.checked(path):
        vocab = Vocabulary(**header["vocabulary"])
        if vocab.content_hash() != header["vocabulary_hash"]:
            raise binio.FormatError(f"{path}: vocabulary-hash mismatch")
        ids, transcripts = header["ids"], header["transcripts"]
        binio.check_counts(path, ids, arrays=features, transcripts=transcripts)
        return Corpus(header["name"], vocab,
                      [Utterance(*utt) for utt in zip(ids, features, transcripts)])


def split_corpus(corpus: Corpus, n_first: int, seed: int) -> tuple[Corpus, Corpus]:
    """Disjoint covering split into the first ``n_first`` utterances of a
    seeded permutation and the rest, each kept in corpus order. Both parts
    keep the corpus's name."""
    n = len(corpus.utterances)
    if not 0 <= n_first <= n:
        raise ValueError(f"corpus {corpus.name!r}: cannot take {n_first} of {n} utterances")
    perm = np.random.default_rng(seed).permutation(n)
    return tuple(Corpus(corpus.name, corpus.vocabulary,
                        [corpus.utterances[j] for j in sorted(part.tolist())])
                 for part in (perm[:n_first], perm[n_first:]))
