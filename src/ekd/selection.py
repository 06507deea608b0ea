"""Training-target construction from an ensemble of teacher posteriors.

Three strategies per unlabeled utterance:

* ``teacher_average`` — frame-wise mean of all teacher distributions;
* ``framewise_max`` — at each frame, copy the whole distribution of the
  teacher whose top posterior at that frame is largest;
* ``elitist`` — keep the single teacher whose utterance-level confidence
  (mean over frames of its per-frame top posterior) is highest.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import binio
from .ctc import PosteriorSequence, greedy_decode_batch, prepare_target

logger = logging.getLogger(__name__)


class Strategy(str, Enum):
    TEACHER_AVERAGE = "teacher_average"
    FRAMEWISE_MAX = "framewise_max"
    ELITIST = "elitist"


@dataclass
class TeacherBundle:
    """All K teachers' posterior sequences for one utterance."""

    utterance_id: str
    per_teacher_posteriors: list[PosteriorSequence]

    def __post_init__(self) -> None:
        if len(self.per_teacher_posteriors) < 1:
            raise ValueError("bundle needs at least one teacher")
        shape = self.per_teacher_posteriors[0].probs.shape
        for p in self.per_teacher_posteriors:
            if p.probs.shape != shape:
                raise ValueError(f"bundle {self.utterance_id!r}: teacher posterior shape mismatch")

    @property
    def num_teachers(self) -> int:
        return len(self.per_teacher_posteriors)


@dataclass
class SelectionOutcome:
    """One utterance's training target. ``selected_posteriors`` is set only
    on outcomes a strategy returns; selection files do not store them."""

    utterance_id: str
    selected_posteriors: PosteriorSequence | None
    winning_teacher: int | None
    per_teacher_scores: list[float] | None
    pseudo_transcript: np.ndarray
    sequence_confidence: float

    def __post_init__(self) -> None:
        self.pseudo_transcript = np.asarray(self.pseudo_transcript, dtype=np.int64)
        if not 0.0 <= self.sequence_confidence <= 1.0:   # also rejects NaN
            raise ValueError(f"{self.utterance_id}: sequence_confidence "
                             f"{self.sequence_confidence} outside [0, 1]")


def utterance_confidence(probs: np.ndarray) -> float:
    """Mean over frames of the per-frame maximum posterior — the confidence
    of the greedy label at each frame, averaged over the utterance."""
    return float(np.mean(np.max(probs, axis=1)))


def elitist_scores(bundle: TeacherBundle) -> list[float]:
    """Per-teacher utterance confidences; each lies in [1/z, 1]."""
    return [utterance_confidence(p.probs) for p in bundle.per_teacher_posteriors]


def _outcome(bundle: TeacherBundle, selected: PosteriorSequence, blank: int,
             winner: int | None = None, scores: list[float] | None = None) -> SelectionOutcome:
    return SelectionOutcome(
        utterance_id=bundle.utterance_id,
        selected_posteriors=selected,
        winning_teacher=winner,
        per_teacher_scores=scores,
        pseudo_transcript=greedy_decode_batch([selected], blank)[0],
        sequence_confidence=utterance_confidence(selected.probs),
    )


def teacher_average(bundle: TeacherBundle, blank: int) -> SelectionOutcome:
    """Element-wise mean over teachers."""
    stack = np.stack([p.probs for p in bundle.per_teacher_posteriors])
    return _outcome(bundle, PosteriorSequence(stack.mean(axis=0), bundle.utterance_id), blank)


def framewise_max(bundle: TeacherBundle, blank: int) -> SelectionOutcome:
    """Per frame, copy the full row of the most confident teacher (ties go to
    the lowest teacher index). Rows stay normalized because they are copies."""
    stack = np.stack([p.probs for p in bundle.per_teacher_posteriors])  # [K, T, z]
    frame_conf = stack.max(axis=2)                                     # [K, T]
    winners = np.argmax(frame_conf, axis=0)                            # [T]
    composed = stack[winners, np.arange(stack.shape[1]), :]
    return _outcome(bundle, PosteriorSequence(composed, bundle.utterance_id), blank)


def elitist_select(bundle: TeacherBundle, blank: int) -> SelectionOutcome:
    """Keep the highest-confidence teacher's full posterior sequence.

    The winner's posteriors are passed through unchanged (same array), so the
    training target preserves one model's coherent sequence; its confidence
    is the winner's score.
    """
    scores = elitist_scores(bundle)
    winner = int(np.argmax(scores))
    return _outcome(bundle, bundle.per_teacher_posteriors[winner], blank, winner, scores)


_STRATEGY_FNS = {
    Strategy.TEACHER_AVERAGE: teacher_average,
    Strategy.FRAMEWISE_MAX: framewise_max,
    Strategy.ELITIST: elitist_select,
}


@dataclass
class CorpusSelection:
    """Per-utterance outcomes plus order-independent summary statistics."""

    strategy: Strategy
    outcomes: list[SelectionOutcome]
    win_counts: list[int] | None      # elitist only
    skipped: list[tuple[str, str]]    # (utterance_id, reason)

    def summary_text(self) -> str:
        lines = [f"strategy: {self.strategy.value}",
                 f"utterances selected: {len(self.outcomes)}",
                 f"utterances skipped: {len(self.skipped)}"]
        if self.win_counts is not None:
            counts = " ".join(f"teacher{k}={c}" for k, c in enumerate(self.win_counts))
            lines.append(f"win counts: {counts}")
        return "\n".join(lines) + "\n"


def select_corpus(strategy: Strategy | str, bundles: list[TeacherBundle],
                  blank: int) -> CorpusSelection:
    """Apply one strategy to every bundle. An utterance that fails, or whose
    pseudo-transcript cannot be scored (see :func:`~ekd.ctc.prepare_target`),
    is skipped and reported rather than aborting the run, so ``skipped``
    names every utterance the student will not train on."""
    strategy = Strategy(strategy)
    fn = _STRATEGY_FNS[strategy]
    n_teachers = bundles[0].num_teachers if bundles else 0
    z = bundles[0].per_teacher_posteriors[0].vocab_size if bundles else None
    outcomes: list[SelectionOutcome] = []
    skipped: list[tuple[str, str]] = []
    win_counts = [0] * n_teachers if strategy is Strategy.ELITIST else None
    for bundle in bundles:
        try:
            if bundle.num_teachers != n_teachers:
                raise ValueError(f"expected {n_teachers} teachers, got {bundle.num_teachers}")
            if bundle.per_teacher_posteriors[0].vocab_size != z:
                raise ValueError("vocabulary size differs across bundles")
            outcome = fn(bundle, blank)
            prepare_target(outcome.pseudo_transcript, outcome.selected_posteriors.num_frames, z,
                           blank)
        except ValueError as e:
            logger.warning("selection failed for %s: %s", bundle.utterance_id, e)
            skipped.append((bundle.utterance_id, str(e)))
            continue
        outcomes.append(outcome)
        if win_counts is not None:
            win_counts[outcome.winning_teacher] += 1
    return CorpusSelection(strategy=strategy, outcomes=outcomes,
                           win_counts=win_counts, skipped=skipped)


# -- persistence ------------------------------------------------------------

def save_posteriors(path, posteriors: list[PosteriorSequence], model_id: str,
                    vocabulary_hash: str) -> None:
    """One array per utterance, its posteriors; the header lists the ids in
    the same order."""
    header = {"model_id": model_id, "vocabulary_hash": vocabulary_hash,
              "ids": [p.utterance_id for p in posteriors]}
    binio.write_container(path, "posteriors", header, [p.probs for p in posteriors])


def load_posteriors(path) -> tuple[dict, list[PosteriorSequence]]:
    header, probs = binio.read_container(path, "posteriors")
    with binio.checked(path):
        binio.check_counts(path, header["ids"], arrays=probs)
        return header, [PosteriorSequence(*p) for p in zip(probs, header["ids"])]


def save_selection(path, selection: CorpusSelection, vocabulary_hash: str) -> None:
    """One container whose header holds the whole selection, every outcome
    included; it has no arrays."""
    header = {
        "strategy": selection.strategy.value,
        "vocabulary_hash": vocabulary_hash,
        "win_counts": selection.win_counts,
        "skipped": list(selection.skipped),
        "outcomes": [{
            "id": o.utterance_id,
            "winning_teacher": o.winning_teacher,
            "per_teacher_scores": o.per_teacher_scores,
            "pseudo_transcript": o.pseudo_transcript.tolist(),
            "sequence_confidence": o.sequence_confidence,
        } for o in selection.outcomes],
    }
    binio.write_container(path, "selection", header)


def load_selection(path) -> tuple[dict, CorpusSelection]:
    header, arrays = binio.read_container(path, "selection")
    if arrays:
        raise binio.FormatError(f"{path}: corrupted record (a selection file has no arrays)")
    with binio.checked(path):
        try:
            outcomes = [SelectionOutcome(
                utterance_id=o["id"],
                selected_posteriors=None,
                winning_teacher=o["winning_teacher"],
                per_teacher_scores=o["per_teacher_scores"],
                pseudo_transcript=o["pseudo_transcript"],
                sequence_confidence=o["sequence_confidence"],
            ) for o in header["outcomes"]]
        except KeyError as e:
            raise binio.FormatError(
                f"{path}: corrupted record (an outcome has no {e.args[0]!r})") from e
        return header, CorpusSelection(strategy=Strategy(header["strategy"]), outcomes=outcomes,
                                       win_counts=header["win_counts"],
                                       skipped=[tuple(s) for s in header["skipped"]])
