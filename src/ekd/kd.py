"""Distillation objective: the confidence-weighted sequence-level CTC loss
used for student training."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ctc import CtcLattice, CtcLossResult, InfeasibleTargetError, ctc_loss

logger = logging.getLogger(__name__)


class SoftLabelMode(str, Enum):
    POSTERIOR_WEIGHTED_CTC = "posterior_weighted_ctc"
    HARD_PSEUDO_LABEL = "hard_pseudo_label"


@dataclass
class KdConfig:
    """Distillation settings. The student never sees target labels, so its
    loss is the distillation loss alone."""

    soft_label_mode: SoftLabelMode = SoftLabelMode.POSTERIOR_WEIGHTED_CTC

    def __post_init__(self) -> None:
        self.soft_label_mode = SoftLabelMode(self.soft_label_mode)


@dataclass
class SoftTarget:
    """A teacher-produced training target for one unlabeled utterance."""

    utterance_id: str
    pseudo_transcript: np.ndarray
    teacher_sequence_confidence: float

    def __post_init__(self) -> None:
        self.pseudo_transcript = np.asarray(self.pseudo_transcript, dtype=np.int64)
        if not 0.0 <= self.teacher_sequence_confidence <= 1.0:
            raise ValueError("teacher_sequence_confidence must lie in [0, 1]")


def soft_ctc_kd_loss(student_log_probs: np.ndarray, target: SoftTarget, blank: int,
                     lattice: CtcLattice | None = None) -> CtcLossResult | None:
    """Teacher-confidence-weighted CTC loss of the student against the
    teacher's decoded transcription. Loss and gradient scale together.
    ``lattice`` is passed on to :func:`~ekd.ctc.ctc_loss`.

    Returns None (after a logged warning) when the pseudo-transcript cannot
    fit in the student's frame count, so the caller can skip the utterance.
    """
    c = target.teacher_sequence_confidence
    try:
        base = ctc_loss(student_log_probs, target.pseudo_transcript, blank, lattice=lattice)
    except InfeasibleTargetError as e:
        logger.warning("skipping utterance %s: %s", target.utterance_id, e)
        return None
    return CtcLossResult(loss=c * base.loss, grad_logits=c * base.grad_logits)
