"""Distillation objective: the weighted sequence-level CTC loss. Students
weight each pseudo-transcript by the teacher's confidence in it; teachers
train on reference transcripts with weight 1."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ctc import CtcLattice, CtcLossResult, ctc_loss


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


def soft_ctc_kd_loss(student_log_probs: np.ndarray, target, weight: float, blank: int,
                     lattice: CtcLattice | None = None) -> CtcLossResult:
    """``weight`` times the CTC loss of the student against ``target``; loss
    and gradient scale together. ``lattice`` is passed on to
    :func:`~ekd.ctc.ctc_loss`, which raises for a target it cannot score."""
    base = ctc_loss(student_log_probs, target, blank, lattice=lattice)
    return CtcLossResult(loss=weight * base.loss, grad_logits=weight * base.grad_logits)
