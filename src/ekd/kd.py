"""The distillation loss: the weighted sequence-level CTC loss. Students
weight each pseudo-transcript by the teacher's confidence in it; teachers
train on reference transcripts with weight 1.

This module is only ``weight * ctc_loss``. It still exists because the
benchmark (``perfbench/run.py``) requires ``kd.soft_ctc_kd_loss`` by name
as a traced layer; folding it into the training loop waits until the
benchmark no longer does."""
from __future__ import annotations

import numpy as np

from .ctc import CtcLattice, CtcLossResult, ctc_loss


def soft_ctc_kd_loss(student_log_probs: np.ndarray, target, weight: float, blank: int,
                     lattice: CtcLattice | None = None) -> CtcLossResult:
    """``weight`` times the CTC loss of the student against ``target``; loss
    and gradient scale together. ``lattice`` is passed on to
    :func:`~ekd.ctc.ctc_loss`, which raises for a target it cannot score."""
    base = ctc_loss(student_log_probs, target, blank, lattice=lattice)
    return CtcLossResult(loss=weight * base.loss, grad_logits=weight * base.grad_logits)
