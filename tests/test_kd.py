import math

import numpy as np
import pytest

from ekd.ctc import InfeasibleTargetError, ctc_loss
from ekd.kd import soft_ctc_kd_loss

from conftest import random_posteriors


# -- soft CTC-KD loss -----------------------------------------------------------

def _student_lp(rng, T=6, z=4):
    return np.log(random_posteriors(rng, T, z).probs)


def test_confidence_one_equals_plain_ctc(rng):
    lp = _student_lp(rng)
    got = soft_ctc_kd_loss(lp, np.array([0, 1]), 1.0, blank=3)
    want = ctc_loss(lp, [0, 1], blank=3)
    assert got.loss == want.loss
    assert np.array_equal(got.grad_logits, want.grad_logits)


def test_confidence_zero_gives_zero(rng):
    lp = _student_lp(rng)
    got = soft_ctc_kd_loss(lp, np.array([0, 1]), 0.0, blank=3)
    assert got.loss == 0.0
    assert not got.grad_logits.any()


def test_scaled_worked_example():
    lp = np.log(np.full((2, 2), 0.5))
    got = soft_ctc_kd_loss(lp, np.array([0]), 0.8, blank=1)
    assert got.loss == pytest.approx(0.8 * -math.log(0.75), rel=1e-12)


def test_loss_linear_in_confidence(rng):
    lp = _student_lp(rng)
    base = soft_ctc_kd_loss(lp, np.array([0, 1]), 1.0, blank=3)
    for c in (0.25, 0.5, 0.9):
        scaled = soft_ctc_kd_loss(lp, np.array([0, 1]), c, blank=3)
        assert scaled.loss == pytest.approx(c * base.loss, rel=1e-12)
        assert np.allclose(scaled.grad_logits, c * base.grad_logits, rtol=0, atol=1e-15)


def test_infeasible_pseudo_transcript_raises(rng):
    # train_student refuses an unscorable pseudo-transcript before training;
    # called on its own, the loss raises for it.
    lp = _student_lp(rng, T=2)
    with pytest.raises(InfeasibleTargetError, match="needs 4 frames, got 2"):
        soft_ctc_kd_loss(lp, np.array([0, 1, 0, 1]), 0.9, blank=3)
