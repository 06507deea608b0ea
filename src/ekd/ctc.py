"""CTC loss (log-space forward-backward), its logit gradient, and decoding.

The loss of a target label sequence is the negative log of the summed
probability of every frame-level path that collapses to it (remove repeats,
then blanks). All recursions run in the log domain with log-sum-exp.

The backward variables (beta) are the forward recursion (alpha) run on
reversed time over reversed states, so ``ctc_loss`` advances both in one
frame loop over a packed row that holds alpha and the reversed beta side by
side, each behind two ``-inf`` pad cells. It computes the same IEEE
operations, in the same order, as separate alpha and beta passes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = -np.inf


class InfeasibleTargetError(ValueError):
    """Target needs more frames than the sequence provides."""


@dataclass
class PosteriorSequence:
    """Per-frame probability distributions; every row sums to one."""

    probs: np.ndarray  # [T, z]
    utterance_id: str = ""

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[0] < 1:
            raise ValueError("posteriors must be [T>=1, z]")
        if np.any(self.probs < -1e-12) or np.any(self.probs > 1 + 1e-9):
            raise ValueError("posterior entries must lie in [0, 1]")
        sums = self.probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise ValueError("posterior rows must sum to 1 within 1e-6")

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[1]

    def log_probs(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.probs)


@dataclass
class CtcLossResult:
    loss: float                 # negative log-likelihood, nats
    grad_logits: np.ndarray     # [T, z], d(loss)/d(pre-softmax logits)


def softmax(logits: np.ndarray, utterance_id: str = "") -> PosteriorSequence:
    """Row-wise softmax of ``[T, z]`` logits."""
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return PosteriorSequence(e / e.sum(axis=1, keepdims=True), utterance_id)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def collapse_alignment(path, blank: int) -> np.ndarray:
    """CTC collapse: drop consecutive repeats, then drop blanks."""
    path = np.asarray(path, dtype=np.int64)
    if path.size == 0:
        return path
    keep = np.ones(path.size, dtype=bool)
    keep[1:] = path[1:] != path[:-1]
    dedup = path[keep]
    return dedup[dedup != blank]


def greedy_decode(posteriors: PosteriorSequence, blank: int) -> np.ndarray:
    """Per-frame argmax followed by the collapse rule."""
    return collapse_alignment(np.argmax(posteriors.probs, axis=1), blank)


def min_frames_for_target(target: np.ndarray) -> int:
    """Shortest path length: one frame per label plus a blank between repeats."""
    target = np.asarray(target, dtype=np.int64)
    if target.size == 0:
        return 0
    repeats = int(np.sum(target[1:] == target[:-1]))
    return int(target.size + repeats)


def _extend_target(target: np.ndarray, blank: int) -> np.ndarray:
    ext = np.full(2 * target.size + 1, blank, dtype=np.int64)
    ext[1::2] = target
    return ext


def ctc_loss(log_probs: np.ndarray, target, blank: int) -> CtcLossResult:
    """Loss and logit gradient for one utterance.

    ``log_probs`` is a [T, z] log-domain posterior matrix (rows are logs of a
    normalized distribution). The returned gradient is with respect to the
    pre-softmax logits, in the standard posterior-minus-occupancy form, and is
    valid for any logits whose softmax equals ``exp(log_probs)``.

    Over the S = 2L+1 blank-extended states, row k of one [T, 2(S+2)] array
    is ``[-inf, -inf | alpha[k] | -inf, -inf | beta[T-1-k] reversed]``.
    Beta's recursion on reversed states is alpha's, with the skip rule
    reversed, so each frame is one stay+step ``logaddexp``, one masked skip
    copy, one ``logaddexp`` and one emission add over the whole row. The
    two pads between the halves pick up values from alpha's last states and
    are reset to ``-inf`` by their ``-inf`` emission. The occupancy
    scatter onto the z output symbols adds states in increasing ``s`` order,
    as a per-state loop would.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[0] < 1:
        raise ValueError("log_probs must be [T>=1, z]")
    if np.any(np.isnan(lp)):
        raise ValueError("NaN in log posteriors")
    target = np.asarray(target, dtype=np.int64)
    if target.size == 0:
        raise ValueError("target must be non-empty")
    T, z = lp.shape
    if target.min() < 0 or target.max() >= z:
        raise ValueError("target index out of range")
    if np.any(target == blank):
        raise ValueError("target must not contain the blank symbol")
    if T < min_frames_for_target(target):
        raise InfeasibleTargetError(
            f"target of length {target.size} needs {min_frames_for_target(target)} frames, got {T}")

    ext = _extend_target(target, blank)
    S = ext.size
    # A state may inherit from s-2 when it is a new label distinct from the
    # one two slots back (skipping the blank in between).
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])

    # A cell of the packed row reads the cells 0, 1 and 2 places to its left
    # in the previous row, so each half sits behind two -inf pads.
    lp_ext = lp[:, ext]  # [T, S]
    W = 2 * (S + 2)
    emit = np.full((T, W), NEG_INF)
    emit[:, 2:S + 2] = lp_ext
    emit[:, S + 4:] = lp_ext[::-1, ::-1]
    skip_mask = np.zeros(W - 2, dtype=bool)
    skip_mask[:S] = skip_ok
    skip_mask[S + 4:] = skip_ok[::-1][:-2]  # the same rule on reversed states

    rows = np.full((T, W), NEG_INF)
    start = [2, 3, S + 4, S + 5]
    rows[0, start] = emit[0, start]
    skip = np.full(W - 2, NEG_INF)
    for stay, step, jump, cur, e in zip(rows[:-1, 2:], rows[:-1, 1:-1], rows[:-1, :-2],
                                        rows[1:, 2:], emit[1:, 2:]):
        np.logaddexp(stay, step, out=cur)
        np.copyto(skip, jump, where=skip_mask)
        np.logaddexp(cur, skip, out=cur)
        np.add(cur, e, out=cur)

    alpha = rows[:, 2:S + 2]
    beta = rows[::-1, S + 4:][:, ::-1]
    log_p = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2])
    if not np.isfinite(log_p):
        raise ValueError("target has zero probability under the given posteriors")

    # Occupancy of state s at frame t: alpha*beta double-counts the frame-t
    # emission, so divide by it once and normalize by the total probability.
    ab = alpha + beta
    with np.errstate(invalid="ignore", over="ignore"):
        log_occ = ab - lp_ext - log_p
        occ = np.where(np.isneginf(ab), 0.0, np.exp(log_occ))

    gamma = np.zeros((T, z))
    np.add.at(gamma, (slice(None), ext), occ)
    grad = np.exp(lp) - gamma
    return CtcLossResult(loss=float(-log_p), grad_logits=grad)
