"""CTC loss (log-space forward-backward), its logit gradient, and decoding.

The loss of a target label sequence is the negative log of the summed
probability of every frame-level path that collapses to it (remove repeats,
then blanks). All recursions run in the log domain with log-sum-exp.

The backward variables (beta) are the forward recursion (alpha) run on
reversed time over reversed states. ``ctc_lattices`` therefore advances
alpha and the reversed-time beta of every utterance of a minibatch in one
frame loop over one packed ``[T_max, W]`` array. Each utterance owns a block
``[pad pad | alpha | pad pad pad | reversed beta | pad]`` of ``2S + 6``
columns (S = 2L+1 blank-extended states), so every label state sits on an
odd column and the skip transition only touches the odd columns of a row.
``ctc_loss`` reads one utterance's loss and logit gradient from its block.

``prepare_target`` checks a target once and lays out its block: the
blank-extended states, the skip rule and, per half, each state's horizon,
the last frame from which it can still reach a final state. Training
prepares every target once per run. A cell past its horizon is dead: no
complete path runs through it, and it only feeds dead cells, so
``ctc_lattices`` starts it at ``-inf``. Every live cell sees the same IEEE
operations, in the same order, as separate alpha and beta passes over that
utterance alone, and every loss and gradient bit is theirs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
        _check_posteriors(self.probs, [0, len(self.probs)], [self.utterance_id])

    @classmethod
    def _checked(cls, probs: np.ndarray, utterance_id: str) -> PosteriorSequence:
        """One whose float64 ``probs`` are known to pass
        :func:`_check_posteriors`, kept as they are (a view stays a view)."""
        posts = cls.__new__(cls)
        posts.probs, posts.utterance_id = probs, utterance_id
        return posts

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


def _refuse_first(bounds: Sequence[int], utterance_ids: Sequence[str],
                  checks: Sequence[tuple[str, np.ndarray]]) -> None:
    """A ValueError naming the first utterance with a failed row and the
    first check it fails. Utterance i has rows ``bounds[i]`` to
    ``bounds[i + 1]``; a check is a message and a failure flag per row."""
    failed = np.logical_or.reduce([rows for _, rows in checks])
    if failed.any():
        i = int(np.searchsorted(bounds, failed.argmax(), side="right")) - 1
        message = next(message for message, rows in checks
                       if rows[bounds[i]:bounds[i + 1]].any())
        raise ValueError(f"utterance {utterance_ids[i]!r}: {message}")


def _check_posteriors(probs: np.ndarray, bounds: Sequence[int],
                      utterance_ids: Sequence[str]) -> None:
    """Every entry finite and in [0, 1] and every row summing to 1 within
    1e-6, for the posterior rows of utterances laid out as
    :func:`_refuse_first` reads them."""
    # The range and sum checks compare, and every comparison with NaN is
    # false, so a NaN fails only the first check.
    _refuse_first(bounds, utterance_ids, [
        ("posterior entries must be finite", ~np.isfinite(probs).all(axis=1)),
        ("posterior entries must lie in [0, 1]",
         ((probs < -1e-12) | (probs > 1 + 1e-9)).any(axis=1)),
        ("posterior rows must sum to 1 within 1e-6", np.abs(probs.sum(axis=1) - 1.0) > 1e-6)])


def softmax(logits: np.ndarray, utterance_id: str = "") -> PosteriorSequence:
    """Row-wise softmax of ``[T, z]`` logits."""
    return softmax_utterances([logits], [utterance_id])[0]


def softmax_utterances(logits: Sequence[np.ndarray],
                       utterance_ids: Sequence[str]) -> list[PosteriorSequence]:
    """The row-wise softmax of each utterance's ``[T, z]`` logits, computed
    once over their concatenation. Row-wise max and sum give every row the
    bits of a softmax of its utterance alone, and each utterance's
    posteriors are a view into the one block. A ValueError names the first
    utterance with non-finite logits.

    Finite logits always give rows that pass :func:`_check_posteriors`, so
    the output is not checked again: ``exp(x - max)`` lies in [0, 1] and is
    1 at the maximum, so each row sum is at least 1 and every quotient lies
    in [0, 1]; the rounding of the sum and the z divisions keeps each row
    sum within about ``z * eps`` of 1."""
    lengths = [len(rows) for rows in logits]
    if not lengths:
        return []
    bounds = np.cumsum([0, *lengths])
    block = np.concatenate(logits, dtype=np.float64)
    if block.ndim != 2 or min(lengths) < 1:
        raise ValueError("posteriors must be [T>=1, z]")
    _refuse_first(bounds, utterance_ids, [("non-finite logits", ~np.isfinite(block).all(axis=1))])
    # In place: the block is this function's own copy.
    block -= block.max(axis=1, keepdims=True)
    probs = np.exp(block, out=block)
    probs /= probs.sum(axis=1, keepdims=True)
    return [PosteriorSequence._checked(probs[start:end], uid)
            for start, end, uid in zip(bounds[:-1].tolist(), bounds[1:].tolist(), utterance_ids)]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def collapse_alignment(path, blank: int) -> np.ndarray:
    """CTC collapse: drop consecutive repeats, then drop blanks."""
    path = np.asarray(path, dtype=np.int64)
    keep = np.ones(path.size, dtype=bool)
    keep[1:] = path[1:] != path[:-1]
    dedup = path[keep]
    return dedup[dedup != blank]


def greedy_decode(posteriors: PosteriorSequence, blank: int) -> np.ndarray:
    """Per-frame argmax followed by the collapse rule."""
    return collapse_alignment(np.argmax(posteriors.probs, axis=1), blank)


def greedy_decode_batch(posteriors: Sequence[PosteriorSequence], blank: int) -> list[np.ndarray]:
    """:func:`greedy_decode` of each utterance, in order: each utterance's
    argmax path is written into one path of the batch, and one collapse
    mask over it drops blanks and repeats. An utterance's first frame is
    never a repeat, so no repeat is collapsed across utterances."""
    if not posteriors:
        return []
    bounds = np.cumsum([0, *(posts.num_frames for posts in posteriors)])
    path = np.empty(bounds[-1], np.int64)
    for posts, start, end in zip(posteriors, bounds[:-1].tolist(), bounds[1:].tolist()):
        posts.probs.argmax(axis=1, out=path[start:end])
    keep = np.empty(len(path), bool)
    keep[1:] = path[1:] != path[:-1]
    keep[bounds[:-1]] = True
    keep &= path != blank
    symbols = path[keep]
    # The symbols kept up to each utterance's end.
    ends = np.cumsum(keep)[bounds[1:] - 1].tolist()
    return [symbols[start:end] for start, end in zip([0, *ends], ends)]


def min_frames_for_target(target: np.ndarray) -> int:
    """Shortest path length: one frame per label plus a blank between repeats."""
    target = np.asarray(target, dtype=np.int64)
    repeats = int(np.sum(target[1:] == target[:-1]))
    return int(target.size + repeats)


def _half(states: np.ndarray, blank: int) -> tuple[np.ndarray, np.ndarray]:
    """Per state of one packed half: whether it may inherit from s-2 (it is
    a new label distinct from the one two slots back, skipping the blank
    between), and ``need``, the fewest further frames to a final state.
    Label j-1 to label j takes one frame, or two through the blank when
    they repeat; a blank first moves onto its label."""
    skip = np.zeros(states.size, dtype=bool)
    skip[2:] = (states[2:] != blank) & (states[2:] != states[:-2])
    labels = states[1::2]
    cost = np.ones(labels.size, dtype=np.int64)
    cost[1:] += labels[1:] == labels[:-1]
    to_end = np.cumsum(cost[::-1])[::-1] - cost   # frames from label j to the last label
    need = np.zeros(states.size, dtype=np.int64)
    need[1::2] = to_end
    need[:-1:2] = to_end + 1
    return skip, need


class CtcTarget(NamedTuple):
    """A CTC target checked against its utterance's ``[n_frames, vocab_size]``
    posteriors and laid out as one block of :func:`ctc_lattices`:
    ``[pad pad | alpha | pad pad pad | reversed beta | pad]``, ``2S + 6``
    columns. ``skip`` marks the block columns whose state may inherit from
    two columns left; ``horizon`` is the last frame at which a column's
    state can still reach a final state of its half, ``n_frames - 1 -
    need[s]``, and -1 on the pads."""

    states: np.ndarray      # [S] blank-extended target, S = 2L+1
    n_frames: int
    vocab_size: int
    skip: np.ndarray        # [2S+6] bool
    horizon: np.ndarray     # [2S+6] int64


def prepare_target(target, n_frames: int, z: int, blank: int) -> CtcTarget:
    """``target`` ready for :func:`ctc_lattices` over ``n_frames`` frames of
    ``z`` output symbols, or the ValueError that makes it unscorable: it is
    empty, holds an index outside ``[0, z)`` or the blank, or needs more
    frames than there are (InfeasibleTargetError). The beta half runs on
    reversed states, which are the blank-extended reversed target, so both
    halves follow the same rule."""
    target = np.asarray(target, dtype=np.int64)
    if target.size == 0:
        raise ValueError("target must be non-empty")
    if target.min() < 0 or target.max() >= z:
        raise ValueError("target index out of range")
    if np.any(target == blank):
        raise ValueError("target must not contain the blank symbol")
    need = min_frames_for_target(target)
    if n_frames < need:
        raise InfeasibleTargetError(
            f"target of length {target.size} needs {need} frames, got {n_frames}")
    S = 2 * target.size + 1
    states = np.full(S, blank, dtype=np.int64)
    states[1::2] = target
    skip = np.zeros(2 * S + 6, dtype=bool)
    horizon = np.full(2 * S + 6, -1)
    for first, half in ((2, states), (S + 5, states[::-1])):
        skip[first:first + S], need = _half(half, blank)
        horizon[first:first + S] = n_frames - 1 - need
    return CtcTarget(states, n_frames, z, skip, horizon)


def _log_probs(log_probs: np.ndarray) -> np.ndarray:
    """``log_probs`` as float64, or the ValueError that makes it unscorable."""
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[0] < 1:
        raise ValueError("log_probs must be [T>=1, z]")
    if np.any(np.isnan(lp)):
        raise ValueError("NaN in log posteriors")
    return lp


class CtcLattice(NamedTuple):
    """Forward and backward variables of one utterance, ``[T, S]`` each
    (views into the packed array of its minibatch), and the blank-extended
    target they were advanced for (the prepared ``states``)."""

    alpha: np.ndarray
    beta: np.ndarray
    states: np.ndarray


def ctc_lattices(log_probs_list: Sequence[np.ndarray],
                 prepared: Sequence[CtcTarget]) -> list[CtcLattice]:
    """Alpha and beta of every ``(log_probs, prepared target)`` pair of a
    minibatch.

    One ``[T_max, W]`` array holds a block per utterance, side by side:
    ``[pad pad | alpha[k] | pad pad pad | beta[T-1-k] reversed | pad]`` in
    row k. A cell reads the cells 0, 1 and 2 places to its left in the
    previous row, and beta's recursion on reversed states is alpha's with
    the skip rule reversed, so one row update advances every block. The
    array starts as the emissions, with row 0 cut to the four start cells
    per block. Each frame is one stay+step ``logaddexp`` into a scratch
    row, a masked skip copy and a second ``logaddexp`` on the odd (label)
    columns only, where a skip can be allowed, and one ``np.add`` of the
    scratch row onto the emissions. A skip that is not allowed is ``-inf``,
    and ``logaddexp(x, -inf)`` is ``x``.

    Dead cells start at ``-inf``: their emission is written as ``-inf``
    (one broadcast compare against the prepared ``horizon``). Cell (k, s)
    of a half is dead when ``k + need[s] > T - 1``: from state s at frame
    k no path reaches a final state of the half by its last frame. Beta's
    half applies the rule to its reversed states, whose final states are
    alpha's start states. Pads and the rows past an utterance's end are
    dead too. A transition s -> s' takes one frame, so ``need[s] <= 1 +
    need[s']`` and the successors of a dead cell are dead: a dead cell
    never feeds a live one, and every live cell gets the bits of separate
    alpha and beta passes over its utterance alone. A dead cell's
    occupancy is 0 either way, because no complete path runs through it,
    so the other half is ``-inf`` there too; every loss and gradient bit
    is kept. What changes is the cost: a stay+step pair of dead cells is a
    ``-inf`` pair, which ``logaddexp`` returns several times faster than
    a finite one.

    Checks only the matrices (2-D, no NaN, ``[n_frames, vocab_size]`` of
    their target); :func:`prepare_target` has checked the targets.
    """
    if len(log_probs_list) != len(prepared):
        raise ValueError(f"{len(log_probs_list)} log_probs for {len(prepared)} targets")
    lps = [_log_probs(lp) for lp in log_probs_list]
    for lp, target in zip(lps, prepared):
        if lp.shape != (target.n_frames, target.vocab_size):
            raise ValueError(f"log_probs are {lp.shape}, the target is prepared for "
                             f"({target.n_frames}, {target.vocab_size})")
    if not lps:
        return []
    skip_mask = np.concatenate([target.skip for target in prepared])
    horizon = np.concatenate([target.horizon for target in prepared])
    offsets = np.cumsum([0] + [target.skip.size for target in prepared])
    T_max = max(lp.shape[0] for lp in lps)
    W = int(offsets[-1])
    # Every cell left unwritten here (a pad, or a row past its utterance's
    # end) is dead, so the dead mask sets it to -inf.
    rows = np.empty((T_max, W))
    start = []
    blocks = []
    for lp, target, off in zip(lps, prepared, offsets):
        T, S = lp.shape[0], target.states.size
        a, b = off + 2, off + S + 5   # first alpha and reversed-beta columns, as prepared
        lp_ext = lp[:, target.states]
        rows[:T, a:a + S] = lp_ext
        rows[:T, b:b + S] = lp_ext[::-1, ::-1]
        start += [a, a + 1, b, b + 1]
        blocks.append((T, S, a, b))
    np.copyto(rows, NEG_INF, where=np.arange(T_max)[:, None] > horizon)
    first = rows[0, start]
    rows[0] = NEG_INF
    rows[0, start] = first

    label_mask = skip_mask[3::2]   # columns 3, 5, ...: the odd entries of cur (row[2:])
    cur = np.empty(W - 2)
    skip = np.full(label_mask.size, NEG_INF)
    cur_labels = cur[1::2]
    for prev, row in zip(rows[:-1], rows[1:]):
        np.logaddexp(prev[2:], prev[1:-1], out=cur)
        np.copyto(skip, prev[1:-2:2], where=label_mask)
        np.logaddexp(cur_labels, skip, out=cur_labels)
        np.add(cur, row[2:], out=row[2:])

    return [CtcLattice(rows[:T, a:a + S], rows[T - 1::-1, b:b + S][:, ::-1], target.states)
            for (T, S, a, b), target in zip(blocks, prepared)]


def ctc_loss(log_probs: np.ndarray, target, blank: int,
             lattice: CtcLattice | None = None) -> CtcLossResult:
    """Loss and logit gradient for one utterance.

    ``log_probs`` is a [T, z] log-domain posterior matrix (rows are logs of a
    normalized distribution). The returned gradient is with respect to the
    pre-softmax logits, in the standard posterior-minus-occupancy form, and is
    valid for any logits whose softmax equals ``exp(log_probs)``.

    ``lattice`` is this pair's entry of :func:`ctc_lattices` over a
    minibatch, and its prepared ``states`` are the blank-extended target
    read here; a lattice of another target, blank or frame count is
    refused. Without one, the target is prepared and a minibatch of this
    pair alone is advanced (a bad matrix is refused before a bad target). In
    the lattice's block every label state sits on an odd column, which is
    where the skip transition runs (see :func:`ctc_lattices`). The
    occupancy scatter onto the z output symbols is one ``bincount``, which
    adds in input order: states in increasing ``s``, as a per-state loop
    would.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    if lattice is None:
        (lattice,) = ctc_lattices([lp], [prepare_target(target, *_log_probs(lp).shape, blank)])
    alpha, beta, ext = lattice
    if not (np.array_equal(ext[1::2], np.asarray(target)) and ext[0] == blank):
        raise ValueError("lattice was prepared for another target or blank")
    T, z = lp.shape
    S = ext.size
    if alpha.shape != (T, S):
        raise ValueError(f"lattice is {alpha.shape}, expected ({T}, {S})")
    log_p = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2])
    if not np.isfinite(log_p):
        raise ValueError("target has zero probability under the given posteriors")

    # Occupancy of state s at frame t: alpha*beta double-counts the frame-t
    # emission, so divide by it once and normalize by the total probability.
    lp_ext = lp[:, ext]
    ab = alpha + beta
    with np.errstate(invalid="ignore", over="ignore"):
        log_occ = ab - lp_ext - log_p
        occ = np.where(np.isneginf(ab), 0.0, np.exp(log_occ))

    cells = (np.arange(T)[:, None] * z + ext).ravel()
    gamma = np.bincount(cells, weights=occ.ravel(), minlength=T * z).reshape(T, z)
    grad = np.exp(lp) - gamma
    return CtcLossResult(loss=float(-log_p), grad_logits=grad)
