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
Every cell sees the same IEEE operations, in the same order, as separate
alpha and beta passes over that utterance alone.
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


def target_error(target, n_frames: int) -> ValueError | None:
    """Why ``target`` cannot be scored over ``n_frames`` frames (it is empty,
    or needs more frames than there are: InfeasibleTargetError), or None."""
    target = np.asarray(target, dtype=np.int64)
    if target.size == 0:
        return ValueError("target must be non-empty")
    need = min_frames_for_target(target)
    if n_frames < need:
        return InfeasibleTargetError(
            f"target of length {target.size} needs {need} frames, got {n_frames}")
    return None


def _extend_target(target: np.ndarray, blank: int) -> np.ndarray:
    ext = np.full(2 * target.size + 1, blank, dtype=np.int64)
    ext[1::2] = target
    return ext


def _checked(log_probs: np.ndarray, target, blank: int) -> tuple[np.ndarray, np.ndarray]:
    """``log_probs`` as float64 and ``target`` as int64, or the ValueError
    that makes the pair unscorable."""
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[0] < 1:
        raise ValueError("log_probs must be [T>=1, z]")
    if np.any(np.isnan(lp)):
        raise ValueError("NaN in log posteriors")
    target = np.asarray(target, dtype=np.int64)
    T, z = lp.shape
    unfit = target_error(target, T)
    if target.size == 0:
        raise unfit
    if target.min() < 0 or target.max() >= z:
        raise ValueError("target index out of range")
    if np.any(target == blank):
        raise ValueError("target must not contain the blank symbol")
    if unfit is not None:
        raise unfit
    return lp, target


class CtcLattice(NamedTuple):
    """Forward and backward variables of one utterance, ``[T, S]`` each
    (views into the packed array of its minibatch)."""

    alpha: np.ndarray
    beta: np.ndarray


def ctc_lattices(log_probs_list: Sequence[np.ndarray], targets: Sequence,
                 blank: int) -> list[CtcLattice]:
    """Alpha and beta of every ``(log_probs, target)`` pair of a minibatch.

    One ``[T_max, W]`` array holds a block per utterance, side by side:
    ``[pad pad | alpha[k] | pad pad pad | beta[T-1-k] reversed | pad]`` in
    row k. A cell reads the cells 0, 1 and 2 places to its left in the
    previous row, and beta's recursion on reversed states is alpha's with
    the skip rule reversed, so one row update advances every block. The
    array starts as the emissions, with row 0 cut to the four start cells
    per block; pads and the rows past an utterance's end have ``-inf``
    emissions and stay ``-inf``. Each frame is one stay+step ``logaddexp``
    into a scratch row, a masked skip copy and a second ``logaddexp`` on the
    odd (label) columns only, where a skip can be allowed, and one
    ``np.add`` of the scratch row onto the emissions. A skip that is not
    allowed is ``-inf``, and ``logaddexp(x, -inf)`` is ``x``, so every cell
    gets the bits a per-utterance loop gives it.

    Raises the first unscorable pair's ValueError (InfeasibleTargetError
    when its target needs more frames than it has).
    """
    checked = [_checked(lp, target, blank) for lp, target in zip(log_probs_list, targets)]
    if not checked:
        return []
    exts = [_extend_target(target, blank) for _, target in checked]
    offsets = np.cumsum([0] + [2 * ext.size + 6 for ext in exts])
    T_max = max(lp.shape[0] for lp, _ in checked)
    W = int(offsets[-1])
    rows = np.full((T_max, W), NEG_INF)
    skip_mask = np.zeros(W, dtype=bool)
    start = []
    blocks = []
    for (lp, _), ext, off in zip(checked, exts, offsets):
        T, S = lp.shape[0], ext.size
        a, b = off + 2, off + S + 5   # first alpha column, first reversed-beta column
        lp_ext = lp[:, ext]
        rows[:T, a:a + S] = lp_ext
        rows[:T, b:b + S] = lp_ext[::-1, ::-1]
        # A state may inherit from s-2 when it is a new label distinct from
        # the one two slots back (skipping the blank in between).
        skip_ok = np.zeros(S, dtype=bool)
        skip_ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
        skip_mask[a:a + S] = skip_ok
        skip_mask[b + 2:b + S] = skip_ok[::-1][:-2]   # the same rule on reversed states
        start += [a, a + 1, b, b + 1]
        blocks.append((T, S, a, b))
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

    return [CtcLattice(rows[:T, a:a + S], rows[T - 1::-1, b:b + S][:, ::-1])
            for T, S, a, b in blocks]


def ctc_loss(log_probs: np.ndarray, target, blank: int,
             lattice: CtcLattice | None = None) -> CtcLossResult:
    """Loss and logit gradient for one utterance.

    ``log_probs`` is a [T, z] log-domain posterior matrix (rows are logs of a
    normalized distribution). The returned gradient is with respect to the
    pre-softmax logits, in the standard posterior-minus-occupancy form, and is
    valid for any logits whose softmax equals ``exp(log_probs)``.

    ``lattice`` is this pair's entry of :func:`ctc_lattices` over a
    minibatch; without one, a minibatch of this pair alone is advanced. In
    the lattice's block every label state sits on an odd column, which is
    where the skip transition runs (see :func:`ctc_lattices`). The
    occupancy scatter onto the z output symbols is one ``bincount``, which
    adds in input order: states in increasing ``s``, as a per-state loop
    would.
    """
    if lattice is None:
        (lattice,) = ctc_lattices([log_probs], [target], blank)
    lp = np.asarray(log_probs, dtype=np.float64)
    ext = _extend_target(np.asarray(target, dtype=np.int64), blank)
    T, z = lp.shape
    S = ext.size
    alpha, beta = lattice
    if alpha.shape != (T, S) or beta.shape != (T, S):
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
