"""Training loops for teachers (supervised CTC) and students (sequence-level
distillation on selected soft labels), plus the activation matrices of the
representation analysis."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .ctc import (PosteriorSequence, ctc_lattices, greedy_decode_batch, log_softmax,
                  prepare_target, softmax_utterances)
from .kd import soft_ctc_kd_loss
from .model import ModelCheckpoint, ModelConfig, backward_features, forward_features, init_model
from .selection import SelectionOutcome
from .svcca import ActivationMatrix
from .wer import accumulate, wer

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 8
    learning_rate: float = 3e-3
    optimizer: str = "adam"
    gradient_clip: float = 5.0
    seed: int = 0
    eval_every: int = 3

    def __post_init__(self) -> None:
        if min(self.epochs, self.batch_size, self.eval_every) < 1:
            raise ValueError("epochs, batch_size and eval_every must be >= 1")
        if self.learning_rate <= 0 or self.gradient_clip <= 0:
            raise ValueError("learning_rate and gradient_clip must be > 0")
        if self.optimizer != "adam":
            raise ValueError(f"optimizer {self.optimizer!r}: only 'adam' is supported")


class _Optimizer:
    def __init__(self, cfg: TrainConfig, weights: list[np.ndarray]):
        self.cfg = cfg
        self.t = 0
        self.m = [np.zeros_like(w) for w in weights]
        self.v = [np.zeros_like(w) for w in weights]

    def step(self, weights: list[np.ndarray], grads: list[np.ndarray]) -> None:
        clip = self.cfg.gradient_clip
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        if norm > clip:
            grads = [g * (clip / norm) for g in grads]
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for i, (w, g) in enumerate(zip(weights, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            w -= self.cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)


def _run_training(corpus: Corpus, utterances, targets, weights, model_cfg: ModelConfig,
                  cfg: TrainConfig, snapshot_hook=None, **meta) -> ModelCheckpoint:
    """The one deterministic loop: a fresh model fitted on ``utterances`` of
    ``corpus`` with the weighted CTC loss, with its ``training_meta`` (plus
    the caller's ``meta`` keys) set. ``targets[i]`` is the CTC target of
    ``utterances[i]`` and ``weights[i]`` scales its loss.

    Every target is prepared once, before the first step (see
    :func:`~ekd.ctc.prepare_target`); one that cannot be scored (empty, out
    of the vocabulary, holding the blank, or longer than its utterance
    allows) is a ValueError naming the corpus and utterance.

    A minibatch runs every forward pass, then advances all its lattices in
    one :func:`~ekd.ctc.ctc_lattices` call over the prepared targets, then
    scores and back-propagates each utterance in index order. Batch
    reduction is the mean over the minibatch, summed in utterance-index
    order."""
    if not utterances:
        raise ValueError(f"corpus {corpus.name!r}: no utterance to train on")
    vocab = corpus.vocabulary
    blank = vocab.blank_index
    prepared = []
    for utt, target in zip(utterances, targets):
        try:
            prepared.append(prepare_target(target, utt.num_frames, vocab.size, blank))
        except ValueError as error:
            raise ValueError(f"corpus {corpus.name!r}: transcript of {utt.id} cannot be "
                             f"scored: {error}") from error
    model = init_model(model_cfg, corpus.feature_dim, vocab.size, vocab.content_hash())
    opt = _Optimizer(cfg, model.weights)
    shuffle_rng = np.random.default_rng(cfg.seed)
    epoch_losses: list[float] = []
    n = len(utterances)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [int(idx) for idx in order[start:start + cfg.batch_size]]
            caches, log_probs = [], []
            for idx in batch:
                logits, _, cache = forward_features(model, utterances[idx].features,
                                                    with_cache=True)
                caches.append(cache)
                log_probs.append(log_softmax(logits))
            lattices = ctc_lattices(log_probs, [prepared[idx] for idx in batch])
            grads = [np.zeros_like(w) for w in model.weights]
            for idx, lp, cache, lattice in zip(batch, log_probs, caches, lattices):
                result = soft_ctc_kd_loss(lp, targets[idx], weights[idx], blank, lattice)
                for gi, g in enumerate(backward_features(model, cache, result.grad_logits)):
                    grads[gi] += g
                total += result.loss
            grads = [g / len(batch) for g in grads]
            opt.step(model.weights, grads)
            if not all(np.all(np.isfinite(w)) for w in model.weights):
                raise TrainingDivergedError(
                    f"epoch {epoch}: non-finite weights after an update "
                    "(diverged; lower the learning rate or tighten gradient_clip)")
        mean_loss = total / n
        epoch_losses.append(mean_loss)
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"epoch {epoch}: non-finite mean loss {mean_loss}")
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            logger.info("%s epoch %d: mean loss %.6f over %d utterances",
                        corpus.name, epoch, mean_loss, n)
            if snapshot_hook is not None:
                snapshot_hook(epoch, model.copy())
    model.training_meta = {
        "corpus": corpus.name,
        "epochs": cfg.epochs,
        "final_mean_loss": epoch_losses[-1],
        "final_sum_loss": epoch_losses[-1] * n,
        "loss_curve": epoch_losses,
        **meta,
    }
    return model


def greedy_corpus_wer(model: ModelCheckpoint, corpus: Corpus) -> float:
    """Greedy-decode WER of a model over a labelled corpus."""
    vocab = corpus.vocabulary
    hyps = greedy_decode_batch(corpus_posteriors(model, corpus), vocab.blank_index)
    parts = [wer(vocab.indices_to_words(utt.transcript), vocab.indices_to_words(symbols))
             for utt, symbols in zip(corpus.utterances, hyps)]
    return accumulate(parts).wer


def train_teacher(corpus: Corpus, model_cfg: ModelConfig, train_cfg: TrainConfig,
                  snapshot_hook=None) -> ModelCheckpoint:
    """Supervised CTC training on a labelled corpus."""
    if not all(u.has_transcript for u in corpus.utterances):
        raise ValueError(f"corpus {corpus.name!r} is missing transcripts")
    targets = [u.transcript for u in corpus.utterances]
    return _run_training(corpus, corpus.utterances, targets, [1.0] * len(targets), model_cfg,
                         train_cfg, snapshot_hook, objective="ctc")


def train_student(selections: list[SelectionOutcome], target_corpus: Corpus,
                  model_cfg: ModelConfig, train_cfg: TrainConfig,
                  snapshot_hook=None) -> ModelCheckpoint:
    """Distillation training on teacher-selected soft labels only.

    Trains on the utterances of ``target_corpus`` that an outcome names, in
    corpus order, each with its pseudo-transcript's loss weighted by the
    outcome's ``sequence_confidence``; every such pseudo-transcript must be
    scorable, as :func:`~ekd.selection.select_corpus` ensures. The target
    corpus must arrive with transcripts stripped; the loop never reads a
    target label (auditable via ``corpus.transcript_read_count``).
    """
    if any(u.has_transcript for u in target_corpus.utterances):
        raise ValueError("target corpus still carries transcripts; strip them before "
                         "student training")
    by_id = {o.utterance_id: o for o in selections}
    covered = [u for u in target_corpus.utterances if u.id in by_id]
    if len(covered) < len(target_corpus.utterances):
        logger.warning("corpus %r: %d utterances have no selection; skipping them",
                       target_corpus.name, len(target_corpus.utterances) - len(covered))
    outcomes = [by_id[u.id] for u in covered]
    targets = [o.pseudo_transcript for o in outcomes]
    weights = [o.sequence_confidence for o in outcomes]
    # Earlier checkpoints record this objective; keeping it keeps their bytes.
    return _run_training(target_corpus, covered, targets, weights, model_cfg, train_cfg,
                         snapshot_hook, objective="soft_ctc_kd/posterior_weighted_ctc",
                         covered_utterances=len(covered))


def corpus_posteriors(model: ModelCheckpoint, corpus: Corpus) -> list[PosteriorSequence]:
    """Softmax outputs for every utterance, in corpus order. ValueError if the
    model was trained on another vocabulary than the corpus's.

    The forward pass runs once per utterance, since a row-stacked matmul
    may round differently. The softmax and the posterior checks run once
    over the whole corpus (:func:`~ekd.ctc.softmax_utterances`), with the
    bits of a per-utterance softmax; a failed check names the first bad
    utterance."""
    if model.vocabulary_hash != corpus.vocabulary.content_hash():
        raise ValueError(f"corpus {corpus.name!r}: vocabulary differs from the one the "
                         "model was trained on")
    return softmax_utterances([forward_features(model, utt.features)[0]
                               for utt in corpus.utterances],
                              [utt.id for utt in corpus.utterances])


def activation_frame_indices(total_frames: int, n_frames: int, seed: int) -> np.ndarray:
    """Deterministic frame subsample, shared across models and checkpoints."""
    if n_frames > total_frames:
        raise ValueError(f"n_frames {n_frames} exceeds total frames {total_frames}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(total_frames, size=n_frames, replace=False))


def dump_activations(model: ModelCheckpoint, corpus: Corpus, n_frames: int,
                     seed: int) -> dict[str, ActivationMatrix]:
    """Per-layer activation matrices on a fixed frame subsample.

    The subsample depends only on (total frames, n_frames, seed), so two
    models dumped over the same corpus see the same frames. Rows are kept
    one utterance at a time, so memory is the sample plus one utterance's
    activations, not the whole corpus's.
    """
    lengths = [utt.num_frames for utt in corpus.utterances]
    idx = activation_frame_indices(sum(lengths), n_frames, seed)
    offsets = np.cumsum([0, *lengths])
    bounds = np.searchsorted(idx, offsets)
    per_layer: dict[str, list[np.ndarray]] = {}
    for utt, start, lo, hi in zip(corpus.utterances, offsets, bounds, bounds[1:]):
        # An unsampled utterance needs no forward pass, except the first:
        # it names the layers even when nothing at all is sampled.
        if lo == hi and per_layer:
            continue
        _, acts = forward_features(model, utt.features)
        for name, a in acts.items():
            per_layer.setdefault(name, []).append(a[idx[lo:hi] - start])
    return {name: ActivationMatrix(layer_name=name, data=np.concatenate(blocks, axis=0))
            for name, blocks in per_layer.items()}
