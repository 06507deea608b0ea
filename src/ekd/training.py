"""Training loops for teachers (supervised CTC) and students (sequence-level
distillation on selected soft labels), plus the activation matrices of the
representation analysis."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, DomainSpec, generate_corpus
from .ctc import (PosteriorSequence, ctc_lattices, ctc_loss, greedy_decode, log_softmax,
                  min_frames_for_target, softmax)
from .kd import KdConfig, SoftLabelMode, SoftTarget, soft_ctc_kd_loss
from .model import ModelCheckpoint, ModelConfig, backward_features, forward_features, init_model
from .selection import SelectionOutcome
from .svcca import ActivationMatrix
from .wer import accumulate, wer

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    pass


class TeacherQualityError(RuntimeError):
    """In-domain probe WER above the configured gate after training."""


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
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


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
        lr = self.cfg.learning_rate
        if self.cfg.optimizer == "sgd":
            for w, g in zip(weights, grads):
                w -= lr * g
            return
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for i, (w, g) in enumerate(zip(weights, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            w -= lr * mhat / (np.sqrt(vhat) + eps)


def _run_training(corpus: Corpus, utterances, targets, loss_fn, model_cfg: ModelConfig,
                  cfg: TrainConfig, snapshot_hook=None, **meta) -> ModelCheckpoint:
    """Generic deterministic loop: a fresh model fitted on ``utterances`` of
    ``corpus``, with its ``training_meta`` (plus the caller's ``meta`` keys)
    set. ``targets[i]`` is the CTC target of ``utterances[i]``, and
    ``loss_fn(utt, log_probs, target, lattice)`` returns a CtcLossResult or
    None (skip).

    A minibatch runs every forward pass, then advances the lattices of its
    scorable targets in one :func:`~ekd.ctc.ctc_lattices` call, then scores
    and back-propagates each utterance in index order. A target that cannot
    be scored (empty, or longer than its frames allow) gets no lattice, so
    ``loss_fn`` sees it exactly as a per-utterance loop would. Batch
    reduction is the mean over scored utterances, summed in utterance-index
    order."""
    vocab = corpus.vocabulary
    blank = vocab.blank_index
    model = init_model(model_cfg, corpus.feature_dim, vocab.size, vocab.content_hash())
    opt = _Optimizer(cfg, model.weights)
    shuffle_rng = np.random.default_rng(cfg.seed)
    epoch_losses: list[float] = []
    n = len(utterances)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        total = 0.0
        scored = 0
        for start in range(0, n, cfg.batch_size):
            batch = [int(idx) for idx in order[start:start + cfg.batch_size]]
            caches, log_probs = [], []
            for idx in batch:
                logits, _, cache = forward_features(model, utterances[idx].features,
                                                    with_cache=True)
                caches.append(cache)
                log_probs.append(log_softmax(logits))
            scorable = [j for j, idx in enumerate(batch) if targets[idx].size
                        and log_probs[j].shape[0] >= min_frames_for_target(targets[idx])]
            lattices = dict(zip(scorable, ctc_lattices(
                [log_probs[j] for j in scorable], [targets[batch[j]] for j in scorable], blank)))
            grads = [np.zeros_like(w) for w in model.weights]
            batch_scored = 0
            for j, idx in enumerate(batch):
                result = loss_fn(utterances[idx], log_probs[j], targets[idx], lattices.get(j))
                if result is None:
                    continue
                for gi, g in enumerate(backward_features(model, caches[j], result.grad_logits)):
                    grads[gi] += g
                total += result.loss
                batch_scored += 1
            if batch_scored == 0:
                continue
            grads = [g / batch_scored for g in grads]
            opt.step(model.weights, grads)
            if not all(np.all(np.isfinite(w)) for w in model.weights):
                raise TrainingDivergedError(
                    f"epoch {epoch}: non-finite weights after an update "
                    "(diverged; lower the learning rate or tighten gradient_clip)")
            scored += batch_scored
        mean_loss = total / scored if scored else float("nan")
        epoch_losses.append(mean_loss)
        logger.debug("epoch %d: mean loss %.6f over %d utterances", epoch, mean_loss, scored)
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(
                f"epoch {epoch}: non-finite mean loss {mean_loss} (scored {scored} utterances)")
        if snapshot_hook is not None and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            snapshot_hook(epoch, model.copy())
    model.training_meta = {
        "corpus": corpus.name,
        "epochs": cfg.epochs,
        "final_mean_loss": epoch_losses[-1],
        "final_sum_loss": epoch_losses[-1] * max(n, 1),
        "loss_curve": epoch_losses,
        **meta,
    }
    return model


def greedy_corpus_wer(model: ModelCheckpoint, corpus: Corpus) -> float:
    """Greedy-decode WER of a model over a labelled corpus."""
    vocab = corpus.vocabulary
    parts = [wer(vocab.indices_to_words(utt.transcript),
                 vocab.indices_to_words(greedy_decode(posts, vocab.blank_index)))
             for utt, posts in zip(corpus.utterances, corpus_posteriors(model, corpus))]
    return accumulate(parts).wer


def train_teacher(corpus: Corpus, model_cfg: ModelConfig, train_cfg: TrainConfig,
                  probe_spec: DomainSpec | None = None,
                  probe_wer_threshold: float | None = None,
                  snapshot_hook=None) -> ModelCheckpoint:
    """Supervised CTC training on a labelled corpus.

    When a probe spec and threshold are given, the trained model must reach
    the threshold on a zero-noise in-domain probe set; this gates selection
    experiments on adequately trained teachers.
    """
    if not all(u.has_transcript for u in corpus.utterances):
        raise ValueError(f"corpus {corpus.name!r} is missing transcripts")
    vocab = corpus.vocabulary
    blank = vocab.blank_index

    def loss_fn(utt, log_probs, target, lattice):
        return ctc_loss(log_probs, target, blank, lattice=lattice)

    targets = [u.transcript for u in corpus.utterances]
    model = _run_training(corpus, corpus.utterances, targets, loss_fn, model_cfg, train_cfg,
                          snapshot_hook, objective="ctc")
    if probe_spec is not None and probe_wer_threshold is not None:
        probe_seed = (train_cfg.seed * 9973 + 17) % (2 ** 31)
        probe = generate_corpus(
            DomainSpec(probe_spec.name, 0.0, probe_spec.feature_scale, probe_spec.feature_bias,
                       probe_spec.frames_per_symbol, probe_spec.utterance_length_range,
                       probe_spec.lexicon),
            vocab, n_utterances=16, seed=probe_seed)
        probe_wer = greedy_corpus_wer(model, probe)
        model.training_meta["probe_wer"] = probe_wer
        if probe_wer > probe_wer_threshold:
            raise TeacherQualityError(
                f"teacher on {corpus.name!r}: probe WER {probe_wer:.3f} exceeds "
                f"gate {probe_wer_threshold:.3f}")
    return model


def train_student(selections: list[SelectionOutcome], target_corpus: Corpus,
                  model_cfg: ModelConfig, train_cfg: TrainConfig, kd_cfg: KdConfig,
                  snapshot_hook=None) -> ModelCheckpoint:
    """Distillation training on teacher-selected soft labels only.

    The target corpus must arrive with transcripts stripped; the loop never
    reads a target label (auditable via ``corpus.transcript_read_count``).
    """
    if any(u.has_transcript for u in target_corpus.utterances):
        raise ValueError("target corpus still carries transcripts; strip them before "
                         "student training")
    vocab = target_corpus.vocabulary
    blank = vocab.blank_index
    by_id = {o.utterance_id: o for o in selections}
    covered = []
    for utt in target_corpus.utterances:
        if utt.id not in by_id:
            logger.warning("no selection for utterance %s; skipping", utt.id)
            continue
        covered.append(utt)
    hard = kd_cfg.soft_label_mode is SoftLabelMode.HARD_PSEUDO_LABEL

    def loss_fn(utt, log_probs, target, lattice):
        if target.size == 0:
            logger.warning("empty pseudo-transcript for %s; skipping", utt.id)
            return None
        soft = SoftTarget(
            utterance_id=utt.id,
            pseudo_transcript=target,
            teacher_sequence_confidence=1.0 if hard else by_id[utt.id].sequence_confidence,
        )
        return soft_ctc_kd_loss(log_probs, soft, blank, lattice=lattice)

    targets = [by_id[u.id].pseudo_transcript for u in covered]
    return _run_training(target_corpus, covered, targets, loss_fn, model_cfg, train_cfg,
                         snapshot_hook,
                         objective=f"soft_ctc_kd/{kd_cfg.soft_label_mode.value}",
                         covered_utterances=len(covered))


def corpus_posteriors(model: ModelCheckpoint, corpus: Corpus) -> list[PosteriorSequence]:
    """Softmax outputs for every utterance, in corpus order."""
    out = []
    for utt in corpus.utterances:
        logits, _ = forward_features(model, utt.features)
        out.append(softmax(logits, utt.id))
    return out


def activation_frame_indices(total_frames: int, n_frames: int, seed: int) -> np.ndarray:
    """Deterministic frame subsample, shared across models and checkpoints."""
    if n_frames > total_frames:
        raise ValueError(f"n_frames {n_frames} exceeds total frames {total_frames}")
    if n_frames == total_frames:
        return np.arange(total_frames)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(total_frames, size=n_frames, replace=False))


def dump_activations(model: ModelCheckpoint, corpus: Corpus, n_frames: int,
                     seed: int) -> dict[str, ActivationMatrix]:
    """Per-layer activation matrices on a fixed frame subsample.

    The subsample depends only on (total frames, n_frames, seed), so two
    models dumped over the same corpus see the same frames.
    """
    per_layer: dict[str, list[np.ndarray]] = {}
    for utt in corpus.utterances:
        _, acts = forward_features(model, utt.features)
        for name, a in acts.items():
            per_layer.setdefault(name, []).append(a)
    stacked = {name: np.concatenate(blocks, axis=0) for name, blocks in per_layer.items()}
    total = next(iter(stacked.values())).shape[0]
    idx = activation_frame_indices(total, n_frames, seed)
    return {name: ActivationMatrix(layer_name=name, data=mat[idx])
            for name, mat in stacked.items()}
