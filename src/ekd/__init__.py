"""Ensemble knowledge distillation for CTC sequence models.

Library surface: synthetic multi-domain corpora, CTC loss/decoding, the
distillation objectives, ensemble teacher selection strategies, an n-gram LM
with beam decoding and WER scoring, a small trainable acoustic model, and
SVCCA representation analysis. The ``ekd`` CLI orchestrates the full
experiment pipeline.
"""
from .beam import BeamConfig, beam_decode
from .config import DomainRecipe, ExperimentConfig, default_config, load_config
from .corpus import (Corpus, DomainSpec, Utterance, generate_corpus, load_corpus,
                     save_corpus, split_corpus, transcript_read_count)
from .ctc import (CtcLossResult, InfeasibleTargetError, PosteriorSequence, collapse_alignment,
                  ctc_loss, greedy_decode, softmax)
from .kd import KdConfig, SoftLabelMode, soft_ctc_kd_loss
from .lm import NgramLm, load_arpa, save_arpa, train_lm
from .model import ModelCheckpoint, ModelConfig, init_model, load_checkpoint, save_checkpoint
from .pipeline import run_pipeline
from .selection import (CorpusSelection, SelectionOutcome, Strategy, TeacherBundle,
                        elitist_scores, elitist_select, framewise_max, select_corpus,
                        teacher_average)
from .svcca import ActivationMatrix, SvccaResult, cca, correlation_trajectory, svcca, svd_prune
from .training import TrainConfig, dump_activations, train_student, train_teacher
from .vocab import Vocabulary, default_vocabulary, symbol_prototypes
from .wer import WerBreakdown, wer

__version__ = "0.1.0"
