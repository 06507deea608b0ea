import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ekd.beam import BeamConfig
from ekd.config import SvccaSettings, default_config
from ekd.ctc import PosteriorSequence
from ekd.model import ModelConfig
from ekd.training import TrainConfig
from ekd.vocab import default_vocabulary


def random_posteriors(rng, T, z, utterance_id="u"):
    probs = rng.random((T, z)) + 1e-6
    probs /= probs.sum(axis=1, keepdims=True)
    return PosteriorSequence(probs, utterance_id)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_vocab():
    return default_vocabulary("ab")


def compact_config(output_root: str, seeds=(5,)):
    """Miniature experiment used by pipeline/CLI tests (seconds, not minutes)."""
    cfg = default_config()
    cfg.teacher_domains = [dataclasses.replace(r, train_size=24, test_size=8)
                           for r in cfg.teacher_domains]
    cfg.student_domain = dataclasses.replace(cfg.student_domain, train_size=30, test_size=10)
    cfg.model = ModelConfig(context_window=1, hidden_sizes=(16, 12), activation="tanh", seed=0)
    cfg.train = TrainConfig(epochs=4, batch_size=8, learning_rate=3e-3, optimizer="adam",
                            gradient_clip=5.0, seed=0, eval_every=2)
    cfg.beam = BeamConfig(beam_width=6, lm_weight=0.4, word_insertion_bonus=0.5)
    cfg.svcca = SvccaSettings(n_frames=160, variance_fraction=0.99, sample_seed=2024)
    cfg.seeds = list(seeds)
    cfg.probe_wer_threshold = None  # compact teachers are deliberately undertrained
    cfg.output_root = output_root
    return cfg


@pytest.fixture
def tiny_pipeline_config(tmp_path):
    return compact_config(str(tmp_path / "run"))
