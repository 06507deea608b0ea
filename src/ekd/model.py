"""Small frame-synchronous acoustic model: a feed-forward network over a
context window of feature frames, producing per-frame logits. Gradients are
computed by hand so training stays dependency-free and bit-deterministic."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import binio

CHECKPOINT_FORMAT_VERSION = 3


@dataclass(frozen=True)
class ModelConfig:
    context_window: int = 1           # frames on each side
    hidden_sizes: tuple[int, ...] = (40, 24)
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must be non-empty")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be positive")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        if self.activation != "tanh":
            raise ValueError(f"activation {self.activation!r}: only 'tanh' is supported")


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    feature_dim: int
    vocab_size: int
    weights: list[np.ndarray]       # [W0, b0, W1, b1, ..., Wout, bout]
    vocabulary_hash: str
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = layer_shapes(self.config, self.feature_dim, self.vocab_size)
        got = [w.shape for w in self.weights]
        if got != expected:
            raise ValueError(f"weight layout {got} does not match config-derived {expected}")

    def copy(self) -> "ModelCheckpoint":
        return ModelCheckpoint(self.config, self.feature_dim, self.vocab_size,
                               [w.copy() for w in self.weights], self.vocabulary_hash,
                               dict(self.training_meta))


def layer_shapes(config: ModelConfig, feature_dim: int, vocab_size: int) -> list[tuple[int, ...]]:
    dims = [feature_dim * (2 * config.context_window + 1), *config.hidden_sizes, vocab_size]
    shapes: list[tuple[int, ...]] = []
    for i in range(len(dims) - 1):
        shapes.append((dims[i], dims[i + 1]))
        shapes.append((dims[i + 1],))
    return shapes


def init_model(config: ModelConfig, feature_dim: int, vocab_size: int,
               vocabulary_hash: str) -> ModelCheckpoint:
    """Seeded Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(config.seed)
    weights: list[np.ndarray] = []
    for shape in layer_shapes(config, feature_dim, vocab_size):
        if len(shape) == 2:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            weights.append(rng.uniform(-bound, bound, size=shape))
        else:
            weights.append(np.zeros(shape))
    return ModelCheckpoint(config=config, feature_dim=feature_dim, vocab_size=vocab_size,
                           weights=weights, vocabulary_hash=vocabulary_hash)


def context_expand(features: np.ndarray, window: int) -> np.ndarray:
    """Concatenate each frame with its +-window neighbours (zero padding).
    Each shifted copy of the frames is written once into one zeroed array,
    block k of row r holding frame r - 2 * window + k; its middle T rows
    are the result, and what no copy reaches is the padding."""
    T, F = features.shape
    width = 2 * window + 1
    out = np.zeros((T + 2 * window, width, F))
    for k in range(width):
        out[2 * window - k:2 * window - k + T, k] = features
    return out[window:window + T].reshape(T, width * F)


def forward_features(model: ModelCheckpoint, features: np.ndarray,
                     with_cache: bool = False):
    """Per-frame logits plus named hidden activations (and, optionally, the
    list of layer inputs that backprop needs: the context-expanded features,
    then each hidden layer's tanh output)."""
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise ValueError(f"feature dim {features.shape} does not match model input {model.feature_dim}")
    n_hidden = len(model.config.hidden_sizes)
    inputs = [context_expand(features, model.config.context_window)]
    for i in range(n_hidden):
        pre = inputs[-1] @ model.weights[2 * i]
        pre += model.weights[2 * i + 1]
        inputs.append(np.tanh(pre))
    logits = inputs[-1] @ model.weights[2 * n_hidden]
    logits += model.weights[2 * n_hidden + 1]
    activations = {f"hidden_{i}": h for i, h in enumerate(inputs[1:])}
    if with_cache:
        return logits, activations, inputs
    return logits, activations


def backward_features(model: ModelCheckpoint, inputs: list[np.ndarray],
                      grad_logits: np.ndarray) -> list[np.ndarray]:
    """Gradients for every weight given d(loss)/d(logits) and the layer
    inputs that ``forward_features(..., with_cache=True)`` returned."""
    n_hidden = len(model.config.hidden_sizes)
    grads: list[np.ndarray | None] = [None] * len(model.weights)
    d = grad_logits
    grads[2 * n_hidden] = inputs[n_hidden].T @ d
    grads[2 * n_hidden + 1] = d.sum(axis=0)
    for i in range(n_hidden - 1, -1, -1):
        # d(loss)/d(layer i's output), then through its tanh; the input
        # layer's own input gradient is never needed.
        post = inputs[i + 1]
        d = (d @ model.weights[2 * i + 2].T) * (1.0 - post * post)
        grads[2 * i] = inputs[i].T @ d
        grads[2 * i + 1] = d.sum(axis=0)
    return grads  # type: ignore[return-value]


def save_checkpoint(model: ModelCheckpoint, path) -> None:
    """One array per weight, in its own shape."""
    header = {
        "config": asdict(model.config),
        "feature_dim": model.feature_dim,
        "vocab_size": model.vocab_size,
        "vocabulary_hash": model.vocabulary_hash,
        "training_meta": model.training_meta,
    }
    binio.write_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION, header, model.weights)


def load_checkpoint(path) -> ModelCheckpoint:
    """The checkpoint saved at ``path``; weights that do not have the layout
    its config implies raise :class:`~ekd.binio.FormatError`."""
    header, weights = binio.read_container(path, "checkpoint", CHECKPOINT_FORMAT_VERSION)
    with binio.checked(path):
        return ModelCheckpoint(
            config=ModelConfig(**header["config"]),
            feature_dim=header["feature_dim"],
            vocab_size=header["vocab_size"],
            weights=weights,
            vocabulary_hash=header["vocabulary_hash"],
            training_meta=header["training_meta"],
        )
