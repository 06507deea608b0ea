import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekd import binio
from ekd.ctc import softmax
from ekd.model import (ModelCheckpoint, ModelConfig, context_expand, forward_features,
                       init_model, layer_shapes, load_checkpoint, save_checkpoint)

from oracles import padded_context_expand


def make_model(seed=0, F=5, z=4, hidden=(8, 6), window=1):
    cfg = ModelConfig(context_window=window, hidden_sizes=hidden, activation="tanh", seed=seed)
    return init_model(cfg, F, z, "vhash")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_sizes=())
    with pytest.raises(ValueError):
        ModelConfig(context_window=-1)
    for activation in ("gelu", "relu"):
        with pytest.raises(ValueError, match=f"activation '{activation}': only 'tanh'"):
            ModelConfig(activation=activation)


def test_layer_shapes():
    cfg = ModelConfig(context_window=1, hidden_sizes=(8, 6), seed=0)
    shapes = layer_shapes(cfg, 5, 4)
    assert shapes == [(15, 8), (8,), (8, 6), (6,), (6, 4), (4,)]


def test_zero_weight_model_uniform_posteriors(rng):
    model = make_model()
    for w in model.weights:
        w[:] = 0.0
    logits, acts = forward_features(model, rng.normal(size=(7, 5)))
    assert not logits.any()
    posts = softmax(logits)
    assert np.allclose(posts.probs, 0.25)
    assert set(acts) == {"hidden_0", "hidden_1"}


def test_forward_deterministic(rng):
    features = rng.normal(size=(6, 5))
    a, _ = forward_features(make_model(seed=3), features)
    b, _ = forward_features(make_model(seed=3), features)
    assert np.array_equal(a, b)
    c, _ = forward_features(make_model(seed=4), features)
    assert not np.array_equal(a, c)


def test_frame_synchronous(rng):
    logits, acts = forward_features(make_model(), rng.normal(size=(9, 5)))
    assert logits.shape == (9, 4)
    assert acts["hidden_0"].shape == (9, 8)


def test_context_shift_property(rng):
    # With a one-frame context window, shifting the input by one frame shifts
    # interior logits by one frame.
    model = make_model(window=1)
    base = rng.normal(size=(8, 5))
    shifted = np.vstack([rng.normal(size=(1, 5)), base])  # prepend one frame
    lb, _ = forward_features(model, base)
    ls, _ = forward_features(model, shifted)
    assert np.allclose(ls[2:8], lb[1:7], atol=1e-12)


def test_context_expand_zero_padding():
    feats = np.arange(6.0).reshape(3, 2)
    x = context_expand(feats, 1)
    assert x.shape == (3, 6)
    assert np.array_equal(x[0, :2], [0.0, 0.0])      # left pad
    assert np.array_equal(x[0, 2:4], feats[0])
    assert np.array_equal(x[-1, 4:], [0.0, 0.0])     # right pad
    assert np.array_equal(context_expand(feats, 0), feats)


@given(T=st.integers(0, 7), F=st.integers(1, 3), window=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_context_expand_matches_padded_definition(T, F, window, seed):
    # T < window leaves some offsets no frame at all: a naive slice there
    # has mismatched shapes.
    features = np.random.default_rng(seed).normal(size=(T, F))
    got = context_expand(features, window)
    assert got.dtype == np.float64
    assert np.array_equal(got, padded_context_expand(features, window))


@pytest.mark.parametrize("window", [0, 1, 3])
def test_forward_matches_padded_context_and_bias_after_matmul(rng, window):
    # The forward pass as first written, bit for bit: the padded context
    # window, then each layer's matmul plus its bias out of place.
    model = make_model(seed=5, window=window)
    for w in model.weights[1::2]:
        w[:] = rng.normal(size=w.shape)
    features = rng.normal(size=(9, 5))
    logits, acts, inputs = forward_features(model, features, with_cache=True)
    h = padded_context_expand(features, window)
    assert np.array_equal(inputs[0], h)
    for i in range(len(model.config.hidden_sizes)):
        h = np.tanh(h @ model.weights[2 * i] + model.weights[2 * i + 1])
        assert np.array_equal(acts[f"hidden_{i}"], h) and np.array_equal(inputs[i + 1], h)
    assert np.array_equal(logits, h @ model.weights[-2] + model.weights[-1])


def test_dimension_mismatch(rng):
    model = make_model(F=5)
    with pytest.raises(ValueError, match="dim"):
        forward_features(model, rng.normal(size=(4, 7)))


def test_checkpoint_round_trip(tmp_path, rng):
    model = make_model(seed=9)
    model.training_meta = {"corpus": "c", "epochs": 3, "final_mean_loss": 0.5}
    path = tmp_path / "m.ekdm"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.vocabulary_hash == model.vocabulary_hash
    assert loaded.training_meta == model.training_meta
    probe = rng.normal(size=(11, 5))
    a, _ = forward_features(model, probe)
    b, _ = forward_features(loaded, probe)
    assert np.array_equal(a, b)


def test_checkpoint_recording_relu_is_refused(tmp_path):
    """A header that records another activation than tanh is refused, not
    loaded as a tanh model."""
    path = tmp_path / "m.ekdm"
    save_checkpoint(make_model(), path)
    header, weights = binio.read_container(path, "checkpoint")
    header["config"] = {**header["config"], "activation": "relu"}
    binio.write_container(path, "checkpoint", header, weights)
    with pytest.raises(ValueError, match="activation 'relu': only 'tanh'"):
        load_checkpoint(path)


def test_checkpoint_weight_layout_validated():
    model = make_model()
    with pytest.raises(ValueError, match="layout"):
        ModelCheckpoint(model.config, model.feature_dim, model.vocab_size,
                        model.weights[:-1], "h")


def test_copy_is_deep(rng):
    model = make_model()
    clone = model.copy()
    clone.weights[0][:] = 77.0
    assert not np.array_equal(model.weights[0], clone.weights[0])
