import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekd import ctc
from ekd.ctc import (InfeasibleTargetError, PosteriorSequence, ctc_lattices, ctc_loss,
                     greedy_decode_batch, log_softmax, min_frames_for_target, prepare_target,
                     softmax, softmax_utterances)

from conftest import random_posteriors
from oracles import brute_ctc, collapse, fd_ctc_gradient, two_pass_ctc_loss, two_pass_lattice


# -- softmax -------------------------------------------------------------------

def test_softmax_uniform():
    p = softmax(np.zeros((1, 4)))
    assert np.allclose(p.probs, 0.25)


def test_softmax_analytic():
    p = softmax(np.array([[math.log(2.0), 0.0]]))
    assert np.allclose(p.probs, [[2 / 3, 1 / 3]])


def test_softmax_preserves_argmax(rng):
    logits = rng.normal(size=(10, 5))
    p = softmax(logits)
    assert np.array_equal(np.argmax(p.probs, axis=1), np.argmax(logits, axis=1))


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        softmax(np.array([[np.inf, 0.0]]))


def test_softmax_utterances_names_the_first_utterance_with_non_finite_logits(rng):
    logits = [rng.normal(size=(3 + i, 5)) for i in range(5)]
    logits[2][1, 3] = -np.inf
    logits[4][0, 0] = np.nan
    with pytest.raises(ValueError, match="^utterance 'u2': non-finite logits$"):
        softmax_utterances(logits, [f"u{i}" for i in range(5)])


@pytest.mark.parametrize("z", [2, 10, 300])
def test_softmax_utterances_output_passes_the_posterior_check(rng, z):
    # Finite logits cannot give bad posteriors, so softmax_utterances does
    # not check its output again: the check passes on every row, also where
    # the logits are huge and their differences overflow.
    logits = [rng.normal(size=(int(rng.integers(1, 40)), z)) * scale
              for scale in (1e-300, 1.0, 30.0, 1e3, 1e300)]
    extreme = np.zeros((4, z))
    extreme[0, ::2], extreme[0, 1::2] = 1e300, -1e300
    extreme[1] = -1e300
    extreme[2, 0], extreme[2, 1:] = np.finfo(float).max, -np.finfo(float).max
    extreme[3] = rng.choice([1e300, -1e300], size=z)
    logits.append(extreme)
    ids = [f"u{i}" for i in range(len(logits))]
    with np.errstate(over="ignore"):   # -max - max overflows to -inf, whose exp is 0
        posts = softmax_utterances(logits, ids)
    assert [p.utterance_id for p in posts] == ids
    bounds = np.cumsum([0, *(len(rows) for rows in logits)])
    ctc._check_posteriors(np.concatenate([p.probs for p in posts]), bounds, ids)


# -- collapse / greedy ----------------------------------------------------------

def greedy_path(path, blank: int = 0, z: int = 4) -> np.ndarray:
    """The greedy decoding of one-hot posteriors whose argmax path is ``path``."""
    return greedy_decode_batch([PosteriorSequence(np.eye(z)[path])], blank)[0]


def test_collapse_examples():
    assert greedy_path([0]).tolist() == []
    assert greedy_path([0]).dtype == np.int64
    assert greedy_path([1, 1, 2]).tolist() == [1, 2]
    assert greedy_path([1, 0, 0, 1, 2, 2]).tolist() == [1, 1, 2]
    assert greedy_decode_batch([], blank=0) == []


@pytest.mark.parametrize("target, frames", [([], 0), ([1], 1), ([1, 2], 2), ([1, 1], 3),
                                             ([2, 2, 2], 5), ([1, 2, 1], 3)])
def test_min_frames_for_target(target, frames):
    assert min_frames_for_target(target) == frames


def test_greedy_examples():
    # frame argmaxes a, a, blank, b -> "ab"
    probs = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.1, 0.7]])
    all_blank = np.tile([0.1, 0.8, 0.1], (5, 1))
    aba = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.8, 0.1, 0.1]])
    got = greedy_decode_batch([PosteriorSequence(p) for p in (probs, all_blank, aba)], blank=1)
    assert [seq.tolist() for seq in got] == [[0, 2], [], [0, 0]]
    assert [greedy_path(path, blank=1, z=3).tolist()
            for path in ([0, 0, 1, 2], [1] * 5, [0, 1, 0])] == [[0, 2], [], [0, 0]]


def test_batched_greedy_decode_equals_greedy_decode_per_utterance(rng):
    z, blank = 6, 0

    def posteriors(path, uid):
        probs = rng.uniform(size=(len(path), z))
        probs[np.arange(len(path)), path] += 1.0   # the argmax of every frame
        return PosteriorSequence(probs / probs.sum(axis=1, keepdims=True), uid)

    # The first utterance ends in symbol 3 and the second starts with it;
    # then an all-blank utterance, one-frame ones and random ones.
    paths = [[1, 0, 3], [3, 3, 2], [0, 0, 0, 0], [4], [0], [2, 0, 2, 2, 5], [5], [5, 5]]
    paths += [rng.integers(0, z, size=int(rng.integers(1, 30))).tolist() for _ in range(30)]
    batch = [posteriors(path, f"u{i}") for i, path in enumerate(paths)]
    got = greedy_decode_batch(batch, blank)
    want = [list(collapse(path, blank)) for path in paths]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.tolist() == w
    assert [g.tolist() for g in got[:8]] == [[1, 3], [3, 2], [], [4], [], [2, 2, 5], [5], [5]]
    assert greedy_decode_batch([], blank) == []


def test_posteriors_refuse_nan():
    # Every range and row-sum check compares, and a comparison with NaN is false.
    with pytest.raises(ValueError, match="'bad'.*finite"):
        PosteriorSequence(np.full((3, 4), np.nan), "bad")


def test_posteriors_refuse_inf():
    probs = np.full((2, 3), 1.0 / 3)
    probs[1] = [np.inf, 0.0, 0.0]
    with pytest.raises(ValueError, match="'worse'.*finite"):
        PosteriorSequence(probs, "worse")


# A posterior has at least one frame, so every path below has one too.
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_collapse_output_blank_free_and_no_longer(path):
    out = greedy_path(path).tolist()
    assert out == list(collapse(path, blank=0))
    assert 0 not in out
    assert len(out) <= len(path)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_collapse_identity_on_canonical_sequences(seq):
    # blank-free with no adjacent repeats: collapse must not touch it
    canonical = [s for i, s in enumerate(seq) if i == 0 or s != seq[i - 1]]
    assert greedy_path(canonical).tolist() == canonical


# -- ctc loss -------------------------------------------------------------------

def test_single_frame_single_path():
    lp = np.log(np.array([[0.7, 0.3]]))
    result = ctc_loss(lp, [0], blank=1)
    assert result.loss == pytest.approx(-math.log(0.7), rel=1e-12)


def test_two_frame_uniform_three_alignments():
    lp = np.log(np.full((2, 2), 0.5))
    result = ctc_loss(lp, [0], blank=1)
    assert result.loss == pytest.approx(-math.log(0.75), rel=1e-12)


def test_matches_brute_force_random(rng):
    for _ in range(100):
        T = int(rng.integers(1, 7))
        z = int(rng.integers(2, 5))
        probs = random_posteriors(rng, T, z).probs
        L = int(rng.integers(1, 4))
        target = rng.integers(0, z - 1, size=L)
        if min_frames_for_target(target) > T:
            continue
        got = ctc_loss(np.log(probs), target, blank=z - 1).loss
        want = -math.log(brute_ctc(probs, target, z - 1))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_gradient_matches_finite_differences(rng):
    for _ in range(15):
        T = int(rng.integers(2, 7))
        z = int(rng.integers(2, 5))
        logits = rng.normal(size=(T, z))
        L = int(rng.integers(1, 4))
        target = rng.integers(0, z - 1, size=L)
        if min_frames_for_target(target) > T:
            continue
        analytic = ctc_loss(softmax(logits).log_probs(), target, z - 1).grad_logits
        fd = fd_ctc_gradient(logits, target, z - 1)
        err = np.max(np.abs(analytic - fd)) / max(1.0, float(np.max(np.abs(fd))))
        assert err < 1e-4


def test_infeasible_target():
    lp = np.log(np.full((2, 3), 1 / 3))
    with pytest.raises(InfeasibleTargetError):
        ctc_loss(lp, [0, 1, 0], blank=2)
    # repeated label needs a separating blank
    with pytest.raises(InfeasibleTargetError):
        ctc_loss(lp, [0, 0], blank=2)


def test_blank_in_target_rejected():
    lp = np.log(np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError, match="blank"):
        ctc_loss(lp, [0, 2], blank=2)


def test_empty_target_rejected():
    lp = np.log(np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError, match="non-empty"):
        ctc_loss(lp, [], blank=2)


def test_nan_rejected():
    lp = np.log(np.full((2, 2), 0.5))
    lp[0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        ctc_loss(lp, [0], blank=1)


def test_log_space_stability_tiny_probs():
    probs = np.full((12, 3), 1e-30)
    probs[:, 0] = 1.0 - 2e-30
    result = ctc_loss(np.log(probs), [0], blank=2)
    assert np.isfinite(result.loss)
    assert np.all(np.isfinite(result.grad_logits))
    for target in ([0], [1], [0, 1, 0]):
        _assert_matches_two_pass(np.log(probs), target, blank=2)


def test_loss_has_probability_semantics(rng):
    for _ in range(25):
        T = int(rng.integers(2, 7))
        z = int(rng.integers(2, 5))
        probs = random_posteriors(rng, T, z).probs
        target = rng.integers(0, z - 1, size=1)
        result = ctc_loss(np.log(probs), target, blank=z - 1)
        assert 0.0 < math.exp(-result.loss) <= 1.0 + 1e-12
        assert result.loss >= -1e-12


def test_repeated_symbol_counts_paths():
    # target "aa" over 3 frames: only path a,blank,a
    probs = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
    result = ctc_loss(np.log(probs), [0, 0], blank=1)
    assert result.loss == pytest.approx(-math.log(0.6 * 0.7 * 0.5), rel=1e-12)


# -- packed recursion against the two-pass reference ----------------------------

def _assert_matches_two_pass(lp, target, blank):
    """Same loss and gradient bits as the two-pass reference, or the same
    ValueError message where the reference raises."""
    try:
        want_loss, want_grad = two_pass_ctc_loss(lp, target, blank)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            ctc_loss(lp, target, blank)
        assert str(got.value) == str(err)
        return
    got = ctc_loss(lp, target, blank)
    assert got.loss == want_loss
    assert np.array_equal(got.grad_logits, want_grad)


def _draw_pair(data, z, blank):
    """A (log_probs, target) pair: repeated labels, T often at its minimum,
    sometimes exact-zero posteriors."""
    labels = [g for g in range(z) if g != blank]
    # few distinct labels make repeats, which need a separating blank
    n_labels = data.draw(st.integers(1, len(labels)), label="n_labels")
    target = data.draw(st.lists(st.sampled_from(labels[:n_labels]), min_size=1, max_size=15),
                       label="target")
    need = min_frames_for_target(target)
    T = need if data.draw(st.booleans(), label="T=min") else data.draw(st.integers(need, 40),
                                                                       label="T")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    lp = log_softmax(rng.normal(size=(T, z)) * rng.uniform(0.1, 10.0))
    if data.draw(st.booleans(), label="zeros"):
        lp[rng.random((T, z)) < 0.15] = -np.inf   # exact-zero posteriors
    return lp, target


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_packed_recursion_is_bit_identical_to_two_pass(data):
    z = data.draw(st.integers(2, 12), label="z")
    blank = data.draw(st.integers(0, z - 1), label="blank")
    _assert_matches_two_pass(*_draw_pair(data, z, blank), blank)


def _spoil(kind, lp, target, z, blank):
    """The pair made unscorable in one of the ways ``ctc_loss`` rejects."""
    lp, target = lp.copy(), list(target)
    if kind == "nan":
        lp[-1, 0] = np.nan
    elif kind == "shape":
        lp = lp[0]
    elif kind == "empty":
        target = []
    elif kind == "blank":
        target[-1] = blank
    elif kind == "out-of-range":
        target[0] = z
    else:  # infeasible: more labels than frames
        target = target * (lp.shape[0] + 1)
    return lp, target


def _lattices(pairs, z, blank, frames=None):
    """``ctc_lattices`` of ``pairs`` with targets prepared for ``frames``
    (default: each pair's own frame count)."""
    frames = frames or [len(lp) for lp, _ in pairs]
    prepared = [prepare_target(t, T, z, blank) for (_, t), T in zip(pairs, frames)]
    return ctc_lattices([lp for lp, _ in pairs], prepared)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_batched_lattices_are_bit_identical_per_utterance(data):
    """Ragged minibatches: every utterance's loss and gradient read from its
    lattice are the bits of ``ctc_loss`` alone and of the two-pass
    reference, and an unscorable pair anywhere in the batch raises, on
    preparing its target or on advancing the batch, what it raises alone."""
    z = data.draw(st.integers(2, 12), label="z")
    blank = data.draw(st.integers(0, z - 1), label="blank")
    B = data.draw(st.integers(1, 16), label="B")
    pairs = [_draw_pair(data, z, blank) for _ in range(B)]
    bad = data.draw(st.sampled_from([None, "nan", "shape", "empty", "blank", "out-of-range",
                                     "infeasible"]), label="bad")
    if bad is not None:
        at = data.draw(st.integers(0, B - 1), label="bad_at")
        frames = [len(lp) for lp, _ in pairs]
        pairs[at] = _spoil(bad, *pairs[at], z, blank)
        with pytest.raises(ValueError) as alone:
            ctc_loss(*pairs[at], blank)
        with pytest.raises(ValueError) as batched:
            _lattices(pairs, z, blank, frames)
        assert type(batched.value) is type(alone.value)
        assert str(batched.value) == str(alone.value)
        return
    lattices = _lattices(pairs, z, blank)
    for (lp, target), lattice in zip(pairs, lattices):
        try:
            want_loss, want_grad = two_pass_ctc_loss(lp, target, blank)
        except ValueError as err:   # zero probability, found by the readout
            for kwargs in ({"lattice": lattice}, {}):
                with pytest.raises(ValueError) as got:
                    ctc_loss(lp, target, blank, **kwargs)
                assert str(got.value) == str(err)
            continue
        for got in (ctc_loss(lp, target, blank, lattice=lattice), ctc_loss(lp, target, blank)):
            assert got.loss == want_loss
            assert np.array_equal(got.grad_logits, want_grad)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_live_cells_match_two_pass_and_dead_cells_are_neg_inf(data):
    """Ragged minibatches: a cell of alpha (beta) on which no path can still
    finish (start) is dead and -inf; every other cell has the bits of
    separate alpha and beta passes. Liveness comes from the reference run
    on all-zero log posteriors, where a cell is finite iff a path reaches
    it at all."""
    z = data.draw(st.integers(2, 12), label="z")
    blank = data.draw(st.integers(0, z - 1), label="blank")
    pairs = [_draw_pair(data, z, blank) for _ in range(data.draw(st.integers(1, 16), label="B"))]
    for (lp, target), (alpha, beta, _) in zip(pairs, _lattices(pairs, z, blank)):
        want_alpha, want_beta = two_pass_lattice(lp, target, blank)
        can_start, can_finish = (np.isfinite(x) for x in two_pass_lattice(np.zeros_like(lp),
                                                                          target, blank))
        assert alpha.shape == beta.shape == want_alpha.shape
        for got, want, live in ((alpha, want_alpha, can_finish), (beta, want_beta, can_start)):
            assert np.array_equal(got[live], want[live])
            assert np.all(got[~live] == -np.inf)


def test_lattice_of_another_pair_rejected():
    uniform = np.log(np.full((5, 3), 1 / 3))
    (lattice,) = ctc_lattices([uniform[:4]], [prepare_target([0, 1], 4, 3, blank=2)])
    with pytest.raises(ValueError, match="lattice"):
        ctc_loss(uniform, [0, 1], blank=2, lattice=lattice)


@pytest.mark.parametrize("target, blank", [([1, 0], 2), ([0], 2), ([0, 1, 0], 2), ([0, 1], 1)],
                         ids=["labels", "shorter", "longer", "blank"])
def test_lattice_of_another_target_rejected(target, blank):
    uniform = np.log(np.full((5, 3), 1 / 3))
    (lattice,) = ctc_lattices([uniform], [prepare_target([0, 1], 5, 3, blank=2)])
    assert np.array_equal(lattice.states, [2, 0, 2, 1, 2])
    with pytest.raises(ValueError, match="prepared for another target or blank"):
        ctc_loss(uniform, target, blank=blank, lattice=lattice)


@pytest.mark.parametrize("lp", [np.zeros((5, 3)), np.zeros((4, 4))], ids=["frames", "symbols"])
def test_log_probs_of_another_shape_rejected(lp):
    with pytest.raises(ValueError, match=r"the target is prepared for \(4, 3\)"):
        ctc_lattices([lp], [prepare_target([0, 1], 4, 3, blank=2)])


def test_lattices_need_one_target_per_matrix():
    with pytest.raises(ValueError, match="2 log_probs for 1 targets"):
        ctc_lattices([np.zeros((4, 3))] * 2, [prepare_target([0, 1], 4, 3, blank=2)])


def test_packed_recursion_matches_two_pass_on_exact_zeros():
    probs = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])
    with np.errstate(divide="ignore"):
        lp = np.log(probs)
    for target in ([0], [1], [0, 1], [1, 0], [0, 0]):
        _assert_matches_two_pass(lp, target, blank=2)


def test_packed_recursion_matches_two_pass_on_real_shapes(rng):
    # utterance shapes of the default experiment: T about 60, L about 20, z 10
    for _ in range(20):
        T = int(rng.integers(50, 75))
        target = rng.integers(0, 9, size=int(rng.integers(15, 25)))
        T = max(T, min_frames_for_target(target))
        lp = log_softmax(rng.normal(size=(T, 10)) * 3.0)
        _assert_matches_two_pass(lp, target, blank=9)


_UNIFORM = np.log(np.full((3, 3), 1 / 3))
_NAN = _UNIFORM.copy()
_NAN[1, 0] = np.nan
with np.errstate(divide="ignore"):
    _NO_LABEL = np.log(np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]))


@pytest.mark.parametrize("lp, target, error", [
    (_UNIFORM[:2], [0, 1, 0], InfeasibleTargetError),
    (_UNIFORM[:2], [0, 0], InfeasibleTargetError),   # a repeat needs a blank between
    (_NAN, [0], ValueError), (_UNIFORM, [0, 2], ValueError), (_UNIFORM, [], ValueError),
    (_UNIFORM, [3], ValueError), (_NO_LABEL, [0], ValueError)],
    ids=["infeasible", "infeasible-repeat", "nan", "blank", "empty", "out-of-range",
         "zero-probability"])
def test_errors_match_two_pass(lp, target, error):
    with pytest.raises(ValueError) as want:
        two_pass_ctc_loss(lp, target, blank=2)
    with pytest.raises(error) as got:
        ctc_loss(lp, target, blank=2)
    assert str(got.value) == str(want.value)
