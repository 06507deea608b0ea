import numpy as np
import pytest

from ekd.svcca import ActivationMatrix, cca, correlation_trajectory, svcca, svd_prune

from oracles import brute_cca


def mat(data, name="layer"):
    return ActivationMatrix(layer_name=name, data=np.asarray(data, dtype=float))


def random_acts(rng, n=300, d=6, name="layer"):
    return mat(rng.normal(size=(n, d)), name)


# -- svd_prune ---------------------------------------------------------------------

def test_prune_keeps_all_at_fraction_one(rng):
    acts = random_acts(rng, 50, 5)
    pruned = svd_prune(acts, 1.0)
    assert pruned.data.shape == (50, 5)


def test_prune_rank_one(rng):
    base = rng.normal(size=(40, 1)) @ rng.normal(size=(1, 6))
    pruned = svd_prune(mat(base), 0.99)
    assert pruned.data.shape[1] == 1


def test_prune_energy_bound(rng):
    acts = random_acts(rng, 100, 10)
    pruned = svd_prune(acts, 0.99)
    centered = acts.data - acts.data.mean(axis=0)
    total = np.sum(centered ** 2)
    kept = np.sum(pruned.data ** 2)
    assert kept >= 0.99 * total - 1e-9
    assert (total - kept) / total <= 0.01 + 1e-12


def test_prune_rejects_constant():
    with pytest.raises(ValueError, match="all-zero"):
        svd_prune(mat(np.ones((10, 3))), 0.99)


def test_prune_fraction_validated(rng):
    with pytest.raises(ValueError):
        svd_prune(random_acts(rng), 0.0)


# -- cca ----------------------------------------------------------------------------

def test_self_correlation_is_one(rng):
    a = random_acts(rng, 200, 4)
    result = cca(a, a)
    assert np.allclose(result.canonical_correlations, 1.0, atol=1e-6)
    assert result.mean_rho == pytest.approx(1.0, abs=1e-6)


def test_affine_invariance(rng):
    a = random_acts(rng, 300, 4)
    m = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = mat(a.data @ m + rng.normal(size=4))
    base = cca(a, a).canonical_correlations
    got = cca(a, b).canonical_correlations
    assert np.allclose(got, base, atol=1e-6)


def test_matches_generalized_eigen_oracle(rng):
    for _ in range(20):
        n = 200
        da, db = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = random_acts(rng, n, da)
        b = mat(rng.normal(size=(n, db)) + 0.3 * np.tile(a.data.mean(axis=1, keepdims=True), db))
        got = cca(a, b).canonical_correlations
        want = brute_cca(a.data, b.data)
        assert np.allclose(got, want, atol=1e-8)


def test_d1_is_pearson(rng):
    a = rng.normal(size=(500, 1))
    b = 0.5 * a + rng.normal(size=(500, 1))
    got = cca(mat(a), mat(b)).canonical_correlations[0]
    pearson = abs(np.corrcoef(a[:, 0], b[:, 0])[0, 1])
    assert got == pytest.approx(pearson, abs=1e-8)


def test_independent_random_low_correlation():
    passed = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = mat(rng.normal(size=(10000, 5)))
        b = mat(rng.normal(size=(10000, 5)))
        if cca(a, b).mean_rho < 0.1:
            passed += 1
    assert passed >= 18


def test_cca_input_validation(rng):
    with pytest.raises(ValueError, match="point counts"):
        cca(random_acts(rng, 10, 2), random_acts(rng, 11, 2))
    with pytest.raises(ValueError, match="two data points"):
        cca(mat(np.ones((1, 2))), mat(np.ones((1, 2))))


def test_correlations_sorted_and_bounded(rng):
    for _ in range(10):
        a = random_acts(rng, 150, 5)
        b = random_acts(rng, 150, 3)
        r = cca(a, b).canonical_correlations
        assert len(r) == 3
        assert np.all(np.diff(r) <= 1e-12)
        assert np.all((r >= 0.0) & (r <= 1.0 + 1e-8))


# -- svcca --------------------------------------------------------------------------

def test_svcca_self_is_one(rng):
    a = random_acts(rng, 250, 6)
    assert svcca(a, a, 0.99).mean_rho == pytest.approx(1.0, abs=1e-6)


def test_svcca_row_permutation_invariant(rng):
    a = random_acts(rng, 200, 4)
    b = random_acts(rng, 200, 4)
    perm = rng.permutation(200)
    pa = mat(a.data[perm])
    pb = mat(b.data[perm])
    assert svcca(pa, pb).mean_rho == pytest.approx(svcca(a, b).mean_rho, abs=1e-9)


def test_svcca_equals_cca_full_rank_fraction_one(rng):
    a = random_acts(rng, 200, 4)
    b = random_acts(rng, 200, 4)
    full = svcca(a, b, 1.0)
    plain = cca(a, b)
    assert np.allclose(full.canonical_correlations, plain.canonical_correlations, atol=1e-6)


def test_svcca_symmetric(rng):
    a = random_acts(rng, 200, 5)
    b = random_acts(rng, 200, 4)
    assert svcca(a, b).mean_rho == pytest.approx(svcca(b, a).mean_rho, abs=1e-8)


def test_svcca_kept_dims_recorded(rng):
    base = rng.normal(size=(100, 2)) @ rng.normal(size=(2, 8))
    a = mat(base + 1e-6 * rng.normal(size=(100, 8)))
    result = svcca(a, a, 0.99)
    assert result.kept_dims[0] <= 3


# -- trajectories -------------------------------------------------------------------

def _fake_run(rng, steps, drift):
    """``{step: {layer: activations}}`` of a run whose activations drift away
    from a random start, by ``drift`` per step."""
    start = rng.normal(size=(40, 6))
    return {step: {layer: mat(start + drift * k * rng.normal(size=start.shape), layer)
                   for layer in ("hidden_0", "hidden_1")}
            for k, step in enumerate(steps)}


def test_trajectory_self_difference_zero(rng):
    run = _fake_run(rng, [1, 2, 3], drift=1.0)
    report = correlation_trajectory(run, run, ["hidden_0", "hidden_1"])
    for layer, step, ra, rb, diff in report.rows():
        assert diff == 0.0
    assert report.mean_abs_diff("hidden_0") == 0.0


def test_trajectory_row_count(rng):
    run_a = _fake_run(rng, [1, 2, 3], drift=1.0)
    run_b = _fake_run(rng, [1, 2, 3], drift=2.0)
    report = correlation_trajectory(run_a, run_b, ["hidden_0", "hidden_1"])
    assert len(report.rows()) == 2 * 3
    for layer in ("hidden_0", "hidden_1"):  # the final step is each run's reference
        assert report.rho_a[(layer, 3)] == pytest.approx(1.0)
        assert report.rho_b[(layer, 3)] == pytest.approx(1.0)


def test_trajectory_refuses_unshared_steps(rng):
    run_a = _fake_run(rng, [1, 2, 3], drift=1.0)
    run_b = _fake_run(rng, [2, 3, 4], drift=2.0)
    with pytest.raises(ValueError, match=r"checkpoint steps \[1, 4\] are in only one run"):
        correlation_trajectory(run_a, run_b, ["hidden_0"])


def test_report_text_shape(rng):
    run = _fake_run(rng, [1, 2], drift=1.0)
    report = correlation_trajectory(run, run, ["hidden_0"])
    text = report.to_text()
    assert "mean_abs_diff" in text
    assert len([ln for ln in text.splitlines() if ln.startswith("hidden_0")]) == 3


def test_trajectory_prunes_each_final_step_once(rng, monkeypatch):
    # Each run's final-step activations are pruned once per layer, not once
    # per step, and every correlation keeps the bits of the per-step
    # computation.
    steps, layers = [1, 2, 3, 4], ["hidden_0", "hidden_1"]
    run_a = _fake_run(rng, steps, drift=1.0)
    run_b = _fake_run(rng, steps, drift=2.0)
    real, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    report = correlation_trajectory(run_a, run_b, layers)
    monkeypatch.undo()
    # Per run and layer: one prune per step plus the final's, one CCA per step.
    assert calls.count(True) == 2 * len(layers) * (len(steps) + 1)
    assert calls.count(False) == 2 * len(layers) * len(steps)
    for run, rho in ((run_a, report.rho_a), (run_b, report.rho_b)):
        for layer in layers:
            for step in steps:
                want = cca(svd_prune(run[step][layer]), svd_prune(run[steps[-1]][layer]))
                assert rho[(layer, step)] == want.mean_rho


def test_svcca_does_not_prune_a_pruned_input_again(rng):
    a, b = random_acts(rng), random_acts(rng)
    pruned = svd_prune(b, 0.9)
    assert svcca(a, pruned, 0.9).mean_rho == cca(svd_prune(a, 0.9), pruned).mean_rho
    assert svcca(a, b, 0.9).mean_rho == cca(svd_prune(a, 0.9), pruned).mean_rho
