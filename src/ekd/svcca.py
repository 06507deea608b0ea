"""Representation similarity: SVD truncation to the dominant directions of
each activation matrix, then canonical correlation analysis between the
pruned subspaces, summarized by the mean canonical correlation."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

RIDGE_SCALE = 1e-8


@dataclass
class ActivationMatrix:
    """N sampled frames by d units for one layer of one checkpoint."""

    layer_name: str
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("activation data must be [N, d]")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("activation data must be finite")
        n, d = self.data.shape
        if n <= d:
            logger.warning("layer %s: only %d points for %d dims; correlations may be inflated",
                           self.layer_name, n, d)


@dataclass
class SvccaResult:
    canonical_correlations: np.ndarray  # descending, each in [0, 1]
    mean_rho: float
    kept_dims: tuple[int, int]


class _Pruned(ActivationMatrix):
    """Activations that :func:`svd_prune` returned; :func:`svcca` does not
    prune them again."""


def svd_prune(acts: ActivationMatrix, variance_fraction: float = 0.99) -> ActivationMatrix:
    """Project mean-centered data onto the smallest set of top singular
    directions holding at least the requested fraction of squared singular
    value energy."""
    if not 0.0 < variance_fraction <= 1.0:
        raise ValueError("variance_fraction must lie in (0, 1]")
    centered = acts.data - acts.data.mean(axis=0, keepdims=True)
    if not np.any(centered):
        raise ValueError(f"layer {acts.layer_name}: all-zero (constant) activations")
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    energy = s * s
    cumulative = np.cumsum(energy) / energy.sum()
    k = int(np.searchsorted(cumulative, variance_fraction - 1e-12) + 1)
    k = min(k, int(np.sum(s > 0)))
    return _Pruned(layer_name=acts.layer_name, data=centered @ vt[:k].T)


def _inv_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.maximum(vals, np.finfo(np.float64).tiny)
    return (vecs / np.sqrt(vals)) @ vecs.T


def cca(a: ActivationMatrix, b: ActivationMatrix) -> SvccaResult:
    """Canonical correlations via SVD of the whitened cross-covariance.

    Covariances are ridge-regularized with eps = 1e-8 * trace / d so
    whitening stays defined on low-rank activations.
    """
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"point counts differ: {a.data.shape[0]} vs {b.data.shape[0]}")
    n = a.data.shape[0]
    if n < 2:
        raise ValueError("need at least two data points")
    xa = a.data - a.data.mean(axis=0, keepdims=True)
    xb = b.data - b.data.mean(axis=0, keepdims=True)
    saa = xa.T @ xa / (n - 1)
    sbb = xb.T @ xb / (n - 1)
    sab = xa.T @ xb / (n - 1)
    da, db = saa.shape[0], sbb.shape[0]
    saa = saa + (RIDGE_SCALE * np.trace(saa) / da) * np.eye(da)
    sbb = sbb + (RIDGE_SCALE * np.trace(sbb) / db) * np.eye(db)
    whitened = _inv_sqrt(saa) @ sab @ _inv_sqrt(sbb)
    rho = np.linalg.svd(whitened, compute_uv=False)
    rho = np.clip(rho, 0.0, 1.0)[: min(da, db)]
    return SvccaResult(canonical_correlations=rho, mean_rho=float(rho.mean()),
                       kept_dims=(da, db))


def svcca(a: ActivationMatrix, b: ActivationMatrix,
          variance_fraction: float = 0.99) -> SvccaResult:
    """SVD-prune both inputs, then correlate the pruned subspaces. An input
    that :func:`svd_prune` returned is correlated as it is."""
    def pruned(acts: ActivationMatrix) -> ActivationMatrix:
        return acts if isinstance(acts, _Pruned) else svd_prune(acts, variance_fraction)

    return cca(pruned(a), pruned(b))


@dataclass
class SvccaReport:
    """Per (layer, step) correlation trajectories of two training runs and
    their difference."""

    layers: list[str]
    steps: list[int]
    rho_a: dict[tuple[str, int], float]
    rho_b: dict[tuple[str, int], float]

    def diff(self, layer: str, step: int) -> float:
        return self.rho_a[(layer, step)] - self.rho_b[(layer, step)]

    def mean_abs_diff(self, layer: str) -> float:
        return float(np.mean([abs(self.diff(layer, s)) for s in self.steps]))

    def rows(self) -> list[tuple[str, int, float, float, float]]:
        return [(layer, step, self.rho_a[(layer, step)], self.rho_b[(layer, step)],
                 self.diff(layer, step))
                for layer in self.layers for step in self.steps]

    def diffs_text(self) -> str:
        lines = ["layer\tmean_abs_diff"]
        for layer in self.layers:
            lines.append(f"{layer}\t{self.mean_abs_diff(layer)!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = ["layer\tstep\trho_run_a\trho_run_b\tdiff"]
        for layer, step, ra, rb, d in self.rows():
            lines.append(f"{layer}\t{step}\t{ra!r}\t{rb!r}\t{d!r}")
        return "\n".join(lines) + "\n\n" + self.diffs_text()


def correlation_trajectory(acts_a: dict[int, dict[str, ActivationMatrix]],
                           acts_b: dict[int, dict[str, ActivationMatrix]], layers: list[str],
                           variance_fraction: float = 0.99) -> SvccaReport:
    """Layer-wise convergence trajectories of two runs, each given as
    ``{step: {layer: activations}}`` sampled on the same probe frames.

    For each run, every step is correlated against that run's final step,
    whose activations are pruned once per layer; the report also carries
    the difference between the two runs' trajectories. Both runs must hold
    the same steps: a step that only one run holds is a ValueError naming
    it.
    """
    unshared = sorted(set(acts_a) ^ set(acts_b))
    if unshared:
        raise ValueError(f"checkpoint steps {unshared} are in only one run")
    steps = sorted(acts_a)
    if not steps:
        raise ValueError("runs hold no checkpoint steps")
    final = steps[-1]
    rho_a: dict[tuple[str, int], float] = {}
    rho_b: dict[tuple[str, int], float] = {}
    for layer in layers:
        final_a = svd_prune(acts_a[final][layer], variance_fraction)
        final_b = svd_prune(acts_b[final][layer], variance_fraction)
        for step in steps:
            rho_a[(layer, step)] = svcca(acts_a[step][layer], final_a, variance_fraction).mean_rho
            rho_b[(layer, step)] = svcca(acts_b[step][layer], final_b, variance_fraction).mean_rho
    return SvccaReport(layers=list(layers), steps=steps, rho_a=rho_a, rho_b=rho_b)
