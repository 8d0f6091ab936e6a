"""Gaussian summaries of feature matrices and distances between them.

A dataset snapshot is summarized as a multivariate Gaussian fitted by
maximum likelihood. Distribution shift between two snapshots is then the
squared 2-Wasserstein distance between the fitted Gaussians, which has the
closed form

    W2^2 = ||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2})

A Monte-Carlo Jensen-Shannon estimate is provided for comparison
experiments. All matrix roots use symmetric eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidData,
    NotSPD,
)

__all__ = [
    "GaussianSummary",
    "load_features_csv",
    "save_features_csv",
    "fit_gaussian",
    "sqrt_spd",
    "wasserstein2_gaussian",
    "js_divergence_mc",
]

# Relative eigenvalue floor below which a matrix is treated as not PD.
_PD_RTOL = 1e-14

_LN2 = float(np.log(2.0))


@dataclass(frozen=True, eq=False)
class GaussianSummary:
    """Mean, covariance and sample count of a fitted Gaussian.

    The covariance is stored symmetrized. Positive definiteness is checked
    by the operations that require it (matrix roots, inverses), not at
    construction time, so that raw unridged fits can be inspected.
    """

    mean: np.ndarray
    cov: np.ndarray
    n_samples: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.ndim != 2 or cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"mean shape {mean.shape} incompatible with cov shape {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidData("non-finite values in Gaussian summary")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-10:
            raise NotSPD("covariance not symmetric within 1e-10")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def load_features_csv(path) -> np.ndarray:
    """Load a feature matrix from CSV, one sample per row.

    Raises InvalidData on non-finite entries or an empty/ragged file.
    """
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise InvalidData(f"could not parse feature CSV {path}: {exc}") from exc
    if data.size == 0:
        raise InvalidData(f"empty feature CSV {path}")
    if not np.all(np.isfinite(data)):
        raise InvalidData(f"non-finite values in feature CSV {path}")
    return data


def save_features_csv(path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise DimensionMismatch(f"feature matrix must be 2-D, got {features.shape}")
    np.savetxt(path, features, delimiter=",", fmt="%.17g")


def fit_gaussian(features: np.ndarray, ridge: float | None = None) -> GaussianSummary:
    """Maximum-likelihood Gaussian fit with ridge regularization.

    The covariance uses the 1/N normalization. ``ridge`` is added to the
    diagonal; by default it is relative, 1e-6 * tr(cov) / dim, which keeps
    downstream roots and inverses well conditioned without distorting the
    fit. Pass ``ridge=0.0`` for the raw estimate.

    Raises DegenerateInput for fewer than two rows and InvalidData for
    non-finite entries.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionMismatch(f"feature matrix must be 2-D, got shape {x.shape}")
    n, q = x.shape
    if n < 2:
        raise DegenerateInput(f"need at least 2 samples to fit, got {n}")
    if not np.all(np.isfinite(x)):
        raise InvalidData("non-finite values in feature matrix")
    if ridge is not None and ridge < 0:
        raise InvalidData(f"ridge must be nonnegative, got {ridge}")

    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / n
    cov = (cov + cov.T) / 2.0
    if ridge is None:
        ridge = 1e-6 * float(np.trace(cov)) / q
    cov = cov + ridge * np.eye(q)
    return GaussianSummary(mean=mean, cov=cov, n_samples=n)


def sqrt_spd(s: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric positive definite matrix.

    Computed from the symmetric eigendecomposition, R = U sqrt(L) U^T.
    Raises NotSPD if the input is not symmetric or any eigenvalue is not
    positive (up to a relative floor for roundoff).
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {s.shape}")
    scale = np.max(np.abs(s), initial=0.0)
    if np.max(np.abs(s - s.T), initial=0.0) > 1e-10 * max(1.0, scale):
        raise NotSPD("matrix is not symmetric")
    w, u = np.linalg.eigh((s + s.T) / 2.0)
    if w[0] <= _PD_RTOL * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise NotSPD(f"matrix is not positive definite (min eigenvalue {w[0]:g})")
    root = (u * np.sqrt(w)) @ u.T
    return (root + root.T) / 2.0


def _check_same_dim(g1: GaussianSummary, g2: GaussianSummary) -> int:
    if g1.dim != g2.dim:
        raise DimensionMismatch(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    return g1.dim


def wasserstein2_gaussian(g1: GaussianSummary, g2: GaussianSummary) -> float:
    """Squared 2-Wasserstein distance between two Gaussians.

    Nonnegative, symmetric, and zero only for identical summaries. Tiny
    negative roundoff in the trace term is clamped to zero.
    """
    _check_same_dim(g1, g2)
    dmean = g1.mean - g2.mean
    root2 = sqrt_spd(g2.cov)
    inner = root2 @ g1.cov @ root2
    inner = (inner + inner.T) / 2.0
    cross = sqrt_spd(inner)
    value = float(dmean @ dmean) + float(
        np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * np.trace(cross)
    )
    return max(value, 0.0)


def _chol(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"{what} is not positive definite") from exc


def _log_density(x: np.ndarray, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Gaussian log-density of rows of x, given a Cholesky factor of cov."""
    q = mean.size
    sol = np.linalg.solve(chol, (x - mean).T)
    maha = np.sum(sol * sol, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (maha + logdet + q * np.log(2.0 * np.pi))


def js_divergence_mc(
    g1: GaussianSummary,
    g2: GaussianSummary,
    n_samples: int = 20000,
    seed: int = 0,
) -> float:
    """Monte-Carlo Jensen-Shannon divergence estimate in bits.

    JS = 0.5 E_{x~g1}[log2 p1/m] + 0.5 E_{y~g2}[log2 p2/m] with mixture
    m = (p1 + p2) / 2. One set of standard-normal draws is pushed through
    both Gaussians (mirrored sampling), which makes the estimate exactly
    symmetric in its arguments. The result is clamped to [0, 1].
    """
    q = _check_same_dim(g1, g2)
    if n_samples < 1:
        raise InvalidData(f"n_samples must be positive, got {n_samples}")
    l1 = _chol(g1.cov, "cov of first argument")
    l2 = _chol(g2.cov, "cov of second argument")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, q))
    x1 = g1.mean + z @ l1.T
    x2 = g2.mean + z @ l2.T

    def expected_log_ratio(x, own_mean, own_chol, other_mean, other_chol):
        lp_own = _log_density(x, own_mean, own_chol)
        lp_other = _log_density(x, other_mean, other_chol)
        lp_mix = np.logaddexp(lp_own, lp_other) - _LN2
        return float(np.mean(lp_own - lp_mix)) / _LN2

    term1 = expected_log_ratio(x1, g1.mean, l1, g2.mean, l2)
    term2 = expected_log_ratio(x2, g2.mean, l2, g1.mean, l1)
    return float(np.clip(0.5 * (term1 + term2), 0.0, 1.0))
