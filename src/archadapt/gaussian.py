"""Gaussian summaries of feature matrices and distances between them.

A dataset snapshot is summarized as a multivariate Gaussian fitted by
maximum likelihood. Distribution shift between two snapshots is then the
squared 2-Wasserstein distance between the fitted Gaussians, which has the
closed form

    W2^2 = ||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2})

A Monte-Carlo Jensen-Shannon estimate is provided for comparison
experiments. All matrix roots use symmetric eigendecomposition.

The JS estimate has one kernel, which takes its standard normals and
their squared norms one block of rows at a time: ``js_divergence_mc``
draws each block from its generator, and ``_js_from_draws`` slices it
from draws made once, so that a sweep of estimates can share one set of
draws (common random numbers).

The snapshots of a growth plan are row prefixes of one another, so
``fit_prefixes`` fits all of them in one pass over the rows. Each new
block of rows b gets its own mean and centred scatter M2_b = c^T c, and
joins the running fit a by the pairwise update of Chan, Golub & LeVeque
(1979):

    n = n_a + n_b,  delta = mu_b - mu_a,  mu = mu_a + delta * n_b / n
    M2 = M2_a + M2_b + outer(delta, delta) * n_a * n_b / n

with cov = M2 / n. One block is the plain two-pass fit, so
``fit_gaussian`` is ``fit_prefixes`` with a single length. A block's mean
and scatter (``_block_stats``) need no other block, so a caller may
compute them anywhere, a thread pool included, as soon as the block's rows
exist; the merge (``_merged_fit``) then takes them in row order, which
gives the same bits whatever computed them.
"""

from __future__ import annotations

import operator
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
    "fit_prefixes",
    "sqrt_spd",
    "wasserstein2_gaussian",
    "js_divergence_mc",
]

# Relative eigenvalue floor below which a matrix is treated as not PD.
_PD_RTOL = 1e-14

# W2's trace term at or below this fraction of tr S1 + tr S2 is roundoff:
# the self-distance of fits with q = 1..128 leaves at most about 1.6e-14.
_W2_TRACE_RTOL = 1e-12

_LN2 = float(np.log(2.0))

# Floats in one block of standard normals that the JS kernel takes and
# pushes through at a time: 256 KiB, max(1, _JS_BLOCK_FLOATS // q) rows. A
# block this size keeps numpy's per-call cost small beside its work at any q.
_JS_BLOCK_FLOATS = 1 << 15


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
    """Write a 2-D feature matrix of at least one column as CSV, one sample per row."""
    np.savetxt(path, _checked_matrix(features), delimiter=",", fmt="%.17g")


def fit_gaussian(features: np.ndarray, ridge: float | None = None) -> GaussianSummary:
    """Maximum-likelihood Gaussian fit with ridge regularization.

    The covariance uses the 1/N normalization. ``ridge`` is added to the
    diagonal; by default it is relative, 1e-6 * tr(cov) / dim, which keeps
    downstream roots and inverses well conditioned without distorting the
    fit. Pass ``ridge=0.0`` for the raw estimate.

    Raises DegenerateInput for fewer than two rows and InvalidData for
    non-finite entries. This is ``fit_prefixes`` with the whole matrix as
    the one prefix.
    """
    x = np.asarray(features, dtype=float)
    return fit_prefixes(x, x.shape[:1], ridge)[0]


def fit_prefixes(
    features: np.ndarray, lengths, ridge: float | None = None
) -> list[GaussianSummary]:
    """``fit_gaussian`` of each row prefix ``features[:n]``, n in lengths, in one pass.

    Lengths must be non-decreasing; equal lengths share one summary. Each
    block of new rows is centred on its own mean and merged into the fit
    of the rows before it (module docstring), so every row is read once.
    ``ridge`` applies to each fit as in ``fit_gaussian``.

    Raises DegenerateInput when the first prefix has fewer than two rows,
    InvalidData for decreasing lengths, a negative ridge or non-finite
    entries in any fitted row, and DimensionMismatch for a length past the
    matrix's rows.
    """
    x = _checked_matrix(features)
    lengths = _checked_lengths(lengths, x.shape[0])
    if ridge is not None and ridge < 0:
        raise InvalidData(f"ridge must be nonnegative, got {ridge}")
    fits, state, n = [], None, 0
    for end in lengths:
        if end > n:
            state, fit = _merged_fit(state, end, _block_stats(x[n:end]), ridge)
        n = end
        fits.append(fit)
    return fits


def _checked_matrix(features) -> np.ndarray:
    """Features as a float array, checked to be 2-D with at least one column."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionMismatch(f"feature matrix must be 2-D, got shape {x.shape}")
    return x


def _checked_lengths(lengths, rows: int) -> list[int]:
    """Prefix lengths as ints, checked as ``fit_prefixes`` documents for a matrix of rows."""
    lengths = [operator.index(n) for n in lengths]
    if not lengths:
        raise InvalidData("need at least one prefix length")
    if lengths[0] < 2:
        raise DegenerateInput(f"need at least 2 samples to fit, got {lengths[0]}")
    if any(b < a for a, b in zip(lengths, lengths[1:])):
        raise InvalidData(f"prefix lengths must be non-decreasing: {lengths}")
    if lengths[-1] > rows:
        raise DimensionMismatch(f"prefix of {lengths[-1]} rows past the matrix's {rows}")
    return lengths


def _block_stats(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centred scatter c^T c of a non-empty block of rows.

    Raises InvalidData for non-finite entries.
    """
    if not np.all(np.isfinite(block)):
        raise InvalidData("non-finite values in feature matrix")
    mean = block.mean(axis=0)
    centered = block - mean
    return mean, centered.T @ centered


def _merged_fit(state, end: int, stats, ridge: float | None = None):
    """Merge the block of rows [n, end), with ``stats = _block_stats(block)``,
    into ``state = (n, mean, M2)`` of the rows before it (None before the
    first block). Returns the new state and the fit of rows [:end]."""
    block_mean, block_m2 = stats
    if state is None:
        mean, m2 = block_mean, block_m2
    else:
        n, mean, m2 = state
        delta = block_mean - mean
        mean = mean + delta * ((end - n) / end)
        m2 = m2 + block_m2 + np.outer(delta, delta) * (n * (end - n) / end)
    q = mean.size
    cov = m2 / end
    cov = (cov + cov.T) / 2.0
    step_ridge = 1e-6 * float(np.trace(cov)) / q if ridge is None else ridge
    fit = GaussianSummary(mean=mean, cov=cov + step_ridge * np.eye(q), n_samples=end)
    return (end, mean, m2), fit


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

    Nonnegative, symmetric, and zero for identical summaries. The trace
    term tr S1 + tr S2 - 2 tr(cross) is snapped to zero when its magnitude
    is at most _W2_TRACE_RTOL * (tr S1 + tr S2): below that it is roundoff
    of the matrix roots, not shift. The mean term is never snapped.
    """
    _check_same_dim(g1, g2)
    return _w2_given_root(g1, g2, sqrt_spd(g2.cov))


def _w2_given_root(g1: GaussianSummary, g2: GaussianSummary, root2: np.ndarray) -> float:
    """``wasserstein2_gaussian`` of two Gaussians of one dimension, given
    ``root2 = sqrt_spd(g2.cov)``, so that distances to one g2 share its root."""
    dmean = g1.mean - g2.mean
    inner = root2 @ g1.cov @ root2
    inner = (inner + inner.T) / 2.0
    cross = sqrt_spd(inner)
    trace_sum = np.trace(g1.cov) + np.trace(g2.cov)
    trace_term = float(trace_sum - 2.0 * np.trace(cross))
    if abs(trace_term) <= _W2_TRACE_RTOL * trace_sum:
        trace_term = 0.0
    return max(float(dmean @ dmean) + trace_term, 0.0)


def _chol(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"{what} is not positive definite") from exc


def _check_samples(n_samples: int) -> None:
    if n_samples < 1:
        raise InvalidData(f"n_samples must be positive, got {n_samples}")


def js_divergence_mc(
    g1: GaussianSummary,
    g2: GaussianSummary,
    n_samples: int = 20000,
    seed: int = 0,
) -> float:
    """Monte-Carlo Jensen-Shannon divergence estimate in bits.

    JS = 0.5 E_{x~g1}[log2 p1/m] + 0.5 E_{y~g2}[log2 p2/m] with mixture
    m = (p1 + p2) / 2. One set of standard-normal draws z is pushed through
    both Gaussians (mirrored sampling), which makes the estimate exactly
    symmetric in its arguments. The result is clamped to [0, 1].

    A draw x = mu_a + L_a z (L the Cholesky factor) is z itself in its own
    Gaussian's whitened coordinates and L_b^-1 (mu_a - mu_b) + (L_b^-1 L_a) z
    in the other's, so each log-density needs only that one product. The
    draws are taken in blocks of rows (_JS_BLOCK_FLOATS) from one generator,
    so memory does not grow with n_samples beyond one float per draw and
    direction; every row is computed as in one whole-array pass, with the
    same bits.
    """
    q = _check_same_dim(g1, g2)
    _check_samples(n_samples)
    rng = np.random.default_rng(seed)

    def draws(rows):
        z = rng.standard_normal((rows.stop - rows.start, q))
        return z, np.sum(z * z, axis=1)

    return _js_kernel(g1, g2, n_samples, draws)


def _js_from_draws(g1: GaussianSummary, g2: GaussianSummary, z: np.ndarray,
                   sq: np.ndarray) -> float:
    """``js_divergence_mc`` over the given standard normals z, (n_samples, q),
    with ``sq = np.sum(z * z, axis=1)``. For z drawn in one array from
    ``default_rng(seed)`` this is ``js_divergence_mc(g1, g2, n_samples, seed)``
    bit for bit, so estimates along a sweep can share one set of draws."""
    _check_same_dim(g1, g2)
    return _js_kernel(g1, g2, len(z), lambda rows: (z[rows], sq[rows]))


def _js_kernel(g1: GaussianSummary, g2: GaussianSummary, n_samples: int, draws) -> float:
    """The JS estimate over n_samples standard normals, taken in blocks of
    rows (_JS_BLOCK_FLOATS): ``draws(rows)`` gives the block of the row slice
    rows and its squared norms. Both covariances are factored first."""
    q = g1.dim
    l1 = _chol(g1.cov, "cov of first argument")
    l2 = _chol(g2.cov, "cov of second argument")
    log_2pi = q * np.log(2.0 * np.pi)
    # Per direction: 2 log det of the own and the other Cholesky factor, and
    # the offset and map that take a draw into the other Gaussian's whitened
    # coordinates.
    directions = [
        (2.0 * np.sum(np.log(np.diag(l_own))), 2.0 * np.sum(np.log(np.diag(l_other))),
         np.linalg.solve(l_other, own.mean - other.mean), np.linalg.solve(l_other, l_own).T)
        for own, l_own, other, l_other in ((g1, l1, g2, l2), (g2, l2, g1, l1))
    ]
    log_ratios = np.empty((2, n_samples))
    block = max(1, _JS_BLOCK_FLOATS // q)
    for start in range(0, n_samples, block):
        rows = slice(start, min(start + block, n_samples))
        z, maha_own = draws(rows)
        for out, (logdet_own, logdet_other, offset, to_other) in zip(log_ratios, directions):
            w = offset + z @ to_other
            lp_own = -0.5 * (maha_own + logdet_own + log_2pi)
            lp_other = -0.5 * (np.sum(w * w, axis=1) + logdet_other + log_2pi)
            out[rows] = lp_own - (np.logaddexp(lp_own, lp_other) - _LN2)

    term1, term2 = (float(np.mean(out)) / _LN2 for out in log_ratios)
    return float(np.clip(0.5 * (term1 + term2), 0.0, 1.0))
