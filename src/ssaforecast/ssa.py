"""Spectral decomposition of a standardized series via the lagged-correlation
eigenproblem, and reassembly of filtered versions.

Index conventions (0-based arrays, series x[0..N-1], window size M):

* lag correlations   c[j] = sum(x[i] * x[i+j] for i in 0..N-j-1) / (N - j)
* principal comps    a[i, k] = dot(x[i:i+M], E[:, k]),  i = 0..N-M
* reconstructed comp rc[t, k] = conv_full(a[:, k], E[:, k])[t] / w[t]
  with w[t] = min(t+1, M, N-t): full-width averaging (1/M) in the interior,
  truncated sums with matching normalization near both edges, which is the
  unique choice making sum-of-all-components reproduce the series exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadComponentCount,
    BadDimensions,
    ConvergenceFailure,
    DimensionMismatch,
    WindowTooLarge,
)
from .series import _as_values

ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
TRACE_RTOL = 1e-8
COMPLETENESS_TOL = 1e-8
LOG_EIGENVALUE_FLOOR = 1e-15
SIGN_TIE_RTOL = 1e-8
# components reconstructed per FFT batch: the transient is a few arrays of
# RECONSTRUCT_BLOCK rows of the FFT length, however wide the window
RECONSTRUCT_BLOCK = 16


@dataclass(frozen=True)
class Decomposition:
    """One decomposition of a series: the lag correlations c_0..c_{M-1}, the
    eigenvalues in descending order with the matching orthonormal
    eigenvector columns, and the components table: the series in column 0,
    then the reconstructed components (rcs, a view of columns 1..M)."""

    lags: np.ndarray  # (M,)
    eigenvalues: np.ndarray  # (M,)
    eigenvectors: np.ndarray  # (M, M), column k pairs with eigenvalues[k]
    components: np.ndarray  # (N, M + 1): series, rc_1 .. rc_M
    completeness_error: float  # max |sum_k rc_k - series|

    @property
    def rcs(self) -> np.ndarray:
        """(N, M) reconstructed components, a view of the table."""
        return self.components[:, 1:]


def check_window_size(window: int, n: int) -> None:
    """Reject a window below 1 or wider than half of an n-sample series."""
    if window < 1:
        raise BadDimensions(f"window must be at least 1, got {window}")
    if window > n // 2:
        raise WindowTooLarge(f"window {window} exceeds half the series length {n}")


def lag_correlation(series, window: int) -> np.ndarray:
    """Lagged correlations of a standardized series (c_0 = 1 by construction)."""
    x = _as_values(series)
    n = x.size
    check_window_size(window, n)
    if window > n // 3:
        warnings.warn(
            f"window {window} exceeds a third of the series length {n}; "
            "lag estimates will be noisy",
            stacklevel=2,
        )
    lags = np.empty(window)
    for j in range(window):
        lags[j] = np.dot(x[: n - j], x[j:]) / (n - j)
    return lags


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its sign entry is positive: the first entry whose
    magnitude is within a relative SIGN_TIE_RTOL of the column's largest.

    Toeplitz eigenvectors are symmetric or antisymmetric, so the largest
    magnitude is often attained twice, exactly; the tolerance keeps
    last-ulp rounding from deciding which of the two sets the sign."""
    mags = np.abs(vectors)
    near_max = mags >= (1.0 - SIGN_TIE_RTOL) * mags.max(axis=0)
    lead = np.argmax(near_max, axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors * signs


def eigendecompose(lags) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the Toeplitz matrix with c_|j-k| at
    (j, k): eigenvalues sorted descending (stable on ties), orthonormal
    sign-normalized eigenvector columns."""
    lags = np.asarray(lags, dtype=np.float64)
    if lags.ndim != 1 or lags.size < 1:
        raise ValueError("lags must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(lags)):
        raise ValueError("lags must be finite")
    if lags[0] <= 0.0:
        raise ValueError("zero-lag correlation must be positive")
    m = lags.size
    c = lags[np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])]
    eigvals, eigvecs = np.linalg.eigh(c)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = _fix_signs(eigvecs[:, order])

    gram_err = np.max(np.abs(eigvecs.T @ eigvecs - np.eye(m)))
    if gram_err > ORTHONORMALITY_TOL:
        raise ConvergenceFailure(f"eigenvectors not orthonormal (error {gram_err:.3e})")
    residual = np.max(np.abs(c @ eigvecs - eigvecs * eigvals[None, :]))
    if residual > RESIDUAL_TOL * max(1.0, abs(eigvals[0])):
        raise ConvergenceFailure(f"eigenpair residual too large ({residual:.3e})")
    trace_err = abs(eigvals.sum() - np.trace(c))
    if trace_err > TRACE_RTOL * max(1.0, abs(np.trace(c))):
        raise ConvergenceFailure(f"eigenvalue sum deviates from trace by {trace_err:.3e}")
    return eigvals, eigvecs


def principal_components(series, eigenvectors: np.ndarray) -> np.ndarray:
    """Project every length-M window onto the (M, M) eigenbasis.

    Returns an (N - M + 1, M) matrix; column k is the k-th principal
    component series.
    """
    x = _as_values(series)
    m = eigenvectors.shape[0]
    if x.size < m:
        raise DimensionMismatch(f"series length {x.size} shorter than window {m}")
    windows = np.lib.stride_tricks.sliding_window_view(x, m)
    return windows @ eigenvectors


def _averaging_weights(n: int, window: int) -> np.ndarray:
    """Number of retained terms at each series position: min(t+1, M, N-t)."""
    t = np.arange(n)
    return np.minimum(np.minimum(t + 1, window), n - t).astype(np.float64)


def _reconstruct_all(pcs: np.ndarray, eigvecs: np.ndarray, out: np.ndarray) -> None:
    """Fill the (N, M) `out` with every reconstructed component: the full
    convolution of each pcs column with its eigvecs column (length N),
    through an FFT of a power-of-two length, divided by the averaging
    weights.  RECONSTRUCT_BLOCK columns at a time, each held as a contiguous
    row, so the transforms run along the last axis."""
    n, window = out.shape
    size = 1 << (n - 1).bit_length()
    weights = _averaging_weights(n, window)
    for start in range(0, window, RECONSTRUCT_BLOCK):
        cols = slice(start, start + RECONSTRUCT_BLOCK)
        spec = np.fft.rfft(np.ascontiguousarray(pcs[:, cols].T), size)
        spec *= np.fft.rfft(np.ascontiguousarray(eigvecs[:, cols].T), size)
        block = np.fft.irfft(spec, size)[:, :n]
        block /= weights
        out[:, cols] = block.T


def decompose(series, window: int) -> Decomposition:
    """Full pipeline: lag correlations, eigenbasis, principal and
    reconstructed components, with the completeness identity checked."""
    x = _as_values(series)
    lags = lag_correlation(x, window)
    eigenvalues, eigenvectors = eigendecompose(lags)
    pcs = principal_components(x, eigenvectors)
    table = np.empty((x.size, window + 1))
    table[:, 0] = x
    _reconstruct_all(pcs, eigenvectors, table[:, 1:])
    err = float(np.max(np.abs(table[:, 1:].sum(axis=1) - x)))
    if err > COMPLETENESS_TOL:
        raise ConvergenceFailure(f"component sum fails to reproduce the series (error {err:.3e})")
    return Decomposition(lags, eigenvalues, eigenvectors, table, err)


def partial_reconstruction(dec: Decomposition, count: int) -> np.ndarray:
    """Sum of the first `count` reconstructed components (eigenvalue order)."""
    window = dec.rcs.shape[1]
    if not 1 <= count <= window:
        raise BadComponentCount(f"component count must lie in [1, {window}], got {count}")
    return dec.rcs[:, :count].sum(axis=1)


def singular_spectrum_rows(eigenvalues):
    """(rank, log10 eigenvalue, clamped) per eigenvalue, rank 1-based in
    descending order; non-positive (or sub-floor) eigenvalues are clamped to
    1e-15 and flagged."""
    for rank, lam in enumerate(eigenvalues, start=1):
        yield rank, math.log10(max(lam, LOG_EIGENVALUE_FLOOR)), bool(lam < LOG_EIGENVALUE_FLOOR)
