import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssaforecast import ssa
from ssaforecast.benchmark import two_sine_benchmark
from ssaforecast.errors import (
    BadComponentCount,
    ConvergenceFailure,
    DimensionMismatch,
    WindowTooLarge,
)
from ssaforecast.rng import SplitMix64
from ssaforecast.series import standardize
from ssaforecast.ssa import (
    _averaging_weights,
    _fix_signs,
    _reconstruct_all,
    decompose,
    eigendecompose,
    lag_correlation,
    partial_reconstruction,
    principal_components,
    singular_spectrum_rows,
)

from naive_ssa import naive_matrix, naive_pipeline, naive_rc

SQ2 = math.sqrt(2.0)


def ar1(n, phi, seed):
    eps = SplitMix64(seed).normals(n)
    x = np.empty(n)
    x[0] = eps[0]
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    return x


# -- lag_correlation ---------------------------------------------------------

def test_lag_correlation_hand_values():
    lags = lag_correlation(np.array([1.0, -1.0, 1.0, -1.0]), 2)
    assert lags[0] == pytest.approx(1.0)
    assert lags[1] == pytest.approx(-1.0)


def test_zero_lag_is_one_after_standardization():
    x = standardize(ar1(300, 0.7, seed=4)).values
    lags = lag_correlation(x, 20)
    assert lags[0] == pytest.approx(1.0, abs=1e-10)


def test_white_noise_lags_bounded():
    n = 10000
    bound = 4.0 / math.sqrt(n)
    for seed in range(20):
        x = standardize(SplitMix64(seed).normals(n)).values
        lags = lag_correlation(x, 35)
        assert np.max(np.abs(lags[1:])) < bound


def test_window_too_large():
    with pytest.raises(WindowTooLarge):
        lag_correlation(np.arange(10.0), 6)


def test_wide_window_warns():
    x = standardize(ar1(100, 0.5, seed=1)).values
    with pytest.warns(UserWarning, match="exceeds a third"):
        lag_correlation(x, 40)


def test_toeplitz_matrix_symmetry():
    # eigendecompose diagonalizes the symmetric matrix with c_|j-k| at (j, k)
    lags = np.array([1.0, 0.4, -0.2])
    vals, vecs = eigendecompose(lags)
    c = naive_matrix(lags)
    np.testing.assert_array_equal(c, c.T)
    assert c[0, 2] == -0.2 and c[1, 2] == 0.4
    np.testing.assert_allclose(vecs.T @ c @ vecs, np.diag(vals), atol=1e-12)


@pytest.mark.parametrize("lags, message", [
    (np.array([]), "non-empty"),
    (np.ones((2, 2)), "non-empty"),
    (np.array([1.0, np.inf]), "finite"),
    (np.array([1.0, np.nan]), "finite"),
    (np.array([0.0, 0.5]), "zero-lag correlation must be positive"),
    (np.array([-1.0]), "zero-lag correlation must be positive"),
])
def test_eigendecompose_rejects_bad_lags(lags, message):
    with pytest.raises(ValueError, match=message):
        eigendecompose(lags)


# -- eigendecompose ----------------------------------------------------------

def test_identity_matrix():
    vals, e = eigendecompose(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(e.T @ e, np.eye(3), atol=1e-12)


def test_two_by_two_closed_form():
    vals, vecs = eigendecompose(np.array([1.0, 0.5]))
    np.testing.assert_allclose(vals, [1.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(vecs[:, 0], [1 / SQ2, 1 / SQ2], atol=1e-12)
    np.testing.assert_allclose(vecs[:, 1], [1 / SQ2, -1 / SQ2], atol=1e-12)


def _power_iteration_eigh(c, iters=200000, tol=1e-12):
    """Brute-force oracle: dominant eigenpair by power iteration, then
    deflation; no shared code with LAPACK."""
    m = c.shape[0]
    work = c.copy()
    vals, vecs = [], []
    rng = SplitMix64(99)
    # shift so the dominant-by-magnitude eigenvalue of `work` is the largest
    # algebraic one of c at every deflation step
    shift = float(np.sum(np.abs(c)))
    work = work + shift * np.eye(m)
    for _ in range(m):
        v = rng.normals(m)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = work @ v
            norm = np.linalg.norm(w)
            v_next = w / norm
            lam_next = float(v_next @ work @ v_next)
            if np.linalg.norm(work @ v_next - lam_next * v_next) < tol * max(1.0, abs(lam_next)):
                v, lam = v_next, lam_next
                break
            v, lam = v_next, lam_next
        vals.append(lam - shift)
        vecs.append(v)
        work = work - lam * np.outer(v, v)
    vals = np.array(vals)
    vecs = np.column_stack(vecs)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def test_random_toeplitz_vs_power_iteration_oracle():
    rng = SplitMix64(12)
    lags = np.concatenate([[1.0], rng.uniforms(7, -0.3, 0.3)])
    vals, vecs = eigendecompose(lags)
    c = naive_matrix(lags)
    diag = vecs.T @ c @ vecs
    np.testing.assert_allclose(diag, np.diag(vals), atol=1e-9)
    oracle_vals, oracle_vecs = _power_iteration_eigh(c)
    np.testing.assert_allclose(vals, oracle_vals, atol=1e-8)
    for k in range(8):
        # vectors agree up to sign
        assert abs(abs(vecs[:, k] @ oracle_vecs[:, k]) - 1.0) < 1e-7


def test_eigendecompose_matches_lapack_large():
    x = standardize(ar1(400, 0.6, seed=8)).values
    lags = lag_correlation(x, 100)
    vals, vecs = eigendecompose(lags)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(100))) < 1e-10
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals.sum() == pytest.approx(np.trace(naive_matrix(lags)), rel=1e-10)


def sign_entry(col):
    """The entry _fix_signs makes positive: the first within a relative
    1e-8 of the largest magnitude."""
    mags = np.abs(col)
    return col[np.flatnonzero(mags >= (1.0 - 1e-8) * mags.max())[0]]


def test_sign_convention():
    x = standardize(ar1(200, 0.9, seed=3)).values
    _, vecs = eigendecompose(lag_correlation(x, 12))
    for k in range(12):
        assert sign_entry(vecs[:, k]) > 0


def test_sign_ignores_last_ulp_ties():
    # symmetric and antisymmetric columns attain their largest magnitude at
    # both ends; a one-ulp nudge to either end must not move the sign entry
    x = standardize(ar1(300, 0.8, seed=11)).values
    _, vectors = eigendecompose(lag_correlation(x, 9))
    assert np.allclose(np.abs(vectors), np.abs(vectors[::-1]), atol=1e-12)
    ends = (0, vectors.shape[0] - 1)
    tied = [k for k in range(9) if np.argmax(np.abs(vectors[:, k])) in ends]
    assert tied
    want = _fix_signs(vectors)
    for k in tied:
        for row in ends:
            for direction in (-np.inf, np.inf):
                nudged = vectors.copy()
                nudged[row, k] = np.nextafter(nudged[row, k], direction)
                got = _fix_signs(nudged)[:, k]
                assert np.sign(got[0]) == np.sign(want[0, k]) > 0
                np.testing.assert_array_equal(np.sign(got), np.sign(want[:, k]))


def test_eigenvalue_sum_is_window_for_standardized_input():
    x = standardize(ar1(500, 0.5, seed=6)).values
    vals, _ = eigendecompose(lag_correlation(x, 24))
    assert vals.sum() == pytest.approx(24.0, abs=1e-8)


# -- principal_components ----------------------------------------------------

def test_pcs_shifted_copies_for_identity_basis():
    x = standardize(ar1(60, 0.4, seed=7)).values
    _, vecs = eigendecompose(np.array([1.0, 0.0, 0.0, 0.0]))
    pcs = principal_components(x, vecs)
    for k in range(4):
        np.testing.assert_allclose(pcs[:, k], x[k : k + 57], atol=1e-12)


def test_pcs_hand_example():
    vecs = np.column_stack([[1 / SQ2, 1 / SQ2], [1 / SQ2, -1 / SQ2]])
    pcs = principal_components(np.array([1.0, 2.0, 3.0, 4.0]), vecs)
    np.testing.assert_allclose(pcs[:, 0], [3 / SQ2, 5 / SQ2, 7 / SQ2], atol=1e-12)


def test_pc_variance_tracks_eigenvalue():
    x = standardize(ar1(20000, 0.8, seed=0)).values
    dec = decompose(x, 10)
    variances = np.var(principal_components(x, dec.eigenvectors), axis=0)
    for k in range(3):
        assert variances[k] == pytest.approx(dec.eigenvalues[k], rel=0.10)


def test_pcs_dimension_mismatch():
    _, vecs = eigendecompose(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        principal_components(np.array([1.0, 2.0]), vecs)


# -- reconstruction / completeness --------------------------------------------

def test_window_one_degenerate():
    x = standardize(ar1(50, 0.3, seed=9)).values
    dec = decompose(x, 1)
    np.testing.assert_allclose(dec.rcs[:, 0], x, atol=1e-12)
    assert dec.eigenvectors[0, 0] == 1.0


def test_reconstruction_hand_example():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    e1 = np.array([1 / SQ2, 1 / SQ2])
    e2 = np.array([1 / SQ2, -1 / SQ2])
    vecs = np.column_stack([e1, e2])
    pcs = principal_components(x, vecs)
    rcs = np.empty((4, 2))
    _reconstruct_all(pcs, vecs, rcs)
    np.testing.assert_allclose(rcs[:, 0], [1.5, 2.0, 3.0, 3.5], atol=1e-12)
    np.testing.assert_allclose(rcs[:, 0], naive_rc(pcs[:, 0], e1, 4, 2), atol=1e-12)
    np.testing.assert_allclose(rcs[:, 1], naive_rc(pcs[:, 1], e2, 4, 2), atol=1e-12)
    np.testing.assert_allclose(rcs.sum(axis=1), x, atol=1e-10)


def one_shot_reconstruction(pcs, eigvecs, n):
    """Every component through one FFT along axis 0: the reconstruction
    before it ran in blocks of columns, kept as the bitwise reference."""
    size = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(pcs, size, axis=0) * np.fft.rfft(eigvecs, size, axis=0)
    out = np.fft.irfft(spec, size, axis=0)[:n]
    return out / _averaging_weights(n, eigvecs.shape[0])[:, None]


@pytest.mark.parametrize("window", [1, 2, 15, 16, 17, 32, 33, 65])
def test_blocked_reconstruction_is_bitwise_the_one_shot_formula(window):
    # windows on both sides of whole RECONSTRUCT_BLOCK multiples
    x = standardize(ar1(300, 0.8, seed=window)).values
    dec = decompose(x, window)
    pcs = principal_components(x, dec.eigenvectors)
    want = one_shot_reconstruction(pcs, dec.eigenvectors, x.size)
    assert np.array_equal(dec.rcs, want)
    assert dec.completeness_error == float(np.max(np.abs(want.sum(axis=1) - x)))


def test_components_table_holds_series_and_rcs():
    x = standardize(ar1(120, 0.5, seed=3)).values
    dec = decompose(x, 20)
    assert dec.components.shape == (120, 21) and dec.rcs.shape == (120, 20)
    assert np.shares_memory(dec.rcs, dec.components)
    assert np.array_equal(dec.components[:, 0], x)


def test_decompose_memory_peak_is_table_and_pcs():
    # the reconstruction's transient is a few (RECONSTRUCT_BLOCK, 2N)
    # arrays, not (N, M) ones
    x = two_sine_benchmark(4000, 1)
    n, window = x.size, 256
    table_bytes = n * (window + 1) * 8
    pcs_bytes = (n - window + 1) * window * 8
    tracemalloc.start()
    try:
        decompose(x, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table_bytes + pcs_bytes + 4 * 2**20


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=10, max_value=80),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32),
)
def test_completeness_property(n, window, seed):
    if window > n // 2:
        window = max(1, n // 2)
    x = standardize(SplitMix64(seed).normals(n)).values
    dec = decompose(x, window)
    total = dec.rcs.sum(axis=1)
    assert np.max(np.abs(total - x)) < 1e-8
    assert dec.completeness_error == np.max(np.abs(total - x))
    assert principal_components(x, dec.eigenvectors).shape == (n - window + 1, window)


@pytest.mark.parametrize("n, window", [(400, 80), (120, 35), (37, 5)])
def test_reconstruction_matches_naive_diagonal_averaging(n, window):
    x = standardize(ar1(n, 0.7, seed=5)).values
    dec = decompose(x, window)
    pcs = principal_components(x, dec.eigenvectors)
    for k in (0, window // 2, window - 1):
        want = naive_rc(pcs[:, k], dec.eigenvectors[:, k], n, window)
        np.testing.assert_allclose(dec.rcs[:, k], want, atol=1e-12)


# -- partial_reconstruction ----------------------------------------------------

def test_full_reconstruction_is_series():
    x = standardize(ar1(300, 0.85, seed=2)).values
    dec = decompose(x, 30)
    np.testing.assert_allclose(partial_reconstruction(dec, 30), x, atol=1e-8)


def test_sinusoid_pair_captures_variance():
    t = np.arange(600.0)
    x = standardize(np.sin(2 * math.pi * t / 12.0 + 0.4)).values
    dec = decompose(x, 24)
    pair = partial_reconstruction(dec, 2)
    assert np.var(pair) / np.var(x) >= 0.95


def test_telescoping_difference():
    x = standardize(ar1(200, 0.6, seed=13)).values
    dec = decompose(x, 10)
    diff = partial_reconstruction(dec, 3) - partial_reconstruction(dec, 2)
    # equal up to the roundoff of two independent partial sums
    np.testing.assert_allclose(diff, dec.rcs[:, 2], atol=1e-14)


def test_partial_reconstruction_bounds():
    x = standardize(ar1(100, 0.4, seed=14)).values
    dec = decompose(x, 8)
    for bad in (0, 9, -1):
        with pytest.raises(BadComponentCount):
            partial_reconstruction(dec, bad)


def test_partial_variance_monotone_in_p():
    x = standardize(ar1(800, 0.6, seed=102)).values
    dec = decompose(x, 16)
    variances = [np.var(partial_reconstruction(dec, p)) for p in range(1, 17)]
    assert np.all(np.diff(variances) >= -1e-10)


# -- singular_spectrum_rows -------------------------------------------------------

def test_spectrum_rows_powers_of_ten():
    vals = np.array([100.0, 1.0, 0.01])
    assert list(singular_spectrum_rows(vals)) == [(1, 2.0, False), (2, 0.0, False), (3, -2.0, False)]


def test_spectrum_rows_rank_increasing():
    x = standardize(ar1(200, 0.5, seed=21)).values
    vals, _ = eigendecompose(lag_correlation(x, 10))
    rows = list(singular_spectrum_rows(vals))
    assert [r[0] for r in rows] == list(range(1, 11))
    assert all(a[1] >= b[1] for a, b in zip(rows, rows[1:]))


def test_spectrum_rows_clamp_zero():
    rank, value, clamped = list(singular_spectrum_rows(np.array([1.0, 0.0])))[1]
    assert clamped is True and value == -15.0


# -- oracle equivalence ---------------------------------------------------------

def assert_pipeline_matches_oracle(x, window, atol=1e-10):
    """Shared assertion: every pipeline output against the naive loops.

    Eigenvector sign is not pipeline-observable (reconstructed components are
    invariant under column flips), so columns are sign-aligned before
    comparison; everything else is compared directly.
    """
    dec = decompose(x, window)
    lags, vals, vecs, pcs, rcs = naive_pipeline(x, window)
    np.testing.assert_allclose(dec.lags, lags, atol=atol)
    np.testing.assert_allclose(dec.eigenvalues, vals, atol=atol)
    signs = np.sign(np.sum(dec.eigenvectors * vecs, axis=0))
    np.testing.assert_allclose(dec.eigenvectors, vecs * signs, atol=atol)
    np.testing.assert_allclose(principal_components(x, dec.eigenvectors), pcs * signs, atol=atol)
    np.testing.assert_allclose(dec.rcs, rcs, atol=atol)
    for p in range(1, window + 1):
        np.testing.assert_allclose(
            partial_reconstruction(dec, p), rcs[:, :p].sum(axis=1), atol=atol
        )


def test_pipeline_matches_naive_oracle():
    rng = SplitMix64(77)
    for case in range(6):
        n = 12 + int(rng.below(29))  # 12..40
        window = 1 + int(rng.below(min(6, n // 2)))
        x = standardize(rng.normals(n)).values
        assert_pipeline_matches_oracle(x, window)


# -- health checks ---------------------------------------------------------------

def scale_one_column(vals, vecs):
    vecs = vecs.copy()
    vecs[:, 1] *= 1.0 + 1e-8
    return vals, vecs


@pytest.mark.parametrize("change, message", [
    (scale_one_column, "eigenvectors not orthonormal"),
    (lambda vals, vecs: (vals + 1e-6, vecs), "eigenpair residual too large"),
    # inside the residual bound, but added 35 times over in the sum
    (lambda vals, vecs: (vals + 0.95e-9 * np.max(np.abs(vals)), vecs),
     "eigenvalue sum deviates from trace"),
], ids=["orthonormality", "residual", "trace"])
def test_eigendecompose_check_raises(monkeypatch, change, message):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda c: change(*eigh(c)))
    with pytest.raises(ConvergenceFailure, match=message):
        decompose(two_sine_benchmark(600, 0), 35)


def test_completeness_check_raises(monkeypatch):
    def one_cell_off(pcs, eigvecs, out):
        _reconstruct_all(pcs, eigvecs, out)
        out[300, 0] += 1e-6

    monkeypatch.setattr(ssa, "_reconstruct_all", one_cell_off)
    with pytest.raises(ConvergenceFailure, match="component sum fails to reproduce the series"):
        decompose(two_sine_benchmark(600, 0), 35)
