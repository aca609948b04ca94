"""Independent straight-loop reference for the decomposition pipeline.

Deliberately naive: explicit index-by-index sums transcribing the defining
formulas (1-based indices shifted to 0-based arrays).  Its eigen-backend,
numpy.linalg.eigh, is also the one ssaforecast.ssa uses; the eigenpairs are
checked independently by the power-iteration oracle in test_ssa.py and the
spectral identities of acceptance criterion 2.
"""

import numpy as np


def naive_lag_correlation(x, window):
    n = len(x)
    lags = []
    for j in range(window):
        acc = 0.0
        for i in range(n - j):
            acc += x[i] * x[i + j]
        lags.append(acc / (n - j))
    return np.array(lags)


def naive_matrix(lags):
    m = len(lags)
    c = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            c[i, j] = lags[abs(i - j)]
    return c


def naive_eigh(c):
    """Descending eigenvalues, sign fixed so the first largest-magnitude
    entry of each vector is positive."""
    vals, vecs = np.linalg.eigh(c)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(vecs.shape[1]):
        lead = int(np.argmax(np.abs(vecs[:, k])))
        if vecs[lead, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return vals, vecs


def naive_pcs(x, vecs, window):
    n = len(x)
    out = np.empty((n - window + 1, window))
    for k in range(window):
        for i in range(n - window + 1):
            acc = 0.0
            for j in range(1, window + 1):
                # a_i^k = sum_j x_{i+j} E_j^k with 1-based x_1..x_N
                acc += x[i + j - 1] * vecs[j - 1, k]
            out[i, k] = acc
    return out


def naive_rc(pc, vec, n, window):
    """Three-branch diagonal averaging: head 1<=i<=M-1 uses 1/i over
    j=1..i, interior M<=i<=N-M+1 uses 1/M over j=1..M, tail N-M+2<=i<=N
    uses 1/(N-i+1) over j=i-N+M..M (all indices 1-based)."""
    out = np.empty(n)
    for i in range(1, n + 1):
        if i <= window - 1:
            j_lo, j_hi, norm = 1, i, i
        elif i <= n - window + 1:
            j_lo, j_hi, norm = 1, window, window
        else:
            j_lo, j_hi, norm = i - n + window, window, n - i + 1
        acc = 0.0
        for j in range(j_lo, j_hi + 1):
            acc += pc[i - j] * vec[j - 1]
        out[i - 1] = acc / norm
    return out


def naive_pipeline(x, window):
    """lags, eigenvalues, eigenvectors, pcs (columns), rcs (columns)."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    lags = naive_lag_correlation(x, window)
    vals, vecs = naive_eigh(naive_matrix(lags))
    pcs = naive_pcs(x, vecs, window)
    rcs = np.column_stack(
        [naive_rc(pcs[:, k], vecs[:, k], n, window) for k in range(window)]
    )
    return lags, vals, vecs, pcs, rcs
