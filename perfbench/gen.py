"""Seeded inputs and independent reference answers for the benchmark.

Everything here is the benchmark's own NumPy/SciPy code: it never imports
``delta_scope``, so a change to the program's generators, parser or solver
cannot change the workload or the reference it is checked against.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

EPS = np.finfo(np.float64).eps


def blobs(rng, n, d, *, separation, density=1.0, col_scale=None, flip=0.0):
    """Two-class Gaussian blobs as (CSR X, y in {-1,+1}).

    Values are rounded to 6 significant digits, so the libsvm text written
    by :func:`write_libsvm` parses back to exactly these floats. Every row
    keeps at least one nonzero and column ``d - 1`` is nonzero in row 0, so
    the file's inferred dimension is ``d``.
    """
    y = np.where(rng.permutation(n) < n // 2, -1.0, 1.0)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    blocks = []
    for lo in range(0, n, 2048):  # row blocks keep the dense scratch small
        hi = min(n, lo + 2048)
        B = rng.standard_normal((hi - lo, d)) + y[lo:hi, None] * (separation / 2.0) * u
        if col_scale is not None:
            B *= col_scale[None, :]
        if density < 1.0:
            mask = rng.random((hi - lo, d)) < density
            mask[np.arange(hi - lo), rng.integers(0, d, size=hi - lo)] = True
            if lo == 0:
                mask[0, d - 1] = True
            B = np.where(mask, B, 0.0)
        blocks.append(sp.csr_matrix(B))
    X = sp.vstack(blocks, format="csr")
    X.data = np.array([f"{v:.6g}" for v in X.data.tolist()], dtype=np.float64)
    X.eliminate_zeros()
    if flip > 0.0:
        y = np.where(rng.random(n) < flip, -y, y)
    return X, y


def write_libsvm(path, X, y) -> int:
    """Write (X, y) as libsvm text; returns the byte count."""
    X = sp.csr_matrix(X)
    X.sort_indices()
    toks = [f"{j + 1}:{v!r}" for j, v in zip(X.indices.tolist(), X.data.tolist())]
    ptr = X.indptr.tolist()
    lines = [
        ("+1 " if y[i] > 0 else "-1 ") + " ".join(toks[ptr[i]:ptr[i + 1]])
        for i in range(X.shape[0])
    ]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# reference solvers (independent of the program under test)


def _logistic_parts(z):
    """(loss, dloss/dz, d2loss/dz2) of log(1 + exp(-z)), overflow-safe."""
    e = np.exp(-np.abs(z))
    loss = np.log1p(e) + np.maximum(-z, 0.0)
    sig_neg = np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))  # sigmoid(-z)
    return loss, -sig_neg, sig_neg * (1.0 - sig_neg)


def logistic_gradient(X, y, w, lam, beta):
    """Gradient of sum_i w_i loss_i / sum(w) + lam/2 ||beta||^2."""
    z = y * (X @ beta)
    _, d1, _ = _logistic_parts(z)
    return X.T @ (w * y * d1) / w.sum() + lam * beta


def logistic_hessian(X, y, w, lam, beta):
    """Hessian of sum_i w_i loss_i / sum(w) + lam/2 ||beta||^2, dense."""
    _, _, d2 = _logistic_parts(y * (X @ beta))
    c = w * d2 / w.sum()
    if sp.issparse(X):
        H = (X.T @ X.multiply(c[:, None])).toarray()
    else:
        H = (X.T * c) @ X
    return H + lam * np.eye(X.shape[1])


def newton_logistic(X, y, w, lam, beta0, *, hessian=None, max_steps=50):
    """Weighted L2-logistic optimum by damped Newton from ``beta0``.

    A ``hessian`` from a nearby problem is first used as a fixed Newton
    matrix for as long as each step halves the gradient, which saves
    rebuilding it. Returns (beta, grad_norm). By lam-strong convexity the
    exact optimum lies within grad_norm / lam of beta, which callers use as
    their slack.
    """
    beta = np.array(beta0, dtype=np.float64)
    if hessian is not None:
        best, best_norm = beta, np.inf
        for _ in range(max_steps):
            g = logistic_gradient(X, y, w, lam, beta)
            gnorm = float(np.linalg.norm(g))
            if not gnorm < 0.5 * best_norm:
                break
            best, best_norm = beta, gnorm
            if gnorm <= 1e-13:
                break
            beta = beta - np.linalg.solve(hessian, g)
        beta = best
    W = w.sum()
    for _ in range(max_steps):
        z = y * (X @ beta)
        loss, d1, _ = _logistic_parts(z)
        g = X.T @ (w * y * d1) / W + lam * beta
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-13:
            break
        step = np.linalg.solve(logistic_hessian(X, y, w, lam, beta), g)
        f = float(w @ loss) / W + 0.5 * lam * float(beta @ beta)
        t = 1.0
        while t > 1e-8:
            cand = beta - t * step
            fc = float(w @ _logistic_parts(y * (X @ cand))[0]) / W
            fc += 0.5 * lam * float(cand @ cand)
            if fc <= f - 1e-4 * t * float(g @ step) or fc <= f:
                break
            t *= 0.5
        if not np.any(cand != beta):
            break
        beta = cand
    g = logistic_gradient(X, y, w, lam, beta)
    return beta, float(np.linalg.norm(g))


def exact_loo_margins(X, y, lam, beta_full, *, max_sweeps=60):
    """Held-out margins y_h * x_h . beta_h of L2-logistic LOO at ``lam``.

    All n fold problems are iterated together from the full optimum with a
    shared, fixed Newton matrix (the full-data Hessian), as dense products
    over an n x n score matrix. Iteration stops once every held-out margin
    is farther from 0 than its fold's strong-convexity radius
    ||x_h|| ||grad|| / lam, so each sign is certified for the exact fold
    optimum. Folds still uncertified then get their own damped Newton solve.
    Returns (margins, radii): the exact margin lies within radius of margin.
    """
    n = X.shape[0]
    Xd = X.toarray() if sp.issparse(X) else np.asarray(X)
    x_norm = np.linalg.norm(Xd, axis=1)
    diag = np.arange(n)
    P = logistic_hessian(Xd, y, np.ones(n), lam, beta_full)  # shared Newton matrix
    B = np.repeat(beta_full[:, None], n, axis=1)  # column h: fold h's iterate

    def state(B):
        S = Xd @ B  # S[i, h] = x_i . beta_h
        _, D1, _ = _logistic_parts(y[:, None] * S)
        M = y[:, None] * D1
        M[diag, diag] = 0.0  # fold h leaves out row h
        G = Xd.T @ M / (n - 1) + lam * B
        margin = y * S[diag, diag]
        radius = x_norm * np.linalg.norm(G, axis=0) / lam
        return G, margin, radius

    for _ in range(max_sweeps):
        G, margin, radius = state(B)
        if np.all(np.abs(margin) > radius) or radius.max() <= 1e-12:
            break
        B = B - np.linalg.solve(P, G)
    undecided = np.flatnonzero(np.abs(margin) <= radius)
    w = np.ones(n)
    for h in undecided:
        w[h] = 0.0
        beta, gnorm = newton_logistic(Xd, y, w, lam, B[:, h])
        w[h] = 1.0
        margin[h] = y[h] * float(Xd[h] @ beta)
        radius[h] = x_norm[h] * gnorm / lam
    return margin, radius


def l2_hinge_gradient_check(X, y, lam, beta):
    """(grad_norm, rounding_allowance) of mean sq-hinge + lam/2 ||beta||^2.

    The allowance is a forward-error bound for the sums the gradient is
    built from, so a program that stopped just under its tolerance is not
    failed for a different summation order.
    """
    n = X.shape[0]
    slack = np.maximum(1.0 - y * (X @ beta), 0.0)
    coef = -2.0 * y * slack
    g = X.T @ coef / n + lam * beta
    row_nnz = int(np.diff(X.indptr).max())
    k = row_nnz + n + 2
    mag = abs(X).T @ np.abs(coef) / n + lam * np.abs(beta)
    allowance = 4.0 * k * EPS * float(np.linalg.norm(mag))
    return float(np.linalg.norm(g)), allowance


def certain_sign_violations(scores, slack_norms, decisions):
    """Indices whose certified decision contradicts a reference score.

    ``decisions`` holds +1, -1 or 0 (undecided); a contradiction needs the
    reference score to be on the other side of 0 by more than its slack.
    """
    bad_plus = (decisions > 0) & (scores < -slack_norms)
    bad_minus = (decisions < 0) & (scores > slack_norms)
    return np.flatnonzero(bad_plus | bad_minus)
