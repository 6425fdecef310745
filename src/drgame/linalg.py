"""Symmetric positive definite matrix square root through the power series
of sqrt(1 - x).

The input is normalised by its Frobenius norm so the spectrum lands in
(0, 1], where the series

    sqrt(G) = I + sum_j c_j (I - G)^j,   c_j = -(1*3*...*(2j-3)) / (2^j j!)

converges; the result is rescaled by the square root of the norm.  The
empty product makes c_1 = -1/2.  Convergence is geometric with rate
1 - lambda_min(G / ||G||_F), so badly conditioned inputs need many terms:
the default budget of 5000 covers condition numbers into the hundreds for
small dimensions, and running out of budget raises with the residual
instead of returning a silently inaccurate root.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SpdError", "check_spd", "sqrt_coefficient", "spd_sqrt_series",
           "random_spd"]


class SpdError(ValueError):
    """Input is not symmetric positive definite."""


def check_spd(mat) -> np.ndarray:
    """Validate symmetry (to 1e-12 * max(1, max|m|)) and positive definiteness.

    Definiteness is established by attempting a Cholesky factorisation of
    the symmetrised matrix, which succeeds exactly for positive definite
    inputs.  Returns the symmetrised array.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpdError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SpdError("matrix contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise SpdError("matrix is not symmetric to the required tolerance")
    sym = 0.5 * (m + m.T)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise SpdError("matrix is not positive definite "
                       "(Cholesky factorisation failed)") from None
    return sym


def sqrt_coefficient(j: int) -> float:
    """j-th coefficient of the Maclaurin series of sqrt(1 - x), j >= 1."""
    if j < 1:
        raise ValueError("coefficient index must be >= 1")
    c = -0.5
    for m in range(1, j):
        c *= (2 * m - 1) / (2.0 * (m + 1))
    return c


def _stops(term, sq, tol: float) -> np.ndarray:
    """``np.linalg.norm(term[i]) < tol`` from the sums of squares ``sq``, which
    any summation order gets within 1e-15: norms near ``tol`` are redone."""
    nrm = np.sqrt(sq)
    stop = nrm < tol
    for i in np.flatnonzero(np.abs(nrm - tol) <= 1e-8 * tol):
        stop[i] = np.linalg.norm(term[i]) < tol
    return stop


def spd_sqrt_series(gamma_mat, n_terms: int = 5000, tol: float = 1e-14) -> np.ndarray:
    """Series square root: returns symmetric positive definite r with r @ r
    close to the input.

    The iteration stops once the Frobenius norm of the added term drops
    below ``tol`` (on the normalised matrix); exhausting ``n_terms`` first
    raises :class:`SpdError` with the residual achieved, which happens when
    the normalised spectrum touches zero.  A stack (n, d, d) of matrices
    advances one stacked product per term, each stopping where it would stop
    alone, so each root has the bits of its own call.
    """
    a = np.asarray(gamma_mat, dtype=float)
    g = np.array([check_spd(m) for m in (a if a.ndim == 3 else [a])])
    g = g.reshape((-1,) + a.shape[-2:])
    n, d = g.shape[:2]
    nrm = np.array([np.linalg.norm(m) for m in g]).reshape(n, 1, 1)
    g_hat = g / nrm
    q = np.tile(np.eye(d), (n, 1, 1))
    # working stack: indices, partial sums, powers, I - g_hat and which go on
    # (a stopped sum is final in q); it is cut to the members going on once
    # they are at most half, so it is copied O(log n) times, not per stop
    active, q_act, power, m_act = np.arange(n), q.copy(), q.copy(), np.eye(d) - g_hat
    going, n_going = np.ones(n, dtype=bool), n
    near = (tol * (1.0 + 1e-8)) ** 2  # no sum of squares at or above this stops
    c = 1.0
    for j in range(1, n_terms + 1):
        if not len(active):
            break
        c = -0.5 if j == 1 else c * ((2 * (j - 1) - 1) / (2.0 * j))
        power = power @ m_act
        term = c * power
        q_act += term
        flat = term.reshape(len(active), 1, d * d)
        sq = (flat @ flat.reshape(len(active), d * d, 1)).ravel()
        if len(active) > n_going:
            sq[~going] = np.inf
        if min(sq.tolist()) < near:
            stop = _stops(term, sq, tol)
            q[active[stop]] = q_act[stop]
            going &= ~stop
            n_going = int(going.sum())
            if 2 * n_going <= len(going):
                active, q_act, power, m_act, going = (
                    v[going] for v in (active, q_act, power, m_act, going))
    active, q_act = active[going], q_act[going]
    if len(active):
        i = int(active[0])
        resid = float(np.linalg.norm(q_act[0] @ q_act[0] - g_hat[i]))
        where = f" (matrix {i} of the stack)" if a.ndim == 3 else ""
        raise SpdError(f"series did not converge within {n_terms} terms (normalised "
                       f"residual {resid:.3e}){where}; the spectrum is too close to zero "
                       "for this budget")
    r = q * np.sqrt(nrm)
    return np.array([check_spd(m) for m in 0.5 * (r + r.transpose(0, 2, 1))]).reshape(a.shape)


def random_spd(rng, d: int, cond: float, scale: float = 1.0) -> np.ndarray:
    """Random SPD matrix with the prescribed condition number.

    Eigenvalues are log-spaced between scale/cond and scale and rotated by
    a Haar-ish orthogonal matrix drawn from ``rng``.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    eigs = np.logspace(np.log10(scale / cond), np.log10(scale), d)
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)
