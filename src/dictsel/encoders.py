"""Sparse coding within a fixed dictionary.

Orthogonal matching pursuit is the evaluation encoder.  ``omp_codes``
encodes all columns of a data matrix at once in one batched Gram state
over the dictionary (``linalg.GramFit``): each step adds, at every point
still growing, the atom most correlated with its residual, and refits
those points with ``linalg.gram_update``, one batched solve per support
size; the residuals come from one product with the code matrix.
``omp_encode`` is its one-point call.  Utilities expose the squared-l2
objective that the selectors maximize:

    u(y, x) = 0.5*||y||^2 - 0.5*||y - x||^2

so that f(Z) = u(y, A w) with w the least-squares fit on support Z.  The
0.5 scaling makes the curvature constants of u equal to restricted
squared singular values of the atom matrix; argmax decisions are
invariant to it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import GramFit, atom_matrix, gram_fit, gram_update, require_finite_atoms

# A point stops once its residual norm falls to _RESIDUAL_STOP, or once no
# atom's correlation with its residual exceeds _CORRELATION_STOP times
# max(residual norm, 1).
_RESIDUAL_STOP = 1e-10
_CORRELATION_STOP = 1e-12


@dataclass
class SparseCode:
    """Support, coefficients on it, and the squared residual of the fit."""

    support: list[int]
    coefficients: np.ndarray
    residual_sq: float


def dictionary_matrix(dictionary) -> np.ndarray:
    """The (d, m) atom matrix of ``dictionary``; ValueError unless it is 2-D and finite."""
    d = atom_matrix(dictionary)
    if d.ndim != 2:
        raise ValueError("dictionary must be a (d, m) array")
    return require_finite_atoms(d)


def omp_codes(dictionary, y: np.ndarray, s: int) -> tuple[GramFit, np.ndarray]:
    """Greedy sparse codes of every column of ``y`` with at most ``s`` atoms each.

    Each step adds, at every point, the atom most correlated with its
    residual and re-solves least squares on the support.  A point stops
    early once its residual norm r = sqrt(||y||^2 - 2 f) is at most 1e-10
    (to avoid fitting floating-point noise) or no untried atom's
    correlation with its residual exceeds 1e-12 * max(r, 1).
    Numerically dependent candidates are skipped.  Returns the fits
    (supports ``index[t, :size[t]]``, coefficients) and each column's
    squared residual, taken from y - D X with X the (num_atoms, T) code
    matrix.  ValueError unless ``s`` is a nonnegative integer;
    DimensionMismatch unless ``y`` has as many rows as the dictionary.
    """
    d = dictionary_matrix(dictionary)
    if not isinstance(s, numbers.Integral) or s < 0:
        raise ValueError("sparsity must be a nonnegative integer")
    y = np.asarray(y, dtype=float)
    num_atoms, t_count = d.shape[1], y.shape[1]
    fit = gram_fit(d, y, min(s, num_atoms))
    y_sq = np.sum(y * y, axis=0)
    tried = np.zeros((num_atoms, t_count), dtype=bool)  # support atoms and skipped ones
    active = np.arange(t_count)
    # Each step every point still active tries one atom it had not tried, so
    # after num_atoms steps none is left untried.
    for _ in range(num_atoms):
        active = active[fit.size[active] < s]
        if not active.size:
            break
        rnorm = np.sqrt(np.maximum(y_sq[active] - 2.0 * fit.f_values[active], 0.0))
        corr = np.abs(fit.gradients[:, active])
        corr[tried[:, active]] = 0.0
        best = np.argmax(corr, axis=0)
        top = corr[best, np.arange(active.size)]
        go = (rnorm > _RESIDUAL_STOP) & (top > _CORRELATION_STOP * np.maximum(rnorm, 1.0))
        active, best = active[go], best[go]
        tried[best, active] = True
        gram_update(fit, active, np.full(active.size, -1), best)
    codes = np.zeros((num_atoms, t_count))
    held = fit.index >= 0
    codes[fit.index[held], np.nonzero(held)[0]] = fit.coeffs[held]
    resid = y - d @ codes
    return fit, np.sum(resid * resid, axis=0)


def omp_encode(dictionary, y: np.ndarray, s: int, mask=None) -> SparseCode:
    """Greedy sparse code of ``y`` with at most ``s`` atoms of ``dictionary``.

    The one-point call of :func:`omp_codes`.  An optional boolean ``mask``
    restricts the inner products, the least squares, and the reported
    residual to the observed coordinates; DimensionMismatch unless it has
    one entry per dictionary row.
    """
    d = dictionary_matrix(dictionary)
    y = np.asarray(y, dtype=float)
    if mask is not None:
        obs = np.asarray(mask, dtype=bool)
        if obs.shape != d.shape[:1]:
            raise DimensionMismatch(f"mask has shape {obs.shape} but the dictionary has {d.shape[0]} rows")
        d = d[obs]
        y = y[obs]
    fit, resid_sq = omp_codes(d, y[:, None], s)
    m = int(fit.size[0])
    return SparseCode(fit.index[0, :m].tolist(), fit.coeffs[0, :m].copy(), float(resid_sq[0]))


def utility(y: np.ndarray, w: np.ndarray, ground_set) -> float:
    """0.5*||y||^2 - 0.5*||y - A w||^2 for a full-length coefficient vector."""
    a = atom_matrix(ground_set)
    y = np.asarray(y, dtype=float)
    diff = y - a @ np.asarray(w, dtype=float)
    return 0.5 * float(y @ y) - 0.5 * float(diff @ diff)


def utility_gradient(y: np.ndarray, w: np.ndarray, ground_set) -> np.ndarray:
    """Gradient A^T (y - A w) of the utility at coefficients ``w``.

    At a least-squares solution the entries on the solved support vanish.
    """
    a = atom_matrix(ground_set)
    return a.T @ (np.asarray(y, dtype=float) - a @ np.asarray(w, dtype=float))
