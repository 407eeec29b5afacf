"""Dense linear-algebra kernels for support-restricted least squares.

Selectors and the OMP encoder keep every point's fit in one batched Gram
state (:class:`GramFit`): G = A^T A and C = A^T Y computed once, padded
(T, width) supports and coefficients, (n, T) gradients C - G[:, Z] w and
the f values.  ``gram_update`` edits the supports of a set of points and
refits them, one batched solve per support size.  With w the
coefficients on Z, c = G_ZZ^-1 G[Z, :] and
gamma_j = (G_ZZ^-1)_jj, the exact gains of all single additions and swaps
follow in closed form (``gram_gains``):

* adding b gains g_b^2 / (2 * (1 - G[Z, b] . c_b)), g the gradient;
* removing position j loses w_j^2 / (2 * gamma_j);
* swapping b in for position j gains (g_b + (w_j / gamma_j) * c_jb)^2 /
  (2 * den_jb) - w_j^2 / (2 * gamma_j), den_jb = 1 - G[Z, b] . c_b +
  c_jb^2 / gamma_j.

These are the Batch-OMP identities (Rubinstein, Zibulevsky and Elad,
Technion CS-2008-08); online rounds evaluate the same expressions
(``_regain``, ``_swap_rows``) on one point's support, with G from
``gram_matrix``.  One thin orthogonal factorization A_Z = Q R per support
(``SupportFactorization``, ``factor_insert``, ``factor_remove``) gives the
same gains with c = R^-1 Q^T A (``addition_gains``, ``swap_gains``); it is
the reference path the tests audit.  The module also provides the
ground-set conditioning measures used to set smoothness parameters:
coherence and restricted extremal singular values.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri, dtrtrs

from .errors import DimensionMismatch, RankDeficient, TooLarge
from .groundset import require_unit_norm

# Columns whose projection residual falls below this norm are treated as
# linearly dependent and rejected.
RANK_TOL = 1e-10

# Atoms this close (squared) to the support's span get no addition gain.
_DENOM_TOL = 1e-12

_ENUMERATION_GUARD = 10**6


def atom_matrix(ground_set) -> np.ndarray:
    """Return the (d, n) atom matrix behind a GroundSet or a plain array."""
    mat = getattr(ground_set, "matrix", ground_set)
    return np.asarray(mat, dtype=float)


def gram_matrix(ground_set) -> np.ndarray:
    """G = A^T A of a GroundSet or a plain array, read-only; cached on GroundSet instances."""
    cached = getattr(ground_set, "gram_cache", None)
    if cached is not None:
        return cached
    a = atom_matrix(ground_set)
    gram = a.T @ a
    gram.flags.writeable = False
    if hasattr(ground_set, "gram_cache"):
        ground_set.gram_cache = gram
    return gram


@dataclass
class SupportFactorization:
    """Thin QR factorization of the atom columns listed in ``columns``.

    ``q`` is (d, m) with orthonormal columns and ``q @ r`` reconstructs the
    support submatrix in ``columns`` order.  Instances are values: the
    update functions below return new factorizations and never mutate
    their input.
    """

    columns: tuple[int, ...]
    q: np.ndarray
    r: np.ndarray

    @property
    def m(self) -> int:
        return len(self.columns)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Least-squares coefficients on the support, in ``columns`` order."""
        if self.m == 0:
            return np.zeros(0)
        return self._solve_projected(self.q.T @ y)

    def fit(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``solve(y)`` and ``residual(y)`` from one product Q^T y."""
        if self.m == 0:
            return np.zeros(0), np.asarray(y, dtype=float).copy()
        qty = self.q.T @ y
        resid = y - self.q @ qty
        return self._solve_projected(qty), resid

    def _solve_projected(self, qty: np.ndarray) -> np.ndarray:
        """Solve R x = Q^T y, given Q^T y; the array is overwritten."""
        if not (np.isfinite(self.r).all() and np.isfinite(qty).all()):
            raise ValueError("array must not contain infs or NaNs")
        # R^T is a lower-triangular Fortran view of the C-ordered R: this is
        # the LAPACK call scipy's solve_triangular makes, minus its wrapper.
        x, info = dtrtrs(self.r.T, qty, lower=1, trans=1, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
        return x

    def residual(self, y: np.ndarray) -> np.ndarray:
        """Residual of the least-squares fit of ``y`` on the support."""
        if self.m == 0:
            return np.asarray(y, dtype=float).copy()
        return y - self.q @ (self.q.T @ y)


def empty_factorization(d: int) -> SupportFactorization:
    return SupportFactorization((), np.zeros((d, 0)), np.zeros((0, 0)))


def factor_insert(state: SupportFactorization, ground_set, atom_index: int) -> SupportFactorization:
    """Append one atom column to the factorization.

    Raises RankDeficient when the new column is numerically dependent on
    the current support (projection residual norm below RANK_TOL).
    """
    a = atom_matrix(ground_set)[:, atom_index]
    if atom_index in state.columns:
        raise ValueError(f"atom {atom_index} already in support")
    v = state.q.T @ a
    u = a - state.q @ v
    # One reorthogonalization pass keeps Q orthonormal over long update chains.
    if state.m:
        w = state.q.T @ u
        u = u - state.q @ w
        v = v + w
    rho = math.sqrt(u @ u)
    if rho < RANK_TOL:
        raise RankDeficient(f"atom {atom_index} is dependent on the current support")
    m = state.m
    q = np.empty((state.q.shape[0], m + 1))
    q[:, :m] = state.q
    q[:, m] = u / rho
    r = np.zeros((m + 1, m + 1))
    r[:m, :m] = state.r
    r[:m, m] = v
    r[m, m] = rho
    return SupportFactorization(state.columns + (atom_index,), q, r)


def factor_remove(state: SupportFactorization, position: int) -> SupportFactorization:
    """Delete the atom at ``position`` and retriangularize with Givens rotations."""
    m = state.m
    if not 0 <= position < m:
        raise IndexError(f"position {position} out of range for support of size {m}")
    cols = state.columns[:position] + state.columns[position + 1 :]
    q = state.q.copy() if position < m - 1 else state.q  # only rotations write to q
    r = state.r[:, [j for j in range(m) if j != position]]
    rot = np.empty((2, 2))
    # Deleting a column leaves a subdiagonal in rows position..m-2; rotate
    # it away pairwise, accumulating the transposed rotations into q.
    for i in range(position, m - 1):
        a, b = r[i, i], r[i + 1, i]
        rad = math.hypot(a, b)
        if rad == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = a / rad, b / rad
        rot[0, 0] = rot[1, 1] = c
        rot[0, 1] = s
        rot[1, 0] = -s
        block = r[i : i + 2, i:]
        block[...] = rot @ block
        pair = q[:, i : i + 2]
        pair[...] = pair @ rot.T
    return SupportFactorization(
        cols,
        np.ascontiguousarray(q[:, : m - 1]),
        np.ascontiguousarray(r[: m - 1, :]),
    )


def addition_gains(ground_set, state: SupportFactorization, r: np.ndarray) -> np.ndarray:
    """Exact gains f(Z + b) - f(Z) of every atom b; atoms of Z or its span gain 0.

    ``r`` is the residual on the support Z that ``state`` factors; with Q
    its basis, adding b gains <b, r>^2 / (2 * (1 - ||Q^T b||^2)).
    """
    a = atom_matrix(ground_set)
    gains = _regain((a.T @ r) ** 2, 1.0 - np.sum((state.q.T @ a) ** 2, axis=0))
    gains[list(state.columns)] = 0.0
    return gains


def _regain(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / (2 * den), and 0 where den (the squared distance to the span) is below _DENOM_TOL."""
    return np.where(den > _DENOM_TOL, num / (2.0 * np.maximum(den, _DENOM_TOL)), 0.0)


def swap_gains(ground_set, state: SupportFactorization, y: np.ndarray, r: np.ndarray, positions) -> np.ndarray:
    """Exact gains f(Z - z_j + b) - f(Z) of every atom b, one row per j in ``positions``.

    ``r`` is the residual of ``y`` on Z.  Removing z_j moves the residual
    to r + (w_j / gamma_j) * Q Rinv[j]^T, whose regain of b follows the
    addition formula on Z - z_j:

        (<b, r> + (w_j / gamma_j) * c_jb)^2 / (2 * den_jb) - w_j^2 / (2 * gamma_j)

    with Rinv = R^-1, gamma_j = ||Rinv[j]||^2, w = Rinv Q^T y,
    c = Rinv Q^T A and den_jb = 1 - ||Q^T b||^2 + c_jb^2 / gamma_j.  Atoms
    closer than _DENOM_TOL (squared) to span(Z - z_j) regain nothing, and
    atoms of Z gain 0.
    """
    a = atom_matrix(ground_set)
    positions = list(positions)
    rinv, info = dtrtri(state.r.T, lower=1)  # (R^T)^-1 = (R^-1)^T
    if info:
        raise np.linalg.LinAlgError(f"triangular inverse failed (LAPACK info {info})")
    rinv = rinv.T[positions]
    qta = state.q.T @ a
    gamma = np.sum(rinv**2, axis=1)[:, None]
    w = (rinv @ (state.q.T @ y))[:, None]
    rows = _swap_rows(a.T @ r, w, gamma, rinv @ qta, 1.0 - np.sum(qta**2, axis=0))
    rows[:, list(state.columns)] = 0.0
    return rows


def _swap_rows(grad, w, gamma, c, dist):
    """The swap-gain expression shared by the QR and Gram forms; one row per support position.

    ``grad`` and ``dist`` (the squared distance of each atom to the
    support's span) are (..., n), ``w`` and ``gamma`` (..., m, 1) and
    ``c`` (..., m, n).
    """
    rows = _regain((grad[..., None, :] + (w / gamma) * c) ** 2, dist[..., None, :] + c**2 / gamma)
    rows -= 0.5 * w**2 / gamma
    return rows


def ls_solve(ground_set, support, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``y`` on a support, as a full n-vector.

    Entries outside the support are zero.  Raises RankDeficient when the
    support columns are numerically dependent.
    """
    a = atom_matrix(ground_set)
    y = np.asarray(y, dtype=float)
    fact = empty_factorization(a.shape[0])
    for idx in support:
        fact = factor_insert(fact, a, int(idx))
    w = np.zeros(a.shape[1])
    if fact.m:
        w[list(fact.columns)] = fact.solve(y)
    return w


# An atom whose squared distance to a support's span is at most this share
# of its squared norm counts as dependent on the support.  The Gram form
# resolves that distance only to about eps * cond(G_ZZ), so the cut sits
# far above rounding; being relative, it does not move when atoms scale.
SPAN_RTOL = 1e-8

# Floats per (P, n) block of a batched operation over n atoms: a chunk holds
# max(1, STACK // n) points (``stack_points``), which bounds the (P, m, n)
# temporaries.  The 128-atom ground set gets 64 points per chunk, a
# 20-atom evaluation dictionary 409.
STACK = 64 * 128


def stack_points(num_atoms: int) -> int:
    """Points per chunk of a batched operation over ``num_atoms`` atoms."""
    return max(1, STACK // num_atoms)


def require_finite_atoms(a: np.ndarray) -> np.ndarray:
    """Return ``a``, or raise ValueError if it holds NaN or inf, as data_io.data_matrix does for data."""
    if not np.isfinite(a).all():
        raise ValueError("atoms must not contain infs or NaNs")
    return a


@dataclass
class GramFit:
    """Least-squares fits of T points, each on its own support, in Gram form.

    ``gram`` is G = A^T A and ``corr`` is C = A^T Y.  Point t's support is
    ``index[t, :size[t]]`` in insertion order (-1 pads the rest), with
    coefficients ``coeffs[t, :size[t]]`` (0 pads), gradient
    ``gradients[:, t]`` = C[:, t] - G[:, Z] w and ``f_values[t]`` =
    C[Z, t] . w - w^T G_ZZ w / 2.  At the least-squares w that is
    ||y_t||^2 / 2 - ||y_t - A_Z w||^2 / 2, and being stationary in w it
    takes coefficient error only at second order.  ``rank_skips`` counts
    the adds :func:`gram_update` refused.
    """

    gram: np.ndarray
    corr: np.ndarray
    index: np.ndarray
    size: np.ndarray
    coeffs: np.ndarray
    gradients: np.ndarray
    f_values: np.ndarray
    rank_skips: int = 0

    def snapshot(self, points) -> tuple:
        """Copies of the rows of ``points``, for :meth:`restore`."""
        return (
            self.index[points],
            self.size[points],
            self.coeffs[points],
            self.gradients[:, points],
            self.f_values[points],
        )

    def restore(self, points, rows: tuple) -> None:
        """Write back the rows a :meth:`snapshot` of ``points`` took."""
        index, size, coeffs, gradients, f_values = rows
        self.index[points] = index
        self.size[points] = size
        self.coeffs[points] = coeffs
        self.gradients[:, points] = gradients
        self.f_values[points] = f_values


def gram_fit(a: np.ndarray, y: np.ndarray, width: int) -> GramFit:
    """Empty supports, of at most ``width`` atoms, for the columns of ``y``.

    Raises DimensionMismatch unless ``y`` has as many rows as ``a``.
    """
    if y.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"data has {y.shape[0]} rows but the atoms have {a.shape[0]}")
    t_count = y.shape[1]
    corr = a.T @ y
    return GramFit(
        a.T @ a,
        corr,
        np.full((t_count, width), -1),
        np.zeros(t_count, dtype=int),
        np.zeros((t_count, width)),
        corr.copy(),
        np.zeros(t_count),
    )


def size_chunks(sizes: np.ndarray, num_atoms: int):
    """Yield (m, idx): positions ``idx`` into ``sizes`` whose value is m.

    A chunk holds at most ``stack_points(num_atoms)`` positions, so its
    (P, m, num_atoms) temporaries stay within m * STACK floats.
    """
    if not sizes.size:
        return
    low, high = int(sizes.min()), int(sizes.max())
    step = stack_points(num_atoms)
    for m in range(low, high + 1):
        group = np.arange(len(sizes)) if low == high else np.flatnonzero(sizes == m)
        for start in range(0, len(group), step):
            yield m, group[start : start + step]


def gram_update(fit: GramFit, points, removed, atoms) -> np.ndarray:
    """Edit and refit the supports of ``points``; returns the mask of appended atoms.

    Point ``points[i]`` drops its support position ``removed[i]`` (none if
    negative), keeping the others' order, then appends ``atoms[i]`` (none
    if negative) unless the atom depends on the remaining support Z: when
    its squared distance to the span, d = G[b, b] - G[b, Z] u with
    u = G_ZZ^-1 G[Z, b], is at most SPAN_RTOL * G[b, b].  Such adds are
    skipped and counted in ``fit.rank_skips``.

    The points are grouped by support size after the removals, with one
    batched solve G_ZZ [v, u] = [C[Z, t], G[Z, b]] per group.  The fit on
    Z + b is then w_b = (C[b, t] - G[b, Z] v) / d and w_Z = v - u w_b, the
    gradient C[:, t] - G[:, Z] w_Z - G[:, b] w_b.
    """
    points = np.asarray(points, dtype=int)
    removed = np.asarray(removed, dtype=int)
    atoms = np.asarray(atoms, dtype=int)
    drop = removed >= 0
    if drop.any():
        rows = fit.index[points[drop]]
        keep = np.arange(rows.shape[1]) != removed[drop, None]
        fit.index[points[drop], :-1] = rows[keep].reshape(len(rows), -1)
        fit.index[points[drop], -1] = -1
        fit.size[points[drop]] -= 1
    g, corr = fit.gram, fit.corr
    appended = np.zeros(len(points), dtype=bool)
    for m, idx in size_chunks(fit.size[points], g.shape[0]):
        p, b = points[idx], atoms[idx]
        # Z + b, with atom 0 standing in for b (at weight 0) where nothing is added.
        z = np.concatenate([fit.index[p, :m], np.maximum(b, 0)[:, None]], axis=1)
        zs, zb = z[:, :m], z[:, m]
        gzb = g[zs, zb[:, None]]
        cz = corr[z, p[:, None]]
        vu = np.linalg.solve(g[zs[:, :, None], zs[:, None, :]], np.stack([cz[:, :m], gzb], axis=2))
        v, u = vu[..., 0], vu[..., 1]
        bv, bu = np.einsum("pj,pjk->kp", gzb, vu)  # G[b, Z] v and G[b, Z] u
        norm_sq = g[zb, zb]
        dist = norm_sq - bu
        grow = (b >= 0) & (dist > SPAN_RTOL * norm_sq)
        wb = np.divide(cz[:, m] - bv, dist, out=np.zeros(len(p)), where=grow)
        w = np.concatenate([v - u * wb[:, None], wb[:, None]], axis=1)
        grad = corr[:, p] - (w[:, None, :] @ g[z])[:, 0].T  # g[z] holds rows G[Z, :] = G[:, Z]^T
        fit.gradients[:, p] = grad
        # c.w - w.G w / 2 written as w.(c + (c - G w)) / 2: stationary in w.
        fit.f_values[p] = 0.5 * np.sum(w * (cz + grad[z, np.arange(len(p))[:, None]]), axis=1)
        fit.coeffs[p] = 0.0
        fit.coeffs[p, :m] = w[:, :m]
        fit.coeffs[p[grow], m] = wb[grow]
        fit.index[p[grow], m] = zb[grow]
        fit.size[p[grow]] += 1
        appended[idx] = grow
    fit.rank_skips += int(np.count_nonzero((atoms >= 0) & ~appended))
    return appended


def gram_gains(fit: GramFit, points) -> tuple[np.ndarray, np.ndarray]:
    """Exact addition gains (P, n) and swap gains (P, m, n) of ``points``, which all hold m atoms.

    The gains of :func:`addition_gains` and :func:`swap_gains` in Gram
    form, for unit-norm atoms: c = G_ZZ^-1 G[Z, :], gamma_j = (G_ZZ^-1)_jj
    and 1 - ||Q^T b||^2 = 1 - G[Z, b] . c_b.  Entries of atoms in a
    support are not zeroed.
    """
    points = np.asarray(points, dtype=int)
    m = int(fit.size[points[0]])
    z = fit.index[points, :m]
    grad = fit.gradients[:, points].T
    gz = fit.gram[z]  # rows G[Z, :]
    inv = np.linalg.inv(np.take_along_axis(gz, z[:, None, :], axis=2))
    c = inv @ gz
    dist = 1.0 - np.sum(gz * c, axis=1)
    gamma = np.diagonal(inv, axis1=1, axis2=2)[..., None]
    w = fit.coeffs[points, :m, None]
    return _regain(grad**2, dist), _swap_rows(grad, w, gamma, c, dist)


def coherence(ground_set) -> float:
    """Maximum absolute inner product between distinct atoms, in [0, 1].

    Requires unit-norm columns (to 1e-8); the value is cached on GroundSet
    instances.
    """
    cached = getattr(ground_set, "mu_cache", None)
    if cached is not None:
        return cached
    a = atom_matrix(ground_set)
    require_unit_norm(a)
    if a.shape[1] < 2:
        mu = 0.0
    else:
        gram = a.T @ a
        np.fill_diagonal(gram, 0.0)
        # Clip the tiny floating-point overshoot duplicates can produce.
        mu = min(float(np.abs(gram).max()), 1.0)
    if hasattr(ground_set, "mu_cache"):
        ground_set.mu_cache = mu
    return mu


def resolve_smoothness(ground_set, value=None) -> float:
    """The smoothness parameter: ``value`` if finite and positive (else ValueError), or 1 + coherence."""
    if value is None:
        return 1.0 + coherence(ground_set)
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"smoothness must be a finite positive number, got {value!r}")
    return float(value)


@dataclass
class RestrictedSpectrum:
    """Extremal squared singular values over supports of a fixed size.

    ``exact`` records whether the values came from subset enumeration or
    from the closed-form fast path available for sizes 1 and 2.
    """

    size: int
    sigma_max_sq: float
    sigma_min_sq: float
    exact: bool


def restricted_spectrum(ground_set, size: int, exact: bool | None = None) -> RestrictedSpectrum:
    """Largest and smallest squared singular values over all supports of ``size`` atoms.

    With ``exact=None`` sizes 1 and 2 use the closed form (size 2 equals
    1 +/- coherence, the eigenvalues of the worst 2x2 unit-diagonal Gram
    matrix) and larger sizes enumerate subsets.  Enumeration refuses to
    touch more than 10**6 subsets and raises TooLarge instead.
    """
    a = atom_matrix(ground_set)
    n = a.shape[1]
    if size < 1:
        raise ValueError("size must be at least 1")
    if exact is None:
        exact = size > 2
    if not exact:
        if size == 1:
            norms_sq = np.sum(a * a, axis=0)
            return RestrictedSpectrum(1, float(norms_sq.max()), float(norms_sq.min()), False)
        if size == 2:
            mu = coherence(ground_set)
            return RestrictedSpectrum(2, 1.0 + mu, 1.0 - mu, False)
        raise TooLarge(f"no fast path for size {size}; request exact enumeration")
    k = min(size, n)
    if math.comb(n, k) > _ENUMERATION_GUARD:
        raise TooLarge(f"C({n}, {k}) subsets exceed the enumeration guard")
    d = a.shape[0]
    hi = 0.0
    lo = math.inf
    for combo in itertools.combinations(range(n), k):
        svals = np.linalg.svd(a[:, combo], compute_uv=False)
        hi = max(hi, float(svals[0]))
        # A d x k submatrix with k > d always has a zero singular value.
        lo = min(lo, 0.0 if k > d else float(svals[-1]))
    return RestrictedSpectrum(size, hi * hi, lo * lo, True)
