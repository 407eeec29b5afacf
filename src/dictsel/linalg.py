"""Dense linear-algebra kernels for support-restricted least squares.

Selectors and the OMP encoder keep every point's fit in one batched Gram
state (:class:`GramFit`): G = A^T A and C = A^T Y computed once, padded
(T, width) supports and coefficients, (n, T) gradients C - G[:, Z] w and
the f values.  ``gram_update`` edits the supports of a set of points and
refits them: one batched solve per chunk of STACK // (m + 1) points of
support size m, the gradients in ``stack_points(n)``-point slices.  With w the
coefficients on Z, c = G_ZZ^-1 G[Z, :] and
gamma_j = (G_ZZ^-1)_jj, the exact gains of all single additions and swaps
follow in closed form (``gram_gains``):

* adding b gains g_b^2 / (2 * (1 - G[Z, b] . c_b)), g the gradient;
* removing position j loses w_j^2 / (2 * gamma_j);
* swapping b in for position j gains (g_b + (w_j / gamma_j) * c_jb)^2 /
  (2 * den_jb) - w_j^2 / (2 * gamma_j), den_jb = 1 - G[Z, b] . c_b +
  c_jb^2 / gamma_j.

These are the Batch-OMP identities (Rubinstein, Zibulevsky and Elad,
Technion CS-2008-08); online rounds call the same kernels (``_regain``,
``_swap_rows``, which write into their first array argument) on one
point's support, with G from ``gram_matrix``.  One thin orthogonal
factorization A_Z = Q R per support (``SupportFactorization``,
``factor_insert``, ``factor_remove``) is the reference path behind
``ls_solve``; the same gains with c = R^-1 Q^T A (``addition_gains``,
``swap_gains``) are test oracles, in ``tests/oracles.py``.  The module
also provides the ground-set conditioning measures used to set
smoothness parameters: coherence and restricted extremal singular values.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient, TooLarge
from .groundset import require_unit_norm

# Columns whose projection residual falls below this norm are treated as
# linearly dependent and rejected.
RANK_TOL = 1e-10

# An atom whose squared distance to a support's span is at most this share
# of its squared norm counts as dependent on the support: it gains nothing
# and is not appended.  The Gram form resolves that distance only to about
# eps * cond(G_ZZ), so the cut sits far above rounding; being relative, it
# does not move when atoms scale.
SPAN_RTOL = 1e-8

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
        r, x = self.r, qty
        if not r.diagonal().all():
            raise np.linalg.LinAlgError("triangular solve failed: R has a zero diagonal entry")
        # Row-form back substitution, bit for bit scipy's solve_triangular.
        for i in range(self.m - 1, -1, -1):
            x[i] = (x[i] - r[i, i + 1 :] @ x[i + 1 :]) / r[i, i]
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


def _regain(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / (2 * den) into ``num``, returned; 0 where den (a unit atom's squared distance to the span) <= SPAN_RTOL."""
    num /= 2.0 * np.maximum(den, SPAN_RTOL)
    np.copyto(num, 0.0, where=~(den > SPAN_RTOL))
    return num


def _swap_rows(c, grad, w, gamma, dist):
    """The swap-gain expression shared by offline and online gains; one row per support position.

    ``c`` (..., m, n) is overwritten with the rows and returned; ``grad``
    and ``dist`` (the squared distance of each atom to the support's
    span) are (..., n), ``w`` and ``gamma`` (..., m, 1).
    """
    den = np.square(c) / gamma
    den += dist[..., None, :]
    c *= w / gamma
    c += grad[..., None, :]
    np.square(c, out=c)
    _regain(c, den)
    c -= 0.5 * w**2 / gamma
    return c


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


# Floats per (P, n) block of a batched operation over n atoms: a chunk holds
# max(1, STACK // n) points (``stack_points``), which bounds the (P, m, n)
# temporaries.  The 128-atom ground set gets 64 points per chunk, a
# 20-atom evaluation dictionary 409.
STACK = 64 * 128


def stack_points(num_atoms: int) -> int:
    """Points per chunk of a batched operation over ``num_atoms`` atoms."""
    return max(1, STACK // num_atoms)


def stack_rows(t_count: int) -> int:
    """Atom rows per chunk of an (n, T) per-atom table over ``t_count`` points.

    At least 16, so that a chunk's per-call overhead stays small at large
    T; STACK // T where that is more, which keeps a 128-atom table at
    T <= 64 in one chunk.
    """
    return max(16, STACK // max(t_count, 1))


def require_finite_atoms(a: np.ndarray) -> np.ndarray:
    """Return ``a``, or raise ValueError if it holds NaN or inf, as data_io.data_matrix does for data."""
    if not np.isfinite(a).all():
        raise ValueError("atoms must not contain infs or NaNs")
    return a


@dataclass
class GramFit:
    """Least-squares fits of T points, each on its own support, in Gram form.

    ``gram`` is G = A^T A, read-only and shared with the other fits of
    the same ground set (see :func:`gram_fit`), and ``corr`` is C = A^T Y.
    Point t's support is ``index[t, :size[t]]`` in insertion order (-1
    pads the rest), with coefficients ``coeffs[t, :size[t]]`` (0 pads),
    gradient ``gradients[:, t]`` = C[:, t] - G[:, Z] w and ``f_values[t]``
    = C[Z, t] . w - w^T G_ZZ w / 2.  At the least-squares w that is
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

    def snapshot(self, points, scratch: np.ndarray) -> tuple:
        """Copies of the rows of ``points``, for :meth:`restore` after one :func:`gram_update` of them.

        Support columns past the first max(size) + 1 are not copied: an
        update adds at most one atom to each support, so it leaves them as
        they are.  The (n, P) gradient columns are copied into the first
        n * P floats of the contiguous float array ``scratch``, which must
        hold them until the restore or until the snapshot is dropped.
        """
        n, m = self.gradients.shape[0], min(self.index.shape[1], int(self.size[points].max(initial=0)) + 1)
        gradients = scratch.reshape(-1)[: n * len(points)].reshape(n, len(points))
        # "wrap" reads in-range indices as "raise" does, without a buffered copy.
        np.take(self.gradients, points, axis=1, out=gradients, mode="wrap")
        return self.index[points, :m], self.size[points], self.coeffs[points, :m], gradients, self.f_values[points]

    def restore(self, points, rows: tuple) -> None:
        """Write back the rows a :meth:`snapshot` of ``points`` took."""
        index, size, coeffs, gradients, f_values = rows
        self.index[points, : index.shape[1]] = index
        self.size[points] = size
        self.coeffs[points, : coeffs.shape[1]] = coeffs
        self.gradients[:, points] = gradients
        self.f_values[points] = f_values


def gram_fit(ground_set, y: np.ndarray, width: int) -> GramFit:
    """Empty supports, of at most ``width`` atoms, for the columns of ``y``.

    ``ground_set`` is a GroundSet or a plain (d, n) atom array; G comes
    from :func:`gram_matrix`, so it is the read-only array cached on a
    GroundSet, shared by every fit of its atoms.  Raises
    DimensionMismatch unless ``y`` has as many rows as the atoms.
    """
    a = atom_matrix(ground_set)
    if y.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"data has {y.shape[0]} rows but the atoms have {a.shape[0]}")
    t_count = y.shape[1]
    corr = a.T @ y
    return GramFit(
        gram_matrix(ground_set),
        corr,
        np.full((t_count, width), -1),
        np.zeros(t_count, dtype=int),
        np.zeros((t_count, width)),
        corr.copy(),
        np.zeros(t_count),
    )


def size_chunks(sizes: np.ndarray, width):
    """Yield (m, idx): positions ``idx`` into ``sizes`` whose value is m.

    A chunk holds at most ``stack_points(width(m))`` positions, so its
    (P, width(m)) tables stay within STACK floats, its (P, m, n) ones within m * STACK at width n.
    """
    if not sizes.size:
        return
    low, high = int(sizes.min()), int(sizes.max())
    for m in range(low, high + 1):
        group = np.arange(len(sizes)) if low == high else np.flatnonzero(sizes == m)
        step = stack_points(width(m))
        for start in range(0, len(group), step):
            yield m, group[start : start + step]


def gram_update(fit: GramFit, points, removed, atoms) -> np.ndarray:
    """Edit and refit the supports of ``points``; returns the mask of appended atoms.

    Point ``points[i]`` drops its support position ``removed[i]`` (none if
    negative), keeping the others' order, then appends ``atoms[i]`` (none
    if negative) unless the atom depends on the remaining support Z: when
    its squared distance to the span, d = G[b, b] - G[b, Z] u with
    u = G_ZZ^-1 G[Z, b], is at most SPAN_RTOL * G[b, b].  Such adds are
    skipped and counted in ``fit.rank_skips``.  Every support must have
    room for one more atom after its removal, even where none is
    appended: ValueError, before anything is written, if a point whose
    support fills the fit's width drops nothing.

    The points are grouped by support size m after the removals, with one
    batched solve G_ZZ [v, u] = [C[Z, t], G[Z, b]] per chunk of at most
    STACK // (m + 1) points, so that its (P, m + 1) arrays stay within STACK
    floats; G_ZZ, G[Z, b] and G[b, b] come from one (P, m + 1, m + 1)
    gather of G[Z + b, Z + b].  The fit on Z + b is then
    w_b = (C[b, t] - G[b, Z] v) / d and w_Z = v - u w_b, the gradient
    C[:, t] - G[:, Z] w_Z - G[:, b] w_b, taken in ``stack_points(n)``-point
    slices of a chunk: each slice's (P, m + 1, n) gather of G[Z, :] stays
    within (m + 1) * STACK floats.
    """
    points = np.asarray(points, dtype=int)
    removed = np.asarray(removed, dtype=int)
    atoms = np.asarray(atoms, dtype=int)
    drop = removed >= 0
    sizes = fit.size[points] - drop  # after the removals
    if (sizes >= fit.index.shape[1]).any():
        raise ValueError("a support that fills the fit's width must drop an atom before it is refit")
    if drop.any():
        dropped = points[drop]
        rows = fit.index[dropped]
        keep = np.arange(rows.shape[1]) != removed[drop, None]
        fit.index[dropped, :-1] = rows[keep].reshape(len(rows), -1)
        fit.index[dropped, -1] = -1
        fit.size[dropped] -= 1
    g, corr = fit.gram, fit.corr
    appended = np.zeros(len(points), dtype=bool)
    step = stack_points(len(g))
    for m, idx in size_chunks(sizes, lambda m: m + 1):
        p, b = points[idx], atoms[idx]
        # Z + b, with atom 0 standing in for b (at weight 0) where nothing is added.
        z = np.concatenate([fit.index[p, :m], np.maximum(b, 0)[:, None]], axis=1)
        zb = z[:, m]
        cz = corr[z, p[:, None]]
        gzz = g[z[:, :, None], z[:, None, :]]  # G[Z + b, Z + b]
        rhs = np.empty((len(p), m, 2))
        rhs[:, :, 0] = cz[:, :m]
        rhs[:, :, 1] = gzz[:, :m, m]
        vu = np.linalg.solve(gzz[:, :m, :m], rhs)
        v, u = vu[..., 0], vu[..., 1]
        bv, bu = np.einsum("pj,pjk->kp", gzz[:, :m, m], vu)  # G[b, Z] v and G[b, Z] u
        norm_sq = gzz[:, m, m]
        dist = norm_sq - bu
        grow = (b >= 0) & (dist > SPAN_RTOL * norm_sq)
        wb = np.divide(cz[:, m] - bv, dist, out=np.zeros(len(p)), where=grow)
        w = np.concatenate([v - u * wb[:, None], wb[:, None]], axis=1)
        fit.coeffs[p, : m + 1] = w  # the columns past m are 0 already
        fit.index[p, m] = np.where(grow, zb, -1)  # a pad column: the precondition leaves room
        fit.size[p] += grow
        appended[idx] = grow
        del gzz, rhs, vu, v, u, bv, bu, norm_sq, dist, wb  # before the slices' (P, m + 1, n) gathers
        for start in range(0, len(p), step):
            ps, zp, wp, cp = (x[start : start + step] for x in (p, z, w, cz)) if len(p) > step else (p, z, w, cz)
            # G[:, Z] w from the rows G[Z, :] = G[:, Z]^T, whose gather is freed before corr[:, ps] is copied.
            grad = (wp[:, None, :] @ g.take(zp, axis=0))[:, 0].T
            grad = corr[:, ps] - grad
            fit.gradients[:, ps] = grad
            # c.w - w.G w / 2 written as w.(c + (c - G w)) / 2: stationary in w.
            fit.f_values[ps] = 0.5 * (wp * (cp + grad[zp, np.arange(len(ps))[:, None]])).sum(axis=1)
    fit.rank_skips += int(np.count_nonzero(atoms >= 0)) - int(np.count_nonzero(appended))
    return appended


def gram_gains(fit: GramFit, points) -> tuple[np.ndarray, np.ndarray]:
    """Exact addition gains (P, n) and swap gains (P, m, n) of ``points``, which all hold m atoms.

    The gains of the QR forms ``addition_gains`` and ``swap_gains`` (test
    oracles) in Gram form, for unit-norm atoms: c = G_ZZ^-1 G[Z, :],
    gamma_j = (G_ZZ^-1)_jj and 1 - ||Q^T b||^2 = 1 - G[Z, b] . c_b.
    Entries of atoms in a support are not zeroed.
    """
    points = np.asarray(points, dtype=int)
    m = int(fit.size[points[0]])
    z = fit.index[points, :m]
    grad = fit.gradients[:, points].T
    gz = fit.gram[z]  # rows G[Z, :]
    inv = np.linalg.inv(np.take_along_axis(gz, z[:, None, :], axis=2))
    c, dist = gram_terms(inv, gz)
    del gz  # a (P, m, n) table the swap rows need no more
    swap = _swap_rows(c, grad, fit.coeffs[points, :m, None], np.diagonal(inv, axis1=-2, axis2=-1)[..., None], dist)
    return _regain(np.square(grad), dist), swap


def gram_terms(inv: np.ndarray, gz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c = G_ZZ^-1 G[Z, :] and each unit-norm atom's squared distance 1 - G[Z, b] . c_b to span(Z).

    Takes ``inv`` = G_ZZ^-1 (..., m, m) and ``gz`` = G[Z, :] (..., m, n).
    """
    c = inv @ gz
    return c, 1.0 - np.einsum("...jb,...jb->...b", gz, c)


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
