"""Dense linear-algebra kernels for support-restricted least squares.

Selectors keep one thin orthogonal factorization A_Z = Q R per data point
so that adding or removing a single atom from a support costs O(d*m)
instead of a full refactorization.  The same factorization gives the exact
gains of all single additions and swaps in closed form, with r the
residual, w = R^-1 Q^T y the coefficients and Rinv = R^-1:

* adding b gains <b, r>^2 / (2 * (1 - ||Q^T b||^2));
* removing position j loses w_j^2 / (2 * gamma_j), gamma_j = ||Rinv[j]||^2;
* swapping b in for position j gains (<b, r> + (w_j / gamma_j) * c_j)^2 /
  (2 * den_j) - w_j^2 / (2 * gamma_j), where c = Rinv Q^T A and
  den_j = 1 - ||Q^T b||^2 + c_j^2 / gamma_j.

These are the Batch-OMP identities (Rubinstein, Zibulevsky and Elad,
Technion CS-2008-08); ``factor_remove`` followed by the addition formula
computes the same swap gains and stays as the update path.  The module
also provides the ground-set conditioning measures used to set smoothness
parameters: coherence and restricted extremal singular values.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri, dtrtrs

from .errors import RankDeficient, TooLarge
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
    return np.where(den > _DENOM_TOL, num / (2.0 * np.clip(den, _DENOM_TOL, None)), 0.0)


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
    c = rinv @ qta
    den = (1.0 - np.sum(qta**2, axis=0)) + c**2 / gamma
    rows = _regain((a.T @ r + (w / gamma) * c) ** 2, den)
    rows -= 0.5 * w**2 / gamma
    rows[:, list(state.columns)] = 0.0
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
