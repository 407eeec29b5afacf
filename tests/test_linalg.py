import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from dictsel import (
    assemble,
    coherence,
    dct2_basis,
    empty_factorization,
    factor_insert,
    factor_remove,
    haar2_basis,
    ls_solve,
    restricted_spectrum,
    synth_dataset,
)
from dictsel import linalg, online
from dictsel.constraints import AverageSparsity, BlockSparsity, IndividualSparsity
from dictsel.errors import DimensionMismatch, InvalidGroundSet, RankDeficient, TooLarge
from dictsel.encoders import omp_codes, utility, utility_gradient
from dictsel.offline import SelectorConfig, replacement_greedy, replacement_omp
from dictsel.linalg import SupportFactorization, gram_fit, gram_gains, gram_matrix, gram_update

from conftest import random_unit_atoms
from oracles import addition_gains, gram_update_reference, lstsq_fit, regain_expression, swap_gains
from oracles import swap_rows_expression


def factorization_defects(fact, atoms):
    qtq = np.abs(fact.q.T @ fact.q - np.eye(fact.m)).max() if fact.m else 0.0
    recon = np.abs(fact.q @ fact.r - atoms[:, list(fact.columns)]).max() if fact.m else 0.0
    return qtq, recon


def test_ls_solve_empty_support():
    a = random_unit_atoms(np.random.default_rng(0), 6, 4)
    y = np.random.default_rng(1).standard_normal(6)
    assert np.array_equal(ls_solve(a, [], y), np.zeros(4))


def test_ls_solve_orthonormal_pair():
    a = dct2_basis(4)
    y = np.random.default_rng(2).standard_normal(16)
    w = ls_solve(a, [3, 7], y)
    assert w[3] == pytest.approx(a[:, 3] @ y, abs=1e-12)
    assert w[7] == pytest.approx(a[:, 7] @ y, abs=1e-12)
    assert np.count_nonzero(w) == 2


def test_ls_solve_matches_normal_equations():
    rng = np.random.default_rng(3)
    a = random_unit_atoms(rng, 8, 3)
    y = rng.standard_normal(8)
    w = ls_solve(a, [0, 1, 2], y)
    w_ref = np.linalg.solve(a.T @ a, a.T @ y)
    assert np.abs(w[:3] - w_ref).max() < 1e-8


def test_ls_solve_rank_deficient():
    a = np.zeros((4, 2))
    a[:, 0] = [1, 0, 0, 0]
    a[:, 1] = [1, 0, 0, 0]
    with pytest.raises(RankDeficient):
        ls_solve(a, [0, 1], np.ones(4))


def test_insert_into_empty():
    rng = np.random.default_rng(4)
    a = random_unit_atoms(rng, 5, 3)
    fact = factor_insert(empty_factorization(5), a, 1)
    assert fact.columns == (1,)
    assert np.allclose(fact.q[:, 0], a[:, 1], atol=1e-12)
    assert fact.r[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_insert_then_remove_is_identity():
    rng = np.random.default_rng(5)
    a = random_unit_atoms(rng, 10, 6)
    y = rng.standard_normal(10)
    fact = empty_factorization(10)
    for idx in (0, 2, 4):
        fact = factor_insert(fact, a, idx)
    before = fact.solve(y)
    fact2 = factor_remove(factor_insert(fact, a, 5), 3)
    assert fact2.columns == fact.columns
    assert np.abs(fact2.solve(y) - before).max() < 1e-10


def test_insert_duplicate_raises():
    a = random_unit_atoms(np.random.default_rng(6), 5, 3)
    fact = factor_insert(empty_factorization(5), a, 0)
    with pytest.raises(ValueError):
        factor_insert(fact, a, 0)


def test_random_walk_matches_refactorization():
    rng = np.random.default_rng(7)
    a = random_unit_atoms(rng, 16, 24)
    y = rng.standard_normal(16)
    fact = empty_factorization(16)
    for _ in range(20):
        if fact.m and (fact.m >= 12 or rng.random() < 0.4):
            fact = factor_remove(fact, int(rng.integers(fact.m)))
        else:
            absent = [j for j in range(24) if j not in fact.columns]
            fact = factor_insert(fact, a, int(rng.choice(absent)))
        qtq, recon = factorization_defects(fact, a)
        assert qtq <= 1e-10
        assert recon <= 1e-9 * max(np.abs(a).max(), 1.0)
        w_ref, _ = lstsq_fit(a, fact.columns, y)
        w = np.zeros(24)
        if fact.m:
            w[list(fact.columns)] = fact.solve(y)
        assert np.abs(w - w_ref).max() < 1e-8


def test_residual_orthogonal_to_support():
    rng = np.random.default_rng(8)
    a = random_unit_atoms(rng, 12, 20)
    y = rng.standard_normal(12)
    support = [1, 5, 9, 13]
    w = ls_solve(a, support, y)
    resid = y - a @ w
    for j in support:
        assert abs(a[:, j] @ resid) <= 1e-8 * np.linalg.norm(y)


def test_coherence_orthonormal_basis():
    assert coherence(dct2_basis(4)) == pytest.approx(0.0, abs=1e-12)


def test_coherence_duplicate_column():
    a = random_unit_atoms(np.random.default_rng(9), 6, 3)
    a = np.column_stack([a, a[:, 0]])
    assert coherence(a) == pytest.approx(1.0, abs=1e-12)


def test_coherence_matches_pairwise_scan():
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    mu = coherence(gs)
    a = gs.matrix
    scan = max(
        abs(float(a[:, i] @ a[:, j]))
        for i in range(gs.n)
        for j in range(i + 1, gs.n)
    )
    assert mu == pytest.approx(min(scan, 1.0), abs=1e-12)
    assert gs.mu_cache == mu


def test_gram_matrix_is_read_only_and_cached_on_ground_sets():
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    gram = gram_matrix(gs)
    assert gram_matrix(gs) is gram is gs.gram_cache
    assert np.array_equal(gram, gs.matrix.T @ gs.matrix)
    with pytest.raises(ValueError):
        gram[0, 0] = 2.0
    assert gram_matrix(gs.matrix) is not gram_matrix(gs.matrix)


def test_coherence_validates_norms():
    a = np.eye(4)
    a = a * 1.5
    with pytest.raises(InvalidGroundSet):
        coherence(a)


def test_coherence_invariances():
    rng = np.random.default_rng(10)
    a = random_unit_atoms(rng, 9, 7)
    mu = coherence(a)
    perm = rng.permutation(7)
    signs = rng.choice([-1.0, 1.0], size=7)
    assert coherence(a[:, perm] * signs) == pytest.approx(mu, abs=1e-12)


def test_restricted_spectrum_orthonormal():
    sp = restricted_spectrum(dct2_basis(4), 2)
    assert sp.sigma_max_sq == pytest.approx(1.0, abs=1e-12)
    assert sp.sigma_min_sq == pytest.approx(1.0, abs=1e-12)


def test_restricted_spectrum_known_pair():
    # Two unit atoms with inner product 0.5: Gram eigenvalues 1 +/- 0.5.
    a = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    sp = restricted_spectrum(a, 2)
    assert sp.sigma_max_sq == pytest.approx(1.5, abs=1e-12)
    assert sp.sigma_min_sq == pytest.approx(0.5, abs=1e-12)


def test_restricted_spectrum_exact_matches_subset_svd():
    rng = np.random.default_rng(11)
    a = random_unit_atoms(rng, 8, 12)
    sp = restricted_spectrum(a, 3)
    assert sp.exact
    import itertools

    hi = max(
        np.linalg.svd(a[:, list(c)], compute_uv=False)[0] ** 2
        for c in itertools.combinations(range(12), 3)
    )
    lo = min(
        np.linalg.svd(a[:, list(c)], compute_uv=False)[-1] ** 2
        for c in itertools.combinations(range(12), 3)
    )
    assert sp.sigma_max_sq == pytest.approx(hi, rel=1e-12)
    assert sp.sigma_min_sq == pytest.approx(lo, rel=1e-12)


def test_restricted_spectrum_fast_path_equals_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = random_unit_atoms(rng, 6, 9)
        fast = restricted_spectrum(a, 2)
        slow = restricted_spectrum(a, 2, exact=True)
        assert not fast.exact and slow.exact
        assert abs(fast.sigma_max_sq - slow.sigma_max_sq) <= 1e-10
        assert abs(fast.sigma_min_sq - slow.sigma_min_sq) <= 1e-10


def test_restricted_spectrum_guard():
    a = random_unit_atoms(np.random.default_rng(13), 8, 64)
    with pytest.raises(TooLarge):
        restricted_spectrum(a, 6)
    with pytest.raises(TooLarge):
        restricted_spectrum(a, 6, exact=False)


def swap_rows_by_removal(a, fact, y, positions):
    """Reference swap rows: factor_remove each position, then the addition formula."""
    r = fact.residual(y)
    rows = []
    for j in positions:
        sub = factor_remove(fact, j)
        r_sub = sub.residual(y)
        rows.append(0.5 * (r @ r - r_sub @ r_sub) + addition_gains(a, sub, r_sub))
    rows = np.array(rows)
    rows[:, list(fact.columns)] = 0.0
    return rows


def factor(a, support):
    fact = empty_factorization(a.shape[0])
    for j in support:
        fact = factor_insert(fact, a, int(j))
    return fact


def dct_haar():
    return assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))]).matrix


def test_swap_gains_match_factor_remove_reference():
    a = dct_haar()
    rng = np.random.default_rng(14)
    for m in range(1, 7):
        for _ in range(20):
            support = rng.choice(a.shape[1], size=m, replace=False)
            if {0, 64} <= set(support.tolist()):
                continue  # the DC duplicates cannot share a support
            fact = factor(a, support)
            y = rng.standard_normal(a.shape[0]) * rng.uniform(0.1, 10.0)
            rows = swap_gains(a, fact, y, fact.residual(y), range(m))
            ref = swap_rows_by_removal(a, fact, y, range(m))
            assert np.abs(rows - ref).max() <= 1e-12 * (y @ y)


def test_swap_gains_dc_duplicate_regains_nothing():
    # Atoms 0 (DCT) and 64 (Haar) are the same constant atom.
    a = dct_haar()
    rng = np.random.default_rng(15)
    for m in range(1, 7):
        support = [0] + rng.choice(np.arange(1, 64), size=m - 1, replace=False).tolist()
        fact = factor(a, support)
        y = rng.standard_normal(a.shape[0])
        rows = swap_gains(a, fact, y, fact.residual(y), range(m))
        ref = swap_rows_by_removal(a, fact, y, range(m))
        assert np.abs(rows - ref).max() <= 1e-12 * (y @ y)
        # Trading atom 0 for 64 changes nothing; next to atom 0, atom 64 lies
        # in the span, so swapping it in for another atom is the bare removal.
        assert abs(rows[0, 64]) <= 1e-12 * (y @ y)
        r = fact.residual(y)
        for j in range(1, m):
            r_sub = factor_remove(fact, j).residual(y)
            assert rows[j, 64] == pytest.approx(0.5 * (r @ r - r_sub @ r_sub), abs=1e-12 * (y @ y))


@pytest.mark.parametrize("delta", [1e-9, 1e-6, 1e-3])
def test_swap_gains_with_nearly_dependent_pair(delta):
    # Atom 128 is a twin of atom 0 with inner product 1 - delta.
    base = dct_haar()
    rng = np.random.default_rng(16)
    for _ in range(10):
        tilt = int(rng.integers(1, 64))
        e = base[:, tilt] - (base[:, tilt] @ base[:, 0]) * base[:, 0]
        cos = 1.0 - delta
        twin = cos * base[:, 0] + np.sqrt(1.0 - cos * cos) * e / np.linalg.norm(e)
        a = np.column_stack([base, twin])
        m = int(rng.integers(2, 7))
        others = rng.choice(np.setdiff1d(np.arange(1, 128), [64, tilt]), size=m - 2, replace=False)
        support = rng.permutation(np.r_[0, 128, others])
        fact = factor(a, support)
        y = rng.standard_normal(a.shape[0])
        rows = swap_gains(a, fact, y, fact.residual(y), range(m))
        diff = np.abs(rows - swap_rows_by_removal(a, fact, y, range(m)))
        # Trading atom 0 for its duplicate 64 while the twin stays divides two
        # quantities of order delta, so any two eliminations differ there by
        # about eps / delta; every other entry agrees to rounding.
        j0 = int(np.flatnonzero(support == 0)[0])
        assert diff[j0, 64] <= 1e-15 / delta * (y @ y)
        diff[j0, 64] = 0.0
        assert diff.max() <= 1e-12 * (y @ y)


def test_solve_equals_solve_triangular_exactly():
    rng = np.random.default_rng(17)
    for m in range(1, 7):
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((12, m)))
            r = np.triu(rng.standard_normal((m, m))) + np.diag(rng.uniform(0.1, 2.0, size=m))
            fact = SupportFactorization(tuple(range(m)), q, np.ascontiguousarray(r))
            y = rng.standard_normal(12)
            assert np.array_equal(fact.solve(y), solve_triangular(r, q.T @ y, lower=False))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_nonfinite_data(bad):
    a = random_unit_atoms(np.random.default_rng(18), 8, 5)
    fact = factor(a, [0, 2, 3])
    y = np.ones(8)
    y[4] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        fact.solve(y)


def test_solve_rejects_a_zero_diagonal():
    # A singular R, as LAPACK's dtrtrs reports it (info > 0).
    r = np.triu(np.ones((3, 3)))
    r[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        SupportFactorization((0, 1, 2), np.eye(3), r).solve(np.ones(3))


def assert_fit_matches_dense(fit, a, y, tol=1e-8):
    """Coefficients, gradients and f of every point against ls_solve on its support."""
    for t in range(y.shape[1]):
        support = fit.index[t, : fit.size[t]].tolist()
        w = ls_solve(a, support, y[:, t])
        scale = max(1.0, float(np.abs(w).max()))
        assert np.abs(fit.coeffs[t, : len(support)] - w[support]).max(initial=0.0) <= tol * scale
        assert not fit.coeffs[t, len(support) :].any()
        assert np.abs(fit.gradients[:, t] - utility_gradient(y[:, t], w, a)).max() <= tol * scale
        assert abs(fit.f_values[t] - utility(y[:, t], w, a)) <= tol * scale


def test_gram_update_matches_dense_least_squares():
    # Random add and remove sequences over DCT+Haar; every support starts
    # with atom 0, so adding its duplicate 64 must be skipped.
    a = dct_haar()
    rng = np.random.default_rng(19)
    t_count, width = 40, 7
    y = rng.standard_normal((64, t_count)) * rng.uniform(0.1, 10.0, size=t_count)
    fit = gram_fit(a, y, width)
    everyone = np.arange(t_count)
    assert gram_update(fit, everyone, np.full(t_count, -1), np.zeros(t_count, dtype=int)).all()
    assert not gram_update(fit, everyone, np.full(t_count, -1), np.full(t_count, 64)).any()
    assert fit.rank_skips == t_count
    assert_fit_matches_dense(fit, a, y)
    for _ in range(30):
        points = rng.choice(t_count, size=int(rng.integers(1, t_count + 1)), replace=False)
        # A full support must make room; atoms already held are not offered.
        removed = np.array(
            [int(rng.integers(m)) if m == width or (m and rng.random() < 0.5) else -1 for m in fit.size[points]]
        )
        atoms = np.array(
            [-1 if rng.random() < 0.2 else rng.choice(np.setdiff1d(np.arange(128), fit.index[t])) for t in points]
        )
        before = [fit.index[t, : fit.size[t]].tolist() for t in points]
        added = gram_update(fit, points, removed, atoms)
        for t, support, pos, atom, appended in zip(points, before, removed, atoms, added):
            if pos >= 0:
                support.pop(pos)
            # Only an atom in the span of the rest is refused.
            _, off_span = lstsq_fit(a, support, a[:, atom])
            assert appended == (atom >= 0 and float(off_span @ off_span) > 1e-8)
            assert fit.index[t, : fit.size[t]].tolist() == support + ([int(atom)] if appended else [])
        assert_fit_matches_dense(fit, a, y)


@pytest.mark.parametrize("stack", [1, 3 * 128, None])
@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), t_count=st.integers(0, 40), width=st.integers(1, 12))
def test_gram_update_matches_its_reference_bytewise(stack, seed, t_count, width):
    # At STACK = 3 * 128 a solve chunk of up to STACK // (m + 1) points spans
    # several 3-point gradient slices; at 1 every chunk and slice holds one
    # point.  Edits mix removals, adds and adds of the duplicate DC atoms 0
    # and 64, which the span test refuses once the other one is held.
    a = dct_haar()
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((64, t_count)) * rng.uniform(0.1, 10.0, size=t_count)
    fits = [gram_fit(a, y, width), gram_fit(a, y, width)]
    with pytest.MonkeyPatch.context() as patch:
        if stack is not None:
            patch.setattr(linalg, "STACK", stack)
        for _ in range(int(rng.integers(1, 3 * width + 2))):
            points = rng.permutation(t_count)[: rng.integers(0, t_count + 1)]
            size = fits[0].size[points]
            # A full support drops an atom: its width has no room for the refit's Z + b.
            drop = (size == width) | (size > 0) & (rng.random(len(points)) < 0.3)
            removed = np.where(drop, rng.integers(0, np.maximum(size, 1)), -1)
            draw = rng.random(len(points))
            atoms = np.where(draw < 0.3, rng.choice([0, 64], len(points)), rng.integers(0, 128, len(points)))
            atoms[draw > 0.9] = -1
            got = gram_update(fits[0], points, removed, atoms)
            expected = gram_update_reference(fits[1], points, removed, atoms)
            assert got.tobytes() == expected.tobytes()
            for name in ("index", "size", "coeffs", "gradients", "f_values", "rank_skips"):
                got, expected = (np.asarray(getattr(fit, name)).tobytes() for fit in fits)
                assert got == expected, name


@pytest.mark.parametrize("atom", [-1, 5])
def test_gram_update_refuses_a_full_support_that_drops_nothing(atom):
    # A one-atom support in a fit of width 1 has no column for Z + b, even
    # with nothing to append; the call raises before it writes anything.
    a = dct_haar()
    fit = gram_fit(a, np.random.default_rng(26).standard_normal((64, 1)), 1)
    assert gram_update(fit, [0], [-1], [3]).all()
    names = ("index", "size", "coeffs", "gradients", "f_values", "rank_skips")
    before = [np.asarray(getattr(fit, name)).tobytes() for name in names]
    with pytest.raises(ValueError, match="width"):
        gram_update(fit, [0], [-1], [atom])
    assert [np.asarray(getattr(fit, name)).tobytes() for name in names] == before


@pytest.mark.parametrize("delta, skipped", [(1e-9, True), (1e-6, False), (1e-3, False)])
def test_gram_update_with_nearly_dependent_twin(delta, skipped):
    # Atom 128 is a twin of atom 0 with inner product 1 - delta, so its
    # squared distance to atom 0's span is about 2 * delta: below
    # SPAN_RTOL = 1e-8 only at delta = 1e-9, where the Gram form could not
    # resolve it; above, the fit keeps full accuracy.
    base = dct_haar()
    rng = np.random.default_rng(20)
    for _ in range(10):
        tilt = int(rng.integers(1, 64))
        e = base[:, tilt] - (base[:, tilt] @ base[:, 0]) * base[:, 0]
        cos = 1.0 - delta
        twin = cos * base[:, 0] + np.sqrt(1.0 - cos * cos) * e / np.linalg.norm(e)
        a = np.column_stack([base, twin])
        others = rng.choice(np.setdiff1d(np.arange(1, 128), [64, tilt]), size=3, replace=False)
        y = rng.standard_normal((64, 1))
        fit = gram_fit(a, y, 6)
        for atom in [0, *others]:
            assert gram_update(fit, [0], [-1], [atom]).all()
        assert gram_update(fit, [0], [-1], [128]).tolist() == [not skipped]
        assert_fit_matches_dense(fit, a, y)


def test_gram_gains_match_qr_gains():
    a = dct_haar()
    rng = np.random.default_rng(21)
    for m in range(0, 7):
        supports = []
        while len(supports) < 12:
            support = rng.choice(a.shape[1], size=m, replace=False).tolist()
            if not {0, 64} <= set(support):
                supports.append(support)
        y = rng.standard_normal((64, 12)) * rng.uniform(0.1, 10.0, size=12)
        fit = gram_fit(a, y, max(m, 1))
        for j in range(m):
            gram_update(fit, np.arange(12), np.full(12, -1), [z[j] for z in supports])
        add, swap = gram_gains(fit, np.arange(12))
        assert swap.shape == (12, m, a.shape[1])
        for t, support in enumerate(supports):
            fact = factor(a, support)
            r = fact.residual(y[:, t])
            outside = np.setdiff1d(np.arange(a.shape[1]), support)
            tol = 1e-12 * float(y[:, t] @ y[:, t])
            assert np.abs(add[t, outside] - addition_gains(a, fact, r)[outside]).max() <= tol
            if m:
                rows = swap_gains(a, fact, y[:, t], r, range(m))
                assert np.abs(swap[t][:, outside] - rows[:, outside]).max() <= tol


def fitted_supports(a, y, m, rng, first=()):
    """A GramFit of the columns of ``y``, each on ``first`` plus random atoms up to m (never both 0 and 64)."""
    t_count = y.shape[1]
    fit = gram_fit(a, y, m)
    for j in range(m):
        if j < len(first):
            atoms = np.full(t_count, first[j])
        else:
            atoms = [rng.choice(np.setdiff1d(np.arange(1, 64), fit.index[t, : fit.size[t]])) for t in range(t_count)]
        assert gram_update(fit, np.arange(t_count), np.full(t_count, -1), atoms).all()
    return fit


@pytest.mark.parametrize("points", [None, 1, 10, 64])
def test_in_place_gain_kernels_match_their_expressions_bitwise(points):
    # Every support holds atom 0, so its Haar duplicate 64 lies in the span:
    # the additions and most swap rows meet den <= SPAN_RTOL there.  None
    # takes one point's (m, n) terms, as an online round does.
    a = dct_haar()
    rng = np.random.default_rng(23)
    t_count = points or 1
    y = rng.standard_normal((64, t_count))
    for m in (2, 3, 5):
        fit = fitted_supports(a, y, m, rng, first=(0,))
        pts = np.arange(t_count)
        z = fit.index[:, :m]
        gz = fit.gram[z]
        inv = np.linalg.inv(np.take_along_axis(gz, z[:, None, :], axis=2))
        c, dist = linalg.gram_terms(inv, gz)
        grad, w = fit.gradients.T, fit.coeffs[:, :m, None]
        gamma = np.diagonal(inv, axis1=-2, axis2=-1)[..., None]
        if points is None:
            c, dist, grad, w, gamma = c[0], dist[0], grad[0], w[0], gamma[0]
        den = dist[..., None, :] + c**2 / gamma
        assert (dist <= linalg.SPAN_RTOL).any() and (den <= linalg.SPAN_RTOL).any()
        assert (den > linalg.SPAN_RTOL).any()
        kept = dist.copy()
        add = regain_expression(grad**2, dist)
        num = np.square(grad)
        assert linalg._regain(num, dist) is num
        assert np.array_equal(num, add) and np.array_equal(dist, kept)
        rows = swap_rows_expression(c, grad, w, gamma, dist)
        buffer = c.copy()
        assert linalg._swap_rows(buffer, grad, w, gamma, dist) is buffer
        assert np.array_equal(buffer, rows) and np.array_equal(dist, kept)
        if points is not None:
            gains = gram_gains(fit, pts)
            assert np.array_equal(gains[0], add) and np.array_equal(gains[1], rows)


def test_regain_zeroes_every_distance_not_above_the_tolerance():
    tol = linalg.SPAN_RTOL
    den = np.array([-1.0, 0.0, tol / 2, tol, np.nextafter(tol, 1.0), 1e-6, 1.0, np.inf, np.nan])
    num = np.linspace(0.5, 4.5, den.size)
    with np.errstate(invalid="ignore"):
        expected = regain_expression(num, den)
    assert np.array_equal(linalg._regain(num.copy(), den), expected)
    assert np.array_equal(expected == 0.0, [True] * 4 + [False] * 3 + [True] * 2)


def test_an_atom_within_the_span_cut_gains_nothing_and_is_refused():
    # Atom 2 lies at squared distance about 1e-10 from span(atoms 0, 1):
    # above rounding, within SPAN_RTOL.  Its addition gains 0, its swap
    # for atom 1 (which leaves it as close to span(atom 0)) regains nothing
    # beyond the removal loss, and the refit refuses it, in the batched
    # kernels and in an online round alike.  Its gradient is about 1e-5, so
    # a smaller cut would price both at about 0.5.
    eps = 1e-5
    a = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, eps], [0.0, 0.0, 0.0]])
    a /= np.linalg.norm(a, axis=0)
    y = np.array([[0.3], [0.7], [1.0], [0.5]])
    fit = gram_fit(a, y, 3)
    for atom in (0, 1):
        assert gram_update(fit, [0], [-1], [atom]).all()
    inv = np.linalg.inv(fit.gram[:2, :2])
    _, dist = linalg.gram_terms(inv, fit.gram[:2])
    assert 1e-12 < dist[2] <= linalg.SPAN_RTOL
    loss = -0.5 * fit.coeffs[0, 1] ** 2 / inv[1, 1]  # removing atom 1
    add, swap = gram_gains(fit, [0])
    assert add[0, 2] == 0.0 and swap[0, 1, 2] == pytest.approx(loss, rel=1e-9)
    assert not gram_update(fit, [0], [-1], [2]).any() and fit.rank_skips == 1
    round_fit = online._RoundFit(gram_matrix(a), (a.T @ y)[:, 0])
    assert round_fit.replace(None, 0) and round_fit.replace(None, 1)
    assert online._greedy_gains(round_fit, True)[0][2] == 0.0
    assert online._greedy_gains(round_fit, False)[1][1, 2] == pytest.approx(loss, rel=1e-9)
    assert not round_fit.replace(None, 2)


def test_gram_gains_peak_memory_is_four_swap_tables():
    # One 64-point chunk at m = 5, the most a 128-atom chunk holds: the
    # kernels write the swap rows into c, so besides G[Z, :] and c the
    # call holds the distances and their scaled copy, within 4 (P, m, n)
    # float tables.  Written as expressions on fresh arrays, the same
    # gains peaked at 6.8 tables.
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    y = synth_dataset(gs, 64, 30, 5, 0).matrix
    fit = fitted_supports(gs.matrix, y, 5, np.random.default_rng(24))
    tracemalloc.start()
    try:
        add, swap = gram_gains(fit, np.arange(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swap.shape == (64, 5, gs.n)
    assert peak <= 4 * swap.nbytes


def test_gram_update_peak_memory_is_three_gradient_slices():
    # Adding a 12th atom to 2,000 points: a solve chunk holds STACK // 12 =
    # 682 points, so its one (P, 12, 12) gather of G[Z + b, Z + b] stays
    # within 12 * STACK floats, and the gradient refresh gathers G[Z, :] for
    # 64 points at a time, 12 * STACK floats.  Solving the whole size group
    # at once held 5.7 such slices here, growing with T.
    a = dct_haar()
    rng = np.random.default_rng(25)
    t_count, width = 2000, 12
    y = rng.standard_normal((64, t_count))
    atoms = np.argsort(rng.random((t_count, 63)), axis=1)[:, :width] + 1  # orthonormal DCT atoms
    fit = gram_fit(a, y, width)
    everyone, none = np.arange(t_count), np.full(t_count, -1)
    for j in range(width - 1):
        gram_update(fit, everyone, none, atoms[:, j])
    tracemalloc.start()
    try:
        added = gram_update(fit, everyone, none, atoms[:, -1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert added.all() and (fit.size == width).all()
    assert peak <= 3 * width * linalg.STACK * 8


def chunked_outputs():
    """OMP codes and selector runs whose batched kernels span several default chunks."""
    rng = np.random.default_rng(41)
    a = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))]).matrix
    planted = rng.choice(a.shape[1], size=12, replace=False)

    def points(t_count):
        # 1- to 4-sparse points, every other one noise-free, so that supports
        # stop growing at different sizes and chunks mix them.
        y = np.stack([a[:, rng.choice(planted, size=1 + t % 4, replace=False)] @ rng.standard_normal(1 + t % 4)
                      for t in range(t_count)], axis=1)
        y[:, 1::2] += 0.05 * rng.standard_normal((a.shape[0], t_count // 2))
        return y

    y, test = points(150), points(900)
    fit, residual_sq = omp_codes(a[:, planted[:10].tolist() + [0, 64] + list(range(100, 108))], test, 4)
    out = {"omp": (fit.index, fit.size, fit.coeffs, residual_sq)}
    # Average and block sparsity leave mixed support sizes, so that one
    # gram_update call holds several size groups.
    blocks = BlockSparsity(tuple(tuple(range(b, b + 10)) for b in range(0, 150, 10)), (5,) * 15)
    for name, select in (
        ("romp", lambda: replacement_omp(y, a, IndividualSparsity(3), SelectorConfig(k=12))),
        ("greedy", lambda: replacement_greedy(y, a, IndividualSparsity(3), 12)),
        ("romp_average", lambda: replacement_omp(y, a, AverageSparsity.uniform(150, 4, 300), SelectorConfig(k=12))),
        ("romp_block", lambda: replacement_omp(y, a, blocks, SelectorConfig(k=12))),
    ):
        state = select()
        fit = state.fit
        out[name] = (state.atoms, fit.index, fit.coeffs, fit.size, fit.gradients, fit.f_values, fit.rank_skips,
                     state.objective_history)
    return out


@pytest.mark.parametrize("stack", [1, 512, 10**9])
def test_results_do_not_depend_on_chunk_size(monkeypatch, stack):
    # By default the 128-atom selectors take 64 points per chunk and the
    # 20-atom OMP 409; one-point chunks and a single chunk must agree bitwise.
    # At 512 gram_update solves a size group of up to 512 // (m + 1) points
    # in one chunk and refreshes its gradients in 4-point slices.
    default = chunked_outputs()
    monkeypatch.setattr(linalg, "STACK", stack)
    for name, values in chunked_outputs().items():
        for got, expected in zip(values, default[name]):
            assert np.array_equal(got, expected), name


def test_gram_fit_rejects_data_of_another_dimension():
    a = dct2_basis(4)
    y = np.random.default_rng(42).standard_normal((15, 6))
    with pytest.raises(DimensionMismatch):
        gram_fit(a, y, 2)
    with pytest.raises(DimensionMismatch):
        replacement_omp(y, a, IndividualSparsity(2), SelectorConfig(k=3))
    with pytest.raises(DimensionMismatch):
        replacement_greedy(y, a, IndividualSparsity(2), 3)
