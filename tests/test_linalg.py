import numpy as np
import pytest
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
)
from dictsel import linalg
from dictsel.constraints import IndividualSparsity
from dictsel.errors import DimensionMismatch, InvalidGroundSet, RankDeficient, TooLarge
from dictsel.encoders import omp_codes, utility, utility_gradient
from dictsel.offline import SelectorConfig, replacement_greedy, replacement_omp
from dictsel.linalg import SupportFactorization, addition_gains, gram_fit, gram_gains, gram_matrix, gram_update
from dictsel.linalg import swap_gains

from conftest import random_unit_atoms
from oracles import lstsq_fit


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
    for name, select in (
        ("romp", lambda: replacement_omp(y, a, IndividualSparsity(3), SelectorConfig(k=12))),
        ("greedy", lambda: replacement_greedy(y, a, IndividualSparsity(3), 12)),
    ):
        state = select()
        out[name] = (state.atoms, state.fit.index, state.fit.coeffs, state.objective_history)
    return out


@pytest.mark.parametrize("stack", [1, 10**9])
def test_results_do_not_depend_on_chunk_size(monkeypatch, stack):
    # By default the 128-atom selectors take 64 points per chunk and the
    # 20-atom OMP 409; one-point chunks and a single chunk must agree bitwise.
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
