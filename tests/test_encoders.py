import numpy as np
import pytest

from dictsel import assemble, dct2_basis, haar2_basis, ls_solve, omp_encode, utility, utility_gradient
from dictsel.cli import residual_variance
from dictsel.encoders import omp_codes
from dictsel.errors import DimensionMismatch

from conftest import random_unit_atoms
from oracles import omp_reference


def dct_haar():
    return assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))]).matrix


def test_omp_exact_atom():
    a = dct2_basis(4)
    code = omp_encode(a, a[:, 5].copy(), 1)
    assert code.support == [5]
    assert code.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert code.residual_sq <= 1e-20


def test_omp_orthogonal_target():
    a = np.zeros((4, 2))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    y = np.array([0.0, 0.0, 2.0, 1.0])
    code = omp_encode(a, y, 2)
    assert code.support == []
    assert code.residual_sq == pytest.approx(float(y @ y), abs=1e-12)


def test_omp_orthonormal_picks_top_correlations():
    rng = np.random.default_rng(21)
    a = dct2_basis(4)
    y = rng.standard_normal(16)
    code = omp_encode(a, y, 2)
    corr = np.abs(a.T @ y)
    expected = set(np.argsort(-corr)[:2])
    assert set(code.support) == expected
    expected_resid = float(y @ y) - float(np.sort(corr**2)[-2:].sum())
    assert code.residual_sq == pytest.approx(expected_resid, abs=1e-10)


def test_omp_skips_dependent_atoms():
    base = np.array([1.0, 0.0, 0.0])
    a = np.column_stack([base, base, [0.0, 1.0, 0.0]])
    y = np.array([2.0, 1.0, 0.0])
    code = omp_encode(a, y, 2)
    assert sorted(code.support) == [0, 2]
    assert code.residual_sq <= 1e-20


def test_omp_zero_sparsity():
    a = dct2_basis(2)
    y = np.ones(4)
    code = omp_encode(a, y, 0)
    assert code.support == []
    assert code.residual_sq == pytest.approx(4.0)


def test_omp_residual_monotone_in_sparsity():
    rng = np.random.default_rng(22)
    a = random_unit_atoms(rng, 12, 30)
    y = rng.standard_normal(12)
    residuals = [omp_encode(a, y, s).residual_sq for s in range(7)]
    for lo, hi in zip(residuals[1:], residuals[:-1]):
        assert lo <= hi + 1e-12


def test_omp_residual_consistency():
    rng = np.random.default_rng(23)
    a = random_unit_atoms(rng, 10, 25)
    y = rng.standard_normal(10)
    code = omp_encode(a, y, 4)
    recon = a[:, code.support] @ code.coefficients
    assert code.residual_sq == pytest.approx(float((y - recon) @ (y - recon)), abs=1e-8)


def test_omp_masked_encoding():
    rng = np.random.default_rng(24)
    a = random_unit_atoms(rng, 16, 8)
    w = np.zeros(8)
    w[[1, 4]] = [2.0, -1.0]
    y = a @ w
    mask = np.ones(16, dtype=bool)
    mask[:6] = False
    code = omp_encode(a, y, 2, mask=mask)
    assert set(code.support) == {1, 4}
    assert code.residual_sq <= 1e-16
    # Observed-only residual: corrupting a masked coordinate changes nothing.
    y2 = y.copy()
    y2[0] += 100.0
    code2 = omp_encode(a, y2, 2, mask=mask)
    assert code2.residual_sq == pytest.approx(code.residual_sq, abs=1e-12)


def test_batched_codes_match_per_point_omp():
    # Dictionaries hold the DC duplicates 0 and 64 next to random atoms.
    a = dct_haar()
    rng = np.random.default_rng(26)
    for _ in range(6):
        atoms = np.unique([0, 64] + rng.choice(np.arange(1, 128), size=8, replace=False).tolist())
        d = a[:, rng.permutation(atoms)]
        # The two DC columns are equal up to rounding; either may be picked.
        dc = [j for j in range(d.shape[1]) if np.allclose(d[:, j], a[:, 0], rtol=0.0, atol=1e-15)]
        same = {dc[1]: dc[0]}
        planted = d[:, rng.choice(d.shape[1], size=4, replace=False)]
        y = planted @ rng.standard_normal((4, 120)) + 0.1 * rng.standard_normal((64, 120))
        for s in (1, 3, 5):
            reference = [omp_reference(d, y[:, t], s) for t in range(y.shape[1])]
            fit, residual_sq = omp_codes(d, y, s)
            expected = sum(r for _, r in reference) / y.size
            assert residual_variance(d, y, s) == pytest.approx(expected, rel=1e-12)
            assert np.allclose(residual_sq, [r for _, r in reference], rtol=1e-10, atol=0.0)
            for t, (support, _) in enumerate(reference):
                got = fit.index[t, : fit.size[t]].tolist()
                assert [same.get(j, j) for j in got] == [same.get(j, j) for j in support]


def test_residual_variance_is_scale_invariant():
    # The rank skip is relative to each atom's norm, so scaling the
    # dictionary moves nothing; 0 and 64 are the DC duplicates.
    d = dct_haar()[:, [0, 64, 3, 70, 9]]
    y = np.random.default_rng(1).standard_normal((64, 50))
    for c in (1e-3, 1.0, 3.0, 1e3):
        assert residual_variance(c * d, y, 3) == pytest.approx(0.9261239722544842, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_dictionary_raises_value_error(bad):
    d = dct2_basis(4)[:, :6].copy()
    d[2, 3] = bad
    y = np.random.default_rng(27).standard_normal((16, 5))
    with pytest.raises(ValueError, match="infs or NaNs"):
        omp_encode(d, y[:, 0], 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        residual_variance(d, y, 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        residual_variance(d, y, 0)


def test_utility_zero_code():
    y = np.array([1.0, 2.0])
    assert utility(y, np.zeros(2), np.eye(2)) == 0.0


def test_utility_perfect_reconstruction():
    a = dct2_basis(2)
    y = np.array([1.0, -2.0, 0.5, 3.0])
    w = a.T @ y
    assert utility(y, w, a) == pytest.approx(0.5 * float(y @ y), abs=1e-10)


def test_utility_algebraic_identity(rng):
    a = random_unit_atoms(rng, 7, 11)
    y = rng.standard_normal(7)
    w = rng.standard_normal(11)
    x = a @ w
    direct = float(y @ x) - 0.5 * float(x @ x)
    assert utility(y, w, a) == pytest.approx(direct, abs=1e-10)


def test_gradient_at_origin(rng):
    a = random_unit_atoms(rng, 6, 9)
    y = rng.standard_normal(6)
    assert np.allclose(utility_gradient(y, np.zeros(9), a), a.T @ y, atol=1e-12)


def test_gradient_vanishes_on_solved_support(rng):
    a = random_unit_atoms(rng, 10, 15)
    y = rng.standard_normal(10)
    support = [2, 6, 11]
    w = ls_solve(a, support, y)
    grad = utility_gradient(y, w, a)
    assert np.abs(grad[support]).max() <= 1e-8


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(25)
    h = 1e-6
    for _ in range(100):
        a = random_unit_atoms(rng, 5, 8)
        y = rng.standard_normal(5)
        w = rng.standard_normal(8)
        grad = utility_gradient(y, w, a)
        fd = np.empty(8)
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd[j] = (utility(y, w + e, a) - utility(y, w - e, a)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def test_f_monotone_in_support(rng):
    a = random_unit_atoms(rng, 9, 14)
    for _ in range(20):
        y = rng.standard_normal(9)
        size = int(rng.integers(0, 5))
        z = list(rng.choice(14, size=size, replace=False))
        extra = int(rng.choice([j for j in range(14) if j not in z]))
        f_small = utility(y, ls_solve(a, z, y), a)
        f_big = utility(y, ls_solve(a, z + [extra], y), a)
        assert f_big >= f_small - 1e-12


@pytest.mark.parametrize("s", [2.5, -1, "2"])
def test_sparsity_must_be_a_nonnegative_integer(s):
    d = dct2_basis(4)[:, :6]
    y = np.random.default_rng(28).standard_normal((16, 5))
    with pytest.raises(ValueError, match="sparsity must be a nonnegative integer"):
        omp_codes(d, y, s)
    with pytest.raises(ValueError, match="sparsity must be a nonnegative integer"):
        residual_variance(d, y, s)
    assert residual_variance(d, y, np.int64(2)) == residual_variance(d, y, 2)


def test_omp_codes_reject_data_of_another_dimension():
    y = np.random.default_rng(29).standard_normal((15, 5))
    with pytest.raises(DimensionMismatch):
        omp_codes(dct2_basis(4)[:, :6], y, 2)


def test_residual_variance_rejects_data_of_another_dimension():
    y = np.random.default_rng(30).standard_normal((15, 5))
    with pytest.raises(DimensionMismatch):
        residual_variance(dct2_basis(4)[:, :6], y, 2)
    with pytest.raises(DimensionMismatch):
        residual_variance(np.zeros((16, 0)), y, 0)


def test_omp_encode_rejects_a_mask_of_another_length():
    y = np.random.default_rng(31).standard_normal(16)
    with pytest.raises(DimensionMismatch):
        omp_encode(dct2_basis(4), y, 2, mask=np.ones(15, dtype=bool))
