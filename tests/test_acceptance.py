"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default ``pytest`` run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dictsel import (
    AverageSparsity,
    ExchangeInstance,
    IndividualSparsity,
    apply_replacement,
    assemble,
    best_replacement,
    dct2_basis,
    empty_factorization,
    factor_insert,
    factor_remove,
    haar2_basis,
    is_feasible,
    restricted_spectrum,
    solve_exchange,
    utility,
    utility_gradient,
)
from dictsel.cli import brute_force_optimum, residual_variance
from dictsel.data_io import synth_dataset
from dictsel.offline import SelectorConfig, modular_greedy, replacement_greedy, replacement_omp
from dictsel.online import expert_hindsight_regrets, online_round, online_state

from conftest import random_unit_atoms
from oracles import exchange_optimum, lstsq_fit
from test_constraints import make_gains, random_constraint, random_supports

PASS = "[PASS] criterion {num}: {message}"


def report(num, message):
    print(PASS.format(num=num, message=message))


def test_criterion_01_exchange_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        t_count = int(rng.integers(1, 9))
        gains = rng.uniform(0.0, 1.0, size=t_count)
        costs = rng.uniform(0.0, 1.0, size=t_count)
        tight = frozenset(int(t) for t in range(t_count) if rng.random() < 0.5)
        slack = int(rng.integers(0, 4))
        _, _, value = solve_exchange(ExchangeInstance(gains, costs, tight, slack))
        expected = exchange_optimum(gains, costs, tight, slack)
        assert abs(value - expected) <= 1e-12, (gains, costs, tight, slack)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"exchange solver exact on {checked} instances in {elapsed:.2f}s")


def test_criterion_02_replacement_feasibility():
    rng = np.random.default_rng(102)
    violations = 0
    per_family = 1000
    for family in ("individual", "matroid", "block", "average"):
        for _ in range(per_family):
            t_count = int(rng.integers(1, 7))
            constraint = random_constraint(rng, family, t_count)
            supports = random_supports(rng, constraint, t_count)
            atom = int(rng.integers(12))
            gains = make_gains(rng, supports, atom, zero_frac=0.3)
            rep = best_replacement(constraint, supports, atom, *gains)
            if not is_feasible(constraint, apply_replacement(supports, rep)):
                violations += 1
    assert violations == 0
    report(2, f"0 feasibility violations over {4 * per_family} replacements")


def _ratio(m_small, m_big, k, p):
    return (m_small / m_big) ** 2 * (1.0 - math.exp(-(k / p) * (m_big / m_small)))


def _individual_options(s):
    def options(dictionary, t):
        return itertools.combinations(dictionary, min(s, len(dictionary)))

    return options


@pytest.fixture(scope="module")
def ratio_runs():
    """Criterion-3 runs, kept for the per-replacement audit of criterion 4."""
    d, n, t_count, k, s = 8, 10, 4, 3, 2
    runs = []
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng([103, seed])
        a = random_unit_atoms(rng, d, n)
        y = rng.standard_normal((d, t_count))
        m_small = restricted_spectrum(a, 2 * s, exact=True).sigma_min_sq
        m_big = restricted_spectrum(a, 2, exact=True).sigma_max_sq
        constraint = IndividualSparsity(s)
        opt, _, _ = brute_force_optimum(y, a, constraint, k)
        romp = replacement_omp(
            y, a, constraint, SelectorConfig(k=k, smoothness=m_big), trace=True
        )
        rg = replacement_greedy(y, a, constraint, k, trace=True)
        runs.append(
            {
                "kind": "individual",
                "m": m_small,
                "M": m_big,
                "p": k,
                "opt": opt,
                "states": [romp, rg],
            }
        )
    for seed in range(20):
        rng = np.random.default_rng([104, seed])
        a = random_unit_atoms(rng, d, n)
        y = rng.standard_normal((d, t_count))
        m_small = restricted_spectrum(a, 2 * s, exact=True).sigma_min_sq
        m_big = restricted_spectrum(a, 2, exact=True).sigma_max_sq
        constraint = AverageSparsity((s,) * t_count, 5)
        opt, _, _ = brute_force_optimum(y, a, constraint, k)
        romp = replacement_omp(
            y, a, constraint, SelectorConfig(k=k, smoothness=m_big), trace=True
        )
        runs.append(
            {
                "kind": "average",
                "m": m_small,
                "M": m_big,
                "p": 3 * k - 1,
                "opt": opt,
                "states": [romp],
            }
        )
    return runs, k, time.perf_counter() - start


def test_criterion_03_approximation_ratio(ratio_runs):
    runs, k, elapsed = ratio_runs
    violations = 0
    for run in runs:
        bound = _ratio(run["m"], run["M"], k, run["p"]) * run["opt"]
        for state in run["states"]:
            if state.objective < bound - 1e-9:
                violations += 1
            assert state.objective <= run["opt"] + 1e-9
    assert violations == 0
    assert elapsed < 120.0
    total = sum(len(run["states"]) for run in runs)
    report(3, f"{total} selector runs clear the certified ratio bound ({elapsed:.1f}s)")


def test_criterion_04_per_replacement_smoothness(ratio_runs):
    runs, _, _ = ratio_runs
    checked = 0
    for run in runs:
        m_big = run["M"]
        for state in run["states"]:
            assert state.trace is not None and state.trace
            for rec in state.trace:
                lower = rec.grad_sq_added / (2 * m_big) - m_big * rec.coeff_sq_removed / 2
                assert rec.f_after - rec.f_before >= lower - 1e-8
                checked += 1
    report(4, f"smoothness inequality holds on all {checked} applied replacements")


def test_criterion_05_planted_recovery():
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    k_planted, s, t_count, trials = 20, 5, 100, 20
    start = time.perf_counter()
    rvs = []
    for trial in range(trials):
        rng = np.random.default_rng([105, trial])
        planted = np.sort(rng.choice(gs.n, size=k_planted, replace=False))
        train = synth_dataset(gs, t_count, k_planted, s, [105, trial, 0], planted=planted)
        test = synth_dataset(gs, t_count, k_planted, s, [105, trial, 1], planted=planted)
        state = replacement_omp(
            train, gs, IndividualSparsity(s), SelectorConfig(k=k_planted)
        )
        rvs.append(residual_variance(gs.matrix[:, state.atoms], test, s))
    elapsed = time.perf_counter() - start
    mean_rv = float(np.mean(rvs))
    assert mean_rv <= 0.05
    assert elapsed < 60.0
    report(5, f"mean test residual variance {mean_rv:.2e} <= 0.05 ({elapsed:.1f}s)")


def test_criterion_06_method_ordering():
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    s, t_count, trials = 5, 100, 20
    romp_rv = {}
    modular_rv = {}
    romp_time = []
    rg_time = []
    for k in (10, 20, 30):
        romp_vals, modular_vals = [], []
        for trial in range(trials):
            rng = np.random.default_rng([106, k, trial])
            planted = np.sort(rng.choice(gs.n, size=k, replace=False))
            train = synth_dataset(gs, t_count, k, s, [106, k, trial, 0], planted=planted)
            test = synth_dataset(gs, t_count, k, s, [106, k, trial, 1], planted=planted)
            constraint = IndividualSparsity(s)
            t0 = time.perf_counter()
            romp = replacement_omp(train, gs, constraint, SelectorConfig(k=k))
            romp_time.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            replacement_greedy(train, gs, constraint, k)
            rg_time.append(time.perf_counter() - t0)
            modular = modular_greedy(train, gs, k, s)
            romp_vals.append(residual_variance(gs.matrix[:, romp.atoms], test, s))
            modular_vals.append(residual_variance(gs.matrix[:, modular.atoms], test, s))
        romp_rv[k] = float(np.mean(romp_vals))
        modular_rv[k] = float(np.mean(modular_vals))
        assert romp_rv[k] <= modular_rv[k]
    speedup = float(np.mean(rg_time)) / float(np.mean(romp_time))
    romp_ms, rg_ms = 1e3 * float(np.mean(romp_time)), 1e3 * float(np.mean(rg_time))
    timing = f"exact-gain greedy {speedup:.2f}x slower ({rg_ms:.2f} ms against romp's {romp_ms:.2f} ms per run)"
    assert speedup >= 3.0, timing
    report(
        6,
        "romp residual <= modular at k in {10,20,30} "
        f"({romp_rv[10]:.1e}/{modular_rv[10]:.1e}, {romp_rv[30]:.1e}/{modular_rv[30]:.1e}); " + timing,
    )


def test_criterion_07_average_sparsity_benchmark():
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    t_count = 200
    constraint = AverageSparsity((8,) * t_count, 5 * t_count)
    train = synth_dataset(gs, t_count, 20, 5, 107)
    start = time.perf_counter()
    state = replacement_omp(train, gs, constraint, SelectorConfig(k=20))
    elapsed = time.perf_counter() - start
    assert is_feasible(constraint, state.supports)
    total_support = sum(len(z) for z in state.supports)
    assert total_support <= 5 * t_count
    assert elapsed < 30.0
    report(
        7,
        f"average-sparsity run feasible, total support {total_support} <= {5 * t_count} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_08_qr_consistency():
    rng = np.random.default_rng(108)
    d, n = 16, 32
    a = random_unit_atoms(rng, d, n)
    y = rng.standard_normal(d)
    fact = empty_factorization(d)
    worst = 0.0
    for _ in range(10_000):
        if fact.m and (fact.m >= 12 or rng.random() < 0.45):
            fact = factor_remove(fact, int(rng.integers(fact.m)))
        else:
            absent = [j for j in range(n) if j not in fact.columns]
            fact = factor_insert(fact, a, int(rng.choice(absent)))
        w = np.zeros(n)
        if fact.m:
            w[list(fact.columns)] = fact.solve(y)
        w_ref, _ = lstsq_fit(a, fact.columns, y)
        worst = max(worst, float(np.abs(w - w_ref).max()))
    assert worst <= 1e-8
    report(8, f"10000 incremental updates, max coefficient drift {worst:.2e}")


def test_criterion_09_gradient_check():
    rng = np.random.default_rng(109)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        a = random_unit_atoms(rng, 6, 10)
        y = rng.standard_normal(6)
        w = rng.standard_normal(10)
        grad = utility_gradient(y, w, a)
        fd = np.empty(10)
        for j in range(10):
            e = np.zeros(10)
            e[j] = h
            fd[j] = (utility(y, w + e, a) - utility(y, w - e, a)) / (2 * h)
        rel = float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)))
        worst = max(worst, rel)
    assert worst <= 1e-5
    report(9, f"gradient matches central differences, worst relative error {worst:.2e}")


def test_criterion_10_online_hedge_regret():
    a = dct2_basis(8)
    n, k, s, horizon, seeds = 64, 10, 3, 500, 50
    start = time.perf_counter()
    within = 0
    total = 0
    early, late = [], []
    for seed in range(seeds):
        rng = np.random.default_rng([110, seed])
        planted = rng.choice(n, size=10, replace=False)
        state = online_state(
            "online_replacement_omp", a, k=k, s=s, horizon=horizon, seed=seed
        )
        for _ in range(horizon):
            support = rng.choice(planted, size=s, replace=False)
            y = a[:, support] @ rng.standard_normal(s)
            online_round(state, y, a)
        regrets = expert_hindsight_regrets(state)
        bound = state.gain_bound * math.sqrt(2 * horizon * math.log(n))
        within += int((regrets <= bound).sum())
        total += k
        gains = np.array(state.ledger.player_gains)
        early.append(gains[:100].mean())
        late.append(gains[400:500].mean())
    elapsed = time.perf_counter() - start
    fraction = within / total
    assert fraction >= 0.95
    assert float(np.mean(late)) > float(np.mean(early))
    assert elapsed < 180.0
    report(
        10,
        f"hindsight regret within bound for {fraction:.1%} of pairs; "
        f"mean utility {np.mean(early):.3f} -> {np.mean(late):.3f} ({elapsed:.0f}s)",
    )


def test_criterion_11_recursion_helper():
    from recursion import (
        check_cumulative_bound,
        exponential_lower_bound,
        geometric_lower_bound,
        satisfies_recursion,
    )

    rng = np.random.default_rng(111)
    for _ in range(100):
        c_const = float(rng.uniform(0.05, 1.0))
        v_star = float(rng.uniform(0.0, 10.0))
        length = int(rng.integers(1, 30))
        residuals = rng.uniform(0.0, 0.2, size=length)
        deltas = []
        covered = 0.0
        for i in range(length):
            base = max(0.0, c_const * (v_star - covered) - residuals[i])
            delta = base + float(rng.uniform(0.0, 0.3))
            deltas.append(delta)
            covered += delta
        assert satisfies_recursion(deltas, c_const, v_star, residuals)
        assert check_cumulative_bound(deltas, c_const, v_star, residuals)
        assert sum(deltas) >= exponential_lower_bound(c_const, v_star, length, residuals) - 1e-9
        assert geometric_lower_bound(c_const, v_star, length, residuals) >= exponential_lower_bound(
            c_const, v_star, length, residuals
        ) - 1e-9
    report(11, "recursion helper bound holds on 100 synthetic gain sequences")
