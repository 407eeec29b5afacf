import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsel import (
    AverageSparsity,
    BlockSparsity,
    IndividualSparsity,
    PartitionMatroid,
    coherence,
    dct2_basis,
    haar2_basis,
    is_feasible,
    ls_solve,
    restricted_spectrum,
    utility,
    utility_gradient,
)
from dictsel import constraints, offline
from dictsel.constraints import replacement_values, search_replacement, solve_exchange
from dictsel.errors import UnsupportedConstraint
from dictsel.offline import SelectorConfig, modular_greedy, replacement_greedy, replacement_omp

from conftest import random_unit_atoms
from oracles import dictionary_optimum, f_value
from recursion import check_cumulative_bound, satisfies_recursion


def planted_data(rng, a, k_planted, s, t_count):
    planted = rng.choice(a.shape[1], size=k_planted, replace=False)
    y = np.zeros((a.shape[0], t_count))
    for t in range(t_count):
        support = rng.choice(planted, size=s, replace=False)
        y[:, t] = a[:, support] @ rng.standard_normal(s)
    return y, planted


def state_consistency(state, a, y, constraint):
    assert is_feasible(constraint, state.supports)
    for t in range(y.shape[1]):
        assert set(state.supports[t]) <= set(state.atoms)
        w = ls_solve(a, state.supports[t], y[:, t])
        compact = np.zeros(a.shape[1])
        if state.supports[t]:
            compact[state.supports[t]] = state.coeffs[t]
        assert np.abs(w - compact).max() < 1e-8
        grad = utility_gradient(y[:, t], w, a)
        assert np.abs(grad - state.gradients[:, t]).max() < 1e-8
        assert state.f_values[t] == pytest.approx(utility(y[:, t], w, a), abs=1e-8)


def test_modular_greedy_orthonormal_selects_largest():
    rng = np.random.default_rng(41)
    a = dct2_basis(4)
    y = rng.standard_normal((16, 1))
    k = 5
    state = modular_greedy(y, a, k, s=k)
    expected = set(np.argsort(-np.abs(a.T @ y[:, 0]))[:k])
    assert set(state.atoms) == expected


def test_modular_greedy_dominant_atom_first():
    rng = np.random.default_rng(42)
    a = random_unit_atoms(rng, 10, 15)
    y = np.tile(a[:, [7]], (1, 6))
    state = modular_greedy(y, a, 3, s=2)
    assert state.atoms[0] == 7


def test_modular_greedy_matches_surrogate_oracle():
    rng = np.random.default_rng(43)
    a = random_unit_atoms(rng, 6, 9)
    y = rng.standard_normal((6, 4))
    k, s = 4, 2
    state = modular_greedy(y, a, k, s)

    singles = 0.5 * (a.T @ y) ** 2

    def surrogate(atoms):
        return sum(
            np.sort(singles[list(atoms), t])[-s:].sum() for t in range(y.shape[1])
        )

    chosen = []
    for _ in range(k):
        best = max(
            (j for j in range(9) if j not in chosen),
            key=lambda j: (surrogate(chosen + [j]), -j),
        )
        chosen.append(best)
    assert state.atoms == chosen


def test_replacement_greedy_first_pick_is_best_singleton():
    rng = np.random.default_rng(44)
    a = random_unit_atoms(rng, 8, 12)
    y = rng.standard_normal((8, 5))
    state = replacement_greedy(y, a, IndividualSparsity(1), k=1)
    scores = (0.5 * (a.T @ y) ** 2).sum(axis=1)
    assert state.atoms == [int(np.argmax(scores))]
    assert state.objective == pytest.approx(scores.max(), rel=1e-10)


def test_replacement_greedy_recovers_planted_data():
    rng = np.random.default_rng(0)
    a = random_unit_atoms(rng, 24, 16)
    y, _ = planted_data(rng, a, k_planted=4, s=2, t_count=12)
    state = replacement_greedy(y, a, IndividualSparsity(2), k=4)
    total = 0.5 * float((y * y).sum())
    assert state.objective >= total - 1e-6
    state_consistency(state, a, y, IndividualSparsity(2))


def test_replacement_greedy_rejects_global_families():
    a = dct2_basis(2)
    y = np.ones((4, 2))
    with pytest.raises(UnsupportedConstraint):
        replacement_greedy(y, a, AverageSparsity((1, 1), 2), 2)


def test_replacement_omp_recovers_planted_data():
    rng = np.random.default_rng(6)
    a = random_unit_atoms(rng, 24, 16)
    y, _ = planted_data(rng, a, k_planted=4, s=2, t_count=12)
    config = SelectorConfig(k=4)
    state = replacement_omp(y, a, IndividualSparsity(2), config)
    residual_sq = float((y * y).sum()) - 2.0 * state.objective
    assert residual_sq / y.size <= 1e-6
    state_consistency(state, a, y, IndividualSparsity(2))


def test_replacement_omp_first_pick_matches_modular_greedy():
    rng = np.random.default_rng(47)
    a = dct2_basis(4)
    y = rng.standard_normal((16, 6))
    omp_state = replacement_omp(y, a, IndividualSparsity(2), SelectorConfig(k=1))
    mg_state = modular_greedy(y, a, 1, s=2)
    assert omp_state.atoms == mg_state.atoms


def test_replacement_omp_equals_greedy_on_orthonormal_basis():
    rng = np.random.default_rng(48)
    a = dct2_basis(4)
    y = rng.standard_normal((16, 5))
    constraint = IndividualSparsity(2)
    omp_state = replacement_omp(y, a, constraint, SelectorConfig(k=6))
    rg_state = replacement_greedy(y, a, constraint, k=6)
    assert omp_state.atoms == rg_state.atoms
    assert omp_state.objective == pytest.approx(rg_state.objective, rel=1e-9)


def test_objective_monotone_across_iterations():
    rng = np.random.default_rng(49)
    a = random_unit_atoms(rng, 10, 18)
    y = rng.standard_normal((10, 6))
    for constraint in (
        IndividualSparsity(2),
        AverageSparsity.uniform(6, 3, 10),
        PartitionMatroid.uniform(6, 18, 2),
    ):
        state = replacement_omp(y, a, constraint, SelectorConfig(k=6))
        history = np.array(state.objective_history)
        assert np.all(np.diff(history) >= -1e-9)
    history = np.array(replacement_greedy(y, a, IndividualSparsity(2), 6).objective_history)
    assert np.all(np.diff(history) >= -1e-9)


def test_per_replacement_smoothness_bound():
    rng = np.random.default_rng(50)
    a = random_unit_atoms(rng, 8, 12)
    y = rng.standard_normal((8, 5))
    m_val = 1.0 + coherence(a)
    state = replacement_omp(
        y, a, IndividualSparsity(2), SelectorConfig(k=5, smoothness=m_val), trace=True
    )
    assert state.trace
    for rec in state.trace:
        lower = rec.grad_sq_added / (2 * m_val) - m_val * rec.coeff_sq_removed / 2
        assert rec.f_after - rec.f_before >= lower - 1e-8


def test_replacement_omp_average_respects_caps():
    rng = np.random.default_rng(51)
    a = random_unit_atoms(rng, 10, 16)
    y = rng.standard_normal((10, 8))
    constraint = AverageSparsity.uniform(8, 3, 12)
    state = replacement_omp(y, a, constraint, SelectorConfig(k=6))
    sizes = [len(z) for z in state.supports]
    assert all(size <= 3 for size in sizes)
    assert sum(sizes) <= 12
    state_consistency(state, a, y, constraint)


def test_replacement_omp_matroid():
    rng = np.random.default_rng(52)
    a = random_unit_atoms(rng, 8, 10)
    y = rng.standard_normal((8, 4))
    cats = ((frozenset(range(5)), 1), (frozenset(range(5, 10)), 1))
    constraint = PartitionMatroid((cats,) * 4)
    state = replacement_omp(y, a, constraint, SelectorConfig(k=4))
    state_consistency(state, a, y, constraint)


def test_replacement_greedy_matroid_takes_best_single_replacement():
    # Two categories of five atoms, one atom of each per point.  Every step
    # must gain exactly the best feasible single replacement, found by
    # exhaustive search over atoms and per-point options with dense lstsq.
    rng = np.random.default_rng(57)
    a = random_unit_atoms(rng, 8, 10)
    y = rng.standard_normal((8, 4))
    cats = ((frozenset(range(5)), 1), (frozenset(range(5, 10)), 1))
    constraint = PartitionMatroid((cats,) * 4)
    k = 5
    state = replacement_greedy(y, a, constraint, k)
    state_consistency(state, a, y, constraint)
    history = [0.0] + state.objective_history
    for i in range(1, len(state.objective_history)):
        before = replacement_greedy(y, a, constraint, i - 1) if i > 1 else None
        supports = before.supports if before else [[] for _ in range(4)]
        best = 0.0
        for atom in range(10):
            if before and atom in before.atoms:
                continue
            total = 0.0
            for t, z in enumerate(supports):
                base = f_value(a, z, y[:, t])
                options = [] if atom in z else [z + [atom]]
                options += [z[:j] + z[j + 1 :] + [atom] for j in range(len(z)) if atom not in z]
                total += max(
                    [0.0]
                    + [
                        f_value(a, option, y[:, t]) - base
                        for option in options
                        if constraint.independent(t, option)
                    ]
                )
            best = max(best, total)
        assert history[i] - history[i - 1] == pytest.approx(best, rel=1e-9, abs=1e-12)


def test_replacement_omp_block_selects_k_distinct_atoms():
    # Noise-free planted data under block caps: every step adds an atom
    # outside the dictionary, so a winner is never picked twice.
    a = np.hstack([dct2_basis(4), haar2_basis(4)])
    blocks = (tuple(range(0, 4)), tuple(range(4, 8)), tuple(range(8, 12)))
    constraint = BlockSparsity(blocks, (3, 3, 3))
    for seed in range(8):
        y, _ = planted_data(np.random.default_rng(seed), a, 6, 2, 12)
        state = replacement_omp(y, a, constraint, SelectorConfig(k=6))
        assert len(set(state.atoms)) == len(state.atoms) == 6
        state_consistency(state, a, y, constraint)


COUPLED = {
    "average": AverageSparsity.uniform(12, 3, 20),
    "block": BlockSparsity((tuple(range(0, 4)), tuple(range(4, 8)), tuple(range(8, 12))), (3, 3, 3)),
}


def coupled_data(seed):
    rng = np.random.default_rng(seed)
    return np.hstack([dct2_basis(4), haar2_basis(4)]), rng.standard_normal((16, 12))


@pytest.mark.parametrize("family", COUPLED)
def test_romp_tables_match_per_atom_search_at_every_step(monkeypatch, family):
    steps = []

    def checked_values(constraint, supports, add_gains, removal_costs):
        table = replacement_values(constraint, supports, add_gains, removal_costs)
        for atom, value in enumerate(table):
            expected = search_replacement(constraint, supports, atom, add_gains[atom], removal_costs).gain
            assert abs(value - expected) <= 1e-12, (len(steps), atom, value, expected)
        steps.append(table)
        return table

    monkeypatch.setattr(offline, "replacement_values", checked_values)
    for seed in range(3):
        a, y = coupled_data(seed)
        replacement_omp(y, a, COUPLED[family], SelectorConfig(k=8))
    assert len(steps) == 24


@pytest.mark.parametrize("family", COUPLED)
def test_coupled_romp_searches_only_the_winner(monkeypatch, family):
    # The table is closed form: a step runs the per-atom search once, for
    # its winner, and at most one exchange solve.
    romp_step = offline._romp_replacement
    searched, solves, winners = [], [], []

    def counting_search(constraint, supports, atom, add_gains, removal_costs):
        searched.append(atom)
        return search_replacement(constraint, supports, atom, add_gains, removal_costs)

    def counting_solve(instance):
        solves.append(instance)
        return solve_exchange(instance)

    def checked_step(*args):
        searched.clear()
        solves.clear()
        rep = romp_step(*args)
        assert searched == ([] if rep is None else [rep.added_atom])
        assert len(solves) <= 1
        winners.append(rep)
        return rep

    monkeypatch.setattr(offline, "search_replacement", counting_search)
    monkeypatch.setattr(constraints, "solve_exchange", counting_solve)
    monkeypatch.setattr(offline, "_romp_replacement", checked_step)
    for seed in range(3):
        a, y = coupled_data(seed)
        replacement_omp(y, a, COUPLED[family], SelectorConfig(k=8))
    assert len(winners) == 24 and sum(rep is not None for rep in winners) >= 12


@pytest.mark.parametrize(
    "constraint",
    [AverageSparsity.uniform(3, 2, 6), PartitionMatroid.uniform(3, 8, 2), BlockSparsity(((0, 1, 2),), (2,))],
    ids=["average", "matroid", "block"],
)
def test_selectors_reject_families_on_other_point_counts(constraint):
    # Six data points, a family defined on three of them.
    rng = np.random.default_rng(58)
    a = random_unit_atoms(rng, 4, 8)
    y = rng.standard_normal((4, 6))
    with pytest.raises(ValueError, match="3 points"):
        replacement_omp(y, a, constraint, SelectorConfig(k=2))
    if isinstance(constraint, PartitionMatroid):
        with pytest.raises(ValueError, match="3 points"):
            replacement_greedy(y, a, constraint, 2)


def test_decay_variant_keeps_selecting():
    rng = np.random.default_rng(53)
    a = random_unit_atoms(rng, 8, 14)
    y = rng.standard_normal((8, 4))
    plain = replacement_omp(y, a, IndividualSparsity(2), SelectorConfig(k=6))
    decayed = replacement_omp(y, a, IndividualSparsity(2), SelectorConfig(k=6, decay=True))
    assert len(decayed.atoms) <= 6
    assert decayed.objective >= 0.0
    assert plain.objective >= 0.0


SELECTORS = {
    "replacement_omp": lambda y, a, constraint, k: replacement_omp(y, a, constraint, SelectorConfig(k=k)),
    "replacement_greedy": replacement_greedy,
}


@pytest.mark.parametrize("select", SELECTORS.values(), ids=SELECTORS.keys())
def test_fallback_fills_dictionary_when_gains_vanish(select):
    # One data point exactly representable by one atom: after it is fit,
    # every replacement gain is zero, yet the dictionary must reach k.
    a = dct2_basis(3)
    y = a[:, [4]].copy()
    state = select(y, a, IndividualSparsity(1), 3)
    assert len(set(state.atoms)) == len(state.atoms) == 3
    assert len(state.objective_history) == 3
    assert state.atoms[0] == 4
    assert state.objective == pytest.approx(0.5, abs=1e-12)


def random_family(family, rng, n, t_count):
    """A random constraint of the named family over n atoms and t_count points."""
    if family == "caps":
        return IndividualSparsity(int(rng.integers(1, 4)))
    if family == "matroid":
        split = int(rng.integers(1, n))
        caps = rng.integers(1, 3, size=2).tolist()
        rule = ((frozenset(range(split)), caps[0]), (frozenset(range(split, n)), caps[1]))
        return PartitionMatroid((rule,) * t_count)
    if family == "block":
        width = int(rng.integers(1, 4))
        blocks = tuple(tuple(range(i, min(i + width, t_count))) for i in range(0, t_count, width))
        return BlockSparsity(blocks, tuple(rng.integers(1, 4, size=len(blocks)).tolist()))
    return AverageSparsity.uniform(t_count, int(rng.integers(1, 4)), int(rng.integers(1, 2 * t_count + 1)))


@settings(max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(
        [
            ("replacement_omp", "caps"),
            ("replacement_greedy", "caps"),
            ("replacement_omp", "matroid"),
            ("replacement_greedy", "matroid"),
            ("replacement_omp", "block"),
            ("replacement_omp", "average"),
        ]
    ),
)
def test_selectors_fill_k_feasible_atoms_with_exact_objective(seed, case):
    rng = np.random.default_rng(seed)
    d, n, t_count = int(rng.integers(2, 9)), int(rng.integers(2, 13)), int(rng.integers(1, 7))
    k = int(rng.integers(1, n + 1))
    a = random_unit_atoms(rng, d, n)
    y = rng.standard_normal((d, t_count))
    selector, family = case
    constraint = random_family(family, rng, n, t_count)
    state = SELECTORS[selector](y, a, constraint, k)
    assert len(set(state.atoms)) == len(state.atoms) == k
    assert len(state.objective_history) == k
    assert is_feasible(constraint, state.supports)
    dense = sum(f_value(a, z, y[:, t]) for t, z in enumerate(state.supports))
    assert state.objective == pytest.approx(dense, rel=1e-9, abs=1e-12)


def approximation_constants(a, s):
    m_val = restricted_spectrum(a, 2 * s, exact=True).sigma_min_sq
    big_m = restricted_spectrum(a, 2, exact=True).sigma_max_sq
    return m_val, big_m


def individual_support_options(s):
    def options(dictionary, t):
        return itertools.combinations(dictionary, min(s, len(dictionary)))

    return options


def test_ratio_bound_tiny_instance():
    rng = np.random.default_rng(54)
    a = random_unit_atoms(rng, 8, 8)
    y = rng.standard_normal((8, 3))
    k, s = 2, 1
    constraint = IndividualSparsity(s)
    opt, _ = dictionary_optimum(a, y, constraint, k, individual_support_options(s))
    m_val, big_m = approximation_constants(a, s)
    ratio = (m_val / big_m) ** 2 * (1.0 - np.exp(-(k / k) * big_m / m_val))
    rg = replacement_greedy(y, a, constraint, k)
    romp = replacement_omp(y, a, constraint, SelectorConfig(k=k, smoothness=big_m))
    assert rg.objective >= ratio * opt - 1e-9
    assert romp.objective >= ratio * opt - 1e-9
    assert max(rg.objective, romp.objective) <= opt + 1e-9


def test_ratio_bound_tiny_average_instance():
    from dictsel.cli import brute_force_optimum

    rng = np.random.default_rng(56)
    a = random_unit_atoms(rng, 8, 8)
    y = rng.standard_normal((8, 4))
    k, s = 3, 2
    constraint = AverageSparsity((s,) * 4, 5)
    opt, _, _ = brute_force_optimum(y, a, constraint, k)
    m_val, big_m = approximation_constants(a, s)
    p = 3 * k - 1
    ratio = (m_val / big_m) ** 2 * (1.0 - np.exp(-(k / p) * big_m / m_val))
    state = replacement_omp(y, a, constraint, SelectorConfig(k=k, smoothness=big_m))
    assert state.objective >= ratio * opt - 1e-9
    assert state.objective <= opt + 1e-9


def test_romp_gains_satisfy_geometric_recursion():
    # Each step's true objective gain clears the certified recursion, so
    # the cumulative objective clears the closed-form lower bound.
    rng = np.random.default_rng(55)
    a = random_unit_atoms(rng, 8, 8)
    y = rng.standard_normal((8, 3))
    k, s = 3, 1
    constraint = IndividualSparsity(s)
    opt, _ = dictionary_optimum(a, y, constraint, k, individual_support_options(s))
    m_val, big_m = approximation_constants(a, s)
    state = replacement_omp(y, a, constraint, SelectorConfig(k=k, smoothness=big_m))
    history = [0.0] + state.objective_history
    deltas = np.diff(history)
    c_const = big_m / (k * m_val) if big_m / (k * m_val) <= 1.0 else 1.0
    v_star = (m_val / big_m) ** 2 * opt
    assert satisfies_recursion(deltas, c_const, v_star)
    assert check_cumulative_bound(deltas, c_const, v_star)
