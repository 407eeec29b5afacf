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
    assemble,
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
from dictsel.constraints import family_step, solve_exchange
from dictsel.data_io import synth_dataset
from dictsel.errors import UnsupportedConstraint
from dictsel.offline import SelectorConfig, modular_greedy, replacement_greedy, replacement_omp

from conftest import random_unit_atoms
from oracles import average_search_reference, block_search_reference, dictionary_optimum, f_value
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
        m = len(state.supports[t])
        compact[state.supports[t]] = state.coeffs[t, :m]
        assert not state.coeffs[t, m:].any()
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


def support_lists(index, costs):
    """Padded supports and removal costs as the lists the per-atom searches take."""
    sizes = (index >= 0).sum(axis=1)
    return [row[:m].tolist() for row, m in zip(index, sizes)], [row[:m] for row, m in zip(costs, sizes)]


@pytest.mark.parametrize("family", COUPLED)
def test_romp_coupled_step_values_match_per_atom_search_at_every_step(monkeypatch, family):
    reference = average_search_reference if family == "average" else block_search_reference
    steps = []

    def checked_step(constraint, index, costs, num_atoms):
        step = family_step(constraint, index, costs, num_atoms)
        values = step.values

        def checked_values(add_gains):
            table = values(add_gains)
            supports, removal_costs = support_lists(index, costs)
            for atom, value in enumerate(table):
                expected = reference(constraint, supports, atom, add_gains[atom], removal_costs).gain
                assert abs(value - expected) <= 1e-12, (len(steps), atom, value, expected)
            steps.append(table)
            return table

        step.values = checked_values
        return step

    monkeypatch.setattr(offline, "family_step", checked_step)
    for seed in range(3):
        a, y = coupled_data(seed)
        replacement_omp(y, a, COUPLED[family], SelectorConfig(k=8))
    assert len(steps) == 24


@pytest.mark.parametrize("family", COUPLED)
def test_coupled_romp_step_replaces_only_the_winner(monkeypatch, family):
    # The table is closed form: a step builds one replacement, for its
    # winner, with at most one exchange solve.
    romp_step = offline._romp_replacement
    replaced, solves, winners = [], [], []

    def counting_step(constraint, index, costs, num_atoms):
        step = family_step(constraint, index, costs, num_atoms)
        replacement = step.replacement

        def counting_replacement(atom, add_gains):
            replaced.append(atom)
            return replacement(atom, add_gains)

        step.replacement = counting_replacement
        return step

    def counting_solve(instance):
        solves.append(instance)
        return solve_exchange(instance)

    def checked_step(*args):
        replaced.clear()
        solves.clear()
        move = romp_step(*args)
        assert replaced == ([] if move is None else [move.added_atom])
        assert len(solves) <= 1
        winners.append(move)
        return move

    monkeypatch.setattr(offline, "family_step", counting_step)
    monkeypatch.setattr(constraints, "solve_exchange", counting_solve)
    monkeypatch.setattr(offline, "_romp_replacement", checked_step)
    for seed in range(3):
        a, y = coupled_data(seed)
        replacement_omp(y, a, COUPLED[family], SelectorConfig(k=8))
    assert len(winners) == 24 and sum(move is not None for move in winners) >= 12


PINNED_FAMILIES = {
    **COUPLED,
    "matroid": PartitionMatroid((((frozenset(range(16)), 2), (frozenset(range(16, 32)), 2)),) * 12),
    "individual": IndividualSparsity(2),
    "individual-decay": IndividualSparsity(2),
}

# Atoms and supports, in order, of replacement_omp with k = 8 on coupled_data,
# as recorded before the coupled families moved to the padded support arrays
# (the individual caps: before every family was priced by one step object).
PINNED_COUPLED_OUTPUTS = {
    ("average", 0): (
        (3, 26, 0, 12, 5, 2, 4, 1),
        ((3,), (26,), (26, 12, 5), (0, 2), (), (0, 2), (3, 26), (0, 12), (3,), (26,), (3, 0, 5), (12, 4)),
    ),
    ("average", 1): (
        (8, 30, 31, 7, 0, 18, 12, 20),
        ((8, 30, 31), (8, 12), (30, 31, 0), (31,), (31,), (0,), (30, 7), (), (30,), (7,), (8, 30, 18), (8, 30)),
    ),
    ("block", 0): (
        (3, 26, 0, 20, 1, 21, 5, 17),
        ((3, 26, 0),) * 4 + ((26, 0, 20),) * 4 + ((3, 26, 0),) * 4,
    ),
    ("block", 1): (
        (8, 30, 31, 21, 27, 20, 4, 23),
        ((8, 30, 31),) * 4 + ((31, 21, 27),) * 4 + ((8, 30, 21),) * 4,
    ),
    ("matroid", 0): (
        (3, 26, 0, 20, 12, 21, 2, 31),
        (
            (3, 20, 12, 21), (3, 26, 0, 31), (3, 26, 20, 12), (26, 0, 2, 31), (0, 20, 21, 2), (0, 21, 2, 31),
            (3, 26, 0, 20), (0, 20, 12, 21), (3, 0, 20, 21), (26, 0, 12, 31), (3, 0, 20, 21), (3, 26, 20, 12),
        ),
    ),
    ("matroid", 1): (
        (8, 30, 31, 4, 21, 0, 13, 23),
        (
            (8, 30, 31, 4), (8, 31, 21, 13), (30, 31, 4, 0), (8, 31, 4, 21), (31, 4, 21, 0), (31, 0, 13, 23),
            (8, 30, 4, 21), (30, 4, 13, 23), (30, 4, 21, 0), (30, 4, 0, 23), (8, 30, 31, 4), (8, 30, 4, 21),
        ),
    ),
    ("individual", 0): (
        (3, 26, 0, 12, 2, 7, 4, 31),
        ((3, 12), (3, 26), (26, 12), (3, 2), (4, 31), (0, 2), (3, 26), (0, 12), (3, 7), (26, 0), (3, 0), (12, 4)),
    ),
    ("individual", 1): (
        (8, 30, 31, 7, 21, 13, 12, 4),
        (
            (8, 30), (8, 12), (30, 31), (31, 4), (31, 21), (31, 13), (30, 7), (30, 7), (30, 21), (7, 12), (8, 30),
            (8, 30),
        ),
    ),
    ("individual-decay", 0): (
        (3, 26, 0, 12, 2, 4, 21, 1),
        ((3, 21), (26, 1), (12, 1), (2, 1), (4, 21), (0, 2), (26, 1), (0, 1), (3, 21), (26, 0), (3, 21), (12, 4)),
    ),
    ("individual-decay", 1): (
        (8, 30, 31, 7, 0, 20, 15, 13),
        ((8, 30), (8, 13), (0, 15), (31, 15), (31, 15), (0, 13), (7, 20), (15, 13), (30, 15), (7, 0), (8, 15), (8, 13)),
    ),
}


@pytest.mark.parametrize("family, seed", PINNED_COUPLED_OUTPUTS)
def test_coupled_romp_outputs_stay_pinned(family, seed):
    # A change to these outputs is a change of selection behaviour, made on purpose or not.
    a, y = coupled_data(seed)
    state = replacement_omp(y, a, PINNED_FAMILIES[family], SelectorConfig(k=8, decay=family.endswith("decay")))
    atoms, supports = PINNED_COUPLED_OUTPUTS[family, seed]
    assert tuple(state.atoms) == atoms
    assert tuple(map(tuple, state.supports)) == supports


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


def rollback_data():
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    y = synth_dataset(gs, 100, 30, 5, 8).matrix + 0.05 * np.random.default_rng(8).standard_normal((64, 100))
    return gs, y


@pytest.mark.parametrize("config", [SelectorConfig(k=30, smoothness=0.3), SelectorConfig(k=30, decay=True)])
def test_replacements_that_lower_the_objective_are_undone(config):
    # A smoothness parameter below the restricted smoothness overstates
    # proxy gains: on these data the objective would fall at step 30 with
    # M = 0.3 (229.7517 -> 228.9365) and at step 29 with decay.
    gs, y = rollback_data()
    state = replacement_omp(y, gs, IndividualSparsity(5), config)
    assert state.rollbacks >= 1
    assert len(set(state.atoms)) == len(state.atoms) == 30
    assert np.all(np.diff(state.objective_history) >= -1e-12 * 0.5 * float((y * y).sum()))
    state_consistency(state, gs.matrix, y, IndividualSparsity(5))


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(["default", "M=0.3", "decay"]))
def test_romp_objective_never_decreases(seed, rule):
    rng = np.random.default_rng(seed)
    a = np.hstack([dct2_basis(4), haar2_basis(4)])
    t_count, s = int(rng.integers(1, 30)), int(rng.integers(1, 5))
    y = a[:, rng.choice(32, size=8, replace=False)] @ rng.standard_normal((8, t_count))
    y += rng.uniform(0.0, 0.3) * rng.standard_normal(y.shape)
    config = SelectorConfig(k=int(rng.integers(1, 25)), smoothness=0.3 if rule == "M=0.3" else None, decay=rule == "decay")
    state = replacement_omp(y, a, IndividualSparsity(s), config)
    energy = 0.5 * float((y * y).sum())
    assert np.all(np.diff(state.objective_history) >= -2e-12 * energy)
    dense = sum(f_value(a, z, y[:, t]) for t, z in enumerate(state.supports))
    assert state.objective == pytest.approx(dense, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "constraint",
    [IndividualSparsity(5), PartitionMatroid(((((frozenset(range(64)), 3), (frozenset(range(64, 128)), 3)),) * 60))],
    ids=["caps", "matroid"],
)
def test_greedy_tables_refresh_only_touched_points(monkeypatch, constraint):
    # A point's gains change only when a replacement touches it: refreshing
    # every point at every step selects the same atoms and supports, bit
    # for bit, while computing far more point tables.
    gs, y = rollback_data()
    y = y[:, :60]
    refreshed = []

    def tables(state, family, best, code, points):
        points = points if incremental else np.arange(y.shape[1])
        refreshed.append(len(points))
        return greedy_tables(state, family, best, code, points)

    greedy_tables = offline._greedy_tables
    monkeypatch.setattr(offline, "_greedy_tables", tables)
    runs = []
    for incremental in (True, False):
        refreshed.clear()
        state = replacement_greedy(y, gs, constraint, 20)
        runs.append((state.atoms, state.supports, state.objective_history, sum(refreshed)))
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][3] < runs[1][3]
