import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsel import (
    AverageSparsity,
    BlockSparsity,
    ExchangeInstance,
    IndividualSparsity,
    PartitionMatroid,
    Replacement,
    apply_replacement,
    best_replacement,
    is_feasible,
    replacement_sparsity_p,
    solve_exchange,
)
from dictsel.constraints import cheapest_removal, family_step, point_categories, replacement_values, search_replacement
from dictsel.errors import InfeasibleState

from oracles import average_search_reference, best_replacement_oracle, block_search_reference, exchange_optimum

N_ATOMS = 12


def test_empty_assignment_feasible_everywhere():
    supports = [set() for _ in range(4)]
    assert is_feasible(IndividualSparsity(2), supports)
    assert is_feasible(PartitionMatroid.uniform(4, N_ATOMS, 2), supports)
    assert is_feasible(BlockSparsity(((0, 1), (2, 3)), (1, 1)), supports)
    assert is_feasible(AverageSparsity.uniform(4, 3, 4), supports)


def test_average_total_cap():
    constraint = AverageSparsity((3, 3), 4)
    assert not is_feasible(constraint, [{0, 1, 2}, {3, 4}])
    assert is_feasible(constraint, [{0, 1, 2}, {3}])


def test_block_union_count():
    constraint = BlockSparsity(((0, 1),), (2,))
    assert is_feasible(constraint, [{0}, {1}])
    assert not is_feasible(constraint, [{0, 2}, {1}])
    assert is_feasible(constraint, [{0, 1}, {1}])


def test_coupled_families_reject_extra_supports():
    # Supports beyond the family's points are outside it, as for matroids.
    assert not is_feasible(AverageSparsity((0,), 5), [[], [4, 5]])
    assert not is_feasible(BlockSparsity(((0,),), (1,)), [[1], [2, 3, 4]])
    assert not is_feasible(BlockSparsity(((0, 1),), (2,)), [[1]])
    assert not is_feasible(PartitionMatroid.uniform(1, N_ATOMS, 2), [[1], [2]])


def test_matroid_categories():
    cats = ((frozenset({0, 1, 2}), 1), (frozenset({3, 4}), 2))
    constraint = PartitionMatroid((cats, cats))
    assert is_feasible(constraint, [{0, 3, 4}, set()])
    assert not is_feasible(constraint, [{0, 1}, set()])


def test_replacement_sparsity_parameters():
    assert replacement_sparsity_p(IndividualSparsity(2), 5) == 5
    assert replacement_sparsity_p(PartitionMatroid.uniform(3, N_ATOMS, 2), 5) == 5
    assert replacement_sparsity_p(BlockSparsity(((0, 1),), (2,)), 5) == 5
    assert replacement_sparsity_p(AverageSparsity((2, 2, 2), 5), 5) == 14
    assert replacement_sparsity_p(AverageSparsity((5, 5, 6), 5), 5) == 9


def test_exchange_all_zero_gains():
    inst = ExchangeInstance(np.zeros(4), np.ones(4), frozenset(), 2)
    added, removed, value = solve_exchange(inst)
    assert (added, removed, value) == (set(), set(), 0.0)


def test_exchange_slack_covers_addition():
    inst = ExchangeInstance(np.array([5.0]), np.array([9.0]), frozenset(), 1)
    added, removed, value = solve_exchange(inst)
    assert added == {0} and removed == set() and value == 5.0


def test_exchange_worked_example():
    # Tight point 1 must pay its own removal; slack 1 covers one free add.
    inst = ExchangeInstance(
        np.array([5.0, 3.0, 4.0]), np.array([1.0, 2.0, 1.0]), frozenset({1}), 1
    )
    added, removed, value = solve_exchange(inst)
    assert value == pytest.approx(9.0, abs=1e-12)
    assert value == pytest.approx(
        exchange_optimum(inst.gains, inst.costs, inst.tight, inst.slack), abs=1e-12
    )


def random_exchange_instance(rng):
    t_count = int(rng.integers(1, 9))
    g = rng.uniform(0.0, 1.0, size=t_count)
    c = rng.uniform(0.0, 1.0, size=t_count)
    if rng.random() < 0.3:
        c[rng.integers(t_count)] = math.inf
    tight = frozenset(int(t) for t in range(t_count) if rng.random() < 0.4)
    slack = int(rng.integers(0, 4))
    return ExchangeInstance(g, c, tight, slack)


def test_exchange_matches_oracle_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(300):
        inst = random_exchange_instance(rng)
        _, _, value = solve_exchange(inst)
        expected = exchange_optimum(inst.gains, inst.costs, inst.tight, inst.slack)
        assert abs(value - expected) <= 1e-12


def test_exchange_output_is_feasible():
    rng = np.random.default_rng(32)
    for _ in range(300):
        inst = random_exchange_instance(rng)
        added, removed, value = solve_exchange(inst)
        assert added & inst.tight <= removed
        assert len(added) <= len(removed) + inst.slack
        assert all(math.isfinite(inst.costs[t]) for t in removed)
        recomputed = sum(inst.gains[t] for t in added) - sum(inst.costs[t] for t in removed)
        assert value == pytest.approx(recomputed, abs=1e-12)


def test_exchange_monotonicity():
    rng = np.random.default_rng(33)
    for _ in range(100):
        inst = random_exchange_instance(rng)
        _, _, value = solve_exchange(inst)
        bumped = ExchangeInstance(inst.gains, inst.costs, inst.tight, inst.slack + 1)
        assert solve_exchange(bumped)[2] >= value - 1e-12
        t = int(rng.integers(inst.num_points))
        g2 = inst.gains.copy()
        g2[t] += 0.5
        assert solve_exchange(ExchangeInstance(g2, inst.costs, inst.tight, inst.slack))[2] >= value - 1e-12
        c2 = inst.costs.copy()
        c2[t] = c2[t] + 0.5 if math.isfinite(c2[t]) else c2[t]
        assert solve_exchange(ExchangeInstance(inst.gains, c2, inst.tight, inst.slack))[2] <= value + 1e-12


def make_gains(rng, supports, atom, zero_frac=0.0):
    t_count = len(supports)
    add = rng.uniform(0.0, 1.0, size=t_count)
    if zero_frac:
        add[rng.random(t_count) < zero_frac] = 0.0
    add[[t for t in range(t_count) if atom in supports[t]]] = 0.0
    costs = [rng.uniform(0.0, 1.0, size=len(z)) for z in supports]
    return add, costs


def test_best_replacement_all_adds():
    supports = [[], [], []]
    rep = best_replacement(IndividualSparsity(2), supports, 7, np.array([1.0, 2.0, 3.0]), [np.zeros(0)] * 3)
    assert rep.gain == pytest.approx(6.0)
    assert rep.per_t == [(0, None, True), (1, None, True), (2, None, True)]


def test_best_replacement_declines_costly_swaps():
    supports = [[3], [4], [5]]
    rep = best_replacement(IndividualSparsity(1), supports, 7, np.full(3, 0.5), [np.array([1.0])] * 3)
    assert rep.gain == 0.0
    assert rep.per_t == []


def test_best_replacement_infeasible_state():
    with pytest.raises(InfeasibleState):
        best_replacement(IndividualSparsity(1), [[1, 2]], 5, np.zeros(1), [np.zeros(2)])


def test_best_replacement_romp_branch_structure():
    # Below-cap points take max(0, g); at-cap points take max(0, g - min cost).
    rng = np.random.default_rng(34)
    s = 2
    supports = [[0], [1, 2], [3, 4], []]
    atom = 9
    add, costs = make_gains(rng, supports, atom)
    rep = best_replacement(IndividualSparsity(s), supports, atom, add, costs)
    expected = 0.0
    for t, z in enumerate(supports):
        if len(z) < s:
            expected += max(0.0, add[t])
        else:
            expected += max(0.0, add[t] - min(costs[t]))
    assert rep.gain == pytest.approx(expected, abs=1e-12)


def random_supports(rng, constraint, t_count):
    supports = [[] for _ in range(t_count)]
    for _ in range(int(rng.integers(0, 3 * t_count))):
        t = int(rng.integers(t_count))
        atom = int(rng.integers(N_ATOMS))
        if atom in supports[t]:
            continue
        trial = [list(z) for z in supports]
        trial[t].append(atom)
        if is_feasible(constraint, trial):
            supports = trial
    return supports


def random_constraint(rng, family, t_count):
    if family == "individual":
        return IndividualSparsity(int(rng.integers(1, 4)))
    if family == "matroid":
        rules = []
        for _ in range(t_count):
            split = int(rng.integers(1, N_ATOMS))
            rules.append(
                (
                    (frozenset(range(split)), int(rng.integers(1, 3))),
                    (frozenset(range(split, N_ATOMS)), int(rng.integers(1, 3))),
                )
            )
        return PartitionMatroid(tuple(rules))
    if family == "block":
        cut = int(rng.integers(1, t_count)) if t_count > 1 else 1
        blocks = (tuple(range(cut)), tuple(range(cut, t_count)))
        blocks = tuple(b for b in blocks if b)
        caps = tuple(int(rng.integers(1, 5)) for _ in blocks)
        return BlockSparsity(blocks, caps)
    if family == "average":
        s_t = tuple(int(rng.integers(1, 4)) for _ in range(t_count))
        return AverageSparsity(s_t, int(rng.integers(2, 2 * t_count + 2)))
    raise AssertionError(family)


@pytest.mark.parametrize("family", ["individual", "matroid", "block", "average"])
def test_replacement_preserves_feasibility(family):
    rng = np.random.default_rng(35)
    for _ in range(250):
        t_count = int(rng.integers(1, 6))
        constraint = random_constraint(rng, family, t_count)
        supports = random_supports(rng, constraint, t_count)
        atom = int(rng.integers(N_ATOMS))
        gains = make_gains(rng, supports, atom, zero_frac=0.3)
        rep = best_replacement(constraint, supports, atom, *gains)
        assert rep.gain >= 0.0
        new = apply_replacement(supports, rep)
        assert is_feasible(constraint, new)


@pytest.mark.parametrize("family", ["individual", "matroid", "block", "average"])
def test_best_replacement_matches_exhaustive_oracle(family):
    rng = np.random.default_rng(36)
    for _ in range(120):
        t_count = int(rng.integers(1, 5))
        constraint = random_constraint(rng, family, t_count)
        supports = random_supports(rng, constraint, t_count)
        atom = int(rng.integers(N_ATOMS))
        gains = make_gains(rng, supports, atom, zero_frac=0.2)
        rep = best_replacement(constraint, supports, atom, *gains)
        expected = best_replacement_oracle(constraint, supports, atom, *gains, is_feasible)
        assert rep.gain == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("family", ["individual", "matroid", "block", "average"])
def test_replacement_gain_is_what_its_per_point_decisions_realize(family):
    # Added gains minus the costs of the removed atoms, read from the arrays.
    rng = np.random.default_rng(39)
    for _ in range(200):
        t_count = int(rng.integers(1, 6))
        constraint = random_constraint(rng, family, t_count)
        supports = random_supports(rng, constraint, t_count)
        atom = int(rng.integers(N_ATOMS))
        add, costs = make_gains(rng, supports, atom, zero_frac=0.3)
        rep = best_replacement(constraint, supports, atom, add, costs)
        assert len({t for t, _, _ in rep.per_t}) == len(rep.per_t)
        realized = 0.0
        for t, removed, added in rep.per_t:
            if added:
                assert atom not in supports[t]
                realized += add[t]
            if removed is not None:
                realized -= costs[t][supports[t].index(removed)]
        assert rep.gain == pytest.approx(realized, rel=1e-12, abs=1e-12)


def test_average_replacement_matches_spec_oracle():
    rng = np.random.default_rng(37)
    for _ in range(80):
        constraint = AverageSparsity(
            tuple(int(rng.integers(1, 4)) for _ in range(4)), int(rng.integers(3, 9))
        )
        supports = random_supports(rng, constraint, 4)
        atom = int(rng.integers(N_ATOMS))
        gains = make_gains(rng, supports, atom)
        rep = best_replacement(constraint, supports, atom, *gains)
        expected = best_replacement_oracle(constraint, supports, atom, *gains, is_feasible)
        assert rep.gain == pytest.approx(expected, abs=1e-10)
        assert is_feasible(constraint, apply_replacement(supports, rep))


def point_options(constraint, t, support, num_atoms):
    """:meth:`PointCategories.options` of support ``t`` alone: masks addable (n,) and swappable (m, n)."""
    cats = point_categories(constraint, t + 1, num_atoms)
    addable, swappable = cats.options(np.array([t]), np.array([list(support)], dtype=int))
    return addable[0], swappable[0]


@pytest.mark.parametrize("family", ["individual", "matroid"])
def test_point_options_match_independence(family):
    # Per-point masks against the family's own membership test, atom by atom.
    rng = np.random.default_rng(38)
    for _ in range(200):
        t_count = int(rng.integers(1, 5))
        constraint = random_constraint(rng, family, t_count)
        supports = random_supports(rng, constraint, t_count)
        for t, support in enumerate(supports):
            addable, swappable = point_options(constraint, t, support, N_ATOMS)
            assert swappable.shape == (len(support), N_ATOMS)
            for atom in range(N_ATOMS):
                trial = [list(z) for z in supports]
                trial[t] = support + [atom]
                can_add = atom not in support and is_feasible(constraint, trial)
                assert addable[atom] == can_add
                for pos in range(len(support)):
                    trial[t] = support[:pos] + support[pos + 1 :] + [atom]
                    can_swap = atom not in support and is_feasible(constraint, trial)
                    # Adding dominates, so only atoms that cannot be added swap.
                    assert swappable[pos, atom] == (can_swap and not can_add)


def test_point_options_matroid_counts():
    cats = ((frozenset({0, 1, 2}), 1), (frozenset({3, 4}), 2))
    constraint = PartitionMatroid((cats,))
    addable, swappable = point_options(constraint, 0, [3, 0], 7)
    # Category {0,1,2} is full, {3,4} has room, 5 and 6 are uncapped.
    assert addable.tolist() == [False, False, False, False, True, True, True]
    assert swappable.tolist() == [
        [False] * 7,
        [False, True, True, False, False, False, False],
    ]


@pytest.mark.parametrize("family", ["individual", "matroid"])
def test_category_tallies_price_the_point_options(family):
    # The step's option costs and swap positions, from the batched tallies,
    # against the masks of point_options and cheapest_removal, support by
    # support.
    rng = np.random.default_rng(39)
    for _ in range(200):
        t_count = int(rng.integers(1, 6))
        constraint = random_constraint(rng, family, t_count)
        if family == "matroid" and rng.random() < 0.5:
            # The last two atoms fall in no category.
            spare = {N_ATOMS - 2, N_ATOMS - 1}
            constraint = PartitionMatroid(
                tuple(tuple((cat - spare, cap) for cat, cap in rule) for rule in constraint.rules)
            )
        supports = random_supports(rng, constraint, t_count)
        padded = np.full((t_count, max(len(z) for z in supports)), -1)
        for t, z in enumerate(supports):
            padded[t, : len(z)] = z
        removal = rng.choice([0.25, 0.5, 0.75], size=padded.shape)  # ties are common
        step = family_step(constraint, padded, removal, N_ATOMS)
        costs, points = step.costs(), np.arange(t_count)
        step.cats.require_feasible(points, step.counts)
        for t, z in enumerate(supports):
            addable, swappable = point_options(constraint, t, z, N_ATOMS)
            for atom in set(range(N_ATOMS)) - set(z):
                pos = cheapest_removal(removal[t, : len(z)], z, np.flatnonzero(swappable[:, atom]))
                expected = 0.0 if addable[atom] else (math.inf if pos is None else removal[t, pos])
                assert costs[atom, t] == expected
                if addable[atom] or pos is not None:
                    got = step.cats.swap_positions(points[[t]], step.counts[[t]], step.position[[t]], atom)[0]
                    assert got == (-1 if addable[atom] else pos)


def test_category_tallies_reject_supports_over_their_caps():
    cats = point_categories(IndividualSparsity(1), 2, 5)
    supports = np.array([[3, -1], [0, 4]])
    counts, _, _ = cats.tally(np.arange(2), supports, np.ones(supports.shape))
    cats.require_feasible(np.array([0]), counts[:1])
    with pytest.raises(InfeasibleState):
        cats.require_feasible(np.arange(2), counts)


def test_cheapest_removal_ties_go_to_lowest_atom():
    assert cheapest_removal([0.5, 0.25, 0.25], [8, 5, 2]) == 2
    assert cheapest_removal([0.5, 0.25, 0.25], [8, 5, 2], [0, 1]) == 1
    assert cheapest_removal([0.5], [8], []) is None


def test_matroid_rejects_overlapping_categories():
    with pytest.raises(ValueError):
        PartitionMatroid((((frozenset({0, 1}), 1), (frozenset({1, 2}), 1)),))


def test_apply_replacement_keeps_untouched_points():
    rep = Replacement(9, [(1, 3, True)], 1.0)
    new = apply_replacement([{0}, {3, 4}, {5}], rep)
    assert new == [{0}, {4, 9}, {5}]


def family_instance(rng, family, slack, ties):
    """Random feasible supports of a family, with (n, T) add gains and costs.

    Per-point families get at most 3 points, which the exhaustive oracle
    can enumerate.  For the coupled families, per-point and block caps
    start at 0, so empty tight supports (infinite removal cost) and cap-0
    blocks occur; about half the blocks fill their union to the cap.  With
    ``ties`` gains and costs are rounded to 0.1.
    """
    t_count = int(rng.integers(1, 4 if family in ("individual", "matroid") else 7))
    supports = [[] for _ in range(t_count)]
    if family in ("individual", "matroid"):
        constraint = random_constraint(rng, family, t_count)
        supports = random_supports(rng, constraint, t_count)
    elif family == "average":
        s_t = rng.integers(0, 4, size=t_count).tolist()
        for t, cap in enumerate(s_t):
            size = cap if rng.random() < 0.5 else int(rng.integers(0, cap + 1))
            supports[t] = rng.choice(N_ATOMS, size=size, replace=False).tolist()
        constraint = AverageSparsity(tuple(s_t), sum(map(len, supports)) + slack)
    else:
        cut = int(rng.integers(1, t_count + 1))
        blocks = tuple(b for b in (tuple(range(cut)), tuple(range(cut, t_count))) if b)
        caps = tuple(int(rng.integers(0, 4)) for _ in blocks)
        for block, cap in zip(blocks, caps):
            size = cap if rng.random() < 0.5 else int(rng.integers(0, cap + 1))
            for atom in rng.choice(N_ATOMS, size=size, replace=False).tolist():
                # Every union atom is held somewhere, so the union has its size.
                for t in {block[int(rng.integers(len(block)))], *rng.choice(block, size=2).tolist()}:
                    if atom not in supports[t]:
                        supports[t].append(atom)
        constraint = BlockSparsity(blocks, caps)
    assert is_feasible(constraint, supports)
    add = rng.uniform(0.0, 1.0, size=(N_ATOMS, t_count))
    costs = [rng.uniform(0.0, 1.0, size=len(z)) for z in supports]
    if ties:
        add = np.round(add, 1)
        costs = [np.round(c, 1) for c in costs]
    for t, z in enumerate(supports):
        add[z, t] = 0.0
    return constraint, supports, add, costs


@settings(max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["individual", "matroid", "average", "block"]),
    slack=st.integers(0, 3),
    ties=st.booleans(),
)
def test_coupled_step_values_match_per_atom_search(seed, family, slack, ties):
    # Gains and decisions of the padded-array step against the per-atom
    # searches over support lists, and for per-point families against the
    # exhaustive oracle.
    rng = np.random.default_rng(seed)
    constraint, supports, add, costs = family_instance(rng, family, slack, ties)
    values = replacement_values(constraint, supports, add, costs)
    assert values.shape == (N_ATOMS,)
    for atom in range(N_ATOMS):
        rep = search_replacement(constraint, supports, atom, add[atom], costs)
        if family in ("average", "block"):
            reference = average_search_reference if family == "average" else block_search_reference
            expected = reference(constraint, supports, atom, add[atom], costs)
            assert rep.per_t == expected.per_t, atom
            expected = expected.gain
        else:
            # An optimal replacement: its decisions realize the optimum, add
            # the atom wherever they touch a support and stay feasible.
            expected = best_replacement_oracle(constraint, supports, atom, add[atom], costs, is_feasible)
            realized = [add[atom, t] - (0.0 if r is None else costs[t][supports[t].index(r)]) for t, r, _ in rep.per_t]
            assert abs(sum(realized) - expected) <= 1e-12 and min(realized, default=1.0) > 0.0
            assert all(added for _, _, added in rep.per_t)
            assert is_feasible(constraint, apply_replacement(supports, rep))
        assert abs(values[atom] - expected) <= 1e-12, (atom, values[atom], expected)
        assert abs(rep.gain - expected) <= 1e-12
