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
from dictsel import constraints
from dictsel.constraints import _padded, cheapest_removal, family_state
from dictsel.errors import InfeasibleState

from oracles import average_move_reference, average_search_reference, best_replacement_oracle
from oracles import block_search_reference, block_sums_reference, exchange_optimum, options_reference

N_ATOMS = 12


def padded_step(constraint, index, costs, num_atoms):
    """The step of the padded supports ``index`` and their (T, m) removal ``costs``, as ``best_replacement`` builds it.

    The family's state is refreshed at every point first, which raises
    InfeasibleState unless the supports belong to the family.
    """
    family = family_state(constraint, len(index), num_atoms)

    def removal(rows, m):
        return costs[rows, :m]

    family.refresh(index, np.count_nonzero(index >= 0, axis=1), removal, np.arange(len(index)))
    return family.step(index, removal, 1.0)


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


@pytest.mark.parametrize(
    "case",
    ["one_gain", "nan_gain", "inf_gain", "negative_atom", "cost_length", "cost_count", "nan_cost", "negative_cost",
     "no_supports"],
)
def test_best_replacement_checks_its_inputs(case):
    # Malformed inputs raise ValueError before any family is built: a
    # single gain is not broadcast to every support, a NaN or infinite
    # gain is not priced, atom -1 is not an atom, and a NaN or negative
    # removal cost is neither a declined point nor a gain.  Every support
    # is full, so the costs would be paid.  No supports give the empty
    # replacement under every family.
    supports, atom, gains, costs = [[1], [2]], 5, [1.0, 1.0], [[0.5], [0.5]]
    if case == "no_supports":
        for constraint in (IndividualSparsity(2), PartitionMatroid(()), AverageSparsity((), 3), BlockSparsity((), ())):
            rep = best_replacement(constraint, [], atom, np.zeros(0), [])
            assert (rep.added_atom, rep.per_t, rep.gain) == (atom, [], 0.0)
        return
    gains = {"one_gain": [1.0], "nan_gain": [1.0, math.nan], "inf_gain": [math.inf, 1.0]}.get(case, gains)
    atom = -1 if case == "negative_atom" else atom
    costs = {"cost_length": [[0.5], [0.5, 0.5]], "cost_count": [[0.5]]}.get(case, costs)
    costs = {"nan_cost": [[math.nan], [0.5]], "negative_cost": [[-3.0], [0.5]]}.get(case, costs)
    with pytest.raises(ValueError):
        best_replacement(IndividualSparsity(1), supports, atom, np.array(gains), [np.array(c) for c in costs])


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
    """:meth:`PointFamily.options` of support ``t`` alone: masks addable (n,) and swappable (m, n)."""
    family = family_state(constraint, t + 1, num_atoms)
    addable, swappable = family.options(np.array([t]), np.array([list(support)], dtype=int))
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


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["individual", "matroid"]))
def test_point_options_match_their_gather_reference_bytewise(seed, family):
    # Over the 128 DCT+Haar atoms, supports of widths 0 to k padded with -1
    # often hold the DC twins 0 and 64.  Matroid points follow one of
    # several rules, some of which leave atoms in no category.
    rng = np.random.default_rng(seed)
    n, t_count, k = 128, int(rng.integers(1, 10)), int(rng.integers(0, 6))
    if family == "individual":
        constraint = IndividualSparsity(int(rng.integers(0, 4)))
    else:
        rules = []
        for _ in range(int(rng.integers(1, 4))):
            cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(1, 4)), replace=False))
            parts = np.split(rng.permutation(n), cuts)
            if rng.random() < 0.5:
                parts = parts[:-1]  # the last part's atoms fall in no category
            rules.append(tuple((frozenset(part.tolist()), int(rng.integers(0, 4))) for part in parts))
        constraint = PartitionMatroid(tuple(rules[int(rng.integers(len(rules)))] for _ in range(t_count)))
    family = family_state(constraint, t_count, n)
    pool = np.r_[0, 64, rng.choice(np.setdiff1d(np.arange(n), [0, 64]), 6, replace=False)]
    supports = np.full((t_count, k), -1)
    for t in range(t_count):
        size = int(rng.integers(0, k + 1))
        supports[t, :size] = rng.choice(pool, size=size, replace=False)
    points = rng.permutation(t_count)[: int(rng.integers(0, t_count + 1))]
    for chosen in (points, points[:0]):
        got = family.options(chosen, supports[chosen])
        expected = options_reference(family, chosen, supports[chosen])
        for mask, reference in zip(got, expected):
            assert mask.shape == reference.shape and mask.dtype == reference.dtype
            assert mask.tobytes() == reference.tobytes()


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
        step = padded_step(constraint, padded, removal, N_ATOMS)  # checks the tallied counts against the caps
        costs = step.costs()
        for t, z in enumerate(supports):
            addable, swappable = point_options(constraint, t, z, N_ATOMS)
            # A gain above every cost at support t alone: the replacement takes t whenever it has an option.
            gains = np.where(np.arange(t_count) == t, 1.0, 0.0)
            for atom in set(range(N_ATOMS)) - set(z):
                pos = cheapest_removal(removal[t, : len(z)], z, np.flatnonzero(swappable[:, atom]))
                expected = 0.0 if addable[atom] else (math.inf if pos is None else removal[t, pos])
                assert costs[atom, t] == expected
                points, removed, _, _ = step.replacement(atom, gains)
                assert points.tolist() == ([t] if addable[atom] or pos is not None else [])
                assert removed.tolist() == ([-1] if addable[atom] else [] if pos is None else [pos])


@pytest.mark.parametrize("family", ["individual", "matroid", "block", "average"])
def test_a_family_stepped_twice_prices_like_one_stepped_once(family):
    # A step's tables live on the family: stepping it again on other
    # supports must replace all of them, whatever the first step left.
    rng = np.random.default_rng(83)
    for _ in range(20):
        t_count = int(rng.integers(2, 8))
        constraint = random_constraint(rng, family, t_count)
        state = family_state(constraint, t_count, N_ATOMS)
        for _ in range(2):
            supports = random_supports(rng, constraint, t_count)
            index, costs = _padded(supports, [rng.choice([0.25, 0.5, 0.75], size=len(z)) for z in supports])

            def removal(rows, m, costs=costs):
                return costs[rows, :m]

            state.refresh(index, np.count_nonzero(index >= 0, axis=1), removal, np.arange(t_count))
            step = state.step(index, removal, 1.0)
        fresh = padded_step(constraint, index, costs, N_ATOMS)
        assert step is state and fresh is not state
        add = np.round(rng.uniform(0.0, 1.0, size=(N_ATOMS, t_count)), 1)
        assert step.values(add).tobytes() == fresh.values(add).tobytes()
        for atom in range(N_ATOMS):
            for got, expected in zip(step.replacement(atom, add[atom]), fresh.replacement(atom, add[atom])):
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("rows", [1, 16, None, 128], ids=["rows1", "rows16", "default", "rowsN"])
@pytest.mark.parametrize("family", ["individual", "matroid"])
def test_point_step_values_do_not_depend_on_row_chunks(monkeypatch, family, rows):
    # PointFamily.values prices stack_rows(T) atoms at a time (54 of the 128
    # here by default, a ragged last chunk); every chunking must give the
    # values of the whole (n, T) cost table bit for bit.
    rng = np.random.default_rng(61)
    n, t_count = 128, 150
    if family == "individual":
        constraint = IndividualSparsity(3)
    else:
        # Two rules with different category boundaries; atoms 96-127 fall
        # in no category of the second.
        first = ((frozenset(range(64)), 2), (frozenset(range(64, 128)), 2))
        second = ((frozenset(range(32)), 1), (frozenset(range(32, 96)), 2))
        constraint = PartitionMatroid(tuple(first if t % 2 else second for t in range(t_count)))
    index = np.full((t_count, 7), -1)
    for t in range(t_count):
        support = []
        for atom in rng.permutation(n)[: int(rng.integers(0, 8))].tolist():
            if is_feasible(constraint, [[]] * t + [support + [atom]] + [[]] * (t_count - t - 1)):
                support.append(atom)
        index[t, : len(support)] = support
    removal = rng.choice([0.25, 0.5, 0.75], size=index.shape)  # ties are common
    add = np.round(rng.uniform(0.0, 1.0, size=(n, t_count)), 1)
    step = padded_step(constraint, index, removal, n)
    expected = np.maximum(add - step.costs(), 0.0).sum(axis=1)
    if rows is not None:
        monkeypatch.setattr(constraints, "stack_rows", lambda t_count: rows)
    got = step.values(add)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert (step.by_class.shape[0] == 1) == (family == "individual")


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["individual", "matroid", "average", "block"]),
    empty=st.booleans(),
)
def test_steps_price_the_held_columns_as_the_full_width(seed, family, empty):
    # A step prices the supports alike whatever their padded width:
    # best_replacement pads list supports to the widest (at least one
    # column), ROMP passes the fit's k-wide index.  The pad columns past
    # the widest support change no bit of any atom's value or replacement,
    # also when every support is empty.
    rng = np.random.default_rng(seed)
    t_count = int(rng.integers(1, 9))
    constraint = random_constraint(rng, family, t_count)
    supports = [[] for _ in range(t_count)] if empty else random_supports(rng, constraint, t_count)
    widest = max(1, *map(len, supports))
    index = np.full((t_count, widest + int(rng.integers(0, 4))), -1)
    for t, z in enumerate(supports):
        index[t, : len(z)] = z
    removal = np.where(index >= 0, rng.choice([0.25, 0.5, 0.75], size=index.shape), 0.0)  # ties are common
    add = np.round(rng.uniform(0.0, 1.0, size=(N_ATOMS, t_count)), 1)  # held atoms too, which the steps must find
    full, narrow = (padded_step(constraint, index[:, :width], removal, N_ATOMS) for width in (index.shape[1], widest))
    assert narrow.values(add).tobytes() == full.values(add).tobytes()
    for atom in range(N_ATOMS):
        for got, expected in zip(narrow.replacement(atom, add[atom]), full.replacement(atom, add[atom])):
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["individual", "matroid", "average", "block"]))
def test_an_atom_is_priced_from_its_own_row_alone(seed, family):
    # ROMP prices squared gradients whose held entries keep their rounding
    # dust.  That is safe because a step prices each atom from its own row
    # of add_gains: rewriting every other row, held atoms' rows included,
    # leaves the atom's value unchanged byte for byte.
    rng = np.random.default_rng(seed)
    t_count = int(rng.integers(1, 9))
    constraint = random_constraint(rng, family, t_count)
    supports = random_supports(rng, constraint, t_count)
    index = np.full((t_count, max(1, *map(len, supports))), -1)
    for t, z in enumerate(supports):
        index[t, : len(z)] = z
    removal = np.where(index >= 0, rng.choice([0.25, 0.5, 0.75], size=index.shape), 0.0)  # ties are common
    step = padded_step(constraint, index, removal, N_ATOMS)
    add = np.round(rng.uniform(0.0, 1.0, size=(N_ATOMS, t_count)), 1)
    atom = int(rng.integers(N_ATOMS))
    value = step.values(add)[atom]
    others = np.arange(N_ATOMS) != atom
    # From dust to far above any cost.
    add[others] = rng.uniform(0.0, 1.0, (N_ATOMS - 1, t_count)) * 10.0 ** rng.integers(-30, 4, (N_ATOMS - 1, t_count))
    assert step.values(add)[atom].tobytes() == value.tobytes()


def test_category_tallies_reject_supports_over_their_caps():
    family = family_state(IndividualSparsity(1), 2, 5)
    supports = np.array([[3, -1], [0, 4]])
    sizes, costs = np.array([1, 2]), np.ones(supports.shape)

    def removal(rows, m):
        return costs[rows, :m]

    family.refresh(supports, sizes, removal, np.array([0]))
    assert family.counts[0].tolist() == [1, 0]
    with pytest.raises(InfeasibleState):
        family.refresh(supports, sizes, removal, np.arange(2))


def test_cheapest_removal_ties_go_to_lowest_atom():
    assert cheapest_removal([0.5, 0.25, 0.25], [8, 5, 2]) == 2
    assert cheapest_removal([0.5, 0.25, 0.25], [8, 5, 2], [0, 1]) == 1
    assert cheapest_removal([0.5], [8], []) is None


def test_matroid_rejects_overlapping_categories():
    with pytest.raises(ValueError):
        PartitionMatroid((((frozenset({0, 1}), 1), (frozenset({1, 2}), 1)),))


def test_matroid_checks_a_rule_first_used_at_a_later_point():
    # Each distinct rule is checked once, at the first point that uses it:
    # a bad rule that first appears at point 2 is still checked, and named.
    good = ((frozenset({0, 1}), 1), (frozenset({2}), 1))
    bad = ((frozenset({0, 1}), 1), (frozenset({1, 2}), 1))
    with pytest.raises(ValueError, match=r"^rule 2: categories must be disjoint$"):
        PartitionMatroid((good, good, bad, good, bad))
    with pytest.raises(ValueError, match=r"^rule 3: negative cap$"):
        PartitionMatroid((good,) * 3 + (((frozenset({4}), -1),),) + (good,))


def test_matroid_rejects_negative_atoms():
    # Atom -1 would otherwise be read as atom n - 1 by the family's tables
    # but as no atom by is_feasible.
    with pytest.raises(ValueError):
        PartitionMatroid((((frozenset({-1}), 0),),) * 2)


def test_individual_caps_are_the_uniform_matroid_bytewise():
    # Individual caps build the tables of the uniform matroid's one rule,
    # and tally, price and replace alike.
    rng = np.random.default_rng(72)
    t_count, s = 9, 2
    pair = (IndividualSparsity(s), PartitionMatroid.uniform(t_count, N_ATOMS, s))
    names = ("rule", "labels", "caps", "kinds", "atom_class", "counts", "cheapest", "position")

    def tables(family):
        return [(a.shape, a.dtype, a.tobytes()) for a in (getattr(family, name) for name in names)]

    assert tables(family_state(pair[0], t_count, N_ATOMS)) == tables(family_state(pair[1], t_count, N_ATOMS))
    supports = random_supports(rng, pair[0], t_count)
    index = np.full((t_count, s), -1)
    for t, z in enumerate(supports):
        index[t, : len(z)] = z
    removal = rng.choice([0.25, 0.5, 0.75], size=index.shape)  # ties are common
    add = np.round(rng.uniform(0.0, 1.0, size=(N_ATOMS, t_count)), 1)
    steps = [padded_step(constraint, index, removal, N_ATOMS) for constraint in pair]  # one refresh each
    assert tables(steps[0]) == tables(steps[1])
    assert steps[0].values(add).tobytes() == steps[1].values(add).tobytes()
    for atom in range(N_ATOMS):
        for got, expected in zip(steps[0].replacement(atom, add[atom]), steps[1].replacement(atom, add[atom])):
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


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
    # Gains of the padded-array step and decisions of the list-form search
    # against the per-atom reference searches over support lists, and for
    # per-point families against the exhaustive oracle.
    rng = np.random.default_rng(seed)
    constraint, supports, add, costs = family_instance(rng, family, slack, ties)
    values = padded_step(constraint, *_padded(supports, costs), N_ATOMS).values(add)
    assert values.shape == (N_ATOMS,)
    for atom in range(N_ATOMS):
        rep = best_replacement(constraint, supports, atom, add[atom], costs)
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


def average_tie_instance(rng, gains, slack, tight):
    """Padded supports, removal costs and (n, T) add gains of an average family, built for ties.

    ``gains``: "equal" (one value everywhere), "zero", "pair" (every tight
    point's gain equals its cheapest removal) or "grid" (gains and costs
    on a grid of 4 values).  ``slack``: "none" or "wide" (at least T).
    ``tight``: "all", "none" or "some" of the supports at their cap.
    Caps of 0 make empty tight supports and empty supports below their
    cap occur, both with infinite removal cost.
    """
    t_count = int(rng.integers(1, 9))
    at_cap = {"all": np.ones(t_count, bool), "none": np.zeros(t_count, bool)}.get(tight, rng.random(t_count) < 0.5)
    caps = rng.integers(0 if tight != "none" else 1, 4, size=t_count)
    sizes = np.where(at_cap, caps, [int(rng.integers(0, cap)) if cap else 0 for cap in caps])
    index = np.full((t_count, max(1, int(sizes.max()))), -1)
    for t, size in enumerate(sizes):
        index[t, :size] = rng.choice(N_ATOMS, size=size, replace=False)
    grid = np.array([0.0, 0.25, 0.5, 0.75])
    costs = rng.choice(grid[1:] if gains == "equal" else grid, size=index.shape)
    if gains == "equal":
        costs[:] = costs[0, 0]
    add = rng.choice(grid, size=(N_ATOMS, t_count))
    if gains == "equal":
        add[:] = rng.choice(grid[1:])
    elif gains == "zero":
        add[:] = 0.0
    elif gains == "pair":
        cheapest = np.where(index >= 0, costs, math.inf).min(axis=1)
        add[:, at_cap & (sizes > 0)] = cheapest[at_cap & (sizes > 0)]
    for t in range(t_count):
        add[index[t, : sizes[t]], t] = 0.0
    spare = 0 if slack == "none" else t_count + int(rng.integers(0, 3))
    constraint = AverageSparsity(tuple(caps.tolist()), int(sizes.sum()) + spare)
    return constraint, index, costs, add


@pytest.mark.parametrize("tight", ["all", "none", "some"])
@pytest.mark.parametrize("slack", ["none", "wide"])
@pytest.mark.parametrize("gains", ["equal", "zero", "pair", "grid"])
def test_average_move_is_the_exchange_solution_bitwise(monkeypatch, gains, slack, tight):
    # The closed-form move against one solve_exchange, on instances made of
    # ties: the same points, removed positions, additions and gain, bit for
    # bit.  A tie at the lowest gain taken that holds a pair goes to the
    # fallback's solve_exchange call (the oracle calls its own import).
    replays = []
    monkeypatch.setattr(constraints, "solve_exchange", lambda *args: replays.append(1) or solve_exchange(*args))
    rng = np.random.default_rng([73, len(gains), len(slack), len(tight)])
    for _ in range(60):
        constraint, index, costs, add = average_tie_instance(rng, gains, slack, tight)
        step = padded_step(constraint, index, costs, N_ATOMS)
        for atom in range(N_ATOMS):
            got = step.replacement(atom, add[atom])
            expected = average_move_reference(step, atom, add[atom])
            for a, b in zip(got[:3], expected[:3]):
                assert a.dtype == b.dtype and np.array_equal(a, b), (atom, got, expected)
            assert got[3] == expected[3] and type(got[3]) is float
    if (gains, slack, tight) == ("grid", "none", "some"):
        assert replays


def counted_exchange_sets(monkeypatch, gains, costs, tight, slack):
    """``exchange_sets`` on the instance, the (A, B) that ``solve_exchange`` gives, and the fallback's calls."""
    calls = []
    monkeypatch.setattr(constraints, "solve_exchange", lambda *args: calls.append(1) or solve_exchange(*args))
    got = constraints.exchange_sets(np.array(gains), np.array(costs), np.array(tight), slack)
    added, removed, _ = solve_exchange(ExchangeInstance(gains, costs, frozenset(np.flatnonzero(tight).tolist()), slack))
    return (set(np.flatnonzero(got[0]).tolist()), set(np.flatnonzero(got[1]).tolist())), (added, removed), len(calls)


def test_tied_lowest_level_with_a_pair_goes_to_one_solve_exchange(monkeypatch):
    # Slack 0: the pair at point 0 (gain 2, cost 1) pays for one addition of
    # gain 2, tied with the plain points 1 and 2.  The heap greedy spends 0
    # as the removal for point 1, where gain order alone would add 0 itself.
    got, expected, calls = counted_exchange_sets(monkeypatch, [2.0, 2.0, 2.0], [1.0, math.inf, math.inf], [True, False, False], 0)
    assert got == expected == ({1}, {0}) and calls == 1


def test_tied_lowest_level_without_a_pair_stays_in_closed_form(monkeypatch):
    # Points 0 and 1 tie at gain 2; one is free, the other would be paid by
    # the tight point 2 at cost 3, which is no pair (gain 1 <= 3).
    got, expected, calls = counted_exchange_sets(monkeypatch, [2.0, 2.0, 1.0], [math.inf, math.inf, 3.0], [False, False, True], 1)
    assert got == expected == ({0}, set()) and calls == 0


def test_exchange_sets_match_solve_exchange_on_ties():
    # Gains and costs on a coarse grid tie often, also at the lowest gain
    # taken, where a pair's point spent as a removal joins the heap late.
    rng = np.random.default_rng(74)
    for _ in range(3000):
        t_count = int(rng.integers(1, 13))
        gains = rng.integers(0, 3, size=t_count) * 0.25
        costs = np.where(rng.random(t_count) < 0.2, math.inf, rng.integers(0, 3, size=t_count) * 0.25)
        tight = rng.random(t_count) < rng.random()
        slack = int(rng.integers(0, t_count + 2))
        added, removed, _ = solve_exchange(ExchangeInstance(gains, costs, frozenset(np.flatnonzero(tight).tolist()), slack))
        got = constraints.exchange_sets(gains, costs, tight, slack)
        assert (set(np.flatnonzero(got[0]).tolist()), set(np.flatnonzero(got[1]).tolist())) == (added, removed)


@pytest.mark.parametrize("rows", [1, 16, None, 128], ids=["rows1", "rows16", "default", "rowsN"])
def test_average_step_values_do_not_depend_on_row_chunks(monkeypatch, rows):
    # As for PointFamily: every chunking gives the one-block values bit for bit.
    rng = np.random.default_rng(62)
    n, t_count = 128, 150
    caps = rng.integers(1, 6, size=t_count)
    index = np.full((t_count, 5), -1)
    for t, cap in enumerate(caps):
        size = int(rng.integers(0, cap + 1))
        index[t, :size] = rng.choice(n, size=size, replace=False)
    constraint = AverageSparsity(tuple(caps.tolist()), int((index >= 0).sum()) + 7)
    removal = rng.choice([0.25, 0.5, 0.75], size=index.shape)  # ties are common
    add = np.round(rng.uniform(0.0, 1.0, size=(n, t_count)), 1)
    step = padded_step(constraint, index, removal, n)
    expected = step._values(add)
    if rows is not None:
        monkeypatch.setattr(constraints, "stack_rows", lambda t_count: rows)
    got = step.values(add)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def scrambled_blocks(rng, t_count):
    """A random partition of 0..T-1 into uneven blocks, each listing its points in no order."""
    points = rng.permutation(t_count).tolist()
    cuts = sorted(rng.choice(np.arange(1, t_count), size=int(rng.integers(0, t_count)), replace=False).tolist())
    return tuple(tuple(points[a:b]) for a, b in zip([0, *cuts], [*cuts, t_count]))


def test_block_step_sums_in_block_order_bitwise():
    # Terms spanning 1e-8 to 1e8 change bits under any other order of
    # addition; the union costs and both block sums must add each block's
    # points one by one, in the order the block lists them.
    rng = np.random.default_rng(75)
    n = 6
    for _ in range(200):
        t_count = int(rng.integers(1, 16))
        blocks = scrambled_blocks(rng, t_count)
        index = np.full((t_count, 4), -1)
        for t in range(t_count):
            size = int(rng.integers(0, 5))
            index[t, :size] = rng.choice(n, size=size, replace=False)  # few atoms: shared within blocks
        costs = 10.0 ** rng.uniform(-8, 8, size=index.shape)
        step = padded_step(BlockSparsity(blocks, (n,) * len(blocks)), index, costs, n)
        union = np.zeros((len(blocks), n))
        for b, block in enumerate(blocks):
            for t in block:
                for atom, cost in zip(index[t], costs[t]):
                    if atom >= 0:
                        union[b, atom] = union[b, atom] + cost
        assert np.array_equal(step.union, np.where(step.member, union, math.inf))
        assert np.array_equal(step.member, union > 0.0)
        for rows in (10.0 ** rng.uniform(-8, 8, size=t_count), 10.0 ** rng.uniform(-8, 8, size=(n, t_count))):
            assert np.array_equal(step._block_sums(rows), block_sums_reference(blocks, rows))


def refresh_accepts(family, index, sizes) -> bool:
    """Whether ``family.refresh`` of every point takes the padded supports, rather than raising InfeasibleState."""
    try:
        family.refresh(index, sizes, lambda rows, m: np.zeros(index.shape)[rows, :m], np.arange(len(index)))
    except InfeasibleState:
        return False
    return True


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["average", "block"]), feasible=st.booleans())
def test_family_refresh_agrees_with_is_feasible(seed, family, feasible):
    # Supports drawn from a few atoms, so several points of a block share
    # one; some supports are empty.  Blocks list their points in no order.
    # With ``feasible`` the caps are raised until the supports fit.
    rng = np.random.default_rng(seed)
    t_count = int(rng.integers(1, 9))
    atoms = rng.choice(N_ATOMS, size=int(rng.integers(1, 6)), replace=False)
    supports = [
        rng.choice(atoms, size=int(rng.integers(0, len(atoms) + 1)), replace=False).tolist() if rng.random() < 0.7 else []
        for _ in range(t_count)
    ]
    sizes = [len(z) for z in supports]
    if family == "average":
        caps = rng.integers(0, 4, size=t_count)
        total = int(rng.integers(0, 2 * t_count + 1))
        if feasible:
            caps, total = np.maximum(caps, sizes), max(total, sum(sizes))
        constraint = AverageSparsity(tuple(caps.tolist()), total)
    else:
        blocks = scrambled_blocks(rng, t_count)
        caps = rng.integers(0, 4, size=len(blocks))
        if feasible:
            caps = np.maximum(caps, [len(set().union(*(supports[t] for t in block))) for block in blocks])
        constraint = BlockSparsity(blocks, tuple(caps.tolist()))
    assert not feasible or is_feasible(constraint, supports)
    index, _ = _padded(supports, [np.zeros(size) for size in sizes])
    state = family_state(constraint, t_count, N_ATOMS)
    assert refresh_accepts(state, index, np.array(sizes)) == is_feasible(constraint, supports)
    # A tuple of another length is never feasible.
    assert not refresh_accepts(state, index[1:], np.array(sizes[1:]))
    assert not refresh_accepts(state, np.vstack([index, index[:1]]), np.array(sizes + sizes[:1]))
