"""Generalized sparsity families and feasible-replacement search.

A sparsity constraint restricts the tuple of supports (Z_1, ..., Z_T)
jointly.  Four down-closed families are supported: per-point caps,
per-point partition matroids, block sparsity (a cap on the distinct atoms
used within each block of data points), and average sparsity (per-point
caps plus a global cap on the total support size).

A *feasible replacement* for a candidate atom adds that atom to some
supports and removes at most one atom from each support, staying inside
the family.  Per-point families give one support's options as masks
(``point_options``).  ``search_replacement`` finds the gain-maximizing
replacement for one atom from decomposable gains, given as arrays of
per-point add gains and per-support removal costs; for average sparsity
this reduces to a budgeted exchange problem solved exactly in
O(T log T) by ``solve_exchange``.

For the coupled families, everything but the add gains is shared by the
candidate atoms of a step, so ``replacement_values`` gives every atom's
best gain at once in closed form: average sparsity from sorted prefix sums
of the add gains and the effective removal costs, block sparsity from each
block's union removal costs, built once per block.  The per-atom searches
(``solve_exchange`` and the block search) then run only for the winner,
whose ``Replacement`` they give, and stay the reference the closed forms
are tested against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InfeasibleState


@dataclass(frozen=True)
class IndividualSparsity:
    """Every support holds at most ``s`` atoms."""

    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("per-point cap must be nonnegative")


@dataclass(frozen=True)
class PartitionMatroid:
    """Per-point partition-matroid caps.

    ``rules[t]`` is a tuple of (atom frozenset, cap) pairs; support t may
    use at most ``cap`` atoms from each set.  Category sets of one rule
    must be disjoint; atoms outside every category are unconstrained.  A
    single category covering all atoms recovers the uniform matroid.
    """

    rules: tuple[tuple[tuple[frozenset, int], ...], ...]

    def __post_init__(self):
        for t, rule in enumerate(self.rules):
            seen: set = set()
            for cat, cap in rule:
                if cap < 0:
                    raise ValueError(f"rule {t}: negative cap")
                if seen & cat:
                    raise ValueError(f"rule {t}: categories must be disjoint")
                seen |= cat

    @staticmethod
    def uniform(num_points: int, num_atoms: int, s: int) -> "PartitionMatroid":
        rule = ((frozenset(range(num_atoms)), s),)
        return PartitionMatroid((rule,) * num_points)

    def independent(self, t: int, support) -> bool:
        zs = set(support)
        return all(len(zs & cat) <= cap for cat, cap in self.rules[t])


@dataclass(frozen=True)
class BlockSparsity:
    """Caps on the number of distinct atoms used within each block of points."""

    blocks: tuple[tuple[int, ...], ...]
    caps: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.caps):
            raise ValueError("one cap per block required")
        if any(cap < 0 for cap in self.caps):
            raise ValueError("caps must be nonnegative")
        seen: set[int] = set()
        for block in self.blocks:
            if seen & set(block):
                raise ValueError("blocks must be disjoint")
            seen |= set(block)
        if seen != set(range(len(seen))):
            raise ValueError("blocks must partition 0..T-1")


@dataclass(frozen=True)
class AverageSparsity:
    """Per-point caps ``s_t`` plus a cap ``s_prime`` on the total support size."""

    s_t: tuple[int, ...]
    s_prime: int

    def __post_init__(self):
        if any(cap < 0 for cap in self.s_t) or self.s_prime < 0:
            raise ValueError("caps must be nonnegative")

    @staticmethod
    def uniform(num_points: int, s: int, s_prime: int) -> "AverageSparsity":
        return AverageSparsity((s,) * num_points, s_prime)


SparsityConstraint = Union[IndividualSparsity, PartitionMatroid, BlockSparsity, AverageSparsity]


def num_points(constraint: SparsityConstraint) -> int | None:
    """Number of data points the family is defined on; None if it fits any number."""
    if isinstance(constraint, IndividualSparsity):
        return None
    if isinstance(constraint, PartitionMatroid):
        return len(constraint.rules)
    if isinstance(constraint, BlockSparsity):
        return sum(len(block) for block in constraint.blocks)
    if isinstance(constraint, AverageSparsity):
        return len(constraint.s_t)
    raise TypeError(f"unknown constraint type {type(constraint)!r}")


def is_feasible(constraint: SparsityConstraint, supports: Sequence) -> bool:
    """Whether the support tuple belongs to the constraint family.

    A tuple with more or fewer supports than the family's points is not.
    """
    points = num_points(constraint)
    if points is not None and len(supports) != points:
        return False
    if isinstance(constraint, IndividualSparsity):
        return all(len(z) <= constraint.s for z in supports)
    if isinstance(constraint, PartitionMatroid):
        return all(constraint.independent(t, z) for t, z in enumerate(supports))
    if isinstance(constraint, BlockSparsity):
        for block, cap in zip(constraint.blocks, constraint.caps):
            used: set[int] = set()
            for t in block:
                used |= set(supports[t])
            if len(used) > cap:
                return False
        return True
    if isinstance(constraint, AverageSparsity):
        sizes = [len(z) for z in supports]
        return (
            all(size <= cap for size, cap in zip(sizes, constraint.s_t))
            and sum(sizes) <= constraint.s_prime
        )
    raise TypeError(f"unknown constraint type {type(constraint)!r}")


def replacement_sparsity_p(constraint: SparsityConstraint, k: int) -> int:
    """Number of replacements needed to reach any feasible target from any state.

    Per-point caps and partition matroids need k, block sparsity needs k,
    and average sparsity needs 3k - 1 in general; when every per-point cap
    is at least the global cap (so only the total binds) 2k - 1 suffice.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if isinstance(constraint, (IndividualSparsity, PartitionMatroid, BlockSparsity)):
        return k
    if isinstance(constraint, AverageSparsity):
        if all(cap >= constraint.s_prime for cap in constraint.s_t):
            return 2 * k - 1
        return 3 * k - 1
    raise TypeError(f"unknown constraint type {type(constraint)!r}")


@dataclass
class Replacement:
    """One feasible replacement: the candidate atom and per-point decisions.

    Each ``per_t`` entry is (t, removed atom or None, whether the
    candidate is added to Z_t).  Supports without an entry are unchanged.
    """

    added_atom: int
    per_t: list[tuple[int, int | None, bool]]
    gain: float


def apply_replacement(supports: Sequence, replacement: Replacement) -> list[set]:
    """Apply a replacement to supports given as index collections; returns sets."""
    new = [set(z) for z in supports]
    for t, removed, add in replacement.per_t:
        if removed is not None:
            new[t].discard(removed)
        if add:
            new[t].add(replacement.added_atom)
    return new


@dataclass
class ExchangeInstance:
    """Budgeted add/remove exchange problem over point indices 0..T-1.

    Choose A (points gaining ``gains[t]``) and B (points paying
    ``costs[t]``) to maximize sum(gains[A]) - sum(costs[B]) subject to
    A & tight <= B and |A| <= |B| + slack.  ``costs[t]`` may be +inf to
    mark a point with nothing to remove.
    """

    gains: np.ndarray
    costs: np.ndarray
    tight: frozenset
    slack: int

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        if self.gains.shape != self.costs.shape:
            raise ValueError("gains and costs must have equal length")
        if self.slack < 0:
            raise ValueError("slack must be nonnegative")

    @property
    def num_points(self) -> int:
        return len(self.gains)


def solve_exchange(instance: ExchangeInstance) -> tuple[set, set, float]:
    """Exactly solve the budgeted exchange problem in O(T log T).

    Greedy over three priority queues: additions at non-tight points by
    gain descending, removals by cost ascending, and tight points (whose
    addition forces their own removal) by net gain descending.  Each step
    takes the best strictly positive marginal move; removals triggered to
    respect the slack budget reopen their tight point for a later plain
    addition.  Returns (A, B, value); the empty solution is always
    feasible with value 0.
    """
    g = instance.gains
    c = instance.costs
    tight = instance.tight
    slack = instance.slack
    t_count = instance.num_points

    add_q: list[tuple[float, int]] = [(-g[t], t) for t in range(t_count) if t not in tight]
    remove_q: list[tuple[float, int]] = [(c[t], t) for t in range(t_count) if math.isfinite(c[t])]
    pair_q: list[tuple[float, int]] = [
        (-(g[t] - c[t]), t) for t in tight if math.isfinite(c[t])
    ]
    heapq.heapify(add_q)
    heapq.heapify(remove_q)
    heapq.heapify(pair_q)

    chosen_add: set[int] = set()
    chosen_remove: set[int] = set()

    def peek(queue, skip) -> int | None:
        while queue and queue[0][1] in skip:
            heapq.heappop(queue)
        return queue[0][1] if queue else None

    while True:
        at_budget = len(chosen_add) == len(chosen_remove) + slack
        alpha = peek(add_q, chosen_add)
        beta = peek(remove_q, chosen_remove)
        # Tight points whose removal was already spent belong to add_q now.
        gamma = peek(pair_q, chosen_add | chosen_remove)

        add_value = -math.inf
        if alpha is not None:
            if at_budget:
                add_value = g[alpha] - c[beta] if beta is not None else -math.inf
            else:
                add_value = g[alpha]
        pair_value = g[gamma] - c[gamma] if gamma is not None else -math.inf

        if max(add_value, pair_value) <= 0.0:
            break
        if add_value >= pair_value:
            chosen_add.add(alpha)
            heapq.heappop(add_q)
            if at_budget:
                chosen_remove.add(beta)
                heapq.heappop(remove_q)
                if beta in tight:
                    # Its cap is no longer binding; a plain addition may follow.
                    heapq.heappush(add_q, (-g[beta], beta))
        else:
            chosen_add.add(gamma)
            chosen_remove.add(gamma)
            heapq.heappop(pair_q)

    value = float(np.sum(g[sorted(chosen_add)])) - float(np.sum(c[sorted(chosen_remove)]))
    return chosen_add, chosen_remove, value


def point_options(
    constraint: SparsityConstraint, t: int, support: Sequence[int], num_atoms: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which atoms may join support ``t`` and which positions each may replace.

    Per-point families only.  Returns masks (addable (n,), swappable
    (m, n)).  Atoms of the support get neither; an addable atom gets no
    swap, since the objective is monotone.  Caps decide by room.  Under a
    partition matroid an atom may be added while its category is below its
    cap (uncategorized atoms always), else replace only its own category.
    """
    support = list(support)
    outside = np.ones(num_atoms, dtype=bool)
    outside[support] = False
    if isinstance(constraint, IndividualSparsity):
        if len(support) < constraint.s:
            addable, swappable = outside, np.zeros((len(support), num_atoms), dtype=bool)
        else:
            addable = np.zeros(num_atoms, dtype=bool)
            swappable = outside[None, :].repeat(len(support), axis=0)
    elif isinstance(constraint, PartitionMatroid):
        rule = constraint.rules[t]
        # Category of every atom; one more category holds the uncapped atoms.
        labels = np.full(num_atoms, len(rule))
        for c, (cat, _) in enumerate(rule):
            labels[[j for j in cat if j < num_atoms]] = c
        held = labels[support]
        counts = np.bincount(held, minlength=len(rule) + 1)
        caps = np.array([cap for _, cap in rule] + [math.inf])
        addable = (counts < caps)[labels] & outside
        swappable = (held[:, None] == labels[None, :]) & (outside & ~addable)
    else:
        raise TypeError(f"{type(constraint).__name__} is not a per-point family")
    return addable, swappable


def cheapest_removal(costs: Sequence[float], support: Sequence[int], positions=None) -> int | None:
    """Cheapest position among ``positions`` (default all), ties to the lowest atom; or None."""
    candidates = range(len(support)) if positions is None else positions
    return min(candidates, key=lambda j: (costs[j], support[j]), default=None)


def average_exchange(
    constraint: AverageSparsity, supports: Sequence[Sequence[int]], removal_costs: Sequence[np.ndarray]
) -> tuple[list[int | None], np.ndarray, frozenset, int]:
    """Exchange data of average sparsity shared by every candidate atom.

    Returns each support's cheapest removal position (None if empty), its
    cost (inf if none), the tight points (at their cap) and the slack of
    the global cap.
    """
    positions = [cheapest_removal(c, z) for c, z in zip(removal_costs, supports)]
    costs = np.array([math.inf if p is None else c[p] for c, p in zip(removal_costs, positions)])
    tight = frozenset(t for t, z in enumerate(supports) if len(z) == constraint.s_t[t])
    slack = constraint.s_prime - sum(len(z) for z in supports)
    return positions, costs, tight, slack


def _individual_like(constraint, supports, atom, add_gains, removal_costs) -> Replacement:
    num_atoms = 1 + max([atom, *(j for z in supports for j in z)])
    per_t: list[tuple[int, int | None, bool]] = []
    total = 0.0
    for t, support in enumerate(supports):
        support = list(support)
        addable, swappable = point_options(constraint, t, support, num_atoms)
        if addable[atom]:
            removed, gain = None, add_gains[t]
        else:
            costs = removal_costs[t]
            pos = cheapest_removal(costs, support, np.flatnonzero(swappable[:, atom]))
            if pos is None:
                continue
            removed, gain = support[pos], add_gains[t] - costs[pos]
        if gain > 0.0:
            per_t.append((t, removed, True))
            total += gain
    return Replacement(atom, per_t, float(total))


def _union_costs(block, supports, removal_costs) -> dict[int, float]:
    """Summed removal cost of each atom used in the block.

    Dropping an atom from every support of the block that holds it frees
    one union slot for the candidate.
    """
    costs: dict[int, float] = {}
    for t in block:
        for pos, held in enumerate(supports[t]):
            costs[held] = costs.get(held, 0.0) + removal_costs[t][pos]
    return costs


def _block(constraint, supports, atom, add_gains, removal_costs) -> Replacement:
    per_t: list[tuple[int, int | None, bool]] = []
    total = 0.0
    for block, cap in zip(constraint.blocks, constraint.caps):
        adds = [t for t in block if atom not in supports[t] and add_gains[t] > 0.0]
        base = sum(add_gains[t] for t in adds)
        if base <= 0.0:
            continue
        costs = _union_costs(block, supports, removal_costs)
        best, best_removed = (base if atom in costs or len(costs) < cap else 0.0), None
        costs.pop(atom, None)
        if costs:
            # Highest value, then lowest atom; it must beat leaving the union alone.
            removed = max(costs, key=lambda j: (base - costs[j], -j))
            if base - costs[removed] > best:
                best, best_removed = base - costs[removed], removed
        if best <= 0.0:
            continue
        total += best
        for t in sorted(block):
            removed_here = best_removed if best_removed in supports[t] else None
            if removed_here is not None or t in adds:
                per_t.append((t, removed_here, t in adds))
    per_t.sort()
    return Replacement(atom, per_t, float(total))


def _average(constraint, supports, atom, add_gains, removal_costs) -> Replacement:
    positions, costs, tight, slack = average_exchange(constraint, supports, removal_costs)
    g = np.maximum(add_gains, 0.0)
    g[[t for t, z in enumerate(supports) if atom in z]] = 0.0
    added, removed, value = solve_exchange(ExchangeInstance(g, costs, tight, slack))
    per_t = [
        (t, supports[t][positions[t]] if t in removed else None, t in added)
        for t in sorted(added | removed)
    ]
    return Replacement(atom, per_t, value)


def search_replacement(
    constraint: SparsityConstraint,
    supports: Sequence[Sequence[int]],
    atom: int,
    add_gains: np.ndarray,
    removal_costs: Sequence[np.ndarray],
) -> Replacement:
    """Gain-maximizing feasible replacement for one candidate atom.

    ``add_gains[t]`` is the (already smoothness-scaled) gain of adding the
    candidate to Z_t and ``removal_costs[t][j]`` the scaled cost of
    dropping the j-th atom of Z_t; entries for supports already holding
    the candidate must be zero.  ``supports`` are the current Z_t as
    ordered index sequences (the order fixes removal-cost positions),
    assumed feasible.  Nonpositive additions are declined, so the gain is
    never negative and feasibility is kept.
    """
    add_gains = np.asarray(add_gains, dtype=float)
    if isinstance(constraint, (IndividualSparsity, PartitionMatroid)):
        return _individual_like(constraint, supports, atom, add_gains, removal_costs)
    if isinstance(constraint, BlockSparsity):
        return _block(constraint, supports, atom, add_gains, removal_costs)
    if isinstance(constraint, AverageSparsity):
        return _average(constraint, supports, atom, add_gains, removal_costs)
    raise TypeError(f"unknown constraint type {type(constraint)!r}")


def _block_values(constraint, supports, g, removal_costs) -> np.ndarray:
    n = g.shape[0]
    values = np.zeros(n)
    for block, cap in zip(constraint.blocks, constraint.caps):
        # Summed point by point, in the order the block search sums.
        base = np.zeros(n)
        for t in block:
            base += g[:, t]
        costs = _union_costs(block, supports, removal_costs)
        if len(costs) < cap:
            value = base
        else:
            # A full union takes the candidate only in place of its cheapest atom.
            in_union = np.zeros(n, dtype=bool)
            in_union[list(costs)] = True
            cheapest = min(costs.values(), default=math.inf)
            value = np.where(in_union, base, np.maximum(base - cheapest, 0.0))
        values += value
    return values


def _prefix_sums(rows: np.ndarray) -> np.ndarray:
    """Row-wise sums of the first 0, 1, ..., m entries of each (., m) row."""
    sums = np.zeros((rows.shape[0], rows.shape[1] + 1))
    np.cumsum(rows, axis=1, out=sums[:, 1:])
    return sums


def _average_values(constraint, supports, g, removal_costs) -> np.ndarray:
    # An exchange solution splits into pairs at tight points (an addition
    # and its own point's removal, worth g - c), plain additions at the
    # other points and extra removals; only the last two meet the budget
    # |additions| <= |removals| + slack.  A tight point spent as an extra
    # removal gives up its pair, so its effective cost is c + max(0, g - c).
    _, costs, tight, slack = average_exchange(constraint, supports, removal_costs)
    is_tight = np.zeros(len(supports), dtype=bool)
    is_tight[list(tight)] = True
    pairs = np.maximum(g[:, is_tight] - costs[is_tight], 0.0)
    effective = np.repeat(costs[None, :], g.shape[0], axis=0)
    effective[:, is_tight] += pairs
    # Best total of a additions and cheapest total of r removals, a, r >= 0.
    adds = _prefix_sums(-np.sort(-g[:, ~is_tight], axis=1))
    removals = _prefix_sums(np.sort(effective, axis=1))
    needed = np.maximum(np.arange(adds.shape[1]) - slack, 0)
    return pairs.sum(axis=1) + (adds - removals[:, needed]).max(axis=1)


def replacement_values(
    constraint: SparsityConstraint,
    supports: Sequence[Sequence[int]],
    add_gains: np.ndarray,
    removal_costs: Sequence[np.ndarray],
) -> np.ndarray:
    """The gain of :func:`search_replacement` for every atom at once.

    Block and average sparsity only.  ``add_gains`` is (n, T): row j holds
    atom j's add gains, zero at supports holding atom j, as
    :func:`search_replacement` takes them; ``removal_costs`` and
    ``supports`` are as there.  Returns the (n,) gains, computed in closed
    form from arrays shared by all atoms.
    """
    g = np.maximum(np.asarray(add_gains, dtype=float), 0.0)
    if isinstance(constraint, BlockSparsity):
        return _block_values(constraint, supports, g, removal_costs)
    if isinstance(constraint, AverageSparsity):
        return _average_values(constraint, supports, g, removal_costs)
    raise TypeError(f"{type(constraint).__name__} is not a coupled family")


def require_feasible(constraint: SparsityConstraint, supports: Sequence) -> None:
    """Raise InfeasibleState unless the support tuple belongs to the family."""
    if not is_feasible(constraint, supports):
        raise InfeasibleState("supports violate the sparsity constraint")


def best_replacement(
    constraint: SparsityConstraint,
    supports: Sequence[Sequence[int]],
    atom: int,
    add_gains: np.ndarray,
    removal_costs: Sequence[np.ndarray],
) -> Replacement:
    """:func:`search_replacement`, raising InfeasibleState on infeasible ``supports``."""
    require_feasible(constraint, supports)
    return search_replacement(constraint, supports, atom, add_gains, removal_costs)
