"""Generalized sparsity families and feasible-replacement search.

A sparsity constraint restricts the tuple of supports (Z_1, ..., Z_T)
jointly.  Four down-closed families are supported: per-point caps,
per-point partition matroids, block sparsity (a cap on the distinct atoms
used within each block of data points), and average sparsity (per-point
caps plus a global cap on the total support size).

A *feasible replacement* for a candidate atom adds that atom to some
supports and removes at most one atom from each support, staying inside
the family.  Every family is searched by one step object (``family_step``)
built from the supports, padded into a (T, m) atom array with the removal
cost of each position: ``values`` gives every atom's best gain in closed
form, ``replacement`` the winner's replacement.  Per-point families are
priced from category tallies (``point_categories``); for average sparsity
the replacement is a budgeted exchange problem, solved exactly in
O(T log T) by ``solve_exchange``.  ``search_replacement`` and
``replacement_values`` take supports as lists and pad them once.
"""

from __future__ import annotations

import heapq
import itertools
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

    def peek(queue, skip, also=frozenset()) -> int | None:
        while queue and (queue[0][1] in skip or queue[0][1] in also):
            heapq.heappop(queue)
        return queue[0][1] if queue else None

    while True:
        at_budget = len(chosen_add) == len(chosen_remove) + slack
        alpha = peek(add_q, chosen_add)
        beta = peek(remove_q, chosen_remove)
        # Tight points whose removal was already spent belong to add_q now.
        gamma = peek(pair_q, chosen_add, chosen_remove)

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


@dataclass(frozen=True)
class PointCategories:
    """A per-point family as category data.

    Point t follows rule ``rule[t]``: atom b falls in category
    ``labels[rule[t], b]``, and support t may hold at most
    ``caps[rule[t], c]`` atoms of category c.  The last category is
    uncapped (inf) and holds the atoms no category names.  Individual caps
    are one category of cap s; a partition matroid has its rules'
    categories, one table row per distinct rule.

    The methods take ``points`` (P,) and their supports as a (P, m) atom
    array, -1 padding the shorter ones.
    """

    labels: np.ndarray
    caps: np.ndarray
    rule: np.ndarray

    def _held(self, points, supports) -> tuple[np.ndarray, np.ndarray]:
        """Rules (P,) and whether each support entry falls in each category (P, m, C; pads in none)."""
        rule = self.rule[points]
        held = np.where(supports >= 0, self.labels[rule[:, None], supports], -1)
        return rule, held[:, :, None] == np.arange(self.caps.shape[1])

    def per_atom(self, rule, table: np.ndarray) -> np.ndarray:
        """The (n, P) entries, in C order, of a (P, C) per-category table at each atom's category."""
        if len(self.labels) == 1:
            return table.T[self.labels[0]]
        return np.ascontiguousarray(np.take_along_axis(table, self.labels[rule], axis=1).T)

    def tally(self, points, supports, removal_costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per category of each support: the atoms held, the cheapest removal and its position.

        Returns counts (P, C), the smallest ``removal_costs`` (P, m) entry
        of the category (inf if it holds none) and that entry's position
        (ties to the lowest atom; -1 if none).
        """
        _, held = self._held(points, supports)
        counts = held.sum(axis=1)
        if not supports.shape[1]:
            return counts, np.full(counts.shape, math.inf), np.full(counts.shape, -1)
        costs = np.where(held, removal_costs[:, :, None], math.inf)
        cheapest = costs.min(axis=1)
        # Among the cheapest entries of a category, the lowest atom; atoms are below n.
        ties = np.where(held & (costs == cheapest[:, None, :]), supports[:, :, None], self.labels.shape[1])
        return counts, cheapest, np.where(counts > 0, np.argmin(ties, axis=1), -1)

    def require_feasible(self, points, counts: np.ndarray) -> None:
        """Raise InfeasibleState unless the :meth:`tally` counts of ``points`` are within their caps."""
        if (counts > self.caps[self.rule[points]]).any():
            raise InfeasibleState("supports violate the sparsity constraint")

    def options(self, points, supports) -> tuple[np.ndarray, np.ndarray]:
        """Which atoms may join each support and which positions each may replace.

        Returns masks addable (P, n) and swappable (P, m, n).  Atoms of a
        support get neither; an addable atom gets no swap, since the
        objective is monotone.  An atom may be added while its category is
        below its cap (uncategorized atoms always), else replace only an
        atom of its own category.
        """
        rule, held = self._held(points, supports)
        outside = np.ones((len(rule), self.labels.shape[1]), dtype=bool)
        rows, cols = np.nonzero(supports >= 0)
        outside[rows, supports[rows, cols]] = False
        addable = self.per_atom(rule, held.sum(axis=1) < self.caps[rule]).T & outside
        same = np.take_along_axis(held, self.labels[rule][:, None, :], axis=2)
        return addable, same & (outside & ~addable)[:, None, :]

    def swap_positions(self, points, counts: np.ndarray, position: np.ndarray, atom: int) -> np.ndarray:
        """The support position each point gives up for ``atom``, from its :meth:`tally`.

        -1 where the atom's category has room, else the category's
        cheapest removal.
        """
        rule, rows = self.rule[points], np.arange(len(points))
        label = self.labels[rule, atom]
        return np.where(counts[rows, label] >= self.caps[rule, label], position[rows, label], -1)


def point_categories(constraint: SparsityConstraint, t_count: int, num_atoms: int) -> PointCategories:
    """The category tables of a per-point family over ``t_count`` points and ``num_atoms`` atoms."""
    if isinstance(constraint, IndividualSparsity):
        return PointCategories(
            np.zeros((1, num_atoms), dtype=int), np.array([[constraint.s, math.inf]]), np.zeros(t_count, dtype=int)
        )
    if not isinstance(constraint, PartitionMatroid):
        raise TypeError(f"{type(constraint).__name__} is not a per-point family")
    distinct: dict = {}
    rule = np.array([distinct.setdefault(r, len(distinct)) for r in constraint.rules[:t_count]], dtype=int)
    width = 1 + max((len(r) for r in distinct), default=0)
    labels = np.full((len(distinct), num_atoms), width - 1)
    caps = np.full((len(distinct), width), math.inf)
    for i, r in enumerate(distinct):
        for c, (cat, cap) in enumerate(r):
            labels[i, [j for j in cat if j < num_atoms]] = c
            caps[i, c] = cap
    return PointCategories(labels, caps, rule)


def cheapest_removal(costs: Sequence[float], support: Sequence[int], positions=None) -> int | None:
    """Cheapest position among ``positions`` (default all), ties to the lowest atom; or None."""
    candidates = range(len(support)) if positions is None else positions
    return min(candidates, key=lambda j: (costs[j], support[j]), default=None)


class PointStep:
    """A per-point family's option costs, shared by every candidate atom of a step.

    Built from the :meth:`PointCategories.tally` of the supports ``index``
    (padded as :func:`family_step` takes them), ``cheapest`` in the step's
    scaled costs.  ``table`` (T, C) is what an atom of each category pays
    to join each support: 0 while the category has room, else its cheapest
    removal (inf if it holds none).
    """

    def __init__(self, cats: PointCategories, index: np.ndarray, counts, cheapest, position):
        self.cats, self.index, self.counts, self.position = cats, index, counts, position
        self.table = np.where(counts < cats.caps[cats.rule], 0.0, cheapest)

    def costs(self) -> np.ndarray:
        """The (n, T) cost of each atom's cheapest option at each support, from ``table``."""
        return self.cats.per_atom(self.cats.rule, self.table)

    def values(self, add_gains: np.ndarray) -> np.ndarray:
        """The best gain of every atom, from its (T,) row of the (n, T) ``add_gains``."""
        gains = self.costs()  # overwritten: a step holds one (n, T) array besides ``add_gains``
        return np.maximum(np.subtract(add_gains, gains, out=gains), 0.0, out=gains).sum(axis=1)

    def replacement(self, atom: int, add_gains: np.ndarray) -> tuple:
        """``atom``'s best replacement, as :meth:`AverageStep.replacement` gives it.

        Every point of positive gain takes the atom, in place of its
        category's cheapest removal when the category is full.
        """
        cost = self.table[np.arange(len(self.table)), self.cats.labels[self.cats.rule, atom]]
        gains = np.where((self.index == atom).any(axis=1), 0.0, add_gains) - cost
        points = np.flatnonzero(gains > 0.0)
        removed = self.cats.swap_positions(points, self.counts[points], self.position[points], atom)
        return points, removed, np.ones(len(points), dtype=bool), float(gains[points].sum())


class AverageStep:
    """Average sparsity's exchange data, shared by every candidate atom of a step.

    Built from padded supports as :func:`family_step` takes them.
    ``position`` (T,) is each support's cheapest removal and ``costs`` its
    cost, as :meth:`PointCategories.tally` gives them for one uncapped
    category holding every atom; ``tight`` marks the supports at their cap
    and ``slack`` is the room left under the global cap.
    """

    def __init__(self, constraint: AverageSparsity, index: np.ndarray, costs: np.ndarray, num_atoms: int):
        points = np.arange(len(index))
        whole = PointCategories(np.zeros((1, num_atoms), dtype=int), np.full((1, 1), math.inf), np.zeros_like(points))
        sizes, self.costs, self.position = (column[:, 0] for column in whole.tally(points, index, costs))
        self.index = index
        self.tight = sizes == np.asarray(constraint.s_t)
        self.slack = constraint.s_prime - int(sizes.sum())

    def values(self, add_gains: np.ndarray) -> np.ndarray:
        """The best gain of every atom, from its (T,) row of the (n, T) ``add_gains``."""
        # An exchange solution splits into pairs at tight points (an addition
        # and its own point's removal, worth g - c), plain additions at the
        # other points and extra removals; only the last two meet the budget
        # |additions| <= |removals| + slack.  A tight point spent as an extra
        # removal gives up its pair, so its effective cost is c + max(0, g - c).
        g = np.maximum(add_gains, 0.0)
        pairs = np.maximum(g[:, self.tight] - self.costs[self.tight], 0.0)
        effective = np.repeat(self.costs[None, :], g.shape[0], axis=0)
        effective[:, self.tight] += pairs
        # Best total of a additions and cheapest total of r removals, a, r >= 0.
        adds = _prefix_sums(-np.sort(-g[:, ~self.tight], axis=1))
        removals = _prefix_sums(np.sort(effective, axis=1))
        needed = np.maximum(np.arange(adds.shape[1]) - self.slack, 0)
        return pairs.sum(axis=1) + (adds - removals[:, needed]).max(axis=1)

    def replacement(self, atom: int, add_gains: np.ndarray) -> tuple:
        """``atom``'s best replacement, from one exchange solve: (points, removed, add, gain).

        ``points`` ascend; point ``points[i]`` gives up support position
        ``removed[i]`` (none if -1) and takes the atom if ``add[i]``.
        """
        g = np.where((self.index == atom).any(axis=1), 0.0, np.maximum(add_gains, 0.0))
        tight = frozenset(np.flatnonzero(self.tight).tolist())
        added, removed, value = solve_exchange(ExchangeInstance(g, self.costs, tight, self.slack))
        points = np.array(sorted(added | removed), dtype=int)
        removes = np.isin(points, list(removed))
        return points, np.where(removes, self.position[points], -1), np.isin(points, list(added)), value


class BlockStep:
    """Block sparsity's union data, shared by every candidate atom of a step.

    Built from padded supports as :func:`family_step` takes them.
    ``member`` (B, n) marks the atoms each block's supports use and
    ``union`` (B, n) holds what dropping each from every support of the
    block costs (inf for the other atoms); ``full`` (B,) marks the unions
    at their cap.
    """

    def __init__(self, constraint: BlockSparsity, index: np.ndarray, costs: np.ndarray, num_atoms: int):
        lengths = [len(block) for block in constraint.blocks]
        self.index = index
        self.order = np.fromiter(itertools.chain.from_iterable(constraint.blocks), dtype=int, count=sum(lengths))
        self.block_of = np.empty(len(index), dtype=int)
        self.block_of[self.order] = np.repeat(np.arange(len(lengths)), lengths)
        # (block, atom) pairs point by point in block order, so each atom's
        # costs are summed in that order.
        rows, cols = np.nonzero(index[self.order] >= 0)
        pairs = self.block_of[self.order[rows]], index[self.order[rows], cols]
        union = np.zeros((len(lengths), num_atoms))
        np.add.at(union, pairs, costs[self.order[rows], cols])
        self.member = np.zeros(union.shape, dtype=bool)
        self.member[pairs] = True
        self.union = np.where(self.member, union, math.inf)
        self.full = self.member.sum(axis=1) >= np.asarray(constraint.caps)

    def _block_sums(self, rows: np.ndarray) -> np.ndarray:
        """Per-block sums (B, ...) of the per-point ``rows`` (T, ...), added point by point in block order."""
        sums = np.zeros((len(self.full), *rows.shape[1:]))
        np.add.at(sums, self.block_of[self.order], rows[self.order])
        return sums

    def values(self, add_gains: np.ndarray) -> np.ndarray:
        """The best gain of every atom, from its (T,) row of the (n, T) ``add_gains``."""
        base = self._block_sums(np.maximum(add_gains, 0.0).T)
        # A full union takes the candidate only in place of its cheapest atom.
        cheapest = self.union.min(axis=1, keepdims=True)
        value = np.where(self.member | ~self.full[:, None], base, np.maximum(base - cheapest, 0.0))
        return _prefix_sums(value.T)[:, -1]  # blocks added in order

    def replacement(self, atom: int, add_gains: np.ndarray) -> tuple:
        """``atom``'s best replacement, as :meth:`AverageStep.replacement` gives it.

        A block takes the atom at its points of positive gain.  A full
        union that lacks the atom must also drop the union atom whose
        removal leaves the most gain (the lowest on ties), and the block
        joins only if that gain is positive.
        """
        g = np.where((self.index == atom).any(axis=1), 0.0, add_gains)
        adds = g > 0.0
        base = self._block_sums(np.where(adds, g, 0.0))
        left = base[:, None] - self.union  # -inf for atoms outside the union
        drop = np.argmax(left, axis=1)
        lacking = self.full & ~self.member[:, atom]
        gain = np.where(lacking, left[np.arange(len(drop)), drop], base)
        take = gain > 0.0
        dropped = np.where(take & lacking, drop, -1)[self.block_of]
        hit = (self.index == dropped[:, None]) & (dropped >= 0)[:, None]
        removes = hit.any(axis=1)
        points = np.flatnonzero(take[self.block_of] & (adds | removes))
        removed = np.where(removes, np.argmax(hit, axis=1), -1)[points]
        return points, removed, adds[points], float(gain[take].sum())


def family_step(constraint: SparsityConstraint, index: np.ndarray, costs: np.ndarray, num_atoms: int):
    """The :class:`PointStep`, :class:`AverageStep` or :class:`BlockStep` of one step's supports.

    ``index`` (T, m) holds each support's atoms in order, -1 padding the
    shorter ones, and ``costs`` (T, m) the scaled, nonnegative cost of
    dropping each (entries at pads are ignored).  Atoms are below
    ``num_atoms``.
    """
    if isinstance(constraint, AverageSparsity):
        return AverageStep(constraint, index, costs, num_atoms)
    if isinstance(constraint, BlockSparsity):
        return BlockStep(constraint, index, costs, num_atoms)
    cats = point_categories(constraint, len(index), num_atoms)
    return PointStep(cats, index, *cats.tally(np.arange(len(index)), index, costs))


def _padded(supports: Sequence[Sequence[int]], removal_costs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Supports and their removal costs as (T, m) arrays, m >= 1, -1 and inf padding the shorter rows."""
    index = np.full((len(supports), max([1, *map(len, supports)])), -1)
    costs = np.full(index.shape, math.inf)
    for t, support in enumerate(supports):
        index[t, : len(support)] = list(support)
        costs[t, : len(support)] = removal_costs[t]
    return index, costs


def search_replacement(
    constraint: SparsityConstraint,
    supports: Sequence[Sequence[int]],
    atom: int,
    add_gains: np.ndarray,
    removal_costs: Sequence[np.ndarray],
) -> Replacement:
    """Gain-maximizing feasible replacement for one candidate atom.

    ``add_gains[t]`` is the (already smoothness-scaled) gain of adding the
    candidate to Z_t and ``removal_costs[t][j]`` the scaled, nonnegative
    cost of dropping the j-th atom of Z_t; entries for supports already
    holding the candidate must be zero.  ``supports`` are the current Z_t
    as ordered index sequences (the order fixes removal-cost positions),
    assumed feasible.  Nonpositive additions are declined, so the gain is
    never negative and feasibility is kept.
    """
    add_gains = np.asarray(add_gains, dtype=float)
    index, costs = _padded(supports, removal_costs)
    step = family_step(constraint, index, costs, 1 + max(atom, int(index.max())))
    points, removed, add, gain = step.replacement(atom, add_gains)
    per_t = [
        (t, None if r < 0 else int(index[t, r]), a) for t, r, a in zip(points.tolist(), removed.tolist(), add.tolist())
    ]
    return Replacement(atom, per_t, float(gain))


def _prefix_sums(rows: np.ndarray) -> np.ndarray:
    """Row-wise sums of the first 0, 1, ..., m entries of each (., m) row."""
    sums = np.zeros((rows.shape[0], rows.shape[1] + 1))
    np.cumsum(rows, axis=1, out=sums[:, 1:])
    return sums


def replacement_values(
    constraint: SparsityConstraint,
    supports: Sequence[Sequence[int]],
    add_gains: np.ndarray,
    removal_costs: Sequence[np.ndarray],
) -> np.ndarray:
    """The gain of :func:`search_replacement` for every atom at once.

    ``add_gains`` is (n, T): row j holds atom j's add gains, zero at
    supports holding atom j, as :func:`search_replacement` takes them;
    ``removal_costs`` and ``supports`` are as there.  Returns the (n,)
    gains, computed in closed form from the :func:`family_step` data
    shared by all atoms.
    """
    add_gains = np.asarray(add_gains, dtype=float)
    index, costs = _padded(supports, removal_costs)
    return family_step(constraint, index, costs, add_gains.shape[0]).values(add_gains)


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
