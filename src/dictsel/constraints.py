"""Generalized sparsity families and feasible-replacement search.

A sparsity constraint restricts the tuple of supports (Z_1, ..., Z_T)
jointly.  Four down-closed families are supported: per-point caps,
per-point partition matroids, block sparsity (a cap on the distinct atoms
used within each block of data points), and average sparsity (per-point
caps plus a global cap on the total support size).

A *feasible replacement* for a candidate atom adds that atom to some
supports and removes at most one atom from each support, staying inside
the family.  ``family_state`` gives each family one object that keeps,
checks and prices its supports, padded into a (T, m) atom array with the
removal cost of each position: ``PointFamily`` (caps and matroids) holds
the category tables and keeps the category tallies of every support up
to date at the points that change, ``AverageFamily`` checks the support
sizes and ``BlockFamily`` the distinct atoms of each block.  Its ``step``
stores one step's tables on the family, shared by every candidate atom:
``values`` then gives every atom's best gain in closed form,
``replacement`` the winner's replacement.  For average sparsity the
replacement is a budgeted exchange problem, whose moves come from sorted
arrays in closed form (``exchange_sets``): the points that
``solve_exchange``, the exact O(T log T) heap greedy, picks; a tie at
the lowest gain taken that holds a tight point's pair goes to that
greedy.  ``best_replacement`` takes supports as lists, pads them once and
runs the same family object for one atom.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InfeasibleState
from .linalg import stack_rows


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
        first: dict = {}
        for t, rule in enumerate(self.rules):
            first.setdefault(rule, t)
        for rule, t in first.items():  # each distinct rule once, named by the first point that uses it
            seen: set = set()
            for cat, cap in rule:
                if cap < 0:
                    raise ValueError(f"rule {t}: negative cap")
                if min(cat, default=0) < 0:
                    raise ValueError(f"rule {t}: negative atom")
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

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, list]:
        """The points block by block (``order``), each point's block (``block_of``) and ``columns``.

        ``columns[j]`` pairs the blocks at least j + 1 points long (a slice
        when that is every block) with their j-th points, so that adding
        the columns in turn sums each block in the order it lists its points.
        """
        lengths = np.array([len(block) for block in self.blocks], dtype=int)
        order = np.fromiter(itertools.chain.from_iterable(self.blocks), dtype=int, count=lengths.sum())
        block_of = np.empty(len(order), dtype=int)
        block_of[order] = np.repeat(np.arange(len(lengths)), lengths)
        starts = np.cumsum(lengths) - lengths
        columns = []
        for j in range(lengths.max(initial=0)):
            blocks = np.flatnonzero(lengths > j)
            columns.append((slice(None) if len(blocks) == len(lengths) else blocks, order[starts[blocks] + j]))
        return order, block_of, columns

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


def _ranked(points: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The ascending ``points`` ordered by ``key[points]`` ascending, ties to the lower point."""
    return points[np.argsort(key[points], kind="stable")]


def exchange_sets(gains: np.ndarray, costs: np.ndarray, tight: np.ndarray, slack: int) -> tuple[np.ndarray, np.ndarray]:
    """The sets A and B that :func:`solve_exchange` chooses, as (T,) masks, from sorted arrays.

    ``gains`` (nonnegative), ``costs`` and the mask ``tight`` are (T,), the
    instance of :class:`ExchangeInstance`.  A tight point whose pair gains
    (g > c) always ends in B, and its addition then competes with the
    plain ones, its removal paying for one addition.  So with those pairs
    removed up front, additions go by gain descending over the other
    points and the pairs: the first slack + |pairs| are free, and the i-th
    after them is paid by the i-th cheapest of the other removals and is
    taken while its gain beats that cost; nothing is taken at a marginal
    <= 0.  That fixes B, |A| and every addition above the lowest gain
    taken.  Among the points of that gain the heap greedy's order
    decides: A comes from :func:`solve_exchange` when a pair is among them.
    """
    pairs = tight & (gains > costs)
    ranked = _ranked(np.flatnonzero(~tight | pairs), -gains)
    removals = _ranked(np.flatnonzero(np.isfinite(costs) & ~pairs), costs)
    free = slack + int(np.count_nonzero(pairs))
    top = gains[ranked]
    count = int(np.count_nonzero(top > 0.0))
    if count > free:
        span = min(len(ranked) - free, len(removals))
        count = free + int(np.count_nonzero(top[free : free + span] > costs[removals[:span]]))
    added = np.zeros(len(gains), dtype=bool)
    if 0 < count < len(ranked) and top[count] == top[count - 1] and pairs[ranked[top == top[count - 1]]].any():
        # A pair spent as a removal joins the additions after the one it paid for.
        chosen, _, _ = solve_exchange(ExchangeInstance(gains, costs, frozenset(np.flatnonzero(tight).tolist()), slack))
        added[list(chosen)] = True
    else:
        added[ranked[:count]] = True
    removed = pairs.copy()
    removed[removals[: max(0, count - free)]] = True
    return added, removed


def cheapest_removal(costs: Sequence[float], support: Sequence[int], positions=None) -> int | None:
    """Cheapest position among ``positions`` (default all), ties to the lowest atom; or None."""
    candidates = range(len(support)) if positions is None else positions
    return min(candidates, key=lambda j: (costs[j], support[j]), default=None)


def _cheapest(held: np.ndarray, costs: np.ndarray, index: np.ndarray, num_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """The least ``held`` entry of ``costs`` along the last axis (inf if none) and its position (-1 if none).

    Ties go to the lowest atom of ``index``, as :func:`cheapest_removal` breaks them.
    """
    if not held.shape[-1]:
        return np.full(held.shape[:-1], math.inf), np.full(held.shape[:-1], -1)
    costs = np.where(held, costs, math.inf)
    cheapest = costs.min(axis=-1)
    # Among the cheapest held entries, the lowest atom; atoms are below num_atoms.
    ties = np.where(held & (costs == cheapest[..., None]), index, num_atoms)
    return cheapest, np.where(held.any(axis=-1), np.argmin(ties, axis=-1), -1)


def _padded(supports: Sequence[Sequence[int]], removal_costs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Supports and their removal costs as (T, m) arrays, m >= 1, -1 and inf padding the shorter rows."""
    index = np.full((len(supports), max([1, *map(len, supports)])), -1)
    costs = np.full(index.shape, math.inf)
    for t, support in enumerate(supports):
        index[t, : len(support)] = list(support)
        costs[t, : len(support)] = removal_costs[t]
    return index, costs


def _row_chunks(add_gains: np.ndarray):
    """Slices of ``stack_rows(T)`` atom rows that cover the (n, T) ``add_gains``."""
    n, t_count = add_gains.shape
    rows = stack_rows(t_count)
    return (slice(start, start + rows) for start in range(0, n, rows))


def _prefix_sums(rows: np.ndarray) -> np.ndarray:
    """Row-wise sums of the first 0, 1, ..., m entries of each (., m) row."""
    sums = np.zeros((rows.shape[0], rows.shape[1] + 1))
    np.cumsum(rows, axis=1, out=sums[:, 1:])
    return sums


def _require(feasible: bool) -> None:
    if not feasible:
        raise InfeasibleState("supports violate the sparsity constraint")


def require_feasible(constraint: SparsityConstraint, supports: Sequence) -> None:
    """Raise InfeasibleState unless the support tuple belongs to the family."""
    _require(is_feasible(constraint, supports))


class PointFamily:
    """A per-point family's category tables and the tally of every support.

    Point t follows rule ``rule[t]``: atom b falls in category
    ``labels[rule[t], b]``, and support t may hold at most ``caps[t, c]``
    atoms of category c.  The last category is uncapped (inf) and holds
    the atoms no category names.  A partition matroid has its rules'
    categories, one ``labels`` row per distinct rule; individual caps are
    the one rule of one category of cap s.  Atoms that fall in the same
    category under every rule form one class (``atom_class`` (n,)), and
    ``kinds`` (T, K) is the category of each class at each point, so
    per-atom tables are gathered from one row per class.

    ``counts``, ``cheapest`` and ``position`` are (T, C): per category of
    each support, the atoms held, the cheapest unscaled removal (inf if it
    holds none) and its position (ties to the lowest atom; -1 if none).
    They start as the tally of empty supports; :meth:`refresh` tallies
    only the supports that changed.  :meth:`step` sets ``by_class`` (K, T),
    what an atom of each class pays to join each support: 0 while its
    category has room, else the category's cheapest removal (inf if none).
    """

    def __init__(self, constraint: SparsityConstraint, t_count: int, num_atoms: int):
        if isinstance(constraint, IndividualSparsity):
            rules = (((frozenset(range(num_atoms)), constraint.s),),) * t_count
        elif isinstance(constraint, PartitionMatroid):
            rules = constraint.rules[:t_count]
        else:
            raise TypeError(f"{type(constraint).__name__} is not a per-point family")
        distinct: dict = {}
        self.rule = np.array([distinct.setdefault(r, len(distinct)) for r in rules], dtype=int)
        width = 1 + max((len(r) for r in distinct), default=0)
        self.labels = np.full((len(distinct), num_atoms), width - 1)
        caps = np.full((len(distinct), width), math.inf)
        for i, r in enumerate(distinct):
            for c, (cat, cap) in enumerate(r):
                self.labels[i, [j for j in cat if j < num_atoms]] = c
                caps[i, c] = cap
        # Sorted by their label columns, the atoms of one class are adjacent;
        # the zero key keeps the sort defined when there are no rules.
        order = np.lexsort((*self.labels, np.zeros(num_atoms, dtype=int)))
        columns = self.labels[:, order]
        first = np.ones(num_atoms, dtype=bool)
        first[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
        self.atom_class = np.empty_like(order)
        self.atom_class[order] = np.cumsum(first) - 1
        self.caps, self.kinds = caps[self.rule], columns[:, first][self.rule]
        self.counts = np.zeros(self.caps.shape, dtype=int)
        self.cheapest = np.full(self.caps.shape, math.inf)
        self.position = np.full(self.caps.shape, -1)

    def _labels(self, points, supports) -> tuple[np.ndarray, np.ndarray]:
        """Rules (P,) and the category of each (P, m) support entry (-1 for pads, which match no label)."""
        rule = self.rule[points]
        return rule, np.where(supports >= 0, self.labels[rule[:, None], supports], -1)

    def refresh(self, index, size, costs, points) -> None:
        """Tally the supports of ``points`` again; InfeasibleState unless they are within their caps."""
        m = int(size[points].max(initial=0))
        supports = index[points, :m]
        # (P, C, m), so that every reduction runs along the last, contiguous axis.
        held = self._labels(points, supports)[1][:, None, :] == np.arange(self.caps.shape[1])[:, None]
        self.counts[points] = counts = np.count_nonzero(held, axis=2)
        cheapest = _cheapest(held, costs(points, m)[:, None, :], supports[:, None, :], self.labels.shape[1])
        self.cheapest[points], self.position[points] = cheapest
        _require(not (counts > self.caps[points]).any())

    def options(self, points, supports) -> tuple[np.ndarray, np.ndarray]:
        """Which atoms may join each support and which positions each may replace.

        Returns masks addable (P, n) and swappable (P, m, n).  Atoms of a
        support get neither; an addable atom gets no swap, since the
        objective is monotone.  An atom may be added while its category is
        below its cap (uncategorized atoms always), else replace only an
        atom of its own category.
        """
        rule, label = self._labels(points, supports)
        outside = np.ones((len(rule), self.labels.shape[1]), dtype=bool)
        rows, cols = np.nonzero(supports >= 0)
        outside[rows, supports[rows, cols]] = False
        held = label[:, :, None] == np.arange(self.caps.shape[1])
        room = held.sum(axis=1) < self.caps[points]
        addable = room[np.arange(len(rule))[:, None], self.kinds[points]][:, self.atom_class] & outside
        same = label[:, :, None] == self.labels[rule][:, None, :]  # entry j and atom b share a category
        return addable, same & (outside & ~addable)[:, None, :]

    def step(self, index, costs, scale: float) -> "PointFamily":
        """Price the supports ``index``, removals costing ``scale`` times their tallied cost; returns the family."""
        self.index = index
        table = np.where(self.counts < self.caps, 0.0, scale * self.cheapest)  # (T, C), per category
        self.by_class = np.ascontiguousarray(table[np.arange(len(table))[:, None], self.kinds].T)
        return self

    def costs(self, atoms=slice(None)) -> np.ndarray:
        """The (len(atoms), T) cost, in C order, of each atom's cheapest option at each support."""
        return np.take(self.by_class, self.atom_class[atoms], axis=0)

    def values(self, add_gains: np.ndarray) -> np.ndarray:
        """The best gain of every atom, from its (T,) row of the (n, T) ``add_gains``.

        Atoms are priced ``stack_rows(T)`` rows at a time, so a step holds
        no (n, T) array besides ``add_gains``; each row is summed on its
        own, so the chunking does not change a bit.
        """
        out = np.empty(len(add_gains))
        for block in _row_chunks(add_gains):
            gains = self.costs(block)  # overwritten
            np.maximum(np.subtract(add_gains[block], gains, out=gains), 0.0, out=gains).sum(axis=1, out=out[block])
        return out

    def replacement(self, atom: int, add_gains: np.ndarray) -> tuple:
        """``atom``'s best replacement, as :meth:`AverageFamily.replacement` gives it.

        Every point of positive gain takes the atom, in place of its
        category's cheapest removal when the category is full.
        """
        kind = self.atom_class[atom]
        gains = np.where((self.index == atom).any(axis=1), 0.0, add_gains) - self.by_class[kind]
        points = np.flatnonzero(gains > 0.0)
        label = self.kinds[points, kind]  # the atom's category at each point
        full = self.counts[points, label] >= self.caps[points, label]
        removed = np.where(full, self.position[points, label], -1)
        return points, removed, np.ones(len(points), dtype=bool), float(gains[points].sum())


class AverageFamily:
    """Average sparsity: its caps, and the exchange data of the supports of the last :meth:`step`.

    ``position`` (T,) is each support's cheapest removal (ties to the
    lowest atom; -1 if the support is empty) and ``costs`` its cost (inf
    if empty); ``tight`` marks the supports at their cap and ``slack`` is
    the room left under the global cap.
    """

    def __init__(self, constraint: AverageSparsity, num_atoms: int):
        self.constraint, self.num_atoms, self.caps = constraint, num_atoms, np.asarray(constraint.s_t, dtype=int)

    def refresh(self, index, size, costs, points) -> None:
        """InfeasibleState unless each ``size`` is within its cap ``s_t`` and their sum within ``s_prime``."""
        caps = self.caps
        _require(len(size) == len(caps) and bool((size <= caps).all()) and int(size.sum()) <= self.constraint.s_prime)

    def step(self, index, costs, scale: float) -> "AverageFamily":
        """Price the supports ``index``, removals costing ``scale`` times ``costs``; returns the family."""
        costs = scale * costs(slice(None), index.shape[1])
        sizes = np.count_nonzero(index >= 0, axis=1)
        self.costs, self.position = _cheapest(index >= 0, costs, index, self.num_atoms)
        self.index = index
        self.tight = sizes == self.caps
        self.slack = self.constraint.s_prime - int(sizes.sum())
        return self

    def values(self, add_gains: np.ndarray) -> np.ndarray:
        """The best gain of every atom, from its (T,) row of the (n, T) ``add_gains``.

        Atoms are priced ``stack_rows(T)`` rows at a time, as in
        :meth:`PointFamily.values`; every sort, sum and maximum runs along a
        row, the sums in point order, so the chunking does not change a bit.
        """
        out = np.empty(len(add_gains))
        for block in _row_chunks(add_gains):
            out[block] = self._values(add_gains[block])
        return out

    def _values(self, add_gains: np.ndarray) -> np.ndarray:
        # An exchange solution splits into pairs at tight points (an addition
        # and its own point's removal, worth g - c), plain additions at the
        # other points and extra removals; only the last two meet the budget
        # |additions| <= |removals| + slack.  A tight point spent as an extra
        # removal gives up its pair, so its effective cost is c + max(0, g - c).
        g = np.maximum(add_gains, 0.0)
        pairs = np.maximum(g.T[self.tight] - self.costs[self.tight, None], 0.0)  # (tight points, atoms)
        effective = np.repeat(self.costs[None, :], g.shape[0], axis=0)
        effective[:, self.tight] += pairs.T
        # Best total of a additions and cheapest total of r removals, a, r >= 0.
        adds = _prefix_sums(np.sort(g[:, ~self.tight], axis=1)[:, ::-1])
        removals = _prefix_sums(np.sort(effective, axis=1))
        needed = np.maximum(np.arange(adds.shape[1]) - self.slack, 0)
        # Each atom's pairs added point by point, whatever the chunk's row count.
        totals = np.zeros((len(pairs) + 1, g.shape[0]))
        np.cumsum(pairs, axis=0, out=totals[1:])
        return totals[-1] + (adds - removals[:, needed]).max(axis=1)

    def replacement(self, atom: int, add_gains: np.ndarray) -> tuple:
        """``atom``'s best replacement: (points, removed, add, gain).

        ``points`` ascend; point ``points[i]`` gives up support position
        ``removed[i]`` (none if -1) and takes the atom if ``add[i]``.  The
        points and the gain are those :func:`solve_exchange` gives for the
        step's exchange instance, taken from :func:`exchange_sets`.
        """
        g = np.where((self.index == atom).any(axis=1), 0.0, np.maximum(add_gains, 0.0))
        added, removed = exchange_sets(g, self.costs, self.tight, self.slack)
        points = np.flatnonzero(added | removed)
        gain = float(np.sum(g[added])) - float(np.sum(self.costs[removed]))
        return points, np.where(removed[points], self.position[points], -1), added[points], gain


class BlockFamily:
    """Block sparsity: its caps, and the union data of the supports of the last :meth:`step`.

    ``member`` (B, n) marks the atoms each block's supports use and
    ``union`` (B, n) holds what dropping each from every support of the
    block costs (inf for the other atoms); ``full`` (B,) marks the unions
    at their cap.  Every per-block sum adds its points' terms one by one in
    block order, as the constraint lists the points.
    """

    def __init__(self, constraint: BlockSparsity, num_atoms: int):
        self.constraint, self.num_atoms, self.caps = constraint, num_atoms, np.asarray(constraint.caps, dtype=int)

    def refresh(self, index, size, costs, points) -> None:
        """InfeasibleState unless each block's supports use at most its cap of distinct atoms."""
        block_of = self.constraint.layout[1]
        _require(len(index) == len(block_of))
        used = np.zeros((len(self.caps), self.num_atoms + 1), dtype=bool)  # pads (-1) mark the last column
        used[block_of[:, None], index] = True
        _require(bool((np.count_nonzero(used[:, :-1], axis=1) <= self.caps).all()))

    def step(self, index, costs, scale: float) -> "BlockFamily":
        """Price the supports ``index``, removals costing ``scale`` times ``costs``; returns the family."""
        costs = scale * costs(slice(None), index.shape[1])
        count, num_atoms = len(self.caps), self.num_atoms
        self.index = index
        order, self.block_of, self.columns = self.constraint.layout
        # (block, atom) pairs point by point in block order; bincount adds
        # each pair's costs in that order.
        rows, cols = np.nonzero(index[order] >= 0)
        pairs = self.block_of[order[rows]] * num_atoms + index[order[rows], cols]
        union = np.bincount(pairs, costs[order[rows], cols], count * num_atoms).reshape(count, num_atoms)
        self.member = np.bincount(pairs, minlength=count * num_atoms).reshape(count, num_atoms) > 0
        self.union = np.where(self.member, union, math.inf)
        self.full = self.member.sum(axis=1) >= self.caps
        return self

    def _block_sums(self, rows: np.ndarray) -> np.ndarray:
        """Per-block sums (..., B) of the per-point ``rows`` (..., T), added point by point in block order."""
        sums = np.zeros((*rows.shape[:-1], len(self.full)))
        for blocks, points in self.columns:
            sums[..., blocks] += rows.take(points, axis=-1)
        return sums

    def values(self, add_gains: np.ndarray) -> np.ndarray:
        """The best gain of every atom, from its (T,) row of the (n, T) ``add_gains``."""
        base = self._block_sums(np.maximum(add_gains, 0.0))  # (n, B)
        # A full union takes the candidate only in place of its cheapest atom.
        cheapest = self.union.min(axis=1)
        value = np.where(self.member.T | ~self.full, base, np.maximum(base - cheapest, 0.0))
        return _prefix_sums(value)[:, -1]  # blocks added in order

    def replacement(self, atom: int, add_gains: np.ndarray) -> tuple:
        """``atom``'s best replacement, as :meth:`AverageFamily.replacement` gives it.

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


def family_state(constraint: SparsityConstraint, t_count: int, num_atoms: int):
    """The :class:`PointFamily`, :class:`AverageFamily` or :class:`BlockFamily` of ``t_count`` supports.

    Every family reads the supports in one padded form: ``index`` (T, m)
    holds each support's atoms in order, -1 padding the shorter ones,
    atoms below ``num_atoms``; ``size`` (T,) their counts; and the
    accessor ``costs(rows, m)`` the unscaled, nonnegative cost of dropping
    each of the first m atoms of the supports ``rows`` (an index array or
    a slice).  ``refresh(index, size, costs, points)`` takes in the
    supports of ``points``, the ones that changed, and raises
    InfeasibleState unless the supports belong to the family; a coupled
    family may bind anywhere, so it checks them all.
    ``step(index, costs, scale)`` stores the supports' step tables on the
    family and returns it, removals costing ``scale`` times ``costs``.
    """
    if isinstance(constraint, AverageSparsity):
        return AverageFamily(constraint, num_atoms)
    if isinstance(constraint, BlockSparsity):
        return BlockFamily(constraint, num_atoms)
    return PointFamily(constraint, t_count, num_atoms)


def best_replacement(
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
    as ordered index sequences (the order fixes removal-cost positions);
    InfeasibleState unless they are feasible; ValueError unless
    ``add_gains`` is one finite gain per support, ``removal_costs`` one
    nonnegative (not NaN) cost per support atom and ``atom`` nonnegative.
    Nonpositive additions are declined, so the gain is never negative and
    feasibility is kept.
    """
    add_gains = np.asarray(add_gains, dtype=float)
    if add_gains.shape != (len(supports),) or not np.isfinite(add_gains).all():
        raise ValueError("add_gains must hold one finite gain per support")
    if len(removal_costs) != len(supports) or any(len(c) != len(z) for c, z in zip(removal_costs, supports)):
        raise ValueError("removal_costs must hold one cost per support atom")
    if atom < 0:
        raise ValueError("atom must be nonnegative")
    index, padded = _padded(supports, removal_costs)
    if not (padded >= 0.0).all():  # NaN fails too; the pads are inf
        raise ValueError("removal costs must be nonnegative and not NaN")
    _require(num_points(constraint) in (None, len(supports)))  # the family's refresh checks the rest

    def costs(rows, m):
        return padded[rows, :m]

    family = family_state(constraint, len(index), 1 + max(atom, int(index.max(initial=-1))))
    family.refresh(index, np.count_nonzero(index >= 0, axis=1), costs, np.arange(len(index)))
    step = family.step(index, costs, 1.0)
    points, removed, add, gain = step.replacement(atom, add_gains)
    per_t = [
        (t, None if r < 0 else int(index[t, r]), a) for t, r, a in zip(points.tolist(), removed.tolist(), add.tolist())
    ]
    return Replacement(atom, per_t, float(gain))
