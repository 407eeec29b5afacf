"""Offline dictionary selectors.

Three selectors over a common selection state:

* ``modular_greedy`` ranks atoms by a per-atom surrogate that ignores
  atom interactions (sum of the top-s singleton utilities per point).
* ``replacement_greedy`` adds one atom per step via the best feasible
  replacement measured by exact objective differences; per-point
  families only, whose options are the masks of ``point_options``.
* ``replacement_omp`` replaces the exact differences with gradient-based
  proxy gains weighted by a smoothness parameter, which makes the
  per-step search a linear-objective problem and extends to block and
  average sparsity.  The ``decay`` variant divides the smoothness
  parameter by sqrt(i) at iteration i so that late iterations keep
  making progress.

The replacement selectors share one loop, ``_select``, and differ only
in their gain rule.  All selectors return a :class:`SelectionState`
whose supports are feasible after every iteration (else
InfeasibleState).  The objective never decreases under exact gains, nor
under proxy gains while the smoothness parameter is at least the
restricted smoothness; a smaller one, as ``decay`` reaches, can lower
it (ROADMAP item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    AverageSparsity,
    ExchangeInstance,
    IndividualSparsity,
    PartitionMatroid,
    Replacement,
    average_exchange,
    cheapest_removal,
    point_options,
    require_feasible,
    search_replacement,
    solve_exchange,
)
from .data_io import data_matrix
from .errors import RankDeficient, UnsupportedConstraint
from .linalg import SupportFactorization, addition_gains, atom_matrix, empty_factorization, factor_insert
from .linalg import factor_remove, resolve_smoothness, swap_gains

_PER_POINT = (IndividualSparsity, PartitionMatroid)
_STACK = 64  # points per array operation in _refresh_costs; bounds its temporaries


@dataclass
class SelectorConfig:
    """Replacement-OMP options: dictionary size, smoothness, decay schedule.

    ``smoothness`` defaults to 1 + coherence, the exact largest squared
    singular value over atom pairs.  With ``decay`` the effective
    parameter at iteration i is ``smoothness / sqrt(i)``.
    """

    k: int
    smoothness: float | None = None
    decay: bool = False


@dataclass
class ReplacementRecord:
    """Per-point bookkeeping of one applied replacement (for diagnostics)."""

    iteration: int
    t: int
    f_before: float
    f_after: float
    grad_sq_added: float
    coeff_sq_removed: float


@dataclass
class SelectionState:
    """Selected atoms, per-point supports, and their factorization state."""

    atoms: list[int]
    supports: list[list[int]]
    factors: list[SupportFactorization]
    coeffs: list[np.ndarray]
    residuals: np.ndarray
    gradients: np.ndarray
    f_values: np.ndarray
    data_sq: np.ndarray  # ||y_t||^2 per point
    objective_history: list[float] = field(default_factory=list)
    trace: list[ReplacementRecord] | None = None

    @property
    def objective(self) -> float:
        return float(self.f_values.sum())


def _initial_state(a: np.ndarray, y: np.ndarray, trace: bool) -> SelectionState:
    t_count = y.shape[1]
    return SelectionState(
        atoms=[],
        supports=[[] for _ in range(t_count)],
        factors=[empty_factorization(a.shape[0]) for _ in range(t_count)],
        coeffs=[np.zeros(0) for _ in range(t_count)],
        residuals=y.copy(),
        gradients=a.T @ y,
        f_values=np.zeros(t_count),
        data_sq=np.array([float(y[:, t] @ y[:, t]) for t in range(t_count)]),
        trace=[] if trace else None,
    )


def _refresh_point(state: SelectionState, a: np.ndarray, y: np.ndarray, t: int) -> None:
    state.coeffs[t], resid = state.factors[t].fit(y[:, t])
    state.residuals[:, t] = resid
    state.gradients[:, t] = a.T @ resid
    rsq = float(state.residuals[:, t] @ state.residuals[:, t])
    state.f_values[t] = 0.5 * (state.data_sq[t] - rsq)


def _apply_replacement(state, rep, a, y, iteration) -> None:
    for t, removed, add in rep.per_t:
        fact = state.factors[t]
        support = list(state.supports[t])
        pos = None if removed is None else support.index(removed)
        record = None
        if state.trace is not None:
            grad_sq = float(state.gradients[rep.added_atom, t] ** 2) if add else 0.0
            coeff_sq = 0.0 if pos is None else float(state.coeffs[t][pos] ** 2)
            record = ReplacementRecord(iteration, t, state.f_values[t], 0.0, grad_sq, coeff_sq)
            state.trace.append(record)
        if pos is not None:
            fact = factor_remove(fact, pos)
            support.pop(pos)
        if add:
            try:
                fact = factor_insert(fact, a, rep.added_atom)
                support.append(rep.added_atom)
            except RankDeficient:
                # The candidate is dependent on the remaining support; the
                # removal alone is still feasible, so keep it and skip the add.
                if record is not None:
                    record.grad_sq_added = 0.0
        state.factors[t] = fact
        state.supports[t] = support
        _refresh_point(state, a, y, t)
        if record is not None:
            record.f_after = float(state.f_values[t])


def _zeroed_grad_sq(state: SelectionState) -> np.ndarray:
    """Squared gradient entries with the current supports zeroed exactly.

    Entries on a solved support vanish mathematically; zeroing removes the
    floating-point dust so no-op additions never carry positive gain.
    """
    g2 = state.gradients**2
    for t, support in enumerate(state.supports):
        if support:
            g2[support, t] = 0.0
    return g2


def _winner(table: np.ndarray, atoms: list[int]) -> int | None:
    """The unselected atom of largest gain, lowest index on ties; None if its gain is <= 0."""
    table[atoms] = 0.0
    winner = int(np.argmax(table))
    return winner if table[winner] > 0.0 else None


def _select(a, y, constraint, k: int, trace: bool, step) -> SelectionState:
    """The k iterations of ``step(state, masks, touched, i) -> Replacement | None``.

    ``masks[t]`` are point t's ``point_options`` (None for coupled
    families); ``touched`` are the points changed since the last step.
    A None step adds the unselected atom of largest squared gradient mass
    without touching any support, so the dictionary reaches k atoms.
    """
    n, t_count = a.shape[1], y.shape[1]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    state = _initial_state(a, y, trace)
    masks = None
    if isinstance(constraint, _PER_POINT):
        masks = [point_options(constraint, t, [], n) for t in range(t_count)]
    touched = range(t_count)
    for i in range(1, k + 1):
        rep = step(state, masks, touched, i)
        if rep is None:
            # Supports hold only dictionary atoms: no gradient dust in unselected rows.
            mass = (state.gradients**2).sum(axis=1)
            mass[state.atoms] = -math.inf
            state.atoms.append(int(np.argmax(mass)))
            touched = []
        else:
            _apply_replacement(state, rep, a, y, i)
            touched = [t for t, _, _ in rep.per_t]
            if masks is not None:
                for t in touched:
                    masks[t] = point_options(constraint, t, state.supports[t], n)
            state.atoms.append(rep.added_atom)
        state.objective_history.append(state.objective)
        require_feasible(constraint, state.supports)
    return state


def _refresh_costs(state: SelectionState, masks, cost: np.ndarray, points) -> None:
    """Recompute the (n, T) option costs of ``points`` from their masks.

    A cost is the unscaled w_j^2 of the cheapest position the atom may
    replace, 0 for an addition, inf for no option.
    """
    by_size: dict[int, list[int]] = {}
    for t in points:
        by_size.setdefault(len(state.supports[t]), []).append(t)
    for group in by_size.values():
        for start in range(0, len(group), _STACK):
            chunk = group[start : start + _STACK]
            addable = np.stack([masks[t][0] for t in chunk])
            swappable = np.stack([masks[t][1] for t in chunk])
            w2 = np.stack([state.coeffs[t] for t in chunk]) ** 2
            swap_cost = np.where(swappable, w2[:, :, None], math.inf).min(axis=1, initial=math.inf)
            cost[:, chunk] = np.where(addable, 0.0, swap_cost).T


def _romp_replacement(constraint, state, m_i, masks, cost) -> Replacement | None:
    """The replacement of largest proxy gain among unselected atoms.

    Per-point families clip each point's gain of the cheapest option in
    ``cost`` at zero; average sparsity solves one exchange problem per
    atom; block sparsity searches atom by atom.
    """
    # Under per-point families atoms of a support have no option there
    # (infinite cost), so their gradient dust needs no zeroing.
    scaled_g2 = (state.gradients**2 if masks is not None else _zeroed_grad_sq(state)) / m_i
    n = scaled_g2.shape[0]
    if masks is not None:
        point_gains = m_i * cost
        np.subtract(scaled_g2, point_gains, out=point_gains)
        np.maximum(point_gains, 0.0, out=point_gains)
        table = point_gains.sum(axis=1)
        winner = _winner(table, state.atoms)
        if winner is None:
            return None
        per_t = []
        for t in np.flatnonzero(point_gains[winner] > 0.0).tolist():
            addable, swappable = masks[t]
            removed = None
            if not addable[winner]:
                support = state.supports[t]
                w2 = state.coeffs[t] ** 2
                removed = support[cheapest_removal(w2, support, np.flatnonzero(swappable[:, winner]))]
            per_t.append((t, removed, True))
        return Replacement(winner, per_t, float(table[winner]))

    scaled_costs = [m_i * w**2 for w in state.coeffs]
    candidates = np.setdiff1d(np.arange(n), state.atoms).tolist()
    table = np.zeros(n)
    if isinstance(constraint, AverageSparsity):
        _, costs, tight, slack = average_exchange(constraint, state.supports, scaled_costs)
        for atom in candidates:
            table[atom] = solve_exchange(ExchangeInstance(scaled_g2[atom], costs, tight, slack))[2]
    else:
        for atom in candidates:
            rep = search_replacement(constraint, state.supports, atom, scaled_g2[atom], scaled_costs)
            table[atom] = rep.gain
    winner = _winner(table, state.atoms)
    if winner is None:
        return None
    return search_replacement(constraint, state.supports, winner, scaled_g2[winner], scaled_costs)


def replacement_omp(data, ground_set, constraint, config: SelectorConfig, *, trace=False) -> SelectionState:
    """Proxy-gain selector: k steps of the best feasible replacement.

    Per step every atom outside the dictionary gets a gain assembled from
    cached gradients and coefficients (additions weighted by 1/M, removals
    by M, per-point contributions clipped at zero) and the best
    replacement is applied.  Ties go to the lowest atom index.  When every
    gain is zero before the dictionary is full, the unselected atom with
    the largest squared gradient mass is added without touching any
    support, so the dictionary still reaches k atoms.
    """
    a = atom_matrix(ground_set)
    y = data_matrix(data)
    base_m = resolve_smoothness(ground_set, config.smoothness)
    cost = np.empty((a.shape[1], y.shape[1]))

    def step(state, masks, touched, i):
        if masks is not None:
            _refresh_costs(state, masks, cost, touched)
        m_i = base_m / math.sqrt(i) if config.decay else base_m
        return _romp_replacement(constraint, state, m_i, masks, cost)

    return _select(a, y, constraint, config.k, trace, step)


def _rg_option_tables(state, a, y, masks):
    """Exact per-(atom, point) best gains and option codes for per-point families.

    Option code 0 means leave the support alone, 1 means plain addition,
    2 + j means swap against position j.  ``masks[t]`` are point t's
    ``point_options``; gains come from ``addition_gains`` and
    ``swap_gains``, computed only for rows some atom may use.
    """
    n, t_count = a.shape[1], y.shape[1]
    best = np.zeros((n, t_count))
    code = np.zeros((n, t_count), dtype=np.int32)
    for t, (addable, swappable) in enumerate(masks):
        fact = state.factors[t]
        r = state.residuals[:, t]
        if addable.any():
            gain = addition_gains(a, fact, r)
            sel = addable & (gain > 0.0)
            best[sel, t] = gain[sel]
            code[sel, t] = 1
        positions = np.flatnonzero(swappable.any(axis=1)).tolist()
        if positions:
            # Gains of disallowed swaps become 0, which never beats best >= 0.
            rows = swap_gains(a, fact, y[:, t], r, positions) * swappable[positions]
            for pos, gain in zip(positions, rows):
                sel = gain > best[:, t]
                best[sel, t] = gain[sel]
                code[sel, t] = 2 + pos
    return best, code


def replacement_greedy(data, ground_set, constraint, k: int, *, trace=False) -> SelectionState:
    """Exact-gain selector: k steps of the best feasible replacement.

    Each step adds an atom outside the dictionary; when no replacement
    gains, it adds the atom of largest squared gradient mass, as
    :func:`replacement_omp` does, so the dictionary reaches k atoms.
    Gains are true objective differences, so every candidate replacement
    costs a least-squares update; use :func:`replacement_omp` when that
    is too slow.  Only per-point families are supported: block and
    average sparsity couple the points, and exact gains would force an
    exponential search over joint replacements.
    """
    if not isinstance(constraint, _PER_POINT):
        raise UnsupportedConstraint(
            "exact replacement search supports per-point families only"
        )
    a = atom_matrix(ground_set)
    y = data_matrix(data)

    def step(state, masks, touched, i):
        best, code = _rg_option_tables(state, a, y, masks)
        table = best.sum(axis=1)
        winner = _winner(table, state.atoms)
        if winner is None:
            return None
        per_t = []
        for t, c in enumerate(code[winner].tolist()):
            if c == 1:
                per_t.append((t, None, True))
            elif c >= 2:
                per_t.append((t, state.supports[t][c - 2], True))
        return Replacement(winner, per_t, float(table[winner]))

    return _select(a, y, constraint, k, trace, step)


def modular_greedy(data, ground_set, k: int, s: int) -> SelectionState:
    """Greedy selection on the modular surrogate (atom interactions ignored).

    Each atom's singleton utility for point t is 0.5 * <a, y_t>^2; the
    surrogate value of a dictionary is, per point, the sum of its top-s
    singleton utilities.  Greedy maximization over that surrogate, with
    final supports equal to each point's top-s selected atoms.
    """
    a = atom_matrix(ground_set)
    y = data_matrix(data)
    n, t_count = a.shape[1], y.shape[1]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if s < 0:
        raise ValueError("s must be nonnegative")
    singles = 0.5 * (a.T @ y) ** 2
    selected: list[int] = []
    for _ in range(k):
        if s == 0:
            marginal = np.zeros(n)
        elif len(selected) < s:
            marginal = singles.sum(axis=1).copy()
        else:
            chosen = singles[selected, :]
            threshold = np.partition(chosen, -s, axis=0)[-s]
            marginal = np.maximum(singles - threshold[None, :], 0.0).sum(axis=1)
        if selected:
            marginal[selected] = -np.inf
        selected.append(int(np.argmax(marginal)))
    state = _initial_state(a, y, trace=False)
    state.atoms = selected
    take = min(s, len(selected))
    for t in range(t_count):
        ranked = sorted(selected, key=lambda j: (-singles[j, t], j))
        for atom in ranked[:take]:
            try:
                state.factors[t] = factor_insert(state.factors[t], a, atom)
                state.supports[t].append(atom)
            except RankDeficient:
                continue
        _refresh_point(state, a, y, t)
    state.objective_history.append(state.objective)
    return state
