"""Offline dictionary selectors.

Three selectors over a common selection state:

* ``modular_greedy`` ranks atoms by a per-atom surrogate that ignores
  atom interactions (sum of the top-s singleton utilities per point).
* ``replacement_greedy`` adds one atom per step via the best feasible
  replacement measured by exact objective differences; per-point
  families only, whose options come from their category tables
  (``constraints.PointFamily``).
* ``replacement_omp`` replaces the exact differences with gradient-based
  proxy gains weighted by a smoothness parameter, which makes the
  per-step search a linear-objective problem and extends to block and
  average sparsity.  Every family prices a step itself: ``step`` stores
  the step's tables on it, then all atoms' gains follow at once and the
  winner's replacement.  The ``decay`` variant divides the smoothness
  parameter by sqrt(i) at iteration i so late iterations keep progressing.

Every selector keeps all supports in one batched Gram state
(:class:`~dictsel.linalg.GramFit`) and edits it through the kernels of
``linalg``.  The replacement selectors share one loop, ``_select``, and
differ only in their gain rule.  The loop keeps the constraint's one
family object (``constraints.family_state``), which checks the supports
after every step and prices them; the greedy gain tables and the
per-point category tallies are refreshed only at the points the last
replacement touched.  All selectors return a :class:`SelectionState`
whose supports are feasible after every iteration (else
InfeasibleState).  The objective never decreases: a replacement that
would lower it by more than rounding, as proxy gains with a smoothness
parameter below the restricted smoothness can (``decay`` reaches such
values), is undone and counted in ``rollbacks``, and the step takes the
fallback add instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import IndividualSparsity, PartitionMatroid, PointFamily, family_state, num_points
from .data_io import data_matrix
from .errors import UnsupportedConstraint
from .linalg import GramFit, atom_matrix, gram_fit, gram_gains, gram_update
from .linalg import require_finite_atoms, resolve_smoothness, size_chunks

_PER_POINT = (IndividualSparsity, PartitionMatroid)

# A replacement is undone when it lowers the touched points' objective by
# more than this share of their energy sum(||y_t||^2) / 2: rounding moves
# the objective by about 1e-16 of it.
_ROLLBACK_RTOL = 1e-12


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
    """Selected atoms and the batched Gram state of every point's support.

    ``fit`` holds G = A^T A, C = A^T Y, the padded (T, width) supports and
    coefficients, the (n, T) gradients and the f values; ``supports``,
    ``coeffs``, ``gradients`` and ``f_values`` read it.  ``data_sq`` is
    ||y_t||^2 per point and ``rollbacks`` counts the replacements undone
    because they lowered the objective.
    """

    atoms: list[int]
    fit: GramFit
    data_sq: np.ndarray
    objective_history: list[float] = field(default_factory=list)
    trace: list[ReplacementRecord] | None = None
    rollbacks: int = 0

    @property
    def supports(self) -> list[list[int]]:
        """Each point's support as a list of atoms, in insertion order."""
        width = int(self.fit.size.max(initial=0))
        return [row[:m] for row, m in zip(self.fit.index[:, :width].tolist(), self.fit.size.tolist())]

    @property
    def coeffs(self) -> np.ndarray:
        """(T, width) coefficients; row t holds point t's in its first len(supports[t]) entries."""
        return self.fit.coeffs

    @property
    def gradients(self) -> np.ndarray:
        return self.fit.gradients

    @property
    def f_values(self) -> np.ndarray:
        return self.fit.f_values

    @property
    def objective(self) -> float:
        return float(self.fit.f_values.sum())

    def removal_costs(self, rows, m: int) -> np.ndarray:
        """The unscaled cost w_j^2 of dropping each of the first m atoms of the supports ``rows``."""
        return self.fit.coeffs[rows, :m] ** 2


def _new_state(ground_set, y: np.ndarray, width: int, trace: bool) -> SelectionState:
    require_finite_atoms(atom_matrix(ground_set))
    fit = gram_fit(ground_set, y, width)
    return SelectionState([], fit, np.sum(y * y, axis=0), trace=[] if trace else None)


@dataclass
class _Move:
    """A replacement as arrays over the points it touches.

    Point ``points[i]`` first drops support position ``removed[i]`` (none
    if negative), then takes ``added_atom`` if ``add[i]``.
    """

    added_atom: int
    points: np.ndarray
    removed: np.ndarray
    add: np.ndarray


def _apply(state: SelectionState, move: _Move, iteration: int, scratch: np.ndarray) -> bool:
    """Apply ``move`` unless it lowers the objective; returns whether it was kept.

    An add refused because the candidate depends on the remaining support
    is skipped; the removal alone still stands, as it is feasible.  The
    rollback snapshot of the touched gradients is taken into ``scratch``.
    """
    fit, p = state.fit, move.points
    before = fit.snapshot(p, scratch)
    added = gram_update(fit, p, move.removed, np.where(move.add, move.added_atom, -1))
    f_before, f_after = before[-1], fit.f_values[p]
    if (f_after - f_before).sum() < -_ROLLBACK_RTOL * 0.5 * state.data_sq[p].sum():
        fit.restore(p, before)
        state.rollbacks += 1
        return False
    if state.trace is not None:
        _, _, coeffs, gradients, _ = before
        grad_sq = np.where(added, gradients[move.added_atom] ** 2, 0.0)
        coeff_sq = np.where(move.removed >= 0, coeffs[np.arange(len(p)), move.removed] ** 2, 0.0)
        state.trace.extend(
            ReplacementRecord(iteration, *row)
            for row in zip(p.tolist(), f_before.tolist(), f_after.tolist(), grad_sq.tolist(), coeff_sq.tolist())
        )
    return True


def _zeroed_grad_sq(state: SelectionState, out: np.ndarray) -> np.ndarray:
    """Squared gradient entries, written into the (n, T) ``out``, with the current supports zeroed exactly.

    Entries on a solved support vanish mathematically; zeroing removes the
    floating-point dust so no-op additions never carry positive gain.
    """
    g2 = np.square(state.gradients, out=out)
    index = state.fit.index
    held = index >= 0
    g2[index[held], np.nonzero(held)[0]] = 0.0
    return g2


def _winner(table: np.ndarray, atoms: list[int]) -> int | None:
    """The unselected atom of largest gain, lowest index on ties; None if its gain is <= 0."""
    table[atoms] = 0.0
    winner = int(np.argmax(table))
    return winner if table[winner] > 0.0 else None


def _select(ground_set, y, constraint, k: int, trace: bool, step) -> SelectionState:
    """The k iterations of ``step(state, family, touched, i, scratch) -> _Move | None``.

    ``family`` is the constraint's :func:`~dictsel.constraints.family_state`;
    ``touched`` are the points changed since the last step.
    ``scratch`` is one (n, T) float array that every iteration reuses, so
    that the squared gradients, the rollback snapshot and the fallback's
    gradient mass allocate no (n, T) array each step: the step may write
    it, and once the step has returned its move :func:`_apply` takes the
    rollback snapshot into it.  It is dropped when the selection returns.
    A None step, or a replacement undone by :func:`_apply`, adds the
    unselected atom of largest squared gradient mass without touching
    any support, so the dictionary reaches k atoms.  Raises ValueError
    unless 1 <= k <= n and the family is defined on the data's T points.
    """
    n, t_count = atom_matrix(ground_set).shape[1], y.shape[1]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    points = num_points(constraint)
    if points is not None and points != t_count:
        raise ValueError(f"the constraint is defined on {points} points, the data has {t_count}")
    state = _new_state(ground_set, y, k, trace)
    family = family_state(constraint, t_count, n)
    touched = np.arange(t_count)
    scratch = np.empty((n, t_count))
    for i in range(1, k + 1):
        move = step(state, family, touched, i, scratch)
        if move is not None and _apply(state, move, i, scratch):
            state.atoms.append(move.added_atom)
            touched = move.points
        else:
            # Supports hold only dictionary atoms: no gradient dust in unselected rows.
            mass = np.square(state.gradients, out=scratch).sum(axis=1)
            mass[state.atoms] = -math.inf
            state.atoms.append(int(np.argmax(mass)))
            touched = touched[:0]
        state.objective_history.append(state.objective)
        family.refresh(state.fit.index, state.fit.size, state.removal_costs, touched)  # only these changed
    return state


def _romp_replacement(state: SelectionState, m_i: float, family, scratch: np.ndarray) -> _Move | None:
    """The replacement of largest proxy gain among unselected atoms.

    The family's step tables, built once per step, give every atom's gain
    in closed form and then the winner's replacement.  The scaled
    squared gradients are built in the (n, T) ``scratch``.
    """
    scaled_g2 = _zeroed_grad_sq(state, scratch)
    scaled_g2 /= m_i
    step = family.step(state.fit.index, state.removal_costs, m_i)
    winner = _winner(step.values(scaled_g2), state.atoms)
    if winner is None:
        return None
    return _Move(winner, *step.replacement(winner, scaled_g2[winner])[:3])


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
    y = data_matrix(data)
    base_m = resolve_smoothness(ground_set, config.smoothness)

    def step(state, family, touched, i, scratch):
        return _romp_replacement(state, base_m / math.sqrt(i) if config.decay else base_m, family, scratch)

    return _select(ground_set, y, constraint, config.k, trace, step)


def _greedy_tables(state: SelectionState, family: PointFamily, best: np.ndarray, code: np.ndarray, points) -> None:
    """Recompute the exact best gains and option codes of ``points`` in place.

    ``best`` and ``code`` are (n, T).  Option code 0 means leave the
    support alone, 1 means plain addition, 2 + j means swap against
    position j (the lowest j among equal gains).  Gains come from
    ``gram_gains``.
    """
    fit = state.fit
    for m, idx in size_chunks(fit.size[points], lambda m: len(fit.gram)):
        chunk = points[idx]
        addable, swappable = family.options(chunk, fit.index[chunk, :m])
        add, swap = gram_gains(fit, chunk)
        sel = addable & (add > 0.0)
        gain = np.where(sel, add, 0.0)
        option = sel.astype(np.int32)
        if m:
            # Disallowed swaps gain 0, which never beats gain >= 0.
            rows = np.where(swappable, swap, 0.0)
            pos = np.argmax(rows, axis=1)
            top = np.take_along_axis(rows, pos[:, None, :], axis=1)[:, 0]
            better = top > gain
            gain = np.where(better, top, gain)
            option = np.where(better, 2 + pos, option)
        best[:, chunk] = gain.T
        code[:, chunk] = option.T


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
    y = data_matrix(data)
    # A point's gains change only when a replacement touches it.
    best = np.zeros((atom_matrix(ground_set).shape[1], y.shape[1]))
    code = np.zeros(best.shape, dtype=np.int32)

    def step(state, family, touched, i, scratch):
        _greedy_tables(state, family, best, code, touched)
        table = best.sum(axis=1)
        winner = _winner(table, state.atoms)
        if winner is None:
            return None
        points = np.flatnonzero(code[winner])
        return _Move(winner, points, code[winner, points] - 2, np.ones(len(points), dtype=bool))

    return _select(ground_set, y, constraint, k, trace, step)


def modular_greedy(data, ground_set, k: int, s: int) -> SelectionState:
    """Greedy selection on the modular surrogate (atom interactions ignored).

    Each atom's singleton utility for point t is 0.5 * <a, y_t>^2; the
    surrogate value of a dictionary is, per point, the sum of its top-s
    singleton utilities.  Greedy maximization over that surrogate, with
    final supports equal to each point's top-s selected atoms (an atom
    dependent on the ones before it is skipped).
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
    take = min(s, len(selected))
    state = _new_state(ground_set, y, take, trace=False)
    state.atoms = selected
    # Each point's selected atoms by singleton utility, then by index.
    atoms = np.array(selected)
    ranked = atoms[np.lexsort((np.broadcast_to(atoms[:, None], (k, t_count)), -singles[atoms]), axis=0)]
    everyone = np.arange(t_count)
    for rank in range(take):
        gram_update(state.fit, everyone, np.full(t_count, -1), ranked[rank])
    state.objective_history.append(state.objective)
    return state
