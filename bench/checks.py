"""Checks of dictsel's outputs, computed apart from the program.

Nothing here calls dictsel: feasibility, objectives and residuals are
recomputed with the benchmark's own code and dense ``numpy.linalg.lstsq``.
Each check returns a list of problems; an empty list means it holds.
"""

from __future__ import annotations

import math

import numpy as np

OBJECTIVE_RTOL = 1e-9
# Float noise allowed on the bounds of a residual variance.
BOUND_RTOL = 1e-12


def lstsq_fit(a: np.ndarray, support, y: np.ndarray) -> float:
    """0.5*||y||^2 - 0.5*||y - A_Z w||^2 with w the dense least-squares fit."""
    support = list(support)
    if not support:
        return 0.0
    w, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
    r = y - a[:, support] @ w
    return 0.5 * float(y @ y) - 0.5 * float(r @ r)


# -- feasibility, one rule per family ---------------------------------------


def individual(s):
    def check(supports):
        return [f"point {t}: {len(z)} atoms > {s}" for t, z in enumerate(supports) if len(z) > s]

    return check


def average(s_t, s_prime):
    def check(supports):
        out = [f"point {t}: {len(z)} atoms > {s_t}" for t, z in enumerate(supports) if len(z) > s_t]
        total = sum(len(z) for z in supports)
        if total > s_prime:
            out.append(f"total support size {total} > {s_prime}")
        return out

    return check


def block(block_len, cap):
    def check(supports):
        out = []
        for start in range(0, len(supports), block_len):
            union = set().union(*(set(z) for z in supports[start : start + block_len]))
            if len(union) > cap:
                out.append(f"block at {start}: {len(union)} distinct atoms > {cap}")
        return out

    return check


def two_category(split, cap_low, cap_high):
    """At most ``cap_low`` atoms below index ``split`` and ``cap_high`` at or above it."""

    def check(supports):
        out = []
        for t, z in enumerate(supports):
            low = sum(1 for j in z if j < split)
            if low > cap_low or len(z) - low > cap_high:
                out.append(f"point {t}: {low} + {len(z) - low} atoms over caps")
        return out

    return check


# -- offline selections ------------------------------------------------------


def selection(state, a: np.ndarray, y: np.ndarray, k: int, feasible) -> list[str]:
    """Feasibility, atoms, lstsq objective and monotone history of one selection."""
    out = list(feasible(state.supports))
    atoms = list(state.atoms)
    if len(set(atoms)) != len(atoms):
        out.append(f"repeated atoms in {atoms}")
    if len(set(atoms)) > k:
        out.append(f"{len(set(atoms))} distinct atoms > k={k}")
    chosen = set(atoms)
    for t, z in enumerate(state.supports):
        if len(set(z)) != len(z):
            out.append(f"point {t}: repeated atoms in support {list(z)}")
        if not set(z) <= chosen:
            out.append(f"point {t}: support {sorted(set(z) - chosen)} outside the atoms")
    reference = sum(lstsq_fit(a, z, y[:, t]) for t, z in enumerate(state.supports))
    if abs(state.objective - reference) > OBJECTIVE_RTOL * max(abs(reference), 1e-300):
        out.append(f"objective {state.objective!r} != lstsq {reference!r}")
    history = list(state.objective_history)
    for i in range(1, len(history)):
        if history[i] < history[i - 1] - OBJECTIVE_RTOL * abs(history[i - 1]):
            out.append(f"objective fell at iteration {i + 1}: {history[i - 1]!r} -> {history[i]!r}")
    return out


def test_residual(rv: float, a: np.ndarray, atoms, y_test: np.ndarray) -> list[str]:
    """The OMP residual variance lies between the whole-dictionary lstsq residual and the mean square."""
    cells = y_test.size
    upper = float((y_test * y_test).sum()) / cells
    if atoms:
        w, *_ = np.linalg.lstsq(a[:, list(atoms)], y_test, rcond=None)
        r = y_test - a[:, list(atoms)] @ w
        lower = float((r * r).sum()) / cells
    else:
        lower = upper
    if not lower * (1 - BOUND_RTOL) <= rv <= upper * (1 + BOUND_RTOL):
        return [f"test residual variance {rv!r} outside [{lower!r}, {upper!r}]"]
    return []


# -- online streams ------------------------------------------------------------


def stream(state, a: np.ndarray, y: np.ndarray) -> list[str]:
    """Each round's realized gain is the lstsq fit on its logged support, within [0, 0.5||y_t||^2]."""
    out = []
    ledger = state.ledger
    if len(ledger.player_gains) != y.shape[1]:
        return [f"{len(ledger.player_gains)} rounds logged, {y.shape[1]} played"]
    for t, (gain, support) in enumerate(zip(ledger.player_gains, ledger.supports)):
        half = 0.5 * float(y[:, t] @ y[:, t])
        reference = lstsq_fit(a, support, y[:, t])
        if abs(gain - reference) > OBJECTIVE_RTOL * max(half, 1e-300):
            out.append(f"round {t}: gain {gain!r} != lstsq {reference!r}")
        if not -OBJECTIVE_RTOL * half <= gain <= half * (1 + OBJECTIVE_RTOL):
            out.append(f"round {t}: gain {gain!r} outside [0, {half!r}]")
    return out


def regret_within_bound(states, n: int, horizon: int) -> tuple[int, int]:
    """(experts within gain_bound*sqrt(2*T*ln n), experts) over all streams.

    An expert's regret is the best fixed atom's cumulative fed gain minus the
    fed gains of the atoms it played, both read from the ledger.
    """
    within = total = 0
    for state in states:
        played = np.array(state.ledger.expert_choice_gains)
        bound = state.gain_bound * math.sqrt(2 * horizon * math.log(n))
        for i, expert in enumerate(state.experts):
            regret = float(expert.cumulative_gains.max()) - float(played[:, i].sum())
            within += regret <= bound
            total += 1
    return within, total
