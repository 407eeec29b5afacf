"""Online dictionary selection with exponential-weights subroutines.

Each of the k dictionary slots is managed by one expert over the atom
set.  Per round the sampled atoms are played as the dictionary, the data
point is revealed, and every expert receives full-information feedback:
the gain each atom would have contributed at its slot.  Three feedback
rules mirror the offline selectors (modular surrogate, exact
differences, gradient proxy).  The player's realized utility and the fed
gains are kept in a ledger so hindsight regret can be audited.

A round works in Gram form: the state keeps G = A^T A, the round computes
A^T y once, and each slot edits a support of at most s atoms by bordering
the inverse of G_ZZ (see :class:`_RoundFit`); the gains come from the
kernels ``linalg.gram_gains`` runs on many points.  The k experts are
the rows of one :class:`HedgeBank`, the run's only hedge state: it holds
their weights, generators, uniforms and next atoms and their shared
learning-rate schedule, and a round feeds them all with one update
(:func:`hedge_update`).  The bank draws each expert's uniforms
``UNIFORM_ROWS`` rounds at a time, the same doubles as one draw per round.
:class:`HedgeExpert` is a frozen view of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import cheapest_removal
from .data_io import data_matrix
from .errors import DimensionMismatch
from .linalg import SPAN_RTOL, _regain, _swap_rows, atom_matrix, gram_matrix, gram_terms, require_finite_atoms
from .linalg import resolve_smoothness

METHODS = ("online_modular", "online_replacement_greedy", "online_replacement_omp")

# Rounds of uniforms a hedge bank draws from each expert's generator at once.
UNIFORM_ROWS = 64


def _eta(num_atoms: int, horizon: int) -> float:
    return math.sqrt(8.0 * math.log(num_atoms) / max(horizon, 1))


@dataclass
class HedgeBank:
    """Weights, fed gains, generators and next atoms of one run's experts, one (num_experts, n) row each.

    All experts are fed every round, so they share one round count and one
    eta = sqrt(8 ln n / horizon); without a horizon the bank restarts with a
    doubled guess 2**epoch whenever the guess is exhausted.

    Column i of ``uniforms`` (UNIFORM_ROWS, num_experts) holds expert i's
    next uniforms, ``next_row`` the row the next update reads.  An update
    that finds the table used up refills it with ``rng.random(UNIFORM_ROWS)``
    per expert, the same doubles as UNIFORM_ROWS calls of ``rng.random()``,
    so the draws are those of one uniform per round; each generator's
    state, though, runs up to UNIFORM_ROWS - 1 draws ahead of the rounds
    played.
    """

    log_weights: np.ndarray
    cumulative_gains: np.ndarray
    rngs: list[np.random.Generator]
    choices: list[int]
    horizon: int | None
    eta: float
    uniforms: np.ndarray
    rounds: int = 0
    epoch: int = 0
    next_row: int = UNIFORM_ROWS

    @classmethod
    def start(cls, num_atoms: int, rngs: list, horizon: int | None = None) -> "HedgeBank":
        """One expert per generator, each with uniform weights and a first atom drawn from it.

        The uniform table starts used up: the first update fills it.
        """
        shape = (len(rngs), num_atoms)
        choices = [int(rng.integers(num_atoms)) for rng in rngs]
        uniforms = np.zeros((UNIFORM_ROWS, len(rngs)))
        return cls(np.zeros(shape), np.zeros(shape), rngs, choices, horizon, _eta(num_atoms, horizon or 1), uniforms)


@dataclass(frozen=True)
class HedgeExpert:
    """Frozen view of expert ``row`` of ``bank``.  It reads the bank at each
    access, because a deep copy would turn held row views into separate arrays."""

    bank: HedgeBank
    row: int

    @property
    def num_atoms(self) -> int:
        return self.bank.log_weights.shape[1]

    @property
    def log_weights(self) -> np.ndarray:
        return self.bank.log_weights[self.row]

    @property
    def cumulative_gains(self) -> np.ndarray:
        return self.bank.cumulative_gains[self.row]

    @property
    def probabilities(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()


def hedge_update(bank: HedgeBank, gains, bound: float) -> list[int]:
    """Feed row i of ``gains`` to expert i of ``bank`` and draw every expert's next atom.

    ``gains`` must have the bank's shape and be finite and nonnegative
    (ValueError otherwise, before any write).  Dividing them by ``bound``,
    the largest gain fed so far (1 while it is 0), keeps the exponent in
    [0, eta].  Expert i's next atom is the count of its cdf entries <= u, u
    its next uniform in the bank's table (refilled from its own generator
    once used up): on a non-decreasing cdf, the
    ``searchsorted(u, side="right")`` that ``Generator.choice(n, p=p)``
    returns, without its validation of p.  The cdf is built in one (k, n)
    buffer, and the count is taken as the first entry > u: the cdf ends in
    exactly 1 > u.
    """
    g = np.asarray(gains, dtype=float)
    if g.shape != bank.log_weights.shape:
        raise ValueError(f"gains have shape {g.shape}, the bank {bank.log_weights.shape}")
    if not (g.min() >= 0.0 and g.max() < math.inf):  # a NaN fails both
        raise ValueError("gains must be finite and nonnegative")
    if bank.horizon is None and bank.rounds == 2**bank.epoch:
        # Doubling trick: restart with a doubled horizon guess.
        bank.epoch += 1
        bank.eta = _eta(g.shape[1], 2**bank.epoch)
        bank.log_weights[:] = 0.0
    bank.rounds += 1
    bank.cumulative_gains += g
    bank.log_weights += bank.eta * g / (bound if bound > 0.0 else 1.0)
    cdf = np.subtract(bank.log_weights, bank.log_weights.max(axis=1, keepdims=True))
    np.exp(cdf, out=cdf)
    np.divide(cdf, cdf.sum(axis=1, keepdims=True), out=cdf)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    if bank.next_row == UNIFORM_ROWS:
        for i, rng in enumerate(bank.rngs):
            bank.uniforms[:, i] = rng.random(UNIFORM_ROWS)
        bank.next_row = 0
    u = bank.uniforms[bank.next_row]
    bank.next_row += 1
    bank.choices = np.argmax(cdf > u[:, None], axis=1).tolist()
    return list(bank.choices)


@dataclass
class OnlineLedger:
    """Per-round record of play: realized utilities and fed expert gains."""

    player_gains: list[float] = field(default_factory=list)
    expert_choice_gains: list[np.ndarray] = field(default_factory=list)
    dictionaries: list[list[int]] = field(default_factory=list)
    supports: list[list[int]] = field(default_factory=list)

    @property
    def cumulative_player_gain(self) -> float:
        return float(sum(self.player_gains))


@dataclass
class OnlineState:
    """The hedge bank of the k experts, the atoms A and G = A^T A, the gain bound and ledger."""

    method: str
    k: int
    s: int
    smoothness: float
    atoms: np.ndarray
    gram: np.ndarray
    bank: HedgeBank
    gain_bound: float = 0.0
    ledger: OnlineLedger = field(default_factory=OnlineLedger)

    @property
    def rounds(self) -> int:
        return self.bank.rounds

    @property
    def experts(self) -> list[HedgeExpert]:
        """Frozen views of the bank's rows, one per expert."""
        return [HedgeExpert(self.bank, i) for i in range(self.k)]


def online_state(method, ground_set, k, s, horizon=None, seed=0, smoothness=None) -> OnlineState:
    """Initialize an online run for a fixed ground set."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 1 <= s <= k:
        raise ValueError("need 1 <= s <= k")
    a = require_finite_atoms(atom_matrix(ground_set))
    m_val = resolve_smoothness(ground_set, smoothness)
    seeds = np.random.SeedSequence(seed).spawn(k)
    bank = HedgeBank.start(a.shape[1], [np.random.default_rng(child) for child in seeds], horizon)
    return OnlineState(method, k, s, m_val, a, gram_matrix(ground_set), bank)


class _RoundFit:
    """Least-squares fit of one point on a support of at most s atoms, in Gram form.

    Keeps the support ``z``, ``inv`` = G_ZZ^-1, the rows ``gz`` = G[Z, :],
    the coefficients ``w`` and the gradient ``grad`` = A^T y - G[:, Z] w.
    """

    def __init__(self, gram: np.ndarray, aty: np.ndarray):
        self.gram, self.aty = gram, aty
        self.z: list[int] = []
        self.inv = np.zeros((0, 0))
        self.gz = gram[:0]
        self.w = np.zeros(0)
        self.grad = aty

    def replace(self, pos: int | None, b: int) -> bool:
        """Drop support position ``pos`` (none if None), then append atom ``b``.

        Refuses, changing nothing, when b depends on the remaining support
        Z: when d = G[b, b] - G[b, Z] u, u = G_ZZ^-1 G[Z, b], is at most
        SPAN_RTOL * G[b, b], the test ``linalg.gram_update`` makes.  Both
        edits border the inverse; on the empty support d = G[b, b] and
        the inverse is 1 / d.
        """
        z, inv, g = self.z, self.inv, self.gram
        if pos is not None:
            keep = [j for j in range(len(z)) if j != pos]
            rows = inv.take(keep, 0)
            col = rows[:, pos]
            inv = rows.take(keep, 1) - col[:, None] * col / inv[pos, pos]
            z = z[:pos] + z[pos + 1 :]
        m = len(z)
        grown_z = z + [b]
        gz = g.take(grown_z, 0)  # G[Z + b, :]; its first m rows give G[Z, b]
        if z:
            gzb = gz[:m, b]
            u = inv @ gzb
        d = g[b, b] - gzb @ u if z else g[b, b]
        if d <= SPAN_RTOL * g[b, b]:
            return False
        grown = np.empty((m + 1, m + 1))
        if z:
            grown[:m, :m] = inv + u[:, None] * u / d
            grown[:m, m] = grown[m, :m] = -u / d
        grown[m, m] = 1.0 / d
        self.z = grown_z
        self.inv = grown
        self.gz = gz
        self.w = grown @ self.aty.take(grown_z)
        self.grad = self.aty - self.w @ self.gz
        return True

    def value(self) -> float:
        """f(Z) = C[Z] . w - w^T G_ZZ w / 2, as w . (C[Z] + grad[Z]) / 2: stationary in w."""
        return 0.5 * float(self.w @ (self.aty.take(self.z) + self.grad.take(self.z)))


def _romp_gains(fit: _RoundFit, squares: list[float] | None, m_val: float, out: np.ndarray) -> np.ndarray:
    """Gradient-proxy gains g_b^2 / M, written into ``out``.

    Once the support is full (``squares``, its squared coefficients, given)
    they are less M times the cheapest square, floored at 0.
    """
    gains = np.square(fit.grad, out=out)
    gains[fit.z] = 0.0
    gains /= m_val
    if squares is None:
        return gains
    gains -= m_val * min(squares)
    return np.maximum(gains, 0.0, out=gains)


def _greedy_gains(fit: _RoundFit, room: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact addition gains, or the best swap gain per atom with the (m, n) swap rows once full."""
    if not fit.z:  # every atom is at distance 1 from the empty span: _regain gives g_b^2 / 2
        return np.square(fit.grad) / 2.0, None
    c, dist = gram_terms(fit.inv, fit.gz)
    if room:
        gains = _regain(np.square(fit.grad), dist)
        gains[fit.z] = 0.0
        return gains, None
    swaps = _swap_rows(c, fit.grad, fit.w[:, None], fit.inv.diagonal()[:, None], dist)
    swaps[:, fit.z] = 0.0
    return np.maximum(swaps.max(axis=0), 0.0), swaps


def _state_atoms(state: OnlineState, ground_set) -> np.ndarray:
    """The atom matrix of ``ground_set``, or ValueError if it is not the one ``state`` was made for."""
    a = atom_matrix(ground_set)
    if a is not state.atoms:
        if not np.array_equal(a, state.atoms):
            raise ValueError("the ground set differs from the one the online state was made for")
        # A deep-copied state holds a copy of the atoms: keep the caller's
        # equal matrix, so later rounds pass the identity test.
        state.atoms = a
    return a


def online_round(state: OnlineState, y_t: np.ndarray, ground_set):
    """Play one round: sample atoms, observe ``y_t``, feed all experts.

    ``ground_set`` must hold the atoms the state was made for (ValueError
    otherwise) and ``y_t`` one finite entry per atom row (ValueError on
    NaN or inf, DimensionMismatch on another length); a rejected round
    changes nothing.  Returns (played dictionary, list of per-expert feedback
    vectors).  The support starts empty and each slot either adds its
    sampled atom (while the support holds fewer than s atoms) or swaps it
    in (once it is full), in both cases only on strictly positive fed gain.
    Replacement greedy feeds max_j f(Z - z_j + b) - f(Z) and swaps at the
    first j attaining it, so the realized change is the fed gain;
    replacement OMP drops the atom with the smallest squared coefficient
    (ties to the lowest atom).  A slot whose support is unchanged is fed
    the previous slot's gains.  The realized utility of the final support
    is appended to the ledger.
    """
    y = data_matrix(y_t)
    a = _state_atoms(state, ground_set)
    if y.shape != a.shape[:1]:
        raise DimensionMismatch(f"y_t has shape {y.shape} but the atoms have {a.shape[0]} rows")
    aty = a.T @ y
    with np.errstate(over="ignore"):  # an overflow is reported below, naming y_t
        energy = aty @ aty
    if not math.isfinite(energy):
        raise ValueError("y_t is too large: ||A^T y_t||^2 is not finite")
    played = list(state.bank.choices)
    fit = _RoundFit(state.gram, aty)
    feedback = np.empty((state.k, aty.size))

    if state.method == "online_modular":
        feedback[:] = 0.5 * aty**2
        ranked = sorted(set(played), key=lambda j: (-feedback[0, j], j))
        for atom in ranked[: state.s]:
            fit.replace(None, atom)
    else:
        romp = state.method == "online_replacement_omp"
        gains = None  # the current support's gains, once computed
        for i, choice in enumerate(played):
            room = len(fit.z) < state.s
            if gains is None:
                if romp:
                    # Python x * x is numpy's w**2, bit for bit.
                    squares = None if room else [x * x for x in fit.w.tolist()]
                    gains = _romp_gains(fit, squares, state.smoothness, feedback[i])
                else:
                    gains, swaps = _greedy_gains(fit, room)
                    feedback[i] = gains
            else:
                feedback[i] = gains
            if gains[choice] > 0.0:  # atoms of Z are fed 0
                if room:
                    pos = None
                elif romp:
                    pos = cheapest_removal(squares, fit.z)
                else:
                    pos = int(swaps[:, choice].argmax())
                if fit.replace(pos, choice):
                    gains = None

    bound = max(state.gain_bound, float(feedback.max()))
    hedge_update(state.bank, feedback, bound)  # refuses bad gains before any write
    state.gain_bound = bound
    state.ledger.player_gains.append(fit.value())
    state.ledger.expert_choice_gains.append(feedback[np.arange(state.k), played])
    state.ledger.dictionaries.append(played)
    state.ledger.supports.append(list(fit.z))
    return played, list(feedback)


def expert_hindsight_regrets(state: OnlineState) -> np.ndarray:
    """Best-fixed-atom regret of each expert against its own fed gains."""
    if not state.ledger.expert_choice_gains:
        return np.zeros(state.k)
    return state.bank.cumulative_gains.max(axis=1) - np.sum(state.ledger.expert_choice_gains, axis=0)


def alpha_regret(ledger: OnlineLedger, offline_opt: float, alpha: float) -> float:
    """alpha * (offline optimum) minus the cumulative realized utility."""
    return alpha * offline_opt - ledger.cumulative_player_gain
