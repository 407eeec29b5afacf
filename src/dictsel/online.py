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
the inverse of G_ZZ (see :class:`_RoundFit`); the gains are the
expressions ``linalg.gram_gains`` evaluates for many points.  The k
experts keep their weights as rows of one :class:`HedgeBank`, so a round
feeds them all with one update (:func:`hedge_update`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import cheapest_removal
from .errors import DimensionMismatch
from .linalg import SPAN_RTOL, _regain, _swap_rows, atom_matrix, gram_matrix, require_finite_atoms
from .linalg import resolve_smoothness

METHODS = ("online_modular", "online_replacement_greedy", "online_replacement_omp")


@dataclass
class HedgeBank:
    """Log-weights and cumulative fed gains of a set of experts, one (num_experts, n) row each."""

    log_weights: np.ndarray
    cumulative_gains: np.ndarray

    @classmethod
    def zeros(cls, num_experts: int, num_atoms: int) -> "HedgeBank":
        return cls(np.zeros((num_experts, num_atoms)), np.zeros((num_experts, num_atoms)))


@dataclass
class HedgeExpert:
    """Multiplicative-weights expert over the atom set.

    Weights are kept in log space; ``scale`` is the current upper bound
    on fed gains so updates use exp(eta * gain / scale).  ``horizon``
    fixes eta as sqrt(8 ln n / horizon); without a horizon the expert
    restarts with a doubled guess whenever the guess is exhausted.

    The log-weights and cumulative gains are row ``row`` of ``bank``,
    which the experts of one online state share (a new bank of one row by
    default).  The expert reads them through the bank rather than holding
    row views, because a deep copy turns views into separate arrays.
    """

    num_atoms: int
    rng: np.random.Generator
    horizon: int | None = None
    bank: HedgeBank | None = None
    row: int = 0
    scale: float = 1.0
    rounds: int = 0
    next_choice: int = field(init=False)

    def __post_init__(self):
        if self.bank is None:
            self.bank = HedgeBank.zeros(1, self.num_atoms)
        self._epoch = 0
        self.eta = self._eta_for(self.horizon if self.horizon else 1)
        self.next_choice = int(self.rng.integers(self.num_atoms))

    def _eta_for(self, horizon: int) -> float:
        return math.sqrt(8.0 * math.log(self.num_atoms) / max(horizon, 1))

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


def hedge_update(experts, gains) -> list[int]:
    """Feed one round of gains to consecutive experts of one bank and sample each one's next atom.

    Row i of the (len(experts), n) ``gains`` goes to ``experts[i]``, which
    must be row ``experts[0].row + i`` of the bank (ValueError otherwise).
    Gains must be finite and nonnegative; each row is normalized by its
    expert's current scale so the exponent stays in [0, eta].  Each draw
    is the inverse-CDF draw ``Generator.choice(n, p=p)`` makes from the
    expert's own generator, without its per-call validation of p: the same
    uniform gives the same atom.  Returns the next choices.
    """
    g = np.asarray(gains, dtype=float)
    if not np.all(np.isfinite(g)) or g.min() < 0.0:
        raise ValueError("gains must be finite and nonnegative")
    bank, first = experts[0].bank, experts[0].row
    rows = slice(first, first + len(experts))
    log_weights = bank.log_weights[rows]
    eta, bound = [], []
    for i, expert in enumerate(experts):
        if expert.bank is not bank or expert.row != first + i:
            raise ValueError("experts fed together must be consecutive rows of one bank")
        if expert.horizon is None and expert.rounds == 2**expert._epoch:
            # Doubling trick: restart with a doubled horizon guess.
            expert._epoch += 1
            expert.eta = expert._eta_for(2**expert._epoch)
            log_weights[i] = 0.0
        expert.rounds += 1
        eta.append(expert.eta)
        bound.append(expert.scale if expert.scale > 0.0 else 1.0)
    bank.cumulative_gains[rows] += g
    log_weights += np.array(eta)[:, None] * g / np.array(bound)[:, None]
    w = np.exp(log_weights - log_weights.max(axis=1, keepdims=True))
    cdf = (w / w.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    for expert, row_cdf in zip(experts, cdf):
        expert.next_choice = int(row_cdf.searchsorted(expert.rng.random(), side="right"))
    return [expert.next_choice for expert in experts]


def hedge_step(expert: HedgeExpert, gains: np.ndarray) -> int:
    """Feed one round of gains to one expert and sample its next atom: :func:`hedge_update` of one row."""
    return hedge_update([expert], np.asarray(gains, dtype=float)[None])[0]


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
    """k experts over one bank, the atoms A and G = A^T A, the round counter, gain bound and ledger."""

    method: str
    k: int
    s: int
    smoothness: float
    atoms: np.ndarray
    gram: np.ndarray
    bank: HedgeBank
    experts: list[HedgeExpert]
    rounds: int = 0
    gain_bound: float = 0.0
    ledger: OnlineLedger = field(default_factory=OnlineLedger)


def online_state(method, ground_set, k, s, horizon=None, seed=0, smoothness=None) -> OnlineState:
    """Initialize an online run for a fixed ground set."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 1 <= s <= k:
        raise ValueError("need 1 <= s <= k")
    a = require_finite_atoms(atom_matrix(ground_set))
    n = a.shape[1]
    m_val = resolve_smoothness(ground_set, smoothness)
    seeds = np.random.SeedSequence(seed).spawn(k)
    bank = HedgeBank.zeros(k, n)
    experts = [
        HedgeExpert(n, np.random.default_rng(seeds[i]), horizon, bank, i) for i in range(k)
    ]
    return OnlineState(method, k, s, m_val, a, gram_matrix(ground_set), bank, experts)


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
        edits border the inverse.
        """
        z, inv, gz, g = self.z, self.inv, self.gz, self.gram
        if pos is not None:
            keep = np.arange(len(z) - 1)
            keep[pos:] += 1
            rows = inv.take(keep, 0)
            col = rows[:, pos]
            inv = rows.take(keep, 1) - col[:, None] * col / inv[pos, pos]
            gz = gz.take(keep, 0)
            z = z[:pos] + z[pos + 1 :]
        gzb = gz[:, b]
        u = inv @ gzb
        d = g[b, b] - gzb @ u
        if d <= SPAN_RTOL * g[b, b]:
            return False
        m = len(z)
        grown = np.empty((m + 1, m + 1))
        grown[:m, :m] = inv + u[:, None] * u / d
        grown[:m, m] = grown[m, :m] = -u / d
        grown[m, m] = 1.0 / d
        self.z = z + [b]
        self.inv = grown
        self.gz = np.concatenate([gz, g[b : b + 1]])
        self.w = grown @ self.aty.take(self.z)
        self.grad = self.aty - self.w @ self.gz
        return True

    def value(self) -> float:
        """f(Z) = C[Z] . w - w^T G_ZZ w / 2, as w . (C[Z] + grad[Z]) / 2: stationary in w."""
        return 0.5 * float(self.w @ (self.aty[self.z] + self.grad[self.z]))


def _romp_gains(fit: _RoundFit, room: bool, m_val: float) -> np.ndarray:
    """Gradient-proxy gains: g_b^2 / M, less M times the cheapest squared coefficient once full."""
    grad_sq = fit.grad**2
    grad_sq[fit.z] = 0.0
    if room:
        return grad_sq / m_val
    cheapest = m_val * float((fit.w**2).min())
    return np.maximum(grad_sq / m_val - cheapest, 0.0)


def _greedy_gains(fit: _RoundFit, room: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact addition gains, or the best swap gain per atom with the (m, n) swap rows once full."""
    c = fit.inv @ fit.gz
    dist = 1.0 - np.einsum("jb,jb->b", fit.gz, c)
    if room:
        gains = _regain(fit.grad**2, dist)
        gains[fit.z] = 0.0
        return gains, None
    gamma = np.diagonal(fit.inv)[:, None]
    swaps = _swap_rows(fit.grad, fit.w[:, None], gamma, c, dist)
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
    otherwise) and ``y_t`` one entry per atom row (DimensionMismatch
    otherwise).  Returns (played dictionary, list of per-expert feedback
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
    a = _state_atoms(state, ground_set)
    y = np.asarray(y_t, dtype=float)
    if y.shape != a.shape[:1]:
        raise DimensionMismatch(f"y_t has shape {y.shape} but the atoms have {a.shape[0]} rows")
    aty = a.T @ y
    played = [expert.next_choice for expert in state.experts]
    fit = _RoundFit(state.gram, aty)
    feedback = np.empty((state.k, aty.size))

    if state.method == "online_modular":
        feedback[:] = 0.5 * aty**2
        ranked = sorted(set(played), key=lambda j: (-feedback[0, j], j))
        for atom in ranked[: state.s]:
            fit.replace(None, atom)
    else:
        gains = None  # the current support's gains, once computed
        for i, choice in enumerate(played):
            room = len(fit.z) < state.s
            if gains is None:
                if state.method == "online_replacement_omp":
                    gains = _romp_gains(fit, room, state.smoothness)
                else:
                    gains, swaps = _greedy_gains(fit, room)
            feedback[i] = gains
            if gains[choice] > 0.0:  # atoms of Z are fed 0
                if room:
                    pos = None
                elif state.method == "online_replacement_omp":
                    pos = cheapest_removal(fit.w**2, fit.z)
                else:
                    pos = int(np.argmax(swaps[:, choice]))
                if fit.replace(pos, choice):
                    gains = None

    state.gain_bound = max(state.gain_bound, float(feedback.max()))
    for expert in state.experts:
        expert.scale = state.gain_bound
    hedge_update(state.experts, feedback)
    state.rounds += 1
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
