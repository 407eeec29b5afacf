"""Online dictionary selection with exponential-weights subroutines.

Each of the k dictionary slots is managed by one expert over the atom
set.  Per round the sampled atoms are played as the dictionary, the data
point is revealed, and every expert receives full-information feedback:
the gain each atom would have contributed at its slot.  Three feedback
rules mirror the offline selectors (modular surrogate, exact
differences, gradient proxy).  The player's realized utility and the fed
gains are kept in a ledger so hindsight regret can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import cheapest_removal
from .errors import RankDeficient
from .linalg import addition_gains, atom_matrix, empty_factorization, factor_insert, factor_remove
from .linalg import resolve_smoothness, swap_gains

METHODS = ("online_modular", "online_replacement_greedy", "online_replacement_omp")


@dataclass
class HedgeExpert:
    """Multiplicative-weights expert over the atom set.

    Weights are kept in log space; ``scale`` is the current upper bound
    on fed gains so updates use exp(eta * gain / scale).  ``horizon``
    fixes eta as sqrt(8 ln n / horizon); without a horizon the expert
    restarts with a doubled guess whenever the guess is exhausted.
    """

    num_atoms: int
    rng: np.random.Generator
    horizon: int | None = None
    log_weights: np.ndarray = field(init=False)
    cumulative_gains: np.ndarray = field(init=False)
    scale: float = 1.0
    rounds: int = 0
    next_choice: int = field(init=False)

    def __post_init__(self):
        self.log_weights = np.zeros(self.num_atoms)
        self.cumulative_gains = np.zeros(self.num_atoms)
        self._epoch = 0
        self.eta = self._eta_for(self.horizon if self.horizon else 1)
        self.next_choice = int(self.rng.integers(self.num_atoms))

    def _eta_for(self, horizon: int) -> float:
        return math.sqrt(8.0 * math.log(self.num_atoms) / max(horizon, 1))

    @property
    def probabilities(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()


def hedge_step(expert: HedgeExpert, gains: np.ndarray) -> int:
    """Feed one round of gains and sample the next round's atom.

    Gains must be finite and nonnegative; they are normalized by the
    expert's current scale so the exponent stays in [0, eta].
    """
    g = np.asarray(gains, dtype=float)
    if not np.all(np.isfinite(g)) or g.min() < 0.0:
        raise ValueError("gains must be finite and nonnegative")
    if expert.horizon is None and expert.rounds == 2**expert._epoch:
        # Doubling trick: restart with a doubled horizon guess.
        expert._epoch += 1
        expert.eta = expert._eta_for(2**expert._epoch)
        expert.log_weights[:] = 0.0
    expert.cumulative_gains += g
    bound = expert.scale if expert.scale > 0.0 else 1.0
    expert.log_weights += expert.eta * g / bound
    expert.rounds += 1
    # The inverse-CDF draw Generator.choice(n, p=p) makes, without its
    # per-call validation of p: the same uniform gives the same atom.
    cdf = expert.probabilities.cumsum()
    cdf /= cdf[-1]
    expert.next_choice = int(cdf.searchsorted(expert.rng.random(), side="right"))
    return expert.next_choice


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
    """k experts plus the round counter, gain bound, and regret ledger."""

    method: str
    k: int
    s: int
    smoothness: float
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
    n = atom_matrix(ground_set).shape[1]
    m_val = resolve_smoothness(ground_set, smoothness)
    seeds = np.random.SeedSequence(seed).spawn(k)
    experts = [
        HedgeExpert(n, np.random.default_rng(seeds[i]), horizon) for i in range(k)
    ]
    return OnlineState(method, k, s, m_val, experts)


def online_round(state: OnlineState, y_t: np.ndarray, ground_set):
    """Play one round: sample atoms, observe ``y_t``, feed all experts.

    Returns (played dictionary, list of per-expert feedback vectors).
    The support starts empty and each slot either adds its sampled atom
    (while the support holds fewer than s atoms) or swaps it in (once it
    is full), in both cases only on strictly positive fed gain.
    Replacement greedy feeds max_j f(Z - z_j + b) - f(Z) and swaps at the
    first j attaining it, so the realized change is the fed gain;
    replacement OMP drops the atom with the smallest squared coefficient
    (ties to the lowest atom).  The realized utility of the final
    support is appended to the ledger.
    """
    a = atom_matrix(ground_set)
    y = np.asarray(y_t, dtype=float)
    m_val = state.smoothness
    played = [expert.next_choice for expert in state.experts]

    fact = empty_factorization(a.shape[0])
    resid = y.copy()
    coeffs = np.zeros(0)
    feedbacks: list[np.ndarray] = []
    modular = 0.5 * (a.T @ y) ** 2 if state.method == "online_modular" else None

    for choice in played:
        room = fact.m < state.s
        if state.method == "online_modular":
            gains = modular
        elif state.method == "online_replacement_omp":
            grad = a.T @ resid
            grad_sq = grad**2
            if fact.m:
                grad_sq[list(fact.columns)] = 0.0
            if room:
                gains = grad_sq / m_val
            else:
                cheapest = m_val * float((coeffs**2).min())
                gains = np.maximum(grad_sq / m_val - cheapest, 0.0)
        else:  # online_replacement_greedy
            if room:
                gains = addition_gains(a, fact, resid)
            else:
                swaps = swap_gains(a, fact, y, resid, range(fact.m))
                gains = np.maximum(swaps.max(axis=0), 0.0)
        feedbacks.append(gains)

        # Apply the replacement for the sampled atom.
        if state.method != "online_modular" and gains[choice] > 0.0 and choice not in fact.columns:
            try:
                if room:
                    fact = factor_insert(fact, a, choice)
                else:
                    if state.method == "online_replacement_omp":
                        pos = cheapest_removal(coeffs**2, fact.columns)
                    else:
                        pos = int(np.argmax(swaps[:, choice]))
                    fact = factor_insert(factor_remove(fact, pos), a, choice)
                coeffs, resid = fact.fit(y)
            except RankDeficient:
                pass

    if state.method == "online_modular":
        ranked = sorted(set(played), key=lambda j: (-modular[j], j))
        fact = empty_factorization(a.shape[0])
        for atom in ranked[: state.s]:
            try:
                fact = factor_insert(fact, a, atom)
            except RankDeficient:
                continue
        resid = fact.residual(y)

    realized = 0.5 * (float(y @ y) - float(resid @ resid))
    state.gain_bound = max(state.gain_bound, max(float(g.max()) for g in feedbacks))
    for expert, gains in zip(state.experts, feedbacks):
        expert.scale = state.gain_bound
        hedge_step(expert, gains)
    state.rounds += 1
    state.ledger.player_gains.append(realized)
    state.ledger.expert_choice_gains.append(
        np.array([g[c] for g, c in zip(feedbacks, played)])
    )
    state.ledger.dictionaries.append(played)
    state.ledger.supports.append(list(fact.columns))
    return played, feedbacks


def expert_hindsight_regrets(state: OnlineState) -> np.ndarray:
    """Best-fixed-atom regret of each expert against its own fed gains."""
    realized = np.array(state.ledger.expert_choice_gains)
    if realized.size == 0:
        return np.zeros(state.k)
    return np.array(
        [
            float(expert.cumulative_gains.max() - realized[:, i].sum())
            for i, expert in enumerate(state.experts)
        ]
    )


def alpha_regret(ledger: OnlineLedger, offline_opt: float, alpha: float) -> float:
    """alpha * (offline optimum) minus the cumulative realized utility."""
    return alpha * offline_opt - ledger.cumulative_player_gain
