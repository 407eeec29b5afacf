"""Bit-identity digest of dictsel's outputs: one sha256 per case and a total.

A ROMP case prints two: its selection's and its family's pricing.  Run
it on two checkouts and compare the totals; equal totals mean the
selectors, the families' pricing, online rounds, OMP evaluation and
``best_replacement`` gave the same bits on every case.  It reads only
public state and imports the package from the checkout it sits in:

    python tests/digest.py

Cases, for data seeds 0 to 3 (``synth_dataset`` over the DCT+Haar 8x8
ground set, n = 128, T = 400 for seeds 0 and 1, T = 1600 for seeds 2
and 3):

* replacement OMP under per-point caps, a two-category partition matroid,
  block and average sparsity, with and without decay: atoms, supports,
  objective history, rollbacks and the Gram fit (index, size, coeffs,
  gradients, f values, rank skips), and the family's pricing of the final
  supports: the constraint's ``family_state``, refreshed at every point
  and stepped at the smoothness M, gives every atom's value of the
  squared gradients (held entries zeroed, divided by M) and the
  replacements of the three atoms of highest value;
* replacement greedy under caps and the matroid, the same state;
* OMP codes of the data on the caps dictionary: the fit and residuals;
* the three online methods over the first 60 points: ledgers, hedge
  log-weights, cumulative gains and the gain bound;
* 150 ``best_replacement`` calls on random feasible supports, n = 12.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dictsel import AverageSparsity, BlockSparsity, IndividualSparsity, PartitionMatroid, SelectorConfig  # noqa: E402
from dictsel import assemble, best_replacement, dct2_basis, haar2_basis, is_feasible  # noqa: E402
from dictsel import online_round, online_state, replacement_greedy, replacement_omp, synth_dataset  # noqa: E402
from dictsel.constraints import family_state  # noqa: E402
from dictsel.encoders import omp_codes  # noqa: E402
from dictsel.linalg import resolve_smoothness  # noqa: E402
from dictsel.online import METHODS  # noqa: E402

SEEDS = (0, 1, 2, 3)
K, S, ROUNDS, REPLACEMENTS = 20, 3, 60, 150


class Digest:
    """A sha256 fed with arrays (shape, dtype and bytes), lists and tuples item by item, and the repr of anything else.

    The repr of a Python float round-trips, so it hashes every bit.
    """

    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, *values) -> "Digest":
        for value in values:
            if isinstance(value, np.ndarray):
                self.sha.update(repr((value.shape, value.dtype.str)).encode())
                self.sha.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, (list, tuple)):
                self.sha.update(f"[{len(value)}".encode())
                self.add(*value)
            else:
                self.sha.update(repr(value).encode())
        return self

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


def fit_digest(digest: Digest, fit) -> None:
    digest.add(fit.index, fit.size, fit.coeffs, fit.gradients, fit.f_values, fit.rank_skips)


def selection_digest(state) -> str:
    digest = Digest().add(state.atoms, state.supports, state.objective_history, state.rollbacks)
    fit_digest(digest, state.fit)
    return digest.hexdigest()


def pricing_digest(state, constraint, smoothness: float) -> str:
    """The family's values of every atom on the final supports, and the replacements of the top three."""
    fit = state.fit
    t_count = len(fit.size)
    family = family_state(constraint, t_count, len(fit.gradients))
    family.refresh(fit.index, fit.size, state.removal_costs, np.arange(t_count))
    step = family.step(fit.index, state.removal_costs, smoothness)
    g2 = np.square(fit.gradients)
    held = fit.index >= 0
    g2[fit.index[held], np.nonzero(held)[0]] = 0.0
    g2 /= smoothness
    values = step.values(g2)
    digest = Digest().add(values)
    for atom in np.argsort(-values, kind="stable")[:3].tolist():
        digest.add(atom, *step.replacement(atom, g2[atom]))
    return digest.hexdigest()


def families(t_count: int, n: int) -> dict:
    halves = ((frozenset(range(n // 2)), 2), (frozenset(range(n // 2, n)), 2))
    blocks = tuple(tuple(range(start, min(start + 10, t_count))) for start in range(0, t_count, 10))
    return {
        "caps": IndividualSparsity(S),
        "matroid": PartitionMatroid((halves,) * t_count),
        "block": BlockSparsity(blocks, (6,) * len(blocks)),
        "average": AverageSparsity.uniform(t_count, S + 1, 3 * t_count),
    }


def random_supports(rng, constraint, t_count: int, n: int) -> list[list[int]]:
    supports = [[] for _ in range(t_count)]
    for _ in range(3 * t_count):
        t, atom = int(rng.integers(t_count)), int(rng.integers(n))
        trial = [list(z) for z in supports]
        trial[t].append(atom)
        if atom not in supports[t] and is_feasible(constraint, trial):
            supports = trial
    return supports


def replacement_digest(seed: int) -> str:
    rng = np.random.default_rng([seed, 7])
    n, digest = 12, Digest()
    for i in range(REPLACEMENTS):
        t_count = int(rng.integers(1, 9))
        name = ("caps", "matroid", "block", "average")[i % 4]
        constraint = families(t_count, n)[name]
        supports = random_supports(rng, constraint, t_count, n)
        atom = int(rng.integers(n))
        gains = np.round(rng.uniform(0.0, 1.0, t_count), 1)
        gains[[t for t, z in enumerate(supports) if atom in z]] = 0.0
        costs = [np.round(rng.uniform(0.0, 1.0, len(z)), 1) for z in supports]
        rep = best_replacement(constraint, supports, atom, gains, costs)
        digest.add(name, supports, rep.added_atom, rep.per_t, rep.gain)
    return digest.hexdigest()


def cases():
    """(name, sha256) of every case, in a fixed order."""
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    smoothness = resolve_smoothness(gs, None)
    for seed in SEEDS:
        t_count = 400 if seed < 2 else 1600
        y = synth_dataset(gs, t_count, 2 * K, S, seed).matrix
        constraints, dictionary = families(t_count, gs.n), None
        for name, constraint in constraints.items():
            for decay in (False, True):
                state = replacement_omp(y, gs, constraint, SelectorConfig(k=K, decay=decay))
                dictionary = state.atoms if dictionary is None else dictionary
                pricing = pricing_digest(state, constraint, smoothness)
                yield f"seed{seed}/romp/{name}{'/decay' if decay else ''}", f"{selection_digest(state)} {pricing}"
        for name in ("caps", "matroid"):
            state = replacement_greedy(y, gs, constraints[name], K)
            yield f"seed{seed}/greedy/{name}", selection_digest(state)
        fit, residuals = omp_codes(gs.matrix[:, dictionary], y, S)
        digest = Digest()
        fit_digest(digest, fit)
        yield f"seed{seed}/omp_codes", digest.add(residuals).hexdigest()
        for method in METHODS:
            state = online_state(method, gs, K, S, horizon=ROUNDS, seed=seed)
            for t in range(ROUNDS):
                online_round(state, y[:, t], gs)
            ledger = state.ledger
            digest = Digest().add(ledger.player_gains, ledger.expert_choice_gains, ledger.dictionaries)
            digest.add(ledger.supports, state.bank.log_weights, state.bank.cumulative_gains, state.gain_bound)
            yield f"seed{seed}/online/{method}", digest.hexdigest()
        yield f"seed{seed}/best_replacement", replacement_digest(seed)


def main() -> None:
    total = hashlib.sha256()
    for name, sha in cases():
        print(f"{sha}  {name}", flush=True)
        total.update(f"{name} {sha}\n".encode())
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    main()
