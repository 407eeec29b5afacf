"""Bit-identity digest of dictsel's outputs: one sha256 per case and a total.

A ROMP case prints two: its selection's and its family's pricing.  Run
it on two checkouts and compare the totals; equal totals mean the
selectors, the families' pricing, online rounds, OMP evaluation and
``best_replacement`` gave the same bits on every case.  It reads only
public state and imports the package from the checkout it sits in:

    python tests/digest.py

Each line also gives the case's rank skips (adds refused as dependent
on the support) and rollbacks, where it has them.  Cases, for data
seeds 0 to 3 (``synth_dataset`` over the DCT+Haar 8x8 ground set,
n = 128, T = 400 for seeds 0 and 1, T = 1600 for seeds 2 and 3):

* replacement OMP under per-point caps, a two-category partition matroid,
  block and average sparsity, with and without decay: atoms, supports,
  objective history, rollbacks and the Gram fit (index, size, coeffs,
  gradients, f values, rank skips), and the family's pricing of the final
  supports: the constraint's ``family_state``, refreshed at every point
  and stepped at the smoothness M, gives every atom's value of the
  squared gradients divided by M, as a ROMP step prices them, and the
  replacements of the three unselected atoms of highest value;
* replacement greedy under caps and the matroid, the same state;
* OMP codes of the data on the caps dictionary: the fit and residuals;
* the three online methods over the first 60 points: ledgers, hedge
  log-weights, cumulative gains and the gain bound;
* 150 ``best_replacement`` calls on random feasible supports, n = 12;
* replacement OMP on the DCT+Haar 4x4 ground set (n = 32) at M = 0.3 and
  with decay, on up to 30 points planted on 8 atoms: most replacements
  that overstate their gain are rolled back here;
* on 200 points of two of six DCT atoms each plus a DC part planted on
  both DC twins (atoms 0 and 64, equal up to rounding), replacement OMP
  with and without decay and replacement greedy under the matroid, whose
  halves put the twins in different categories: ROMP adds atom 64 at
  points that hold atom 0, and the fit refuses it; and 8-sparse OMP
  codes over a dictionary holding both twins, one column twice and a
  unit column 1e-5 away from atom 0 along atom 100, which the fit
  refuses on noisy points.

The BLAS runs on one thread, as in ``bench/run.py``, so that a total
does not depend on the thread count a shell sets: a threaded product
may round differently, and whether an add is refused can turn on that
rounding.  This is a script, not a test module: pytest does not collect
it.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

# Before numpy loads, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

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
    g2 = np.square(fit.gradients) / smoothness
    values = step.values(g2)
    digest = Digest().add(values)
    unselected = np.setdiff1d(np.arange(len(values)), state.atoms)
    for atom in unselected[np.argsort(-values[unselected], kind="stable")[:3]].tolist():
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


def counts(state) -> str:
    return f"rank_skips={state.fit.rank_skips} rollbacks={state.rollbacks}"


def small_cases(seed: int):
    """ROMP on 4x4 data at a smoothness below the restricted one, and with decay."""
    a = np.hstack([dct2_basis(4), haar2_basis(4)])
    rng = np.random.default_rng([seed, 4])
    t_count = int(rng.integers(10, 31))
    y = a[:, rng.choice(a.shape[1], size=8, replace=False)] @ rng.standard_normal((8, t_count))
    y += 0.1 * rng.standard_normal(y.shape)
    for name, config in (("M0.3", SelectorConfig(k=K, smoothness=0.3)), ("decay", SelectorConfig(k=K, decay=True))):
        state = replacement_omp(y, a, IndividualSparsity(S), config)
        yield f"seed{seed}/small/romp/{name}", selection_digest(state), counts(state)


def twin_cases(seed: int, gs):
    """Selectors and OMP codes on data planted on both DC twins (atoms 0 and 64)."""
    rng = np.random.default_rng([seed, 64])
    t_count, others = 200, rng.choice(np.arange(1, 64), size=6, replace=False)
    coeffs = np.zeros((6, t_count))
    for t in range(t_count):
        coeffs[rng.choice(6, size=2, replace=False), t] = rng.choice([-1.0, 1.0], size=2) * rng.uniform(1.0, 2.0, 2)
    y = gs.matrix[:, others] @ coeffs + gs.matrix[:, [0, 64]] @ rng.standard_normal((2, t_count))
    y += (0.05 if seed % 2 else 0.0) * rng.standard_normal(y.shape)  # noise-free on even seeds
    matroid = families(t_count, gs.n)["matroid"]
    for decay in (False, True):
        state = replacement_omp(y, gs, matroid, SelectorConfig(k=K, decay=decay))
        yield f"seed{seed}/twins/romp/matroid{'/decay' if decay else ''}", selection_digest(state), counts(state)
    state = replacement_greedy(y, gs, matroid, K)
    yield f"seed{seed}/twins/greedy/matroid", selection_digest(state), counts(state)
    near = gs.matrix[:, 0] + 1e-5 * gs.matrix[:, 100]  # squared distance ~1e-10 from atom 0's span
    dictionary = np.column_stack([gs.matrix[:, [0, 64, *others, int(others[0])]], near / np.linalg.norm(near)])
    fit, residuals = omp_codes(dictionary, y, 8)
    digest = Digest()
    fit_digest(digest, fit)
    yield f"seed{seed}/twins/omp_codes", digest.add(residuals).hexdigest(), f"rank_skips={fit.rank_skips}"


def cases():
    """(name, sha256, counts) of every case, in a fixed order; counts is "" where a case has none."""
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
                case = f"seed{seed}/romp/{name}{'/decay' if decay else ''}"
                yield case, f"{selection_digest(state)} {pricing}", counts(state)
        for name in ("caps", "matroid"):
            state = replacement_greedy(y, gs, constraints[name], K)
            yield f"seed{seed}/greedy/{name}", selection_digest(state), counts(state)
        fit, residuals = omp_codes(gs.matrix[:, dictionary], y, S)
        digest = Digest()
        fit_digest(digest, fit)
        yield f"seed{seed}/omp_codes", digest.add(residuals).hexdigest(), f"rank_skips={fit.rank_skips}"
        for method in METHODS:
            state = online_state(method, gs, K, S, horizon=ROUNDS, seed=seed)
            for t in range(ROUNDS):
                online_round(state, y[:, t], gs)
            ledger = state.ledger
            digest = Digest().add(ledger.player_gains, ledger.expert_choice_gains, ledger.dictionaries)
            digest.add(ledger.supports, state.bank.log_weights, state.bank.cumulative_gains, state.gain_bound)
            yield f"seed{seed}/online/{method}", digest.hexdigest(), ""
        yield f"seed{seed}/best_replacement", replacement_digest(seed), ""
        yield from small_cases(seed)
        yield from twin_cases(seed, gs)


def main() -> None:
    total = hashlib.sha256()
    for name, sha, tally in cases():
        print(f"{sha}  {name}  {tally}".rstrip(), flush=True)
        total.update(f"{name} {sha}\n".encode())
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    main()
