"""The benchmark's workloads: inputs made from a seed, and the timed calls.

Every workload uses the DCT+Haar 8x8 ground set (n=128 atoms, d=64).  Its
coherence is 1, because the DCT and Haar DC atoms (0 and 64) are equal, so
the rank-deficient paths run as they do for users.  Data are sparse
combinations of a planted atom set with more atoms than the dictionary
size k, so no selector can explain all of the data.  The planted set is
fixed; the seed draws the points and the noise.

Each phase (``romp``, ``greedy``, ``evaluate``) runs its calls through
``clock.unit``, which times each call on its own.  dictsel is always
called through module attributes (``offline.replacement_omp``) so that the
tracer's wrappers, installed on those attributes, are seen.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from dictsel import cli, constraints, data_io, groundset, linalg, offline, online

import checks

PLANTED_SEED = 2018


@dataclass
class Output:
    """One selection (or one method's online streams) and how to check it."""

    label: str
    fingerprint: object  # equal in every round while the program is deterministic
    dictionaries: list[list[int]]  # evaluated on the test set
    gain: float  # objective, or cumulative realized gain
    energy: float  # 0.5 * sum ||y_t||^2 of the data it was selected on
    iterations: int  # selector iterations (0 for online streams)
    check: Callable[[], list[str]]


@dataclass
class Inputs:
    ground_set: object
    a: np.ndarray
    train: np.ndarray
    test: np.ndarray
    extra: dict = field(default_factory=dict)


def ground_set():
    gs = groundset.assemble([("dct2", groundset.dct2_basis(8)), ("haar2", groundset.haar2_basis(8))])
    linalg.coherence(gs)
    return gs


def planted_data(gs, seed, k_planted, s, noise, sizes):
    """Datasets of ``s``-sparse points over one fixed planted atom set, plus noise.

    The planted set always holds the DC atom 0, the component every image
    patch carries, so its duplicate, atom 64, competes for selection.
    ``noise`` is the standard deviation of the additive Gaussian noise per
    coordinate.
    """
    rng = np.random.default_rng(PLANTED_SEED)
    planted = np.sort(np.r_[0, rng.choice(np.arange(1, gs.n), k_planted - 1, replace=False)])
    out = []
    for i, size in enumerate(sizes):
        y = data_io.synth_dataset(gs, size, k_planted, s, [seed, 1, i], planted=planted).matrix
        if noise:
            y = y + noise * np.random.default_rng([seed, 2, i]).standard_normal(y.shape)
        out.append(y)
    return out


def energy(y: np.ndarray) -> float:
    return 0.5 * float((y * y).sum())


def selection_output(label, state, a, y, k, feasible) -> Output:
    fingerprint = (
        tuple(state.atoms),
        tuple(tuple(z) for z in state.supports),
        tuple(state.objective_history),
    )
    return Output(
        label,
        fingerprint,
        [list(state.atoms)],
        state.objective,
        energy(y),
        len(state.objective_history),
        lambda: checks.selection(state, a, y, k, feasible),
    )


class Percap:
    """Per-point caps: the thin-QR updates and gain tables do the work."""

    name = "percap"
    K, S, K_PLANTED, NOISE = 20, 5, 30, 0.05
    T_ROMP, T_GREEDY, T_TEST = 800, 100, 800
    eval_sparsity = S  # atoms per point when encoding the test set

    def setup(self, seed) -> Inputs:
        gs = ground_set()
        train, test = planted_data(gs, seed, self.K_PLANTED, self.S, self.NOISE, (self.T_ROMP, self.T_TEST))
        inp = Inputs(gs, gs.matrix, train, test)
        inp.extra["constraint"] = constraints.IndividualSparsity(self.S)
        return inp

    def romp(self, inp, clock):
        y, constraint = inp.train, inp.extra["constraint"]
        state = clock.unit(
            "romp.individual",
            lambda: offline.replacement_omp(y, inp.ground_set, constraint, offline.SelectorConfig(k=self.K)),
        )
        return [selection_output("romp.individual", state, inp.a, y, self.K, checks.individual(self.S))]

    def greedy(self, inp, clock):
        y, constraint = inp.train[:, : self.T_GREEDY], inp.extra["constraint"]
        state = clock.unit(
            "greedy.individual", lambda: offline.replacement_greedy(y, inp.ground_set, constraint, self.K)
        )
        return [selection_output("greedy.individual", state, inp.a, y, self.K, checks.individual(self.S))]


class Coupled:
    """Coupled families: the feasible-replacement search does the work."""

    name = "coupled"
    # Noise-free: any noise gives some new atom a positive gain at every
    # step, and the iterations that re-pick a selected atom no longer occur.
    K, S, K_PLANTED, NOISE = 20, 5, 30, 0.0
    T, T_GREEDY, T_TEST = 30, 10, 400
    eval_sparsity = S
    AVG_CAP = 8  # per-point cap of average sparsity; the total is S per point
    BLOCK, BLOCK_CAP = 10, 8
    CAT_CAP = 3  # at most 3 DCT atoms and 3 Haar atoms per point

    def setup(self, seed) -> Inputs:
        gs = ground_set()
        train, test = planted_data(gs, seed, self.K_PLANTED, self.S, self.NOISE, (self.T, self.T_TEST))
        inp = Inputs(gs, gs.matrix, train, test)
        t = self.T
        blocks = tuple(tuple(range(i, min(i + self.BLOCK, t))) for i in range(0, t, self.BLOCK))
        rule = ((frozenset(range(64)), self.CAT_CAP), (frozenset(range(64, 128)), self.CAT_CAP))
        inp.extra["families"] = [
            ("average", constraints.AverageSparsity((self.AVG_CAP,) * t, self.S * t),
             checks.average(self.AVG_CAP, self.S * t)),
            ("block", constraints.BlockSparsity(blocks, (self.BLOCK_CAP,) * len(blocks)),
             checks.block(self.BLOCK, self.BLOCK_CAP)),
            ("matroid", constraints.PartitionMatroid((rule,) * t),
             checks.two_category(64, self.CAT_CAP, self.CAT_CAP)),
        ]
        inp.extra["greedy_matroid"] = constraints.PartitionMatroid((rule,) * self.T_GREEDY)
        return inp

    def romp(self, inp, clock):
        outputs = []
        for family, constraint, feasible in inp.extra["families"]:
            state = clock.unit(
                f"romp.{family}",
                lambda: offline.replacement_omp(inp.train, inp.ground_set, constraint, offline.SelectorConfig(k=self.K)),
            )
            outputs.append(selection_output(f"romp.{family}", state, inp.a, inp.train, self.K, feasible))
        return outputs

    def greedy(self, inp, clock):
        y, constraint = inp.train[:, : self.T_GREEDY], inp.extra["greedy_matroid"]
        state = clock.unit("greedy.matroid", lambda: offline.replacement_greedy(y, inp.ground_set, constraint, self.K))
        feasible = checks.two_category(64, self.CAT_CAP, self.CAT_CAP)
        return [selection_output("greedy.matroid", state, inp.a, y, self.K, feasible)]


class Online:
    """Online streams: hedge updates and per-round factorizations do the work."""

    name = "online"
    K, S, K_PLANTED, NOISE = 10, 3, 12, 0.05
    # Six short streams rather than three long ones: at the same number of
    # rounds the quality averaged over the streams spreads less across seeds.
    STREAMS, ROUNDS, T_TEST = 6, 350, 250
    eval_sparsity = S
    EDGE = 100  # rounds compared at the start and the end of the streams
    METHODS = {"romp": "online_replacement_omp", "greedy": "online_replacement_greedy"}

    def setup(self, seed) -> Inputs:
        gs = ground_set()
        *streams, test = planted_data(
            gs, seed, self.K_PLANTED, self.S, self.NOISE, (self.ROUNDS,) * self.STREAMS + (self.T_TEST,)
        )
        inp = Inputs(gs, gs.matrix, np.hstack(streams), test)
        inp.extra["streams"] = streams
        inp.extra["states"] = {
            p: [
                online.online_state(method, gs, self.K, self.S, horizon=self.ROUNDS, seed=[seed, 3, h])
                for h in range(self.STREAMS)
            ]
            for p, method in self.METHODS.items()
        }
        return inp

    def _play(self, inp, clock, p):
        # Fresh copies of the states made in set-up; copying calls no dictsel code.
        states = copy.deepcopy(inp.extra["states"][p])
        # Each stream is its own timed call, so the kernel runs that bracket
        # it follow the machine's speed more closely than over all streams.
        for h, (state, y) in enumerate(zip(states, inp.extra["streams"])):
            def stream(state=state, y=y):
                for t in range(y.shape[1]):
                    online.online_round(state, y[:, t], inp.ground_set)

            clock.unit(f"{p}.stream{h}", stream)
        fingerprint = tuple((tuple(s.ledger.player_gains), tuple(map(tuple, s.ledger.supports))) for s in states)
        out = Output(
            f"{p}.online",
            fingerprint,
            [self._dictionary(s) for s in states],
            sum(s.ledger.cumulative_player_gain for s in states),
            energy(inp.train),
            0,
            lambda: self._check(inp, states),
        )
        return [out]

    def _dictionary(self, state) -> list[int]:
        """The K atoms used most often in the supports of the stream's second half."""
        used = [j for support in state.ledger.supports[self.ROUNDS // 2 :] for j in support]
        counts = np.bincount(np.asarray(used, dtype=int), minlength=state.experts[0].num_atoms)
        return sorted(int(j) for j in np.argsort(-counts, kind="stable")[: self.K] if counts[j])

    def _check(self, inp, states) -> list[str]:
        problems = []
        for h, (state, y) in enumerate(zip(states, inp.extra["streams"])):
            problems += [f"stream {h}: {p}" for p in checks.stream(state, inp.a, y)]
        within, total = checks.regret_within_bound(states, inp.a.shape[1], self.ROUNDS)
        if within < 0.95 * total:
            problems.append(f"only {within} of {total} experts within the regret bound")
        gains = np.array([s.ledger.player_gains for s in states])
        first, last = gains[:, : self.EDGE].mean(), gains[:, -self.EDGE :].mean()
        if not last > first:
            problems.append(f"mean utility fell from {first!r} to {last!r}")
        return problems

    def romp(self, inp, clock):
        return self._play(inp, clock, "romp")

    def greedy(self, inp, clock):
        return self._play(inp, clock, "greedy")


WORKLOADS = {w.name: w for w in (Percap, Coupled, Online)}


def evaluate(workload, inp, outputs, clock):
    """cli.residual_variance of the test set for every selected dictionary.

    The dictionaries of one output are timed as one call.  Returns
    [(output, dictionary, residual variance)].
    """
    results = []
    for out in outputs:
        dictionaries = [inp.a[:, atoms] for atoms in out.dictionaries]
        rvs = clock.unit(
            f"eval.{out.label}",
            lambda: [cli.residual_variance(d, inp.test, workload.eval_sparsity) for d in dictionaries],
        )
        results += [(out, atoms, rv) for atoms, rv in zip(out.dictionaries, rvs)]
    return results
