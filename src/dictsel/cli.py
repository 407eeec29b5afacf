"""Benchmark harness and command-line interface.

Runs configured experiments (trials x methods), computes the evaluation
metrics (selection objective, train/test residual variance, wall time
around the selector call only), hosts the exhaustive two-stage oracle
used to audit the selectors, and emits machine-readable results as one
JSON document plus a flat CSV of per-trial rows.

Subcommands: ``select`` (one selector run), ``bench`` (config-driven
sweep), ``online`` (streamed run emitting a regret-ledger CSV),
``oracle`` (exhaustive optimum), ``groundset`` (build/inspect).  Exit
codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data_io
from .constraints import (
    AverageSparsity,
    BlockSparsity,
    IndividualSparsity,
    PartitionMatroid,
    require_feasible,
)
from .encoders import omp_codes
from .errors import DictselError, InvalidSide, ParseError, TooLarge
from .groundset import GroundSet, assemble, dct2_basis, haar2_basis, load_atom_block
from .linalg import atom_matrix, coherence
from .offline import SelectorConfig, modular_greedy, replacement_greedy, replacement_omp
from .online import METHODS as ONLINE_METHODS
from .online import expert_hindsight_regrets, online_round, online_state

_ORACLE_GUARD = 10**7

OFFLINE_METHODS = (
    "modular_greedy",
    "replacement_greedy",
    "replacement_omp",
    "replacement_omp_decay",
)


def residual_variance(dictionary, data, s: int) -> float:
    """Mean per-coordinate squared reconstruction error of greedy codes.

    All points are encoded together by ``encoders.omp_codes`` with at most
    ``s`` atoms of ``dictionary`` each, and the squared residuals are
    averaged over all T*d coordinates.  An empty dictionary (or s = 0)
    yields the mean squared data norm.  ValueError unless ``s`` is a
    nonnegative integer; DimensionMismatch unless the data has as many
    rows as the dictionary.
    """
    y = data_io.data_matrix(data)
    _, residual_sq = omp_codes(dictionary, y, s)
    return float(residual_sq.sum()) / y.size


# ---------------------------------------------------------------------------
# Exhaustive two-stage oracle


def _f_value(a, support, y):
    support = list(support)
    if not support:
        return 0.0
    sol, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
    resid = y - a[:, support] @ sol
    return 0.5 * float(y @ y) - 0.5 * float(resid @ resid)


def _best_of_size(a, y_t, dictionary, size):
    """The best f over supports of exactly ``size`` dictionary atoms (first on ties), and that support."""
    pairs = ((_f_value(a, c, y_t), c) for c in itertools.combinations(dictionary, size))
    return max(pairs, key=lambda pair: pair[0])


def _oracle_work_estimate(constraint, n, k, t_count):
    dictionaries = math.comb(n, k)
    if isinstance(constraint, IndividualSparsity):
        per_point = math.comb(k, min(constraint.s, k))
        return dictionaries * t_count * per_point
    if isinstance(constraint, PartitionMatroid):
        return dictionaries * t_count * 2**k
    if isinstance(constraint, BlockSparsity):
        unions = sum(math.comb(k, min(cap, k)) for cap in constraint.caps)
        return dictionaries * t_count * max(unions, 1)
    if isinstance(constraint, AverageSparsity):
        per_point = sum(
            math.comb(k, size)
            for size in range(min(max(constraint.s_t), k) + 1)
        )
        return dictionaries * t_count * per_point
    raise TypeError(f"unknown constraint type {type(constraint)!r}")


def brute_force_optimum(data, ground_set, constraint, k: int):
    """Exact optimum of the two-stage objective by full enumeration.

    Returns (optimal value, optimal atom tuple, optimal supports).  The
    search space estimate must stay below 10**7, otherwise TooLarge.
    """
    a = atom_matrix(ground_set)
    y = data_io.data_matrix(data)
    n, t_count = a.shape[1], y.shape[1]
    if _oracle_work_estimate(constraint, n, k, t_count) > _ORACLE_GUARD:
        raise TooLarge("instance exceeds the exhaustive-search guard")
    best = (-math.inf, None, None)
    for dictionary in itertools.combinations(range(n), k):
        value, supports = _best_supports(a, y, constraint, dictionary)
        if value > best[0]:
            best = (value, dictionary, supports)
    return best


def _best_supports(a, y, constraint, dictionary):
    t_count = y.shape[1]
    if isinstance(constraint, IndividualSparsity):
        total, supports = 0.0, []
        size = min(constraint.s, len(dictionary))
        for t in range(t_count):
            # The objective is monotone, so only full-size supports matter.
            value, sup = _best_of_size(a, y[:, t], dictionary, size)
            total += value
            supports.append(list(sup))
        return total, supports
    if isinstance(constraint, PartitionMatroid):
        total, supports = 0.0, []
        for t in range(t_count):
            best_v, best_sup = 0.0, []
            for size in range(len(dictionary) + 1):
                for c in itertools.combinations(dictionary, size):
                    if constraint.independent(t, c):
                        v = _f_value(a, c, y[:, t])
                        if v > best_v:
                            best_v, best_sup = v, list(c)
            total += best_v
            supports.append(best_sup)
        return total, supports
    if isinstance(constraint, BlockSparsity):
        total, supports = 0.0, [None] * t_count
        for block, cap in zip(constraint.blocks, constraint.caps):
            size = min(cap, len(dictionary))
            best_v, best_u = 0.0, ()
            for union in itertools.combinations(dictionary, size):
                v = sum(_f_value(a, union, y[:, t]) for t in block)
                if v > best_v:
                    best_v, best_u = v, union
            total += best_v
            for t in block:
                supports[t] = list(best_u)
        return total, supports
    if isinstance(constraint, AverageSparsity):
        return _average_supports(a, y, constraint, dictionary)
    raise TypeError(f"unknown constraint type {type(constraint)!r}")


def _average_supports(a, y, constraint, dictionary):
    t_count = y.shape[1]
    budget = constraint.s_prime
    # value_by_size[t][m]: best f over supports of exactly m dictionary atoms.
    tables, argbest = [], []
    for t in range(t_count):
        cap = min(constraint.s_t[t], len(dictionary))
        values = [0.0]
        picks = [()]
        for size in range(1, cap + 1):
            v, sup = _best_of_size(a, y[:, t], dictionary, size)
            values.append(v)
            picks.append(sup)
        tables.append(values)
        argbest.append(picks)
    # Knapsack over support sizes against the total budget.
    neg = -math.inf
    dp = [0.0] + [neg] * budget
    choice = [[0] * (budget + 1) for _ in range(t_count)]
    for t in range(t_count):
        new = [neg] * (budget + 1)
        for used in range(budget + 1):
            if dp[used] == neg:
                continue
            for size, value in enumerate(tables[t]):
                if used + size > budget:
                    break
                cand = dp[used] + value
                if cand > new[used + size]:
                    new[used + size] = cand
                    choice[t][used + size] = size
        dp = new
    best_used = max(range(budget + 1), key=lambda u: dp[u])
    total = dp[best_used]
    supports: list[list[int]] = [None] * t_count
    used = best_used
    for t in reversed(range(t_count)):
        size = choice[t][used]
        supports[t] = list(argbest[t][size])
        used -= size
    return total, supports


# ---------------------------------------------------------------------------
# Experiment configuration

_MISSING = object()
_KINDS = {int: "integer", float: "finite positive number", str: "string", list: "list", dict: "object"}
_BASES = {"dct2": dct2_basis, "haar2": haar2_basis}


def _check(value, name: str, kind=int, low=None, high=None):
    """``value`` if it is a ``kind`` in ``low..high``, else a ParseError naming ``name``.

    An int is never a bool or a float, a float is finite and positive (an
    int included), and a string holds no NUL, so any string may name a file.
    """
    if kind is float:
        ok = (isinstance(value, int) or isinstance(value, float) and math.isfinite(value)) and value > 0
    else:
        ok = isinstance(value, kind) and (low is None or low <= value) and (high is None or value <= high)
    if isinstance(value, bool) or not ok or kind is str and "\0" in value:
        bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise ParseError(f"{name}: {_KINDS[kind]}{bounds} required, got {value!r}")
    return value


def _field(section: dict, key: str, where: str = "", kind=int, low=None, high=None, default=_MISSING):
    """``section[key]`` checked by ``_check`` as ``where.key``; ``default`` if absent (or null, for a None default)."""
    name = f"{where}.{key}" if where else key
    if key not in section or section[key] is None and default is None:
        if default is _MISSING:
            raise ParseError(f"{name}: missing required field")
        return default
    return _check(section[key], name, kind, low, high)


def _choice(section: dict, key: str, where: str, options) -> str:
    """The string ``section[key]``, which must be one of ``options``."""
    value = _field(section, key, where, str)
    if value not in options:
        raise ParseError(f"{where}.{key}: {value!r} is not one of {', '.join(options)}")
    return value


def _ints(value, name: str, low=0, high=None) -> tuple[int, ...]:
    """The list ``value`` of integers in ``low..high`` as a tuple; item i is named ``name[i]``."""
    return tuple(_check(item, f"{name}[{i}]", int, low, high) for i, item in enumerate(_check(value, name, list)))


def _dictionary_size(section: dict, where: str, n: int) -> int:
    """The ``k`` of a method, the online section or the oracle: 1 <= k <= n, the ground set's atom count."""
    return _field(section, "k", where, low=1, high=n)


@dataclass
class ExperimentConfig:
    """Declarative description of a benchmark run."""

    ground_set: dict
    train: dict
    constraint: dict
    methods: list[dict]
    test: dict | None = None
    trials: int = 1
    seed: int = 0

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """The checked sections of a config; each method's ``k`` is checked by ``run_experiment``."""
        sections = {key: _field(doc, key, kind=dict) for key in ("ground_set", "train", "constraint")}
        methods = _field(doc, "methods", kind=list)
        if not methods:
            raise ParseError("methods: at least one method required")
        family = sections["constraint"].get("family")
        for i, method in enumerate(methods):
            where = f"methods[{i}]"
            name = _choice(_check(method, where, dict), "name", where, OFFLINE_METHODS)
            if name == "replacement_greedy" and family in ("block", "average"):
                raise ParseError(f"{where}.name: replacement_greedy supports per-point families only, not {family}")
            _field(method, "s", where, low=0, default=None)
            _field(method, "smoothness", where, float, default=None)
        return ExperimentConfig(
            **sections,
            methods=methods,
            test=_field(doc, "test", kind=dict, default=None),
            trials=_field(doc, "trials", low=1, default=1),
            seed=_seed(doc),
        )

    def to_dict(self) -> dict:
        out = {
            "ground_set": self.ground_set,
            "train": self.train,
            "constraint": self.constraint,
            "methods": self.methods,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.test is not None:
            out["test"] = self.test
        return out


def _seed(doc: dict, override: int | None = None) -> int:
    """The run seed: ``override`` (``--seed``) if given, else the config's ``seed`` (default 0).

    Both must be nonnegative integers; the config's is checked either way.
    """
    seed = _field(doc, "seed", low=0, default=0)
    return seed if override is None else _check(override, "--seed", low=0)


def build_ground_set(cfg: dict) -> GroundSet:
    """Instantiate a ground set from its config fragment (``load`` excludes the others)."""
    if "load" in cfg:
        if "bases" in cfg or "csv_blocks" in cfg:
            raise ParseError("ground_set: 'load' excludes 'bases' and 'csv_blocks'")
        return data_io.load_ground_set(_field(cfg, "load", "ground_set", str))
    blocks = []  # (name, atoms, config field)
    for i, basis in enumerate(_field(cfg, "bases", "ground_set", list, default=[])):
        where = f"ground_set.bases[{i}]"
        name = _choice(_check(basis, where, dict), "name", where, tuple(_BASES))
        side = _field(basis, "side", where, low=2, default=8)
        try:
            blocks.append((f"{name}:{side}", _BASES[name](side), f"{where}.side"))
        except InvalidSide as exc:  # a haar2 side that is not a power of two
            raise ParseError(f"{where}.side: {exc}") from exc
    for i, path in enumerate(_field(cfg, "csv_blocks", "ground_set", list, default=[])):
        path = _check(path, f"ground_set.csv_blocks[{i}]", str)
        blocks.append((Path(path).stem, load_atom_block(path), f"ground_set.csv_blocks[{i}]"))
    if not blocks:
        raise ParseError("ground_set: no bases or csv_blocks given")
    for name, atoms, where in blocks:
        if len(atoms) != len(blocks[0][1]):
            raise ParseError(f"{where}: block {name!r} has d={len(atoms)}, the first block has d={len(blocks[0][1])}")
    return assemble(block[:2] for block in blocks)


def _synthetic_sizes(cfg: dict, n: int, where: str) -> tuple[int, int, int]:
    """T >= 1, k_planted and s of a synthetic dataset config over ``n`` atoms, with s <= k_planted <= n."""
    t_count = _field(cfg, "T", where, low=1)
    k_planted = _field(cfg, "k_planted", where, low=0, high=n)
    return t_count, k_planted, _field(cfg, "s", where, low=0, high=k_planted)


def build_dataset(cfg: dict, ground_set, seed, planted=None, where: str = "dataset") -> data_io.Dataset:
    """The dataset of a ``train`` or ``test`` config section; errors name fields as ``where.key``."""
    kind = _choice(cfg, "kind", where, ("synthetic", "patches", "load"))
    if kind == "synthetic":
        t_count, k_planted, s = _synthetic_sizes(cfg, atom_matrix(ground_set).shape[1], where)
        return data_io.synth_dataset(ground_set, t_count, k_planted, s, seed, planted=planted)
    if kind == "patches":
        t_count, side = _field(cfg, "T", where, low=1), _field(cfg, "side", where, low=1, default=8)
        return data_io.extract_patches(data_io.read_pgm(_field(cfg, "image", where, str)), t_count, side, seed)
    path = _field(cfg, "path", where, str)
    dataset = data_io.load_dataset(path)
    if not np.isfinite(dataset.matrix).all():
        raise ParseError(f"{where}.path: {path} holds NaN or inf values")
    return dataset


def build_constraint(cfg: dict, t_count: int, num_atoms: int):
    """The sparsity family of a constraint config over ``t_count`` points and ``num_atoms`` atoms."""
    family = _choice(cfg, "family", "constraint", ("individual", "average", "block", "partition_matroid"))
    if family == "individual":
        return IndividualSparsity(_field(cfg, "s", "constraint", low=0))
    if family == "average":
        s_t = cfg.get("s_t")
        if not isinstance(s_t, list):  # one cap for every point
            s_t = [_field(cfg, "s_t", "constraint", low=0)] * t_count
        caps = _ints(s_t, "constraint.s_t")
        if len(caps) != t_count:
            raise ParseError(f"constraint.s_t: {len(caps)} caps given for T = {t_count} points")
        if "s_prime_per_point" in cfg and "s_prime" not in cfg:
            return AverageSparsity(caps, _field(cfg, "s_prime_per_point", "constraint", low=0) * t_count)
        return AverageSparsity(caps, _field(cfg, "s_prime", "constraint", low=0))
    if family == "block":
        blocks = _field(cfg, "blocks", "constraint", list)
        blocks = tuple(_ints(block, f"constraint.blocks[{i}]") for i, block in enumerate(blocks))
        if sorted(t for b in blocks for t in b) != list(range(t_count)):
            raise ParseError(f"constraint.blocks: blocks must partition the T = {t_count} points")
        caps = _ints(_field(cfg, "caps", "constraint", list), "constraint.caps")
        if len(caps) != len(blocks):
            raise ParseError(f"constraint.caps: {len(caps)} caps given for {len(blocks)} blocks")
        return BlockSparsity(blocks, caps)
    rules = _field(cfg, "rules", "constraint", list)
    if len(rules) not in (1, t_count):
        raise ParseError(f"constraint.rules: 1 or T = {t_count} rules required, got {len(rules)}")
    rules = tuple(_rule(rule, f"constraint.rules[{t}]", num_atoms) for t, rule in enumerate(rules))
    try:
        return PartitionMatroid(rules * t_count if len(rules) == 1 else rules)
    except ValueError as exc:  # categories of one rule overlap
        raise ParseError(f"constraint.rules: {exc}") from exc


def _rule(rule, name: str, num_atoms: int) -> tuple[tuple[frozenset, int], ...]:
    """A matroid rule, a list of ``[atoms, cap]`` pairs with atom indices below ``num_atoms``."""
    pairs = []
    for j, pair in enumerate(_check(rule, name, list)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{name}[{j}]: an [atoms, cap] pair required, got {pair!r}")
        atoms = frozenset(_ints(pair[0], f"{name}[{j}][0]", 0, num_atoms - 1))
        pairs.append((atoms, _check(pair[1], f"{name}[{j}][1]", low=0)))
    return tuple(pairs)


def run_selector(method: dict, data, ground_set, constraint):
    """Dispatch one configured method; returns (state, wall seconds)."""
    name = method["name"]
    k = method["k"]
    start = time.perf_counter()
    if name == "modular_greedy":
        s = method.get("s")
        if s is None:
            s = constraint.s if isinstance(constraint, IndividualSparsity) else 1
        state = modular_greedy(data, ground_set, k, s)
    elif name == "replacement_greedy":
        state = replacement_greedy(data, ground_set, constraint, k)
    else:
        config = SelectorConfig(
            k=k,
            smoothness=method.get("smoothness"),
            decay=name == "replacement_omp_decay",
        )
        state = replacement_omp(data, ground_set, constraint, config)
    return state, time.perf_counter() - start


@dataclass
class TrialRow:
    trial: int
    method: str
    k: int
    objective: float
    train_residual_variance: float
    test_residual_variance: float
    seconds: float

    def to_dict(self):
        return dict(self.__dict__)


@dataclass
class ExperimentResult:
    """Per-trial rows plus aggregates recomputable from them."""

    config: dict
    rows: list[TrialRow] = field(default_factory=list)

    def aggregates(self) -> list[dict]:
        groups: dict[tuple, list[TrialRow]] = {}
        for row in self.rows:
            groups.setdefault((row.method, row.k), []).append(row)
        out = []
        for (method, k), rows in sorted(groups.items()):
            entry = {"method": method, "k": k, "trials": len(rows)}
            for metric in ("objective", "train_residual_variance", "test_residual_variance", "seconds"):
                values = np.array([getattr(r, metric) for r in rows])
                entry[f"mean_{metric}"] = float(values.mean())
                entry[f"se_{metric}"] = (
                    float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
                )
            out.append(entry)
        return out

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "config": self.config,
            "rows": [r.to_dict() for r in self.rows],
            "aggregates": self.aggregates(),
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "ExperimentResult":
        doc = json.loads(text)
        if doc.get("schema_version") != 1:
            raise ParseError(f"result schema version {doc.get('schema_version')}")
        result = ExperimentResult(doc["config"])
        result.rows = [TrialRow(**row) for row in doc["rows"]]
        return result

    def to_csv(self) -> str:
        header = "trial,method,k,objective,train_residual_variance,test_residual_variance,seconds"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.trial},{r.method},{r.k},{r.objective!r},"
                f"{r.train_residual_variance!r},{r.test_residual_variance!r},{r.seconds!r}"
            )
        return "\n".join(lines) + "\n"


def _eval_sparsity(constraint, method: dict) -> int:
    if isinstance(constraint, IndividualSparsity):
        return constraint.s
    if isinstance(constraint, AverageSparsity):
        return max(constraint.s_t)
    return 1 if method.get("s") is None else method["s"]


def _run_trial(config: ExperimentConfig, ground_set, trial: int) -> list[TrialRow]:
    rng = np.random.default_rng([config.seed, trial])
    planted = None
    if config.train.get("kind") == "synthetic":
        # Train and test share the planted dictionary within a trial.
        _, k_planted, _ = _synthetic_sizes(config.train, ground_set.n, "train")
        planted = np.sort(rng.choice(ground_set.n, size=k_planted, replace=False))
    train = build_dataset(config.train, ground_set, [config.seed, trial, 0], planted, "train")
    test_where = "train" if config.test is None else "test"
    test_cfg = getattr(config, test_where)
    same_plant = test_cfg.get("kind") == "synthetic" and test_cfg.get("k_planted") == config.train.get("k_planted")
    test_planted = planted if same_plant else None
    test = build_dataset(test_cfg, ground_set, [config.seed, trial, 1], test_planted, test_where)
    constraint = build_constraint(config.constraint, train.num_points, ground_set.n)
    rows = []
    for method in config.methods:
        state, seconds = run_selector(method, train, ground_set, constraint)
        require_feasible(constraint, state.supports)
        dictionary = ground_set.matrix[:, state.atoms]
        s_eval = _eval_sparsity(constraint, method)
        rows.append(
            TrialRow(
                trial=trial,
                method=method["name"],
                k=method["k"],
                objective=state.objective,
                train_residual_variance=residual_variance(dictionary, train, s_eval),
                test_residual_variance=residual_variance(dictionary, test, s_eval),
                seconds=seconds,
            )
        )
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials and methods; rows are collected in trial order."""
    ground_set = build_ground_set(config.ground_set)
    for i, method in enumerate(config.methods):
        _dictionary_size(method, f"methods[{i}]", ground_set.n)
    result = ExperimentResult(config.to_dict())
    for trial in range(config.trials):
        result.rows.extend(_run_trial(config, ground_set, trial))
    return result


# ---------------------------------------------------------------------------
# Command-line interface


def _load_config_doc(path) -> dict:
    """The JSON object in ``path``; a missing file, bad JSON or UTF-8, or any other JSON value is a ParseError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_select(args) -> int:
    doc = _load_config_doc(args.config)
    config = ExperimentConfig.from_dict(doc)
    config.seed = _seed(doc, args.seed)
    methods = [m for m in config.methods if args.method in (None, m["name"])]
    if not methods:
        raise ParseError(f"--method: {args.method!r} not present in config")
    config.methods = methods[:1]
    config.trials = 1
    result = run_experiment(config)
    if args.format == "csv":
        _emit(result.to_csv(), args.out)
    else:
        _emit(json.dumps({"row": result.rows[0].to_dict()}, indent=2), args.out)
    return 0


def _cmd_bench(args) -> int:
    doc = _load_config_doc(args.config)
    config = ExperimentConfig.from_dict(doc)
    config.seed = _seed(doc, args.seed)
    result = run_experiment(config)
    if args.out:
        base = Path(args.out)
        json_path = base if base.suffix == ".json" else base.with_suffix(".json")
        json_path.write_text(result.to_json())
        json_path.with_suffix(".csv").write_text(result.to_csv())
    else:
        sys.stdout.write(result.to_csv() if args.format == "csv" else result.to_json() + "\n")
    return 0


def _cmd_online(args) -> int:
    doc = _load_config_doc(args.config)
    online_cfg = _field(doc, "online", kind=dict)
    method = _choice(online_cfg, "method", "online", ONLINE_METHODS)
    smoothness = _field(online_cfg, "smoothness", "online", float, default=None)
    ground_set = build_ground_set(_field(doc, "ground_set", kind=dict))
    k = _dictionary_size(online_cfg, "online", ground_set.n)
    s = _field(online_cfg, "s", "online", low=1, high=k)
    seed = _seed(doc, args.seed)
    stream = build_dataset(_field(doc, "train", kind=dict), ground_set, [seed, 0], where="train")
    horizon = online_cfg.get("horizon", stream.num_points)
    if horizon is not None:  # null: the horizon is unknown
        _check(horizon, "online.horizon", low=1)
    state = online_state(method, ground_set, k, s, horizon=horizon, seed=seed, smoothness=smoothness)
    for t in range(stream.num_points):
        online_round(state, stream.matrix[:, t], ground_set)
    lines = ["round,player_gain,cumulative_player_gain"]
    running = 0.0
    for t, gain in enumerate(state.ledger.player_gains):
        running += gain
        lines.append(f"{t},{gain!r},{running!r}")
    _emit("\n".join(lines) + "\n", args.out)
    summary = {
        "method": method,
        "seed": seed,
        "rounds": state.rounds,
        "cumulative_player_gain": state.ledger.cumulative_player_gain,
        "gain_bound": state.gain_bound,
        "hindsight_regrets": [float(r) for r in expert_hindsight_regrets(state)],
    }
    sys.stderr.write(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    doc = _load_config_doc(args.config)
    ground_set = build_ground_set(_field(doc, "ground_set", kind=dict))
    seed = _seed(doc, args.seed)
    data = build_dataset(_field(doc, "train", kind=dict), ground_set, [seed, 0], where="train")
    constraint = build_constraint(_field(doc, "constraint", kind=dict), data.num_points, ground_set.n)
    k = _dictionary_size(doc, "", ground_set.n)
    value, atoms, supports = brute_force_optimum(data, ground_set, constraint, k)
    _emit(
        json.dumps(
            {"optimum": value, "atoms": list(atoms), "supports": supports}, indent=2
        ),
        args.out,
    )
    return 0


def _cmd_groundset(args) -> int:
    doc = _load_config_doc(args.config)
    ground_set = build_ground_set(_field(doc, "ground_set", kind=dict))
    info = {
        "d": ground_set.d,
        "n": ground_set.n,
        "coherence": coherence(ground_set),
        "blocks": sorted({name for name, _ in ground_set.labels}),
    }
    if args.out:
        data_io.save_ground_set(args.out, ground_set)
    sys.stdout.write(json.dumps(info, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dictsel", description="Dictionary-selection benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("select", _cmd_select),
        ("bench", _cmd_bench),
        ("online", _cmd_online),
        ("oracle", _cmd_oracle),
        ("groundset", _cmd_groundset),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=func)
    sub.choices["select"].add_argument("--method", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except DictselError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def entrypoint() -> None:
    sys.exit(main())
