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
from .errors import DictselError, ParseError, TooLarge
from .groundset import GroundSet, assemble, dct2_basis, haar2_basis, load_atom_block
from .linalg import atom_matrix, coherence, resolve_smoothness
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
        _require(doc, "ground_set", dict)
        _require(doc, "train", dict)
        _require(doc, "constraint", dict)
        methods = _require(doc, "methods", list)
        if not methods:
            raise ParseError("methods: at least one method required")
        for i, method in enumerate(methods):
            if not isinstance(method, dict):
                raise ParseError(f"methods[{i}]: expected an object")
            name = method.get("name")
            if name not in OFFLINE_METHODS:
                raise ParseError(f"methods[{i}].name: unknown method {name!r}")
            k = method.get("k")
            if not isinstance(k, int) or k < 1:
                raise ParseError(f"methods[{i}].k: positive integer required")
            _check_smoothness(method, f"methods[{i}]")
        trials = doc.get("trials", 1)
        if not isinstance(trials, int) or trials < 1:
            raise ParseError("trials: positive integer required")
        return ExperimentConfig(
            ground_set=doc["ground_set"],
            train=doc["train"],
            constraint=doc["constraint"],
            methods=methods,
            test=doc.get("test"),
            trials=trials,
            seed=int(doc.get("seed", 0)),
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


def _check_smoothness(section: dict, key: str) -> None:
    """A ParseError unless the section's optional ``smoothness`` is a finite positive number."""
    if section.get("smoothness") is not None:
        try:
            resolve_smoothness(None, section["smoothness"])
        except ValueError as exc:
            raise ParseError(f"{key}.smoothness: {exc}") from exc


def _require(doc, key, kind):
    if key not in doc:
        raise ParseError(f"{key}: missing required field")
    if not isinstance(doc[key], kind):
        raise ParseError(f"{key}: expected {kind.__name__}")
    return doc[key]


def build_ground_set(cfg: dict) -> GroundSet:
    """Instantiate a ground set from its config fragment (``load`` excludes the others)."""
    if "load" in cfg:
        if "bases" in cfg or "csv_blocks" in cfg:
            raise ParseError("ground_set: 'load' excludes 'bases' and 'csv_blocks'")
        return data_io.load_ground_set(cfg["load"])
    blocks = []
    for i, basis in enumerate(cfg.get("bases", [])):
        name = basis.get("name")
        side = basis.get("side", 8)
        if name == "dct2":
            blocks.append((f"dct2:{side}", dct2_basis(side)))
        elif name == "haar2":
            blocks.append((f"haar2:{side}", haar2_basis(side)))
        else:
            raise ParseError(f"ground_set.bases[{i}].name: unknown basis {name!r}")
    for path in cfg.get("csv_blocks", []):
        blocks.append((Path(path).stem, load_atom_block(path)))
    if not blocks:
        raise ParseError("ground_set: no bases or csv_blocks given")
    return assemble(blocks)


def _dataset_int(cfg: dict, key: str, minimum: int) -> int:
    """The integer ``cfg[key]`` of a dataset config, at least ``minimum``."""
    if key not in cfg:
        raise ParseError(f"dataset.{key}: missing required field")
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ParseError(f"dataset.{key}: integer >= {minimum} required, got {value!r}")
    return value


def _synthetic_sizes(cfg: dict, n: int) -> tuple[int, int, int]:
    """T, k_planted and s of a synthetic dataset config over ``n`` atoms."""
    t_count = _dataset_int(cfg, "T", 1)
    k_planted = _dataset_int(cfg, "k_planted", 0)
    s = _dataset_int(cfg, "s", 0)
    if not s <= k_planted <= n:
        raise ParseError(f"dataset: need s <= k_planted <= n = {n}, got s = {s} and k_planted = {k_planted}")
    return t_count, k_planted, s


def build_dataset(cfg: dict, ground_set, seed, planted=None) -> data_io.Dataset:
    kind = cfg.get("kind")
    if kind == "synthetic":
        t_count, k_planted, s = _synthetic_sizes(cfg, atom_matrix(ground_set).shape[1])
        return data_io.synth_dataset(ground_set, t_count, k_planted, s, seed, planted=planted)
    if kind == "patches":
        if "image" not in cfg:
            raise ParseError("dataset: patches needs 'image' and 'T'")
        t_count = _dataset_int(cfg, "T", 1)
        image = data_io.read_pgm(cfg["image"])
        return data_io.extract_patches(image, t_count, cfg.get("side", 8), seed)
    if kind == "load":
        if "path" not in cfg:
            raise ParseError("dataset.path: missing required field")
        dataset = data_io.load_dataset(cfg["path"])
        if not np.isfinite(dataset.matrix).all():
            raise ParseError(f"dataset.path: {cfg['path']} holds NaN or inf values")
        return dataset
    raise ParseError(f"dataset.kind: unknown kind {kind!r}")


def build_constraint(cfg: dict, t_count: int):
    """The sparsity family of a constraint config; a malformed value is a ParseError."""
    try:
        return _constraint_from(cfg, t_count)
    except (TypeError, ValueError) as exc:
        # int() of a non-number, or a family constructor rejecting a value.
        raise ParseError(f"constraint: {exc}") from exc


def _constraint_from(cfg: dict, t_count: int):
    family = cfg.get("family")
    if family == "individual":
        if "s" not in cfg:
            raise ParseError("constraint.s: missing required field")
        return IndividualSparsity(int(cfg["s"]))
    if family == "average":
        s_t = cfg.get("s_t")
        if s_t is None:
            raise ParseError("constraint.s_t: missing required field")
        caps = tuple(s_t) if isinstance(s_t, list) else (int(s_t),) * t_count
        if len(caps) != t_count:
            raise ParseError("constraint.s_t: length must match T")
        if "s_prime" in cfg:
            s_prime = int(cfg["s_prime"])
        elif "s_prime_per_point" in cfg:
            s_prime = int(cfg["s_prime_per_point"]) * t_count
        else:
            raise ParseError("constraint: need s_prime or s_prime_per_point")
        return AverageSparsity(caps, s_prime)
    if family == "block":
        if "blocks" not in cfg or "caps" not in cfg:
            raise ParseError("constraint: block needs 'blocks' and 'caps'")
        blocks = tuple(tuple(int(t) for t in b) for b in cfg["blocks"])
        if sorted(t for b in blocks for t in b) != list(range(t_count)):
            raise ParseError(f"constraint.blocks: blocks must partition the T = {t_count} points")
        return BlockSparsity(blocks, tuple(int(c) for c in cfg["caps"]))
    if family == "partition_matroid":
        if "rules" not in cfg:
            raise ParseError("constraint.rules: missing required field")
        rules = tuple(
            tuple((frozenset(int(x) for x in cat), int(cap)) for cat, cap in rule)
            for rule in cfg["rules"]
        )
        if len(rules) == 1 and t_count > 1:
            rules = rules * t_count
        return PartitionMatroid(rules)
    raise ParseError(f"constraint.family: unknown family {family!r}")


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
    return method.get("s", 1)


def _run_trial(config: ExperimentConfig, ground_set, trial: int) -> list[TrialRow]:
    rng = np.random.default_rng([config.seed, trial])
    planted = None
    if config.train.get("kind") == "synthetic":
        # Train and test share the planted dictionary within a trial.
        _, k_planted, _ = _synthetic_sizes(config.train, ground_set.n)
        planted = np.sort(rng.choice(ground_set.n, size=k_planted, replace=False))
    train = build_dataset(config.train, ground_set, [config.seed, trial, 0], planted)
    test_cfg = config.test if config.test is not None else config.train
    test_planted = planted if test_cfg.get("kind") == "synthetic" else None
    if test_cfg.get("kind") == "synthetic" and test_cfg.get("k_planted") != config.train.get("k_planted"):
        test_planted = None
    test = build_dataset(test_cfg, ground_set, [config.seed, trial, 1], test_planted)
    constraint = build_constraint(config.constraint, train.num_points)
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
        if method["k"] > ground_set.n:
            raise ParseError(f"methods[{i}].k: {method['k']} exceeds the n = {ground_set.n} atoms")
    result = ExperimentResult(config.to_dict())
    for trial in range(config.trials):
        result.rows.extend(_run_trial(config, ground_set, trial))
    return result


# ---------------------------------------------------------------------------
# Command-line interface


def _load_config_doc(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_select(args) -> int:
    doc = _load_config_doc(args.config)
    config = ExperimentConfig.from_dict(doc)
    if args.seed is not None:
        config.seed = args.seed
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
    config = ExperimentConfig.from_dict(_load_config_doc(args.config))
    if args.seed is not None:
        config.seed = args.seed
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
    online_cfg = doc.get("online")
    if not isinstance(online_cfg, dict):
        raise ParseError("online: missing required section")
    method = online_cfg.get("method")
    if method not in ONLINE_METHODS:
        raise ParseError(f"online.method: unknown method {method!r}")
    for key in ("k", "s"):
        if key not in online_cfg:
            raise ParseError(f"online.{key}: missing required field")
    k, s = online_cfg["k"], online_cfg["s"]
    if not (isinstance(k, int) and isinstance(s, int) and 1 <= s <= k):
        raise ParseError(f"online: need integers 1 <= s <= k, got s = {s!r} and k = {k!r}")
    _check_smoothness(online_cfg, "online")
    ground_set = build_ground_set(_require(doc, "ground_set", dict))
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    stream = build_dataset(_require(doc, "train", dict), ground_set, [seed, 0])
    horizon = online_cfg.get("horizon", stream.num_points)
    if horizon is not None and (isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1):
        raise ParseError(f"online.horizon: positive integer or null required, got {horizon!r}")
    state = online_state(
        method,
        ground_set,
        k,
        s,
        horizon=horizon,
        seed=seed,
        smoothness=online_cfg.get("smoothness"),
    )
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
    ground_set = build_ground_set(_require(doc, "ground_set", dict))
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    data = build_dataset(_require(doc, "train", dict), ground_set, [seed, 0])
    constraint = build_constraint(_require(doc, "constraint", dict), data.num_points)
    k = doc.get("k")
    if not isinstance(k, int) or not 1 <= k <= ground_set.n:
        raise ParseError(f"k: integer in 1..{ground_set.n} required")
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
    ground_set = build_ground_set(_require(doc, "ground_set", dict))
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
