import io
import itertools
import json
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsel import AverageSparsity, IndividualSparsity, cli, dct2_basis
from dictsel.cli import (
    ExperimentConfig,
    ExperimentResult,
    brute_force_optimum,
    build_constraint,
    build_dataset,
    build_ground_set,
    main,
    residual_variance,
    run_experiment,
)
from dictsel.data_io import Dataset, save_dataset, save_matrix, synth_dataset
from dictsel.errors import ParseError, TooLarge
from dictsel.offline import SelectorConfig, replacement_omp
from dictsel.online import online_round, online_state

from conftest import random_unit_atoms
from oracles import f_value


def test_residual_variance_exact_recovery():
    gs = dct2_basis(4)
    ds = synth_dataset(gs, 8, 5, 2, seed=0)
    dictionary = gs[:, ds.provenance["planted"]]
    assert residual_variance(dictionary, ds, 2) <= 1e-12


def test_residual_variance_empty_dictionary():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((6, 4))
    expected = float((y * y).sum()) / (4 * 6)
    assert residual_variance(np.zeros((6, 0)), y, 3) == pytest.approx(expected)
    assert residual_variance(np.zeros((6, 0)), y, 0) == pytest.approx(expected)


def test_planted_dictionary_beats_random():
    gs = dct2_basis(6)
    rng = np.random.default_rng(2)
    wins = 0
    for seed in range(20):
        ds = synth_dataset(gs, 12, 6, 3, seed=seed)
        planted = ds.provenance["planted"]
        random_atoms = rng.choice(36, size=6, replace=False)
        rv_planted = residual_variance(gs[:, planted], ds, 3)
        rv_random = residual_variance(gs[:, random_atoms], ds, 3)
        wins += rv_planted < rv_random
    assert wins == 20


def test_brute_force_trivial_full_representation():
    gs = dct2_basis(3)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((9, 2))
    value, atoms, supports = brute_force_optimum(y, gs[:, :4], IndividualSparsity(9), 4)
    # Four orthonormal atoms cannot span R^9; optimum is the projection mass.
    proj = gs[:, :4].T @ y
    assert value == pytest.approx(0.5 * float((proj * proj).sum()), abs=1e-9)
    assert atoms == (0, 1, 2, 3)


def test_brute_force_spanning_ground_set():
    # k = n and s = d: every point is represented exactly.
    gs = dct2_basis(2)
    rng = np.random.default_rng(30)
    y = rng.standard_normal((4, 3))
    value, _, _ = brute_force_optimum(y, gs, IndividualSparsity(4), 4)
    assert value == pytest.approx(0.5 * float((y * y).sum()), abs=1e-9)


def test_brute_force_matches_nested_loop_reimplementation():
    rng = np.random.default_rng(4)
    a = random_unit_atoms(rng, 5, 6)
    y = rng.standard_normal((5, 2))
    value, atoms, supports = brute_force_optimum(y, a, IndividualSparsity(1), 2)

    best = -np.inf
    for pair in itertools.combinations(range(6), 2):
        total = 0.0
        for t in range(2):
            total += max(f_value(a, [j], y[:, t]) for j in pair)
        best = max(best, total)
    assert value == pytest.approx(best, abs=1e-10)
    for t in range(2):
        assert set(supports[t]) <= set(atoms)


def test_brute_force_average_respects_budget():
    rng = np.random.default_rng(5)
    a = random_unit_atoms(rng, 6, 7)
    y = rng.standard_normal((6, 3))
    constraint = AverageSparsity((2, 2, 2), 4)
    value, atoms, supports = brute_force_optimum(y, a, constraint, 3)
    sizes = [len(z) for z in supports]
    assert all(size <= 2 for size in sizes)
    assert sum(sizes) <= 4
    # Exhaustive cross-check over all support tuples.
    best = 0.0
    options = []
    for t in range(3):
        opts = [()]
        for size in (1, 2):
            opts.extend(itertools.combinations(atoms, size))
        options.append(opts)
    for combo in itertools.product(*options):
        if sum(len(c) for c in combo) > 4:
            continue
        best = max(best, sum(f_value(a, c, y[:, t]) for t, c in enumerate(combo)))
    assert value == pytest.approx(best, abs=1e-10)


def test_brute_force_bounds_selectors():
    rng = np.random.default_rng(6)
    a = random_unit_atoms(rng, 6, 8)
    y = rng.standard_normal((6, 3))
    constraint = IndividualSparsity(2)
    opt, _, _ = brute_force_optimum(y, a, constraint, 3)
    state = replacement_omp(y, a, constraint, SelectorConfig(k=3))
    assert state.objective <= opt + 1e-9


def test_brute_force_guard():
    rng = np.random.default_rng(7)
    a = random_unit_atoms(rng, 8, 40)
    y = rng.standard_normal((8, 50))
    with pytest.raises(TooLarge):
        brute_force_optimum(y, a, IndividualSparsity(4), 12)


def base_config(trials=2, methods=None):
    return {
        "ground_set": {"bases": [{"name": "dct2", "side": 4}]},
        "train": {"kind": "synthetic", "T": 10, "k_planted": 4, "s": 2},
        "constraint": {"family": "individual", "s": 2},
        "methods": methods
        or [
            {"name": "replacement_omp", "k": 4},
            {"name": "modular_greedy", "k": 4},
        ],
        "trials": trials,
        "seed": 7,
    }


def test_run_experiment_cardinality_and_determinism():
    config = ExperimentConfig.from_dict(base_config())
    result = run_experiment(config)
    assert len(result.rows) == 4  # 2 trials x 2 methods
    again = run_experiment(ExperimentConfig.from_dict(base_config()))
    assert [r.objective for r in result.rows] == [r.objective for r in again.rows]
    assert all(r.test_residual_variance >= 0.0 for r in result.rows)


def test_result_round_trip_and_aggregates():
    result = run_experiment(ExperimentConfig.from_dict(base_config()))
    back = ExperimentResult.from_json(result.to_json())
    assert [r.to_dict() for r in back.rows] == [r.to_dict() for r in result.rows]
    for entry in result.aggregates():
        rows = [r for r in result.rows if r.method == entry["method"] and r.k == entry["k"]]
        values = np.array([r.objective for r in rows])
        assert entry["mean_objective"] == pytest.approx(float(values.mean()), abs=1e-12)
    csv_text = result.to_csv()
    assert csv_text.count("\n") == len(result.rows) + 1


def test_config_rejects_unknown_method():
    doc = base_config(methods=[{"name": "sparse_magic", "k": 3}])
    with pytest.raises(ParseError, match="methods\\[0\\].name"):
        ExperimentConfig.from_dict(doc)


def test_config_rejects_missing_fields():
    with pytest.raises(ParseError, match="train"):
        ExperimentConfig.from_dict({"ground_set": {}, "constraint": {}, "methods": [{}]})


def test_build_constraint_variants():
    c = build_constraint({"family": "average", "s_t": 2, "s_prime_per_point": 3}, 4, 16)
    assert isinstance(c, AverageSparsity)
    assert c.s_prime == 12
    with pytest.raises(ParseError, match="family"):
        build_constraint({"family": "nope"}, 4, 16)
    matroid = build_constraint(
        {"family": "partition_matroid", "rules": [[[[0, 1, 2], 1], [[3, 4], 2]]]}, 3, 16
    )
    assert len(matroid.rules) == 3
    assert matroid.independent(0, [0, 3, 4])
    assert not matroid.independent(0, [0, 1])
    block = build_constraint(
        {"family": "block", "blocks": [[0, 1], [2, 3]], "caps": [2, 1]}, 4, 16
    )
    assert block.caps == (2, 1)


def test_build_ground_set_unknown_basis():
    with pytest.raises(ParseError, match="bases\\[0\\]"):
        build_ground_set({"bases": [{"name": "fourier", "side": 4}]})


def test_blocks_of_another_d_are_config_errors(tmp_path):
    # d=16 against the first block's d=64, from a basis and from a CSV block.
    path = tmp_path / "small.csv"
    np.savetxt(path, dct2_basis(4), delimiter=",")
    with pytest.raises(ParseError, match=r"ground_set\.bases\[1\]\.side: .*d=16.*d=64"):
        build_ground_set({"bases": [{"name": "dct2", "side": 8}, {"name": "haar2", "side": 4}]})
    with pytest.raises(ParseError, match=r"ground_set\.csv_blocks\[0\]: .*d=16.*d=64"):
        build_ground_set({"bases": [{"name": "dct2", "side": 8}], "csv_blocks": [str(path)]})
    assert build_ground_set({"bases": [{"name": "dct2", "side": 4}], "csv_blocks": [str(path)]}).n == 32


def test_build_ground_set_load_is_exclusive(tmp_path):
    cfg = {"load": str(tmp_path / "saved.bin"), "bases": [{"name": "dct2", "side": 4}]}
    with pytest.raises(ParseError, match="load"):
        build_ground_set(cfg)
    with pytest.raises(ParseError, match="load"):
        build_ground_set({"load": cfg["load"], "csv_blocks": []})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"ground_set": cfg}))
    assert main(["groundset", "--config", str(cfg_path)]) == 2


def test_loaded_dataset_with_nonfinite_values_is_config_error(tmp_path):
    for bad in (np.nan, np.inf):
        y = np.random.default_rng(3).standard_normal((16, 10))
        y[2, 5] = bad
        path = tmp_path / "train.bin"
        save_dataset(path, Dataset(y, {"kind": "hand"}))
        with pytest.raises(ParseError, match="NaN or inf"):
            build_dataset({"kind": "load", "path": str(path)}, None, 0)
        doc = base_config()
        doc["train"] = {"kind": "load", "path": str(path)}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(cfg_path)]) == 2


def test_block_caps_must_cover_every_point(tmp_path):
    # Blocks over 2 of T = 10 points would leave 8 points unoptimized.
    cfg = {"family": "block", "blocks": [[0], [1]], "caps": [2, 2]}
    with pytest.raises(ParseError, match="partition"):
        build_constraint(cfg, 10, 16)
    with pytest.raises(ParseError, match="partition"):
        build_constraint({"family": "block", "blocks": [[0, 1], [1, 2]], "caps": [2, 2]}, 3, 16)
    doc = base_config()
    doc["constraint"] = cfg
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("methods", "k", 17),  # the dct2 4x4 ground set has n = 16 atoms
        ("methods", "k", True),
        ("train", "s", "abc"),
        ("train", "T", -1),
        ("train", "k_planted", 17),
        ("constraint", "s", "abc"),
        ("methods[1]", "s", "x"),  # methods[1] is modular_greedy
        ("methods[1]", "s", -1),
        ("methods[0]", "smoothness", True),
        ("methods[0]", "smoothness", float("nan")),
        ("", "test", 5),
        ("", "trials", 0),
        ("ground_set", "csv_blocks", [5]),
        ("constraint", "s", 2.7),
        ("constraint", "s", True),
        ("train", "T", 4.0),
        ("train", "s", 5),  # above k_planted = 4
    ],
)
def test_malformed_config_values_are_config_errors(tmp_path, capsys, section, field, value):
    doc = base_config()
    path = f"{'methods[0]' if section == 'methods' else section}.{field}".lstrip(".")
    set_field(doc, path, value)
    code, _, err = run_cli(tmp_path, capsys, "select", doc)
    assert_config_error(code, err, path)


@pytest.mark.parametrize("command", ["select", "online"])
@pytest.mark.parametrize("value", ["abc", -1])
def test_malformed_smoothness_is_a_config_error(tmp_path, capsys, command, value):
    doc = base_config(methods=[{"name": "replacement_omp", "k": 3, "smoothness": value}])
    doc["online"] = {"method": "online_replacement_omp", "k": 3, "s": 2, "smoothness": value}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg_path)]) == 2
    assert "smoothness" in capsys.readouterr().err


BLOCK_HALVES = {"family": "block", "blocks": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], "caps": [2, 2]}
MATROID = {"family": "partition_matroid"}


def online_section(**fields):
    """An ``online`` config section for replacement OMP with k = 3 and s = 2, updated by ``fields``."""
    return {"online": {"method": "online_replacement_omp", "k": 3, "s": 2, **fields}}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        pytest.param("online", online_section(k=2, s=3), "online.s", id="online-doc0"),
        pytest.param("online", online_section(horizon="abc"), "online.horizon", id="online-doc1"),
        pytest.param("oracle", {"k": 17}, "k: integer in 1..16", id="oracle-doc2"),
        pytest.param("online", online_section(k=True, s=True), "online.k", id="online-doc3"),
        pytest.param("oracle", {"k": True}, "k: integer in 1..16", id="oracle-doc4"),
        pytest.param("online", online_section(k=17), "online.k: integer in 1..16", id="online-k-above-n"),
        pytest.param("online", online_section(smoothness=True), "online.smoothness", id="online-smoothness-bool"),
        pytest.param(
            "select",
            {"constraint": BLOCK_HALVES, "methods": [{"name": "replacement_omp", "k": 4, "s": "x"}]},
            "methods[0].s",
            id="select-evaluation-s",
        ),
        pytest.param(
            "select", {"test": {"kind": "synthetic", "T": 3, "k_planted": 4, "s": "x"}}, "test.s", id="test-s"
        ),
        pytest.param("select", {"train": {"kind": "load", "path": 5}}, "train.path", id="train-path-int"),
        pytest.param(
            "select", {"train": {"kind": "patches", "image": "a.pgm", "T": 2, "side": 0}}, "train.side", id="patch-side"
        ),
        pytest.param("groundset", {"ground_set": {"load": 5}}, "ground_set.load", id="ground-set-load-int"),
        pytest.param(
            "select",
            {
                "train": {"kind": "synthetic", "T": 6, "k_planted": 4, "s": 2},
                "constraint": {**MATROID, "rules": [[[[0, 1], 1]]] * 4},
            },
            "constraint.rules: 1 or T = 6 rules",
            id="matroid-rule-count",
        ),
        pytest.param(
            "select",
            {"constraint": {**MATROID, "rules": [[[[0, 99], 1]]]}},
            "constraint.rules[0][0][0][1]",
            id="matroid-atom-above-n",
        ),
        pytest.param(
            "select",
            {"constraint": {**MATROID, "rules": [[[[0, 1], 1], [[1, 2], 1]]]}},
            "constraint.rules: rule 0",
            id="matroid-overlap",
        ),
        pytest.param(
            "select",
            {"constraint": {"family": "average", "s_t": [1.5] + [2] * 9, "s_prime": 10}},
            "constraint.s_t[0]",
            id="average-float-cap",
        ),
        pytest.param(
            "select",
            {"constraint": {**BLOCK_HALVES, "caps": [2]}},
            "constraint.caps",
            id="block-cap-count",
        ),
    ],
)
def test_online_and_oracle_values_are_config_errors(tmp_path, capsys, command, doc, field):
    code, _, err = run_cli(tmp_path, capsys, command, {**base_config(), **doc})
    assert_config_error(code, err, field)


@pytest.mark.parametrize("command", ["select", "bench"])
@pytest.mark.parametrize(
    "constraint", [BLOCK_HALVES, {"family": "average", "s_t": 2, "s_prime": 15}], ids=["block", "average"]
)
def test_greedy_under_a_coupled_family_is_a_config_error(tmp_path, capsys, monkeypatch, command, constraint):
    # The config names the pairing, so no trial runs, not even the method before it.
    ran = []
    monkeypatch.setattr(cli, "run_selector", lambda method, *args: ran.append(method))
    methods = [{"name": "replacement_omp", "k": 3}, {"name": "replacement_greedy", "k": 3}]
    flags = ("--method", "replacement_greedy") if command == "select" else ()
    doc = {**base_config(methods=methods), "constraint": constraint}
    code, _, err = run_cli(tmp_path, capsys, command, doc, *flags)
    assert_config_error(code, err, "methods[1].name")
    assert ran == []


def set_field(doc, path, value):
    """Set the config field at ``path``, such as ``ground_set.bases[0].side``; an index picks a list item."""
    *parents, last = (int(token) if token.isdigit() else token for token in re.findall(r"[^.\[\]]+", path))
    for token in parents:
        doc = doc[token]
    doc[last] = value


def every_command_config(seed=None):
    """A config that select, bench, online and oracle all accept, with ``seed`` (absent if None)."""
    doc = base_config(trials=1, methods=[{"name": "replacement_omp", "k": 3}])
    doc["train"]["T"] = 4
    doc["online"] = {"method": "online_replacement_omp", "k": 3, "s": 2}
    doc["k"] = 2
    del doc["seed"]
    if seed is not None:
        doc["seed"] = seed
    return doc


def run_cli(tmp_path, capsys, command, doc, *flags):
    """Exit code, stdout and stderr of one CLI call on the config ``doc``."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfg_path), *flags])
    out, err = capsys.readouterr()
    return code, out, err


def assert_config_error(code, err, field):
    assert code == 2
    assert err.startswith("config error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["select", "bench", "online", "oracle"])
@pytest.mark.parametrize(
    "seed, flags", [("abc", ()), ([1], ()), (-1, ()), (1.5, ()), (True, ()), (0, ("--seed", "-1"))]
)
def test_malformed_seed_is_a_config_error(tmp_path, capsys, command, seed, flags):
    code, _, err = run_cli(tmp_path, capsys, command, every_command_config(seed), *flags)
    assert_config_error(code, err, "seed")


@pytest.mark.parametrize("command", ["select", "bench", "online", "oracle", "groundset"])
@pytest.mark.parametrize("doc", [[every_command_config()], "config", 3, None])
def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys, command, doc):
    code, _, err = run_cli(tmp_path, capsys, command, doc)
    assert_config_error(code, err, "expected a JSON object")


@pytest.mark.parametrize("command", ["select", "bench", "online", "oracle", "groundset"])
@pytest.mark.parametrize(
    "bases, field",
    [
        ([1], "bases[0]"),
        ([{"name": "dct2", "side": 4}, "haar2"], "bases[1]"),
        (5, "bases"),
        ([{"name": "dct2", "side": "x"}], "ground_set.bases[0].side"),
        ([{"name": "dct2", "side": 0}], "ground_set.bases[0].side"),
        ([{"name": "dct2", "side": 3.0}], "ground_set.bases[0].side"),
        ([{"name": "dct2", "side": 4}, {"name": "haar2", "side": 6}], "ground_set.bases[1].side"),
        ([{"name": "fourier", "side": 4}], "ground_set.bases[0].name"),
        ([{"name": "dct2", "side": 4}, {"name": "haar2", "side": 8}], "ground_set.bases[1].side"),
    ],
)
def test_malformed_bases_are_config_errors(tmp_path, capsys, command, bases, field):
    doc = every_command_config()
    doc["ground_set"] = {"bases": bases}
    code, _, err = run_cli(tmp_path, capsys, command, doc)
    assert_config_error(code, err, field)


@pytest.mark.parametrize(
    "command, section, blob, meta, message",
    [
        ("select", "train", b"DMAT\x01\x00", None, "truncated header"),
        ("groundset", "ground_set", b"DMAT\x01\x00", None, "truncated header"),
        ("select", "train", None, {"schema_version": 1, "normalized": False}, "missing field provenance"),
        ("select", "train", None, [1], "expected a JSON object"),
        ("groundset", "ground_set", None, {"schema_version": 1, "labels": [["a"]] * 16}, "labels"),
        ("groundset", "ground_set", None, {"schema_version": 1, "labels": [["a", 0]]}, "labels"),
    ],
)
def test_malformed_data_files_are_config_errors(tmp_path, capsys, command, section, blob, meta, message):
    path = tmp_path / "saved.bin"
    if blob is None:
        save_matrix(path, dct2_basis(4))
    else:
        path.write_bytes(blob)
    if meta is not None:
        (tmp_path / "saved.bin.meta.json").write_text(json.dumps(meta))
    doc = every_command_config()
    doc[section] = {"kind": "load", "path": str(path)} if section == "train" else {"load": str(path)}
    code, _, err = run_cli(tmp_path, capsys, command, doc)
    assert_config_error(code, err, message)
    assert str(path) in err


@pytest.mark.parametrize("command", ["select", "bench", "online", "oracle", "groundset"])
def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b"\xff\xfe{}")
    code = main([command, "--config", str(cfg_path)])
    assert_config_error(code, capsys.readouterr().err, str(cfg_path))


def invalid_values(kind, low=None, high=None):
    """Values of another type than ``kind`` (null and bools included), or integers outside ``low..high``."""
    others = {
        int: st.integers(-3, 40),
        float: st.floats(),
        str: st.text(max_size=3),
        list: st.lists(st.integers(-2, 20), max_size=2),
        dict: st.dictionaries(st.text(max_size=2), st.integers(-2, 20), max_size=1),
    }
    options = [st.none(), st.booleans(), *(values for other, values in others.items() if other is not kind)]
    if kind is int:
        options.append(st.integers(max_value=low - 1))
        if high is not None:
            options.append(st.integers(high + 1, high + 3))
    if kind is float:
        options.append(st.floats(max_value=0.0))
    return st.one_of(options)


# (path, kind, low, high) of the fields of every_command_config that a command reads; the
# config has n = 16 atoms, T = 4 points, k_planted = 4, methods[0].k = 3 and online k = 3.
GROUND_SET_FIELDS = [
    ("ground_set", dict, None, None),
    ("ground_set.bases", list, None, None),
    ("ground_set.bases[0]", dict, None, None),
    ("ground_set.bases[0].name", str, None, None),
    ("ground_set.bases[0].side", int, 2, None),
]
DATA_FIELDS = [
    ("train", dict, None, None),
    ("train.kind", str, None, None),
    ("train.T", int, 1, None),
    ("train.k_planted", int, 0, 16),
    ("train.s", int, 0, 4),
    ("seed", int, 0, None),
]
FUZZ_CASES = (
    [("groundset", *case) for case in GROUND_SET_FIELDS]
    + [("groundset", "ground_set.csv_blocks", list, None, None), ("groundset", "ground_set.load", str, None, None)]
    + [
        ("select", *case)
        for case in GROUND_SET_FIELDS
        + DATA_FIELDS
        + [
            ("constraint", dict, None, None),
            ("constraint.family", str, None, None),
            ("constraint.s", int, 0, None),
            ("methods", list, None, None),
            ("methods[0]", dict, None, None),
            ("methods[0].name", str, None, None),
            ("methods[0].k", int, 1, 16),
            ("methods[0].s", int, 0, None),
            ("methods[0].smoothness", float, None, None),
            ("trials", int, 1, None),
            ("test", dict, None, None),
        ]
    ]
    + [
        ("online", *case)
        for case in GROUND_SET_FIELDS
        + DATA_FIELDS
        + [
            ("online", dict, None, None),
            ("online.method", str, None, None),
            ("online.k", int, 1, 16),
            ("online.s", int, 1, 3),
            ("online.horizon", int, 1, None),
            ("online.smoothness", float, None, None),
        ]
    ]
)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES), data=st.data())
def test_one_invalid_config_field_never_escapes_main(case, data):
    command, path, kind, low, high = case
    doc = every_command_config()
    set_field(doc, path, data.draw(invalid_values(kind, low, high), label=path))
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(doc))
        code = main([command, "--config", str(cfg_path)])
    assert code in (0, 2, 3), err.getvalue()
    assert code == 0 or err.getvalue().startswith(("config error:", "error:"))


def seeded_values(command, out):
    """The seed-dependent numbers of one command's stdout, without wall times."""
    if command == "select":
        rows = [json.loads(out)["row"]]
    elif command == "bench":
        rows = json.loads(out)["rows"]
    elif command == "online":
        return [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    else:
        payload = json.loads(out)
        return [payload["optimum"], payload["atoms"], payload["supports"]]
    return [{key: value for key, value in row.items() if key != "seconds"} for row in rows]


def library_values(command, doc, seed):
    """``seeded_values`` of a command, computed by the library calls it makes with ``seed``."""
    ground_set = build_ground_set(doc["ground_set"])
    if command in ("select", "bench"):
        config = ExperimentConfig(doc["ground_set"], doc["train"], doc["constraint"], doc["methods"], seed=seed)
        return [{key: value for key, value in row.to_dict().items() if key != "seconds"}
                for row in run_experiment(config).rows]
    data = build_dataset(doc["train"], ground_set, [seed, 0])
    if command == "online":
        online = doc["online"]
        state = online_state(online["method"], ground_set, online["k"], online["s"], horizon=data.num_points, seed=seed)
        for t in range(data.num_points):
            online_round(state, data.matrix[:, t], ground_set)
        return list(state.ledger.player_gains)
    constraint = build_constraint(doc["constraint"], data.num_points, ground_set.n)
    value, atoms, supports = brute_force_optimum(data, ground_set, constraint, doc["k"])
    return json.loads(json.dumps([value, list(atoms), supports]))


@pytest.mark.parametrize("command", ["select", "bench", "online", "oracle"])
@pytest.mark.parametrize("seed, flags, used", [(None, (), 0), (0, (), 0), (7, (), 7), (7, ("--seed", "3"), 3)])
def test_valid_seeds_drive_every_command(tmp_path, capsys, command, seed, flags, used):
    doc = every_command_config(seed)
    code, out, err = run_cli(tmp_path, capsys, command, doc, *flags)
    assert code == 0, err
    assert seeded_values(command, out) == library_values(command, doc, used)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_data_raises_value_error(bad):
    gs = dct2_basis(4)
    y = synth_dataset(gs, 10, 5, 2, seed=0).matrix
    y[3, 4] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        replacement_omp(y, gs, IndividualSparsity(2), SelectorConfig(k=3))
    with pytest.raises(ValueError, match="infs or NaNs"):
        residual_variance(gs[:, :5], y, 2)


def test_cli_bench_and_select(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config()))
    out = tmp_path / "result.json"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 4
    assert out.with_suffix(".csv").exists()

    sel_out = tmp_path / "select.json"
    code = main(
        ["select", "--config", str(cfg_path), "--method", "modular_greedy", "--out", str(sel_out)]
    )
    assert code == 0
    assert json.loads(sel_out.read_text())["row"]["method"] == "modular_greedy"


def test_cli_oracle(tmp_path):
    doc = base_config()
    doc["train"]["T"] = 3
    doc["k"] = 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["optimum"] > 0.0
    assert len(payload["atoms"]) == 2


def test_cli_online(tmp_path):
    doc = base_config()
    doc["online"] = {"method": "online_replacement_omp", "k": 4, "s": 2, "horizon": 10}
    doc["train"]["T"] = 10
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "ledger.csv"
    assert main(["online", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "round,player_gain,cumulative_player_gain"
    assert len(lines) == 11


def test_cli_groundset(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"ground_set": {"bases": [{"name": "haar2", "side": 4}]}}))
    assert main(["groundset", "--config", str(cfg_path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert (info["d"], info["n"]) == (16, 16)


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["bench", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ground_set": {}, "train": {}, "constraint": {}, "methods": [{"name": "x", "k": 1}]}))
    assert main(["bench", "--config", str(bad)]) == 2
    # Runtime error: oracle beyond the guard.
    big = base_config()
    big["train"] = {"kind": "synthetic", "T": 40, "k_planted": 10, "s": 3}
    big["ground_set"] = {"bases": [{"name": "dct2", "side": 8}]}
    big["k"] = 10
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(big))
    assert main(["oracle", "--config", str(cfg)]) == 3


def test_romp_runtime_scales_linearly_in_data_count():
    # Doubling T should roughly double the per-run wall time.  The sizes run
    # in interleaved pairs, alternating which goes first, so a drift in
    # machine speed moves both runs of a pair alike; the median ratio decides.
    rng = np.random.default_rng(8)
    a = random_unit_atoms(rng, 32, 64)
    constraint = IndividualSparsity(3)
    config = SelectorConfig(k=8)
    data = {t_count: rng.standard_normal((32, t_count)) for t_count in (400, 800)}

    def run_time(t_count):
        start = time.perf_counter()
        replacement_omp(data[t_count], a, constraint, config)
        return time.perf_counter() - start

    run_time(400)  # warm-up
    ratios = []
    for pair in range(9):
        order = (400, 800) if pair % 2 == 0 else (800, 400)
        times = {t_count: run_time(t_count) for t_count in order}
        ratios.append(times[800] / times[400])
    assert 1.5 <= float(np.median(ratios)) <= 3.0
