import json

import numpy as np
import pytest

from dictsel import assemble, dct2_basis, haar2_basis, ls_solve
from dictsel.data_io import (
    extract_patches,
    load_dataset,
    load_ground_set,
    load_matrix,
    load_matrix_csv,
    read_pgm,
    save_dataset,
    save_ground_set,
    save_matrix,
    save_matrix_csv,
    synth_dataset,
)
from dictsel.errors import InsufficientPatches, ParseError, SchemaVersionMismatch

from oracles import extract_patches_reference, synth_dataset_reference


def test_synth_zero_sparsity_gives_zeros():
    ds = synth_dataset(dct2_basis(4), 5, k_planted=3, s=0, seed=0)
    assert not ds.matrix.any()


def test_synth_deterministic():
    gs = assemble([("dct2", dct2_basis(4))])
    a = synth_dataset(gs, 7, 4, 2, seed=123)
    b = synth_dataset(gs, 7, 4, 2, seed=123)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.provenance == b.provenance
    c = synth_dataset(gs, 7, 4, 2, seed=124)
    assert not np.array_equal(a.matrix, c.matrix)


def test_synth_points_lie_in_planted_span():
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    ds = synth_dataset(gs, 10, 5, 3, seed=7)
    planted = ds.provenance["planted"]
    for t in range(10):
        y = ds.matrix[:, t]
        w = ls_solve(gs, planted, y)
        assert float(np.linalg.norm(y - gs.matrix @ w)) <= 1e-10


def test_synth_planted_override():
    gs = assemble([("dct2", dct2_basis(4))])
    ds = synth_dataset(gs, 4, 3, 2, seed=1, planted=[2, 5, 9])
    assert ds.provenance["planted"] == [2, 5, 9]


GROUND_SETS = {
    "dct4": assemble([("dct2", dct2_basis(4))]),
    "dct_haar8": assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))]),
}


@pytest.mark.parametrize("s", [0, 1, 2, 3, 5, 8])
@pytest.mark.parametrize("basis", sorted(GROUND_SETS))
def test_synth_matches_the_per_point_products_bitwise(basis, s):
    # 300 points span several product blocks at every s > 1 (one at DCT 4x4, s = 1).
    gs = GROUND_SETS[basis]
    for num_points in (0, 1, 7, 300):
        for seed in (5, [5, 1, 2]):
            for planted in (None, [0, 3, 4, 6, 9, 11, 12, 13, 14, 15]):
                ds = synth_dataset(gs, num_points, 10, s, seed, planted=planted)
                matrix, provenance = synth_dataset_reference(gs, num_points, 10, s, seed, planted=planted)
                assert ds.matrix.dtype == np.float64 and ds.matrix.flags.c_contiguous
                assert ds.matrix.shape == matrix.shape and ds.matrix.tobytes() == matrix.tobytes()
                assert ds.provenance == provenance


@pytest.mark.parametrize("side", [3, 5, 8, 16])
def test_extract_patches_matches_the_per_tile_loop_bitwise(side):
    # A constant corner holds tiles the variance filter drops, whole or in part.
    image = np.random.default_rng(6).uniform(0, 255, size=(96, 128))
    image[:32, :40] = 7.0
    num_patches = 40 if side == 16 else 100
    ds = extract_patches(image, num_patches, side=side, seed=8)
    expected = extract_patches_reference(image, num_patches, side, 8)
    assert ds.matrix.flags.c_contiguous
    assert ds.matrix.shape == expected.shape and ds.matrix.tobytes() == expected.tobytes()


def test_extract_patches_rejects_constant_image():
    with pytest.raises(InsufficientPatches):
        extract_patches(np.ones((16, 16)), 1, side=8)


@pytest.mark.parametrize("side", [0, -2])
def test_extract_patches_rejects_nonpositive_side(side):
    with pytest.raises(ValueError, match="side must be positive"):
        extract_patches(np.ones((16, 16)), 1, side)


def test_extract_patches_tiling_count():
    rng = np.random.default_rng(1)
    image = rng.uniform(0, 255, size=(16, 16))
    ds = extract_patches(image, 4, side=8, seed=0)
    assert ds.matrix.shape == (64, 4)
    with pytest.raises(InsufficientPatches):
        extract_patches(image, 5, side=8)


def test_extract_patches_normalization():
    rng = np.random.default_rng(2)
    image = rng.uniform(0, 255, size=(32, 24))
    ds = extract_patches(image, 6, side=8, seed=3)
    assert ds.normalized
    means = ds.matrix.mean(axis=0)
    variances = ds.matrix.var(axis=0)
    assert np.abs(means).max() <= 1e-9
    assert np.abs(variances - 1.0).max() <= 1e-6


def test_patch_normalization_idempotent():
    rng = np.random.default_rng(3)
    image = rng.uniform(0, 255, size=(24, 24))
    ds = extract_patches(image, 4, side=8, seed=4)
    again = ds.matrix - ds.matrix.mean(axis=0)
    again /= again.std(axis=0)
    assert np.abs(again - ds.matrix).max() <= 1e-9


def test_extract_patches_vectorization_row_major():
    image = np.arange(64, dtype=float).reshape(8, 8)
    image[0, 0] = 100.0  # break constancy
    ds = extract_patches(image, 1, side=8, seed=0)
    raw = image.reshape(-1)
    expected = (raw - raw.mean()) / raw.std()
    assert np.abs(ds.matrix[:, 0] - expected).max() <= 1e-12


def test_matrix_binary_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((9, 5))
    path = tmp_path / "m.bin"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)


def test_matrix_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(ParseError):
        load_matrix(path)


def test_matrix_binary_bad_version(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "m.bin"
    save_matrix(path, rng.standard_normal((2, 2)))
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(SchemaVersionMismatch):
        load_matrix(path)


@pytest.mark.parametrize("blob", [b"DMAT", b"DMAT\x01\x00", b"DMAT\x01" + bytes(15)])
def test_matrix_binary_truncated_header(tmp_path, blob):
    path = tmp_path / "short.bin"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match="truncated header"):
        load_matrix(path)


def test_matrix_binary_negative_shape(tmp_path):
    path = tmp_path / "m.bin"
    save_matrix(path, np.ones((1, 1)))
    blob = bytearray(path.read_bytes())
    blob[5:21] = np.array([-1, -1], dtype="<i8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="expected 1"):
        load_matrix(path)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    m = rng.standard_normal((4, 7))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, m)
    assert np.abs(load_matrix_csv(path) - m).max() <= 1e-12


def test_matrix_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_matrix_csv(path)


def test_dataset_round_trip(tmp_path):
    gs = assemble([("dct2", dct2_basis(4))])
    ds = synth_dataset(gs, 6, 4, 2, seed=11)
    path = tmp_path / "data.bin"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert np.array_equal(back.matrix, ds.matrix)
    assert back.provenance == ds.provenance
    assert back.normalized == ds.normalized


def test_dataset_load_without_sidecar(tmp_path):
    m = np.random.default_rng(7).standard_normal((3, 3))
    path = tmp_path / "raw.bin"
    save_matrix(path, m)
    ds = load_dataset(path)
    assert ds.provenance["kind"] == "loaded"


@pytest.mark.parametrize(
    "meta, match",
    [
        ({"schema_version": 1, "normalized": False}, "provenance"),
        ({"schema_version": 1, "provenance": {}}, "normalized"),
        ({"schema_version": 1, "provenance": [], "normalized": False}, "provenance"),
        ([1, 2], "JSON object"),
        ("{", "Expecting"),
    ],
)
def test_malformed_dataset_sidecar_is_parse_error(tmp_path, meta, match):
    path = tmp_path / "data.bin"
    save_matrix(path, np.ones((2, 3)))
    sidecar = tmp_path / "data.bin.meta.json"
    sidecar.write_text(meta if isinstance(meta, str) else json.dumps(meta))
    with pytest.raises(ParseError, match=match):
        load_dataset(path)
    sidecar.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError, match="meta.json"):
        load_dataset(path)


@pytest.mark.parametrize(
    "labels",
    [[["a"]] * 4, [["a", 0]], [["a", 0]] * 5, [["a", "0"]] * 4, [[0, 0]] * 4, [["a", True]] * 4, {"a": 0}],
)
def test_malformed_ground_set_labels_are_parse_errors(tmp_path, labels):
    path = tmp_path / "gs.bin"
    save_matrix(path, dct2_basis(2))
    (tmp_path / "gs.bin.meta.json").write_text(json.dumps({"schema_version": 1, "labels": labels}))
    with pytest.raises(ParseError, match="labels"):
        load_ground_set(path)


def test_ground_set_labels_split_blocks_by_name(tmp_path):
    path = tmp_path / "gs.bin"
    save_matrix(path, np.hstack([dct2_basis(2), haar2_basis(2)]))
    labels = [["x", 0], ["x", 1], ["y", 0], ["y", 1], ["y", 2], ["y", 3], ["x", 0], ["x", 1]]
    (tmp_path / "gs.bin.meta.json").write_text(json.dumps({"schema_version": 1, "labels": labels}))
    expected = [(name, j) for name, width in (("x", 2), ("y", 4), ("x", 2)) for j in range(width)]
    assert load_ground_set(path).labels == expected


def test_ground_set_round_trip(tmp_path):
    gs = assemble([("dct2", dct2_basis(4)), ("haar2", haar2_basis(4))])
    path = tmp_path / "gs.bin"
    save_ground_set(path, gs)
    back = load_ground_set(path)
    assert np.array_equal(back.matrix, gs.matrix)
    assert back.labels == gs.labels


def test_read_pgm(tmp_path):
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# comment\n12 10\n255\n")
        fh.write(pixels.tobytes())
    img = read_pgm(path)
    assert img.shape == (10, 12)
    assert np.array_equal(img, pixels.astype(float))


def test_read_pgm_rejects_ascii(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ParseError):
        read_pgm(path)
