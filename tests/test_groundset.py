import numpy as np
import pytest

from dictsel import assemble, coherence, dct2_basis, haar2_basis, load_atom_block
from dictsel.data_io import save_matrix_csv
from dictsel.errors import DimensionMismatch, InvalidGroundSet, InvalidSide

from conftest import random_unit_atoms


@pytest.mark.parametrize("side", [2, 3, 4, 8])
def test_dct2_orthonormal(side):
    a = dct2_basis(side)
    assert a.shape == (side * side, side * side)
    assert np.abs(a.T @ a - np.eye(side * side)).max() <= 1e-10


@pytest.mark.parametrize("side", [2, 4, 8])
def test_haar2_orthonormal(side):
    a = haar2_basis(side)
    assert a.shape == (side * side, side * side)
    assert np.abs(a.T @ a - np.eye(side * side)).max() <= 1e-10


def test_haar2_scaling_atom_is_constant():
    assert np.allclose(haar2_basis(2)[:, 0], [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_dct2_vectorization_is_row_major():
    # Atom (k1, k2) = 1*side + 0 varies along patch rows only.
    side = 4
    atom = dct2_basis(side)[:, side].reshape(side, side)
    assert np.abs(atom - atom[:, :1]).max() <= 1e-12
    assert np.abs(atom[0] - atom[1]).max() > 1e-3


@pytest.mark.parametrize("side", [0, 1, -2])
def test_dct2_invalid_side(side):
    with pytest.raises(InvalidSide):
        dct2_basis(side)


@pytest.mark.parametrize("side", [3, 6, 0])
def test_haar2_invalid_side(side):
    with pytest.raises(InvalidSide):
        haar2_basis(side)


def test_assemble_concatenates():
    gs = assemble([("dct2", dct2_basis(8)), ("haar2", haar2_basis(8))])
    assert (gs.d, gs.n) == (64, 128)
    assert gs.labels[0] == ("dct2", 0)
    assert gs.labels[64] == ("haar2", 0)
    assert len(gs.labels) == gs.n
    assert not gs.matrix.flags.writeable


def test_assemble_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        assemble([("a", dct2_basis(8)), ("b", dct2_basis(4))])


def test_assemble_rejects_bad_norms():
    with pytest.raises(InvalidGroundSet):
        assemble([("bad", 2.0 * np.eye(4))])


def test_assemble_preserves_column_count(rng):
    widths = [3, 5, 2]
    blocks = [(f"b{i}", random_unit_atoms(rng, 6, w)) for i, w in enumerate(widths)]
    gs = assemble(blocks)
    assert gs.n == sum(widths)


def random_orthonormal_basis(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def test_four_basis_ground_set_via_csv(tmp_path, rng):
    # 256-atom configuration: two built-in bases plus two user-loaded
    # orthonormal blocks in the CSV exchange format.
    extra1 = random_orthonormal_basis(rng, 64)
    extra2 = random_orthonormal_basis(rng, 64)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    save_matrix_csv(p1, extra1)
    save_matrix_csv(p2, extra2)
    gs = assemble(
        [
            ("dct2", dct2_basis(8)),
            ("haar2", haar2_basis(8)),
            ("w1", load_atom_block(p1)),
            ("w2", load_atom_block(p2)),
        ]
    )
    assert (gs.d, gs.n) == (64, 256)


def test_load_atom_block_validates_norms(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2.0,0.0\n0.0,1.0\n")
    with pytest.raises(InvalidGroundSet):
        load_atom_block(p)


@pytest.mark.parametrize("entry", ["assemble", "load_atom_block", "coherence"])
def test_nan_atom_is_rejected(tmp_path, entry):
    # abs(nan - 1) > tol is False, so a plain tolerance test lets NaN through.
    b = np.eye(4)
    b[2, 1] = np.nan
    path = tmp_path / "nan.csv"
    save_matrix_csv(path, b)
    calls = {
        "assemble": lambda: assemble([("eye", b)]),
        "load_atom_block": lambda: load_atom_block(path),
        "coherence": lambda: coherence(b),
    }
    with pytest.raises(InvalidGroundSet, match="column 1"):
        calls[entry]()
