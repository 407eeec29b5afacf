"""Construction and validation of the candidate-atom matrix.

Atoms are unit-norm columns of a (d, n) matrix.  Two orthonormal bases for
8x8-style image patches are built in (2D DCT-II and 2D Haar); further
bases can be supplied as CSV blocks, one atom per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidGroundSet, InvalidSide

_NORM_TOL = 1e-8


@dataclass
class GroundSet:
    """Immutable candidate-atom matrix with per-atom provenance labels.

    ``matrix`` is (d, n) with unit-norm columns; ``labels[j]`` is a
    (basis name, index within basis) pair for column j.  ``mu_cache``
    holds the coherence and ``gram_cache`` the read-only G = A^T A once
    they have been computed.
    """

    matrix: np.ndarray
    labels: list[tuple[str, int]] = field(repr=False)
    mu_cache: float | None = None
    gram_cache: np.ndarray | None = field(default=None, repr=False)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def require_unit_norm(b: np.ndarray, where: str = "") -> None:
    """Raise InvalidGroundSet, naming the worst column, unless every column norm is within 1e-8 of 1."""
    norms = np.linalg.norm(b, axis=0)
    deviation = np.abs(norms - 1.0)
    if not np.all(deviation <= _NORM_TOL):
        j = int(np.argmax(deviation))  # a NaN deviation counts as the largest
        raise InvalidGroundSet(f"{where}column {j} has norm {norms[j]:.12g}, expected 1")


def dct2_basis(side: int) -> np.ndarray:
    """Orthonormal 2D DCT-II atoms for a side x side patch, one per column.

    Patches are vectorized row-major, so column k1*side + k2 is the outer
    product of 1D cosine modes k1 (rows) and k2 (columns).
    """
    if side < 2 or int(side) != side:
        raise InvalidSide(f"side must be an integer >= 2, got {side}")
    i = np.arange(side)
    k = np.arange(side)[:, None]
    c = np.cos(np.pi * (2 * i + 1) * k / (2 * side)) * np.sqrt(2.0 / side)
    c[0] = np.sqrt(1.0 / side)
    return np.kron(c, c).T


def haar2_basis(side: int) -> np.ndarray:
    """Orthonormal 2D Haar tensor atoms for a side x side patch (side a power of two)."""
    if side < 2 or int(side) != side or side & (side - 1):
        raise InvalidSide(f"side must be a power of two >= 2, got {side}")
    h = np.array([[1.0]])
    while h.shape[0] < side:
        m = h.shape[0]
        h = np.vstack(
            [np.kron(h, [1.0, 1.0]), np.kron(np.eye(m), [1.0, -1.0])]
        ) / np.sqrt(2.0)
    return np.kron(h, h).T


def assemble(blocks) -> GroundSet:
    """Concatenate named atom blocks into a validated GroundSet.

    ``blocks`` is an iterable of (name, (d, width) array) pairs sharing
    the same d.  Column norms must be 1 to 1e-8.  Duplicate columns are
    permitted; the constraint machinery tolerates them.
    """
    mats: list[np.ndarray] = []
    labels: list[tuple[str, int]] = []
    for name, block in blocks:
        b = np.asarray(block, dtype=float)
        if b.ndim != 2 or b.shape[1] == 0:
            raise InvalidGroundSet(f"block {name!r} is not a nonempty 2D array")
        if mats and b.shape[0] != mats[0].shape[0]:
            raise DimensionMismatch(
                f"block {name!r} has d={b.shape[0]}, expected {mats[0].shape[0]}"
            )
        require_unit_norm(b, f"block {name!r} ")
        mats.append(b)
        labels.extend((name, j) for j in range(b.shape[1]))
    if not mats:
        raise InvalidGroundSet("no atom blocks given")
    a = np.ascontiguousarray(np.hstack(mats))
    a.setflags(write=False)
    return GroundSet(a, labels)


def load_atom_block(path) -> np.ndarray:
    """Load a CSV atom block (d rows, one atom per column) and validate norms."""
    from .data_io import load_matrix_csv

    b = load_matrix_csv(path)
    require_unit_norm(b, f"{path}: ")
    return b
