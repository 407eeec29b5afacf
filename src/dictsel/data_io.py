"""Dataset synthesis, image-patch ingestion, and file formats.

Matrices travel in two exchange formats: a binary container (magic
``DMAT``, version byte, row/column counts as little-endian int64, then
row-major little-endian float64 values) that round-trips bit exactly, and
plain CSV with one value per cell.  Datasets carry a JSON sidecar with
provenance.  Every randomized operation takes an explicit seed and is
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientPatches, ParseError, SchemaVersionMismatch
from .linalg import atom_matrix, stack_points

_MAGIC = b"DMAT"
_VERSION = 1
_SCHEMA_VERSION = 1
_VARIANCE_FLOOR = 1e-8


@dataclass
class Dataset:
    """Data points as columns of a (d, T) matrix plus provenance."""

    matrix: np.ndarray
    provenance: dict
    normalized: bool = False

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_points(self) -> int:
        return self.matrix.shape[1]


def data_matrix(data) -> np.ndarray:
    """The (d, T) float matrix of a Dataset or a plain array.

    Raises ValueError on NaN or inf: no least-squares fit can use them, and
    downstream arithmetic would turn them into silent zeros or NaN gains.
    """
    y = np.asarray(getattr(data, "matrix", data), dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("data must not contain infs or NaNs")
    return y


def synth_dataset(ground_set, num_points, k_planted, s, seed, planted=None) -> Dataset:
    """Sparse linear combinations of a randomly planted sub-dictionary.

    Picks ``k_planted`` atoms uniformly without replacement (or uses the
    given ``planted`` indices), then draws each point as ``s`` planted
    atoms with standard-normal weights.  Provenance records the planted
    indices so recovery can be scored later.  The draws are made point by
    point (support, then weights), which fixes the random stream; the
    products are batched, one per block of points, and give the same bits
    as one product per point.
    """
    a = atom_matrix(ground_set)
    n = a.shape[1]
    if not 0 <= s <= k_planted <= n:
        raise ValueError("need 0 <= s <= k_planted <= n")
    rng = np.random.default_rng(seed)
    if planted is None:
        planted = np.sort(rng.choice(n, size=k_planted, replace=False))
    else:
        planted = np.asarray(sorted(int(j) for j in planted))
        if len(planted) != k_planted:
            raise ValueError("planted indices disagree with k_planted")
    y = np.zeros((a.shape[0], num_points))
    supports = np.empty((num_points, s), dtype=int)
    weights = np.empty((num_points, s))
    for t in range(num_points):
        supports[t] = rng.choice(planted, size=s, replace=False)
        weights[t] = rng.standard_normal(s)
    # Blocks of at most STACK floats of gathered atoms, which malloc serves
    # from its heap without moving its mmap threshold.
    step = stack_points(max(a.shape[0] * s, 1))
    for start in range(0, num_points, step):
        block = slice(start, start + step)
        y[:, block] = np.matmul(a[:, supports[block]].transpose(1, 0, 2), weights[block, :, None])[:, :, 0].T
    provenance = {
        "kind": "synthetic",
        "seed": _seed_repr(seed),
        "planted": [int(j) for j in planted],
        "s": int(s),
    }
    return Dataset(y, provenance)


def extract_patches(image, num_patches, side=8, seed=0) -> Dataset:
    """Sample non-overlapping side x side tiles of a grayscale image.

    Tiles are vectorized row-major, sampled uniformly without
    replacement, and normalized to zero mean and unit variance.  Tiles
    whose variance is below 1e-8 cannot be normalized and are excluded
    from sampling; raises InsufficientPatches when fewer than
    ``num_patches`` usable tiles exist.
    """
    img = np.asarray(image, dtype=float)
    if side < 1:
        raise ValueError(f"side must be positive, got {side}")
    if img.ndim != 2 or min(img.shape) < side:
        raise ValueError(f"image must be 2D with both sides >= {side}")
    rows, cols = img.shape[0] // side, img.shape[1] // side
    grid = img[: rows * side, : cols * side].reshape(rows, side, cols, side)
    tiles = grid.transpose(0, 2, 1, 3).reshape(rows * cols, side * side)
    # The summation order of ``np.var`` on one tile's view: the mean sums the
    # tile row by row, the squared deviations as one row-major vector.
    means = grid.sum(axis=(1, 3)).reshape(-1, 1) / (side * side)
    usable = np.flatnonzero(np.square(tiles - means).sum(axis=1) / (side * side) >= _VARIANCE_FLOOR)
    if len(usable) < num_patches:
        raise InsufficientPatches(
            f"{len(usable)} usable tiles available, {num_patches} requested"
        )
    rng = np.random.default_rng(seed)
    chosen = usable[rng.choice(len(usable), size=num_patches, replace=False)]
    patches = tiles[chosen]
    patches -= patches.mean(axis=1, keepdims=True)
    y = np.ascontiguousarray((patches / patches.std(axis=1, keepdims=True)).T)
    provenance = {"kind": "patches", "seed": _seed_repr(seed), "side": int(side)}
    return Dataset(y, provenance, normalized=True)


def _seed_repr(seed):
    if isinstance(seed, (list, tuple, np.ndarray)):
        return [int(x) for x in seed]
    return int(seed)


def save_matrix(path, matrix) -> None:
    """Write a matrix in the binary container format (bit-exact round trip)."""
    m = np.ascontiguousarray(np.asarray(matrix, dtype="<f8"))
    if m.ndim != 2:
        raise ValueError("only 2D matrices are supported")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(struct.pack("<qq", m.shape[0], m.shape[1]))
        fh.write(m.tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 21:
        raise ParseError(f"{path}: truncated header ({len(blob)} bytes, 21 expected)")
    version = blob[4]
    if version != _VERSION:
        raise SchemaVersionMismatch(f"{path}: format version {version}, expected {_VERSION}")
    rows, cols = struct.unpack("<qq", blob[5:21])
    data = np.frombuffer(blob[21:], dtype="<f8")
    if min(rows, cols) < 0 or data.size != rows * cols:
        raise ParseError(f"{path}: payload holds {data.size} values, expected {rows * cols}")
    return data.reshape(rows, cols).astype(float)


def save_matrix_csv(path, matrix) -> None:
    m = np.asarray(matrix, dtype=float)
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if rows and len(cells) != len(rows[0]):
                raise ParseError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {len(rows[0])}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows)


def _sidecar(path) -> Path:
    return Path(str(path) + ".meta.json")


def save_dataset(path, dataset: Dataset) -> None:
    """Binary matrix plus a JSON sidecar holding provenance."""
    save_matrix(path, dataset.matrix)
    meta = {
        "schema_version": _SCHEMA_VERSION,
        "provenance": dataset.provenance,
        "normalized": dataset.normalized,
    }
    _sidecar(path).write_text(json.dumps(meta, indent=2))


def load_dataset(path) -> Dataset:
    matrix = load_matrix(path)
    sidecar = _sidecar(path)
    if sidecar.exists():
        meta = _read_sidecar(sidecar, "provenance", "normalized")
        if not isinstance(meta["provenance"], dict):
            raise ParseError(f"{sidecar}: provenance must be a JSON object")
        return Dataset(matrix, meta["provenance"], bool(meta["normalized"]))
    return Dataset(matrix, {"kind": "loaded", "path": str(path)})


def save_ground_set(path, ground_set) -> None:
    save_matrix(path, ground_set.matrix)
    meta = {
        "schema_version": _SCHEMA_VERSION,
        "labels": [[name, int(idx)] for name, idx in ground_set.labels],
    }
    _sidecar(path).write_text(json.dumps(meta))


def load_ground_set(path):
    from .groundset import assemble

    matrix = load_matrix(path)
    sidecar = _sidecar(path)
    if sidecar.exists():
        labels = _read_sidecar(sidecar, "labels")["labels"]
        if not isinstance(labels, list) or len(labels) != matrix.shape[1] or not all(map(_is_label, labels)):
            raise ParseError(f"{sidecar}: labels must be {matrix.shape[1]} [name, index] pairs, one per column")
        blocks, start = [], 0
        for name, run in itertools.groupby(label[0] for label in labels):
            width = len(list(run))
            blocks.append((name, matrix[:, start : start + width]))
            start += width
        return assemble(blocks)
    return assemble([("loaded", matrix)])


def _is_label(label) -> bool:
    """Whether a sidecar label is a [basis name, integer index] pair."""
    return isinstance(label, list) and len(label) == 2 and isinstance(label[0], str) and type(label[1]) is int


def _read_sidecar(path, *keys) -> dict:
    """The JSON object of a sidecar file at the current schema version, holding ``keys``."""
    try:
        meta = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    if meta.get("schema_version") != _SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: schema version {meta.get('schema_version')}")
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ParseError(f"{path}: missing field {', '.join(missing)}")
    return meta


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) image as a float matrix."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated header")
        tokens.append(blob[start:pos])
    if tokens[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric header field") from exc
    if maxval > 255:
        raise ParseError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    pos += 1
    pixels = np.frombuffer(blob[pos : pos + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ParseError(f"{path}: expected {width * height} pixels, found {pixels.size}")
    return pixels.reshape(height, width).astype(float)
