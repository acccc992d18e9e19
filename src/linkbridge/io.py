"""File formats: edge-list TSV, feature CSV / raw f32 binary, graph dirs.

Edge lists are UTF-8 TSV with columns ``src<TAB>dst[<TAB>year]``; lines
starting with ``#`` are comments. Features come either as CSV rows
``node_key,f1,...,fd`` or as a row-major little-endian float32 blob described
by a JSON sidecar ``{"num_rows": N, "dim": d, "key_file": "..."}`` whose key
file lists one node key per line.

A "graph path" is either a single edges TSV (with optional sibling files
``<stem>.features.csv`` / ``<stem>.features.json`` / ``<stem>.sides.tsv``)
or a directory containing ``edges.tsv`` plus optional ``features.csv`` /
``features.json`` / ``sides.tsv``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import Graph, build_graph

__all__ = [
    "read_edge_tsv",
    "write_edge_tsv",
    "read_features",
    "write_features_csv",
    "write_features_bin",
    "read_sides_tsv",
    "write_sides_tsv",
    "load_graph",
    "save_graph",
    "read_pairs_tsv",
    "write_scores_tsv",
    "read_scores_tsv",
    "read_scores_for",
]


def _records(path: str | Path, strip=str.strip):
    """(line number, line) of each non-blank, non-comment line of a UTF-8
    text file; a file that cannot be read is a DataError naming it."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = strip(line)
                if line and not line.startswith("#"):
                    yield lineno, line
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc


def read_edge_tsv(path: str | Path) -> tuple[list[tuple[str, str]], list[int | None]]:
    """Parse an edge TSV into (pairs, per-edge year or None)."""
    pairs: list[tuple[str, str]] = []
    years: list[int | None] = []
    for lineno, line in _records(path, strip=lambda line: line.rstrip("\n")):
        cols = line.split("\t")
        if len(cols) < 2:
            raise DataError(f"{path}:{lineno}: expected at least 2 columns")
        pairs.append((cols[0], cols[1]))
        if len(cols) >= 3 and cols[2] != "":
            try:
                years.append(int(cols[2]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad year {cols[2]!r}") from exc
        else:
            years.append(None)
    return pairs, years


def write_edge_tsv(
    path: str | Path,
    pairs: list[tuple[str, str]],
    years: list[int] | None = None,
) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i, (a, b) in enumerate(pairs):
            if years is not None:
                fh.write(f"{a}\t{b}\t{years[i]}\n")
            else:
                fh.write(f"{a}\t{b}\n")


def _read_features_csv(path: Path) -> dict[str, np.ndarray]:
    rows: dict[str, np.ndarray] = {}
    for lineno, line in _records(path):
        cols = line.split(",")
        if len(cols) < 2:
            raise DataError(f"{path}:{lineno}: feature row needs key + values")
        try:
            rows[cols[0]] = np.array([float(c) for c in cols[1:]], dtype=np.float32)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return rows


def _read_features_bin(sidecar: Path) -> dict[str, np.ndarray]:
    header = json.loads(sidecar.read_text(encoding="utf-8"))
    for field in ("num_rows", "dim", "key_file"):
        if field not in header:
            raise DataError(f"{sidecar}: missing header field {field!r}")
    num_rows, dim = int(header["num_rows"]), int(header["dim"])
    key_path = sidecar.parent / header["key_file"]
    keys = [k for k in key_path.read_text(encoding="utf-8").splitlines() if k]
    if len(keys) != num_rows:
        raise DataError(f"{key_path}: {len(keys)} keys but header says {num_rows}")
    blob_path = sidecar.with_suffix(".bin")
    if "data_file" in header:
        blob_path = sidecar.parent / header["data_file"]
    raw = np.fromfile(blob_path, dtype="<f4")
    if raw.size != num_rows * dim:
        raise DataError(
            f"{blob_path}: expected {num_rows * dim} float32 values, got {raw.size}"
        )
    matrix = raw.reshape(num_rows, dim)
    return {k: matrix[i] for i, k in enumerate(keys)}


def read_features(path: str | Path) -> dict[str, np.ndarray]:
    """Read features from CSV or a binary sidecar, keyed by node id."""
    path = Path(path)
    if path.suffix != ".json":
        return _read_features_csv(path)
    try:
        return _read_features_bin(path)
    except (OSError, ValueError, TypeError) as exc:
        raise DataError(f"{path}: unreadable binary features ({exc})") from exc


def write_features_csv(path: str | Path, keys: list[str], matrix: np.ndarray) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for key, row in zip(keys, matrix):
            fh.write(key + "," + ",".join(repr(float(x)) for x in row) + "\n")


def write_features_bin(
    sidecar: str | Path, keys: list[str], matrix: np.ndarray
) -> None:
    """Write the raw little-endian f32 format next to a JSON sidecar."""
    sidecar = Path(sidecar)
    if sidecar.suffix != ".json":
        raise DataError("binary feature sidecar must be a .json path")
    stem = sidecar.with_suffix("")
    key_file = stem.with_suffix(".keys")
    blob_file = stem.with_suffix(".bin")
    key_file.write_text("\n".join(keys) + "\n", encoding="utf-8")
    np.ascontiguousarray(matrix, dtype="<f4").tofile(blob_file)
    header = {
        "num_rows": int(matrix.shape[0]),
        "dim": int(matrix.shape[1]),
        "key_file": key_file.name,
        "data_file": blob_file.name,
    }
    sidecar.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")


def read_sides_tsv(path: str | Path) -> dict[str, int]:
    sides: dict[str, int] = {}
    for lineno, line in _records(path):
        try:
            key, side = line.split("\t")[:2]
            sides[key] = int(side)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: expected node key and side") from exc
    return sides


def write_sides_tsv(path: str | Path, keys: list[str], sides: np.ndarray) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for key, side in zip(keys, sides):
            fh.write(f"{key}\t{int(side)}\n")


def _companion(path: Path, kind: str) -> Path | None:
    """Locate optional sibling files for an edges TSV or graph dir."""
    if path.is_dir():
        candidates = {
            "features": [path / "features.csv", path / "features.json"],
            "sides": [path / "sides.tsv"],
        }[kind]
    else:
        stem = path.with_suffix("")
        candidates = {
            "features": [
                stem.with_suffix(".features.csv"),
                stem.with_suffix(".features.json"),
            ],
            "sides": [stem.with_suffix(".sides.tsv")],
        }[kind]
    for cand in candidates:
        if cand.exists():
            return cand
    return None


def load_graph(path: str | Path) -> Graph:
    """Load a graph from an edges TSV or a graph directory."""
    path = Path(path)
    if path.is_dir():
        edges_path = path / "edges.tsv"
        if not edges_path.exists():
            raise DataError(f"{path}: graph directory has no edges.tsv")
    else:
        edges_path = path
        if not edges_path.exists():
            raise DataError(f"{edges_path}: no such edge list")
    pairs, _ = read_edge_tsv(edges_path)
    feat_path = _companion(path, "features")
    side_path = _companion(path, "sides")
    features = read_features(feat_path) if feat_path else None
    sides = read_sides_tsv(side_path) if side_path else None
    # feature/side rows double as node declarations, so isolated nodes
    # survive the edges.tsv round trip
    extra: list[str] = []
    for mapping in (features, sides):
        if mapping:
            extra.extend(mapping.keys())
    return build_graph(pairs, features=features, sides=sides, extra_nodes=extra)


def save_graph(g: Graph, out_dir: str | Path, feature_format: str = "csv") -> None:
    """Write a graph directory: edges.tsv plus optional features/sides."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_edge_tsv(out_dir / "edges.tsv", g.edge_keys())
    if g.features is not None:
        if feature_format == "csv":
            write_features_csv(out_dir / "features.csv", list(g.keys), g.features)
        elif feature_format == "bin":
            write_features_bin(out_dir / "features.json", list(g.keys), g.features)
        else:
            raise DataError(f"unknown feature format {feature_format!r}")
    if g.sides is not None:
        write_sides_tsv(out_dir / "sides.tsv", list(g.keys), g.sides)


def read_pairs_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Read a 2-column pair list (no year column expected)."""
    pairs, _ = read_edge_tsv(path)
    return pairs


def write_scores_tsv(
    path: str | Path, pairs: list[tuple[str, str]], scores: np.ndarray
) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for (a, b), s in zip(pairs, scores):
            fh.write(f"{a}\t{b}\t{float(s)!r}\n")


def read_scores_tsv(path: str | Path) -> dict[tuple[str, str], float]:
    """Read a scores TSV into an unordered-pair -> value map."""
    out: dict[tuple[str, str], float] = {}
    for lineno, line in _records(path):
        cols = line.split("\t")
        if len(cols) < 3:
            raise DataError(f"{path}:{lineno}: expected u, v, score columns")
        a, b = sorted((cols[0], cols[1]))
        try:
            out[(a, b)] = float(cols[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad score {cols[2]!r}") from exc
    return out


def read_scores_for(path: str | Path, pairs: list[tuple[str, str]]) -> np.ndarray:
    """A scores TSV's values in ``pairs`` order; a missing pair is a DataError."""
    table = read_scores_tsv(path)
    try:
        return np.array([table[pair] for pair in pairs])
    except KeyError as exc:
        raise DataError(f"{path} is missing edge {exc.args[0]}") from None
