"""File formats: edge-list TSV, feature CSV / raw f32 binary, graph dirs.

Edge lists are UTF-8 TSV with columns ``src<TAB>dst[<TAB>year]``; lines
starting with ``#`` are comments. Features come either as CSV rows
``node_key,f1,...,fd`` or as a row-major little-endian float32 blob described
by a JSON sidecar ``{"num_rows": N, "dim": d, "key_file": "..."}`` whose key
file lists one node key per line. Features are float32 on both paths. The CSV
writer prints each value to 9 significant digits (``%.9g``), which is enough
to read every float32 back bit for bit (Goldberg 1991, Thm. 15; IEEE 754-2008
§5.12.2); CSVs with 17-digit float64 ``repr`` values, as older runs wrote
them, read back to the same float32 values. A sides file marks a bipartite
graph: TSV rows ``node_key<TAB>side``, one row per node, each side 0 or 1.

A "graph path" is either a single edges TSV (with optional sibling files
``<stem>.features.csv`` / ``<stem>.features.json`` / ``<stem>.sides.tsv``)
or a directory containing ``edges.tsv`` plus optional ``features.csv`` /
``features.json`` / ``sides.tsv``.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Sequence

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
    "read_graph",
    "load_graph",
    "graph_inputs",
    "save_graph",
    "write_scores_tsv",
    "read_scores_tsv",
    "read_scores_for",
]

# rows of a features CSV joined into one write; joining a whole file would
# hold a string as large as the file
_FEATURE_ROWS = 4096


@contextmanager
def _text(path: str | Path):
    """A UTF-8 text file open for reading; a file that cannot be read is a
    DataError naming it."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc


def _records(path: str | Path):
    """(line number, stripped line) of each non-blank, non-comment line of a
    UTF-8 text file."""
    with _text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def read_edge_tsv(path: str | Path) -> tuple[list[tuple[str, str]], list[int | None]]:
    """Parse an edge TSV into (pairs, per-edge year or None)."""
    pairs: list[tuple[str, str]] = []
    years: list[int | None] = []
    with _text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
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


def write_edge_tsv(path: str | Path, pairs: list[tuple[str, str]]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def _read_features_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Keys and float32 rows of a features CSV, in file order. The values
    stream into one float64 buffer; a row whose length differs from the first
    row's, or a value that is not finite in float32, is a DataError naming
    its line."""
    keys: list[str] = []
    lines: list[int] = []
    values = array("d")
    dim = None
    for lineno, line in _records(path):
        cols = line.split(",")
        if len(cols) < 2:
            raise DataError(f"{path}:{lineno}: feature row needs key + values")
        if len(cols) - 1 != dim:
            if dim is not None:
                raise DataError(f"{path}:{lineno}: {len(cols) - 1} feature values, "
                                f"the first row has {dim}")
            dim = len(cols) - 1
        try:
            values.extend(map(float, islice(cols, 1, None)))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        keys.append(cols[0])
        lines.append(lineno)
    with np.errstate(over="ignore"):  # beyond float32 range: inf, refused below
        matrix = np.frombuffer(values, dtype=np.float64).astype(np.float32)
    matrix = matrix.reshape(len(keys), dim or 0)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{lines[bad[0]]}: feature values must be finite float32 numbers")
    return keys, matrix


def _bin_layout(sidecar: Path) -> tuple[int, int, Path, Path]:
    """``(num_rows, dim, key file, blob file)`` of a binary features sidecar."""
    header = json.loads(sidecar.read_text(encoding="utf-8"))
    for field in ("num_rows", "dim", "key_file"):
        if field not in header:
            raise DataError(f"{sidecar}: missing header field {field!r}")
    blob_path = sidecar.with_suffix(".bin")
    if "data_file" in header:
        blob_path = sidecar.parent / header["data_file"]
    key_path = sidecar.parent / header["key_file"]
    return int(header["num_rows"]), int(header["dim"]), key_path, blob_path


def _read_features_bin(sidecar: Path) -> tuple[list[str], np.ndarray]:
    num_rows, dim, key_path, blob_path = _bin_layout(sidecar)
    keys = [k for k in key_path.read_text(encoding="utf-8").splitlines() if k]
    if len(keys) != num_rows:
        raise DataError(f"{key_path}: {len(keys)} keys but header says {num_rows}")
    raw = np.fromfile(blob_path, dtype="<f4")
    if raw.size != num_rows * dim:
        raise DataError(
            f"{blob_path}: expected {num_rows * dim} float32 values, got {raw.size}"
        )
    matrix = raw.reshape(num_rows, dim)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise DataError(f"{blob_path}: row {bad[0]} (node {keys[bad[0]]!r}) "
                        "holds a non-finite feature value")
    return keys, matrix


def _feature_table(paths: Sequence[str | Path]) -> tuple[list[str], np.ndarray]:
    """Keys and float32 rows of one or more feature files (CSV, or binary
    behind a ``.json`` sidecar). A key given again keeps its first position
    and takes its last row."""
    tables = []
    for path in map(Path, paths):
        if path.suffix != ".json":
            tables.append(_read_features_csv(path))
            continue
        try:
            tables.append(_read_features_bin(path))
        except (OSError, ValueError, TypeError) as exc:
            raise DataError(f"{path}: unreadable binary features ({exc})") from exc
    blocks = [matrix for _, matrix in tables if len(matrix)]
    dims = sorted({matrix.shape[1] for matrix in blocks})
    if len(dims) > 1:
        files = ", ".join(map(str, paths))
        raise DataError(f"{files}: inconsistent feature dimensions: {dims}")
    keys = [key for table_keys, _ in tables for key in table_keys]
    last = dict(zip(keys, range(len(keys))))
    rows = np.fromiter(last.values(), dtype=np.int64, count=len(last))
    matrix = np.concatenate(blocks) if blocks else np.zeros((0, 0), dtype=np.float32)
    return list(last), matrix[rows]


def read_features(path: str | Path) -> dict[str, np.ndarray]:
    """Read features from CSV or a binary sidecar, keyed by node id."""
    keys, matrix = _feature_table([path])
    return dict(zip(keys, matrix))


def write_features_csv(path: str | Path, keys: list[str], matrix: np.ndarray) -> None:
    """Write one ``key,v1,...,vd`` row per node, each value its float32 cast
    printed to 9 significant digits (``%.9g``).

    Nine digits carry every binary32 value exactly (Goldberg, "What Every
    Computer Scientist Should Know About Floating-Point Arithmetic", 1991,
    Thm. 15; IEEE 754-2008 §5.12.2). For x in [2^E, 2^(E+1)) the rounding
    moves x by at most 2^24/10^8 ≈ 0.168 of its half-ulp, and the reader's
    float64 parse adds at most 2^(E-53), so its cast to float32 lands back
    on x, never on a tie. Files of 17-digit float64 ``repr`` values, as
    older runs wrote them, read back to the same float32 values. A float64
    value beyond float32's range is written as ``inf``, which the reader
    refuses.
    """
    with np.errstate(over="ignore"):  # beyond float32 range: inf, refused on read
        values = np.asarray(matrix, dtype=np.float32)
    row_format = "%s" + ",%.9g" * values.shape[1] + "\n"
    rows = values.tolist()
    with Path(path).open("w", encoding="utf-8") as fh:
        for start in range(0, len(rows), _FEATURE_ROWS):
            block = zip(keys[start:start + _FEATURE_ROWS], rows[start:start + _FEATURE_ROWS])
            fh.write("".join(row_format % (key, *row) for key, row in block))


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
        if sides[key] not in (0, 1):
            raise DataError(f"{path}:{lineno}: side of node {key!r} is {sides[key]}, not 0 or 1")
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


def read_graph(
    edge_paths: Sequence[str | Path],
    feature_paths: Sequence[str | Path],
    side_path: str | Path | None,
) -> Graph:
    """A graph from edge lists, feature files and a sides file.

    Feature and side rows double as node declarations, so isolated nodes
    survive the edges.tsv round trip. A graph these files cannot make (a
    node without its feature or side row, say) is a DataError naming them.
    """
    pairs = [pair for path in edge_paths for pair in read_edge_tsv(path)[0]]
    features = _feature_table(feature_paths) if feature_paths else None
    sides = read_sides_tsv(side_path) if side_path else None
    extra = [*(features[0] if features else ()), *(sides or ())]
    try:
        return build_graph(pairs, features=features, sides=sides, extra_nodes=extra)
    except DataError as exc:
        files = [*edge_paths, *feature_paths, *([side_path] if side_path else [])]
        raise DataError(f"{', '.join(map(str, files))}: {exc}") from exc


def _graph_files(path: Path) -> tuple[Path, list[Path], Path | None]:
    """``(edges TSV, feature files, sides file)`` of a graph path."""
    edges_path = path / "edges.tsv" if path.is_dir() else path
    if not edges_path.exists():
        raise DataError(f"{path}: graph directory has no edges.tsv" if path.is_dir()
                        else f"{path}: no such edge list")
    feat_path = _companion(path, "features")
    return edges_path, [feat_path] if feat_path else [], _companion(path, "sides")


def graph_inputs(path: str | Path) -> list[Path]:
    """The paths ``load_graph(path)`` reads: a graph directory as a whole,
    or an edges TSV with each sibling file it finds, a binary features
    sidecar with its key and blob files."""
    path = Path(path)
    if path.is_dir():
        return [path]
    edges_path, feature_paths, side_path = _graph_files(path)
    files = [edges_path]
    for feat_path in feature_paths:
        files.append(feat_path)
        if feat_path.suffix == ".json":
            files += _bin_layout(feat_path)[2:]
    return files + ([side_path] if side_path else [])


def load_graph(path: str | Path) -> Graph:
    """Load a graph from an edges TSV or a graph directory."""
    edges_path, feature_paths, side_path = _graph_files(Path(path))
    return read_graph([edges_path], feature_paths, side_path)


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


def write_scores_tsv(
    path: str | Path, pairs: list[tuple[str, str]], scores: np.ndarray
) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for (a, b), s in zip(pairs, np.asarray(scores, dtype=np.float64).tolist()):
            fh.write(f"{a}\t{b}\t{s!r}\n")


def read_scores_tsv(path: str | Path) -> dict[tuple[str, str], float]:
    """Read a scores TSV into an unordered-pair -> value map; a score that
    does not parse or is not finite (nan, inf), or a pair that an earlier
    line already scored, in either order, is a DataError."""
    out: dict[tuple[str, str], float] = {}
    for lineno, line in _records(path):
        cols = line.split("\t")
        if len(cols) < 3:
            raise DataError(f"{path}:{lineno}: expected u, v, score columns")
        a, b = sorted((cols[0], cols[1]))
        try:
            score = float(cols[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad score {cols[2]!r}") from exc
        if not math.isfinite(score):
            raise DataError(f"{path}:{lineno}: non-finite score {cols[2]!r}")
        if (a, b) in out:
            # the first line is looked up again on this error path alone
            first = next(n for n, rec in _records(path) if sorted(rec.split("\t")[:2]) == [a, b])
            raise DataError(f"{path}:{lineno}: pair ({a!r}, {b!r}) repeats line {first}")
        out[(a, b)] = score
    return out


def read_scores_for(path: str | Path, pairs: list[tuple[str, str]]) -> np.ndarray:
    """A scores TSV's values in ``pairs`` order; a missing pair is a DataError."""
    table = read_scores_tsv(path)
    try:
        return np.array([table[pair] for pair in pairs])
    except KeyError as exc:
        raise DataError(f"{path} is missing edge {exc.args[0]}") from None
