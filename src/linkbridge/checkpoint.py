"""Model checkpoints: one JSON header line + little-endian f32 blob.

Node rows are stored by internal id, and ``load_graph`` renumbers nodes, so
the header records a digest of the node-key order that loading must match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .distill import DistillConfig, MlpModel
from .errors import DataError
from .graph import Graph
from .scorer import ScorerConfig, ScorerModel

__all__ = [
    "node_order_digest",
    "save_checkpoint",
    "load_checkpoint",
    "save_scorer",
    "load_scorer",
    "save_student",
    "load_student",
]


def save_checkpoint(
    path: str | Path, kind: str, config: dict, arrays: dict[str, np.ndarray], node_order: str
) -> None:
    header = {
        "kind": kind,
        "config": config,
        "node_order": node_order,
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()
        ],
    }
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, named float64 arrays); any file that is not a well-formed
    checkpoint is a DataError naming it."""
    try:
        raw = Path(path).read_bytes()
        newline = raw.find(b"\n")
        if newline < 0:
            raise DataError(f"{path}: malformed checkpoint (no header line)")
        header = json.loads(raw[:newline].decode("utf-8"))
        blob = np.frombuffer(raw[newline + 1 :], dtype="<f4")
        arrays: dict[str, np.ndarray] = {}
        offset = 0
        for meta in header.get("arrays", []):
            shape = tuple(int(s) for s in meta["shape"])
            size = int(np.prod(shape)) if shape else 1
            if offset + size > blob.size:
                raise DataError(f"{path}: parameter blob shorter than header claims")
            arrays[meta["name"]] = blob[offset : offset + size].reshape(shape).astype(np.float64)
            offset += size
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint ({exc.strerror})") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc!r})") from exc
    if offset != blob.size:
        raise DataError(f"{path}: {blob.size - offset} unexplained trailing floats")
    return header, arrays


def node_order_digest(g: Graph) -> str:
    """SHA-256 of the graph's node keys in id order."""
    return hashlib.sha256("\n".join(g.keys).encode("utf-8")).hexdigest()


def _load_model(path: str | Path, kind: str, g: Graph) -> tuple[dict, dict]:
    """A model checkpoint whose node rows follow ``g``'s node order."""
    header, arrays = load_checkpoint(path)
    if header.get("kind") != kind:
        raise DataError(f"{path}: expected a {kind} checkpoint, got {header.get('kind')!r}")
    if header.get("node_order") != node_order_digest(g):
        raise DataError(f"{path}: checkpoint rows follow another graph's node order")
    rows = arrays["x_prime"].shape[0]
    if rows != g.num_nodes:
        raise DataError(f"{path}: checkpoint has {rows} node rows, graph has {g.num_nodes}")
    return header, arrays


def save_scorer(path: str | Path, model: ScorerModel, g: Graph) -> None:
    arrays = {"x_prime": model.x_prime}
    if model.encoder_weights is not None:
        arrays["encoder_weights"] = model.encoder_weights
    save_checkpoint(path, "scorer", asdict(model.config), arrays, node_order_digest(g))


def load_scorer(path: str | Path, g: Graph) -> ScorerModel:
    """Rehydrate a scorer; frozen features come from the graph."""
    header, arrays = _load_model(path, "scorer", g)
    return ScorerModel(
        config=ScorerConfig(**header["config"]),
        x_prime=arrays["x_prime"],
        encoder_weights=arrays.get("encoder_weights"),
        features=g.features,
    )


def save_student(path: str | Path, model: MlpModel, g: Graph) -> None:
    arrays = {
        "w1": model.w1,
        "b1": model.b1,
        "w2": model.w2,
        "b2": model.b2,
        "x_prime": model.x_prime,
    }
    save_checkpoint(path, "mlp", asdict(model.config), arrays, node_order_digest(g))


def load_student(path: str | Path, g: Graph) -> MlpModel:
    header, arrays = _load_model(path, "mlp", g)
    return MlpModel(
        config=DistillConfig(**header["config"]),
        w1=arrays["w1"],
        b1=arrays["b1"],
        w2=arrays["w2"],
        b2=arrays["b2"],
        x_prime=arrays["x_prime"],
        features=g.features,
    )
