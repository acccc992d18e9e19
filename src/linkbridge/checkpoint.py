"""Model checkpoints: one JSON header line + little-endian f32 blob.

A scorer stores one row of X' per node, by internal id, and ``load_graph``
renumbers nodes, so its header records a digest of the node-key order that
loading must match. A student stores its weights alone: it reads node
features, so it loads against any graph whose feature width fits its first
layer, whatever that graph's node count or order.

Both models train in float32, the precision the blob stores, and load back
as float32: a reloaded scorer or student is the one that was saved, bit for
bit, and scores exactly as it did.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .distill import DistillConfig, MlpModel
from .errors import ConfigError, DataError
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
    path: str | Path, kind: str, config: dict, arrays: dict[str, np.ndarray],
    node_order: str | None = None,
) -> None:
    """Write a checkpoint; ``node_order`` is recorded when the arrays hold
    node rows."""
    header = {
        "kind": kind,
        "config": config,
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()
        ],
    }
    if node_order is not None:
        header["node_order"] = node_order
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, named float32 arrays); any file that is not a well-formed
    checkpoint, or holds a non-finite value, is a DataError naming it."""
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
            arrays[meta["name"]] = blob[offset : offset + size].reshape(shape).astype(np.float32)
            offset += size
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint ({exc.strerror})") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc!r})") from exc
    if offset != blob.size:
        raise DataError(f"{path}: {blob.size - offset} unexplained trailing floats")
    bad = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
    if bad:
        raise DataError(f"{path}: non-finite values in {', '.join(bad)}")
    return header, arrays


def node_order_digest(g: Graph) -> str:
    """SHA-256 of the graph's node keys in id order."""
    return hashlib.sha256("\n".join(g.keys).encode("utf-8")).hexdigest()


def _load_model(path: str | Path, kind: str, cls) -> tuple:
    """``(header, config, arrays)`` of a ``kind`` checkpoint; a config this
    version cannot build (an unknown or missing key, a value out of range)
    is a DataError too."""
    header, arrays = load_checkpoint(path)
    if header.get("kind") != kind:
        raise DataError(f"{path}: expected a {kind} checkpoint, got {header.get('kind')!r}")
    try:
        config = cls(**header.get("config"))
    except (TypeError, ConfigError) as exc:
        raise DataError(f"{path}: checkpoint config does not fit {cls.__name__} ({exc})") from exc
    return header, config, arrays


def save_scorer(path: str | Path, model: ScorerModel, g: Graph) -> None:
    arrays = {"x_prime": model.x_prime}
    if model.encoder_weights is not None:
        arrays["encoder_weights"] = model.encoder_weights
    save_checkpoint(path, "scorer", asdict(model.config), arrays, node_order_digest(g))


def load_scorer(path: str | Path, g: Graph) -> ScorerModel:
    """Rehydrate a scorer whose node rows follow ``g``'s node order; frozen
    features come from the graph. X' and the encoder weights come back
    float32, the precision the scorer trains in, so it embeds exactly as
    the scorer that was saved."""
    header, config, arrays = _load_model(path, "scorer", ScorerConfig)
    if header.get("node_order") != node_order_digest(g):
        raise DataError(f"{path}: checkpoint rows follow another graph's node order")
    rows = arrays["x_prime"].shape[0]
    if rows != g.num_nodes:
        raise DataError(f"{path}: checkpoint has {rows} node rows, graph has {g.num_nodes}")
    return ScorerModel(
        config=config,
        x_prime=arrays["x_prime"],
        encoder_weights=arrays.get("encoder_weights"),
        features=g.features,
    )


def save_student(path: str | Path, model: MlpModel) -> None:
    arrays = {"w1": model.w1, "b1": model.b1, "w2": model.w2, "b2": model.b2}
    save_checkpoint(path, "mlp", asdict(model.config), arrays)


def load_student(path: str | Path, g: Graph) -> MlpModel:
    """Rehydrate a student that embeds ``g``'s nodes from their features; a
    graph whose feature width is not the student's input width is a
    DataError. Its weights come back float32, the precision the student
    trains in, so it scores exactly as the student that was saved."""
    _, config, arrays = _load_model(path, "mlp", DistillConfig)
    d_in = arrays["w1"].shape[0]
    if g.feature_dim != d_in:
        raise DataError(f"{path}: student reads {d_in} features per node, "
                        f"graph has {g.feature_dim}")
    return MlpModel(
        config=config,
        w1=arrays["w1"],
        b1=arrays["b1"],
        w2=arrays["w2"],
        b2=arrays["b2"],
        features=g.features,
    )
