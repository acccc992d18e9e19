"""Outside-in spans around the public functions of each linkbridge module.

The tracer replaces a function with a timing wrapper at the place its caller
looks it up (``linkbridge.pipeline.make_split`` for the pipeline's stages,
``linkbridge.evaluation.imitate`` for the method internals, ...), so no code
under ``src/`` changes. Spans are kept in memory and written when the
benchmark ends. Untraced runs never install the wrappers.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import linkbridge.evaluation as evaluation
import linkbridge.pipeline as pipeline
import linkbridge.propagation as propagation
from linkbridge.evaluation import EvalReport
from linkbridge.selection import SplitManifest

__all__ = ["Span", "Tracer", "LAYERS"]

# Layers are the package modules the spans fall into; ``pipeline`` holds the
# run span itself, so its self time is the orchestration between stages.
LAYERS = (
    "io",
    "graph",
    "selection",
    "scorer",
    "checkpoint",
    "distill",
    "propagation",
    "heuristics",
    "evaluation",
    "pipeline",
)

# (namespace the caller looks the name up in, attribute names)
_TARGETS = (
    (pipeline, (
        "load_graph", "union_graph", "make_split", "manifest_training_graph",
        "train_scorer", "save_scorer", "embed", "score_edges",
        "write_scores_tsv", "shuffle_eval_order", "method_scores",
        "evaluate_scores",
    )),
    (evaluation, (
        "score_edges", "logit_lp", "node_centric_lp_ablation", "emb_lp",
        "xmc_scores", "imitate", "finetune_linkpred", "student_embed",
        "common_neighbors", "adamic_adar", "ppr_scores", "diffuse",
        "sym_norm_adjacency",
    )),
    (propagation, ("build_line_graph", "diffuse", "sym_norm_adjacency")),
    (SplitManifest, ("save",)),
    (EvalReport, ("save",)),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _span_name(func) -> tuple[str, str]:
    """(qualified span name, layer) from where ``func`` is defined."""
    layer = func.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{func.__qualname__}", layer


class Tracer:
    """Records spans of traced calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        try:
            yield self.spans[-1]
        finally:
            self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, func):
        name, layer = _span_name(func)
        annotate = _ANNOTATORS.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer) as sp:
                if name in _COUNT_WARNINGS:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = func(*args, **kwargs)
                    sp.attrs["warnings"] = sum(
                        1 for w in caught if issubclass(w.category, RuntimeWarning)
                    )
                else:
                    result = func(*args, **kwargs)
            if annotate is not None:
                annotate(sp.attrs, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, names in _TARGETS:
            for attr in names:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover.

        Spans nest strictly (one thread, wrappers enter and exit in call
        order), so the children of a span never overlap each other.
        """
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.duration
        return out

    def totals(self, name: str) -> tuple[float, int]:
        """(summed duration, call count) of every span called ``name``."""
        durations = [sp.duration for sp in self.spans if sp.name == name]
        return float(sum(durations)), len(durations)

    def attr_values(self, name: str, key: str) -> list:
        return [sp.attrs[key] for sp in self.spans if sp.name == name and key in sp.attrs]

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        rows = [
            {
                "id": i,
                "name": sp.name,
                "layer": sp.layer,
                "start": sp.start,
                "end": sp.end,
                "parent": sp.parent,
                "self_s": selfs[i],
                "attrs": sp.attrs,
            }
            for i, sp in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


# -- per-span counts taken from positional arguments and results ----------

_MIB = float(1 << 20)

# spans whose RuntimeWarnings (PPR non-convergence) are counted
_COUNT_WARNINGS = {"heuristics.ppr_scores"}


def _note_method(attrs, args, result) -> None:
    attrs["method"] = args[0]


def _note_split(attrs, args, result) -> None:
    attrs["edges"] = sum(len(v) for v in result.splits().values())


def _note_scorer(attrs, args, result) -> None:
    config, _g, manifest = args[:3]
    per_epoch = max(len(manifest.train_pos), len(manifest.train_neg))
    batches = -(-per_epoch // config.batch_size)
    attrs["steps"] = len(result.loss_trace) * batches


def _note_imitate(attrs, args, result) -> None:
    attrs["epochs"] = len(result.loss_trace)


def _note_line_graph(attrs, args, result) -> None:
    adj = result.norm_adjacency
    attrs["line_edges"] = result.num_line_edges
    # array bytes only; the edge -> node dict is not counted
    attrs["computed_mb"] = (
        result.indptr.nbytes + result.indices.nbytes
        + adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
    ) / _MIB


def _note_xmc(attrs, args, result) -> None:
    g, _y, _cfg, query = args[:4]
    q = np.asarray(query)
    cols = np.unique(np.maximum(q[:, 0], q[:, 1])).size
    attrs["computed_mb"] = g.num_nodes * cols * 8 / _MIB


def _note_ppr(attrs, args, result) -> None:
    g, edges = args[:2]
    sources = np.unique(np.asarray(edges).ravel()).size
    attrs["sources"] = sources
    attrs["computed_mb"] = g.num_nodes * sources * 8 / _MIB


_ANNOTATORS = {
    "evaluation.method_scores": _note_method,
    "selection.make_split": _note_split,
    "scorer.train_scorer": _note_scorer,
    "distill.imitate": _note_imitate,
    "propagation.build_line_graph": _note_line_graph,
    "propagation.xmc_scores": _note_xmc,
    "heuristics.ppr_scores": _note_ppr,
}
