"""Measure one workload: set-up, timed ``run_pipeline`` calls, checks, trace.

End-to-end numbers come from untraced calls. With tracing on, one further
call runs with the tracer installed, followed by the kernel probes; the
per-layer numbers come from that call and those probes.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import RunChecker
from linkbridge.evaluation import KNOWN_METHODS, EvalReport
from linkbridge.pipeline import run_pipeline
from probes import run_probes
from tracing import LAYERS, Tracer
from workloads import Inputs, Workload, make_inputs, run_config

__all__ = ["Result", "END_TO_END", "PER_LAYER", "measure"]

MIN_CALLS = 3

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "recall_at_1x.scorer": "fraction",
    "recall_at_1x.mean": "fraction",
}

# Stage times (s), counts and computed sizes of the traced call, plus the
# probes (ms). A layer that does not run on a workload reports 0.
PER_LAYER = {
    "io.load_graph_s": "s",
    "io.write_scores_s": "s",
    "io.bytes_written": "bytes",
    "graph.union_s": "s",
    "selection.make_split_s": "s",
    "selection.training_graph_s": "s",
    "selection.manifest_save_s": "s",
    "selection.manifest_edges": "count",
    "selection.sample_negatives_ms": "ms",
    "scorer.train_s": "s",
    "scorer.steps": "count",
    "scorer.step_ms": "ms",
    "scorer.batch_step_ms": "ms",
    "scorer.batch_step_nodes": "count",
    "distill.imitate_s": "s",
    "distill.imitate_epochs": "count",
    "distill.imitate_epoch_ms": "ms",
    "distill.finetune_s": "s",
    "propagation.logit_lp_s": "s",
    "propagation.emb_lp_s": "s",
    "propagation.xmc_lp_s": "s",
    "propagation.build_line_graph_s": "s",
    "propagation.line_edges": "count",
    "propagation.diffuse_s": "s",
    "propagation.diffuse_calls": "count",
    "propagation.diffuse_iter_ms": "ms",
    "propagation.line_graph_mb": "MiB",
    "propagation.xmc_state_mb": "MiB",
    "heuristics.ppr_s": "s",
    "heuristics.ppr_sources": "count",
    "heuristics.ppr_dense_mb": "MiB",
    "heuristics.ppr_warnings": "count",
    "heuristics.cn_s": "s",
    "heuristics.aa_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.node_lp_s": "s",
    **{f"evaluation.method_scores_s.{m}": "s" for m in KNOWN_METHODS},
    **{f"evaluation.recall_at_1x.{m}": "fraction" for m in KNOWN_METHODS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    """What one benchmark invocation found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    timings: dict[str, list[float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class _Runner:
    """Runs and checks ``run_pipeline`` calls of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, inputs: Inputs, work: Path,
                 result: Result) -> None:
        self.workload, self.seed, self.inputs, self.work = workload, seed, inputs, work
        self.result = result
        self.checker = RunChecker(inputs, workload)

    def call(self, tracer: Tracer | None = None) -> tuple[float, EvalReport | None, Path]:
        """One checked call; returns its seconds, its report (None if it failed)
        and its output directory."""
        self.result.attempted += 1
        out_dir = self.work / f"run{self.result.attempted}"
        config = run_config(self.workload, self.seed, self.inputs, out_dir)
        gc.collect()  # start every call from the same heap state
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = run_pipeline(config, base_dir=self.work)
            else:
                with tracer.span("pipeline.run_pipeline", "pipeline"):
                    report = run_pipeline(config, base_dir=self.work)
        except Exception as exc:  # any failure of the program counts against it
            elapsed = time.perf_counter() - t0
            self._fail(f"call {self.result.attempted} raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return elapsed, None, out_dir
        elapsed = time.perf_counter() - t0
        print(f"call {self.result.attempted}: {elapsed:.3f} s"
              + (" (traced)" if tracer is not None else ""), file=sys.stderr)
        problems = self.checker.check(report, out_dir)
        if problems:
            self._fail(f"call {self.result.attempted}: " + "; ".join(problems))
            return elapsed, None, out_dir
        return elapsed, report, out_dir

    def _fail(self, message: str) -> None:
        self.result.failed += 1
        self.result.problems.append(message)
        print(f"FAILED {message}", file=sys.stderr)


def _recalls(report: EvalReport) -> dict[str, float]:
    """recall_at_1x per method, averaged over the report's regimes."""
    by_method: dict[str, list[float]] = {}
    for row in report.rows:
        by_method.setdefault(row["method"], []).append(row["recall_at_1x"])
    return {m: statistics.fmean(v) for m, v in by_method.items()}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> Result:
    """Set up, call and check for ``seconds`` (at least ``MIN_CALLS`` calls),
    and with ``trace`` add one traced call and the probes. ``work`` is
    emptied first."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work / "input", ignore_errors=True)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool,
             work: Path) -> Result:
    result = Result()
    # Set-up is repeated before every call, so that its samples span the
    # same stretch of time as the calls and see the same machine noise.
    setup_times: list[float] = []
    run_times: list[float] = []
    runner = None
    report = None
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or result.attempted < MIN_CALLS:
        shutil.rmtree(work / "input", ignore_errors=True)
        inputs, setup_elapsed = make_inputs(workload, seed, work / "input")
        setup_times.append(setup_elapsed)
        if runner is None:
            runner = _Runner(workload, seed, inputs, work, result)
        elapsed, call_report, out_dir = runner.call()
        if call_report is not None:
            run_times.append(elapsed)
            report = call_report
        shutil.rmtree(out_dir, ignore_errors=True)
    result.timings = {"run_s": run_times, "setup_s": setup_times}
    if report is None:
        return result
    recalls = _recalls(report)

    if not trace:
        result.metrics = {
            "run_s": min(run_times),
            "setup_s": min(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recall_at_1x.scorer": recalls["scorer"],
            "recall_at_1x.mean": statistics.fmean(r["recall_at_1x"] for r in report.rows),
        }
        result.samples = {"run_s": len(run_times), "setup_s": len(setup_times),
                          "peak_rss_mb": 1, "recall_at_1x.scorer": len(workload.regimes),
                          "recall_at_1x.mean": len(report.rows)}
        return result

    tracer = Tracer()
    tracer.install()
    try:
        elapsed, traced_report, out_dir = runner.call(tracer)
    finally:
        tracer.remove()
    if traced_report is None:
        shutil.rmtree(out_dir, ignore_errors=True)
        return result
    written = _dir_bytes(out_dir)
    probes = run_probes(workload, inputs, out_dir)
    tracer.write(work / "trace.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    result.metrics = _layer_metrics(
        tracer, statistics.median(run_times), written, probes, recalls)
    result.samples = {name: 1 for name in result.metrics}
    return result


def _layer_metrics(tracer: Tracer, untraced_run_s: float, written: int,
                   probes: dict[str, float], recalls: dict[str, float]) -> dict[str, float]:
    def total(name: str) -> float:
        return tracer.totals(name)[0]

    def attr_sum(name: str, key: str) -> float:
        return float(sum(tracer.attr_values(name, key)))

    def attr_max(name: str, key: str) -> float:
        return float(max(tracer.attr_values(name, key), default=0.0))

    m: dict[str, float] = {}
    m["io.load_graph_s"] = total("io.load_graph")
    m["io.write_scores_s"] = total("io.write_scores_tsv")
    m["io.bytes_written"] = float(written)
    m["graph.union_s"] = total("graph.union_graph")
    m["selection.make_split_s"] = total("selection.make_split")
    m["selection.training_graph_s"] = total("selection.manifest_training_graph")
    m["selection.manifest_save_s"] = total("selection.SplitManifest.save")
    m["selection.manifest_edges"] = attr_sum("selection.make_split", "edges")

    m["scorer.train_s"] = total("scorer.train_scorer")
    m["scorer.steps"] = attr_sum("scorer.train_scorer", "steps")
    m["scorer.step_ms"] = 1e3 * m["scorer.train_s"] / max(m["scorer.steps"], 1.0)

    m["distill.imitate_s"] = total("distill.imitate")
    m["distill.imitate_epochs"] = attr_sum("distill.imitate", "epochs")
    m["distill.imitate_epoch_ms"] = (
        1e3 * m["distill.imitate_s"] / max(m["distill.imitate_epochs"], 1.0))
    m["distill.finetune_s"] = total("distill.finetune_linkpred")

    m["propagation.logit_lp_s"] = total("propagation.logit_lp")
    m["propagation.emb_lp_s"] = total("propagation.emb_lp")
    m["propagation.xmc_lp_s"] = total("propagation.xmc_scores")
    m["propagation.build_line_graph_s"] = total("propagation.build_line_graph")
    m["propagation.line_edges"] = attr_sum("propagation.build_line_graph", "line_edges")
    m["propagation.diffuse_s"], calls = tracer.totals("propagation.diffuse")
    m["propagation.diffuse_calls"] = float(calls)
    m["propagation.line_graph_mb"] = attr_max("propagation.build_line_graph", "computed_mb")
    m["propagation.xmc_state_mb"] = attr_max("propagation.xmc_scores", "computed_mb")

    m["heuristics.ppr_s"] = total("heuristics.ppr_scores")
    m["heuristics.ppr_sources"] = attr_sum("heuristics.ppr_scores", "sources")
    m["heuristics.ppr_dense_mb"] = attr_max("heuristics.ppr_scores", "computed_mb")
    m["heuristics.ppr_warnings"] = attr_sum("heuristics.ppr_scores", "warnings")
    m["heuristics.cn_s"] = total("heuristics.common_neighbors")
    m["heuristics.aa_s"] = total("heuristics.adamic_adar")

    m["evaluation.evaluate_s"] = total("evaluation.evaluate_scores")
    m["evaluation.node_lp_s"] = total("evaluation.node_centric_lp_ablation")
    per_method = {method: 0.0 for method in KNOWN_METHODS}
    for sp in tracer.spans:
        if sp.name == "evaluation.method_scores":
            per_method[sp.attrs["method"]] += sp.duration
    for method in KNOWN_METHODS:
        m[f"evaluation.method_scores_s.{method}"] = per_method[method]
        m[f"evaluation.recall_at_1x.{method}"] = recalls.get(method, 0.0)

    selfs = tracer.self_times()
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sp, own in zip(tracer.spans, selfs):
        layer_self[sp.layer] += own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    run_s, _ = tracer.totals("pipeline.run_pipeline")
    m["trace.run_s"] = run_s
    m["trace.overhead_s"] = run_s - untraced_run_s
    m.update(probes)
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return m
