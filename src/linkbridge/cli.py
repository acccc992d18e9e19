"""Command-line interface: every pipeline stage as a subcommand.

The stage subcommands run what ``linkbridge run`` runs (``pipeline.fit_scorer``,
``evaluation.method_scores``, ``evaluation.train_student``,
``pipeline.metric_row``), and an option left unset keeps the library default.
Seeds are used as given (``--seed``, a config file's ``seed``), while
``linkbridge run`` derives every stage seed from its run seed.

Exit codes: 0 success, 2 config error, 3 data error (also for an input file
that is missing, unreadable or malformed), 4 numeric failure.
Heavy imports happen inside the command handlers so that ``--threads`` can
pin the BLAS pool size before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(threads)


def _read_json(path: str) -> dict:
    from .errors import ConfigError

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return payload


def _given(**options) -> dict:
    """The options set on the command line; the rest keep the library defaults."""
    return {name: value for name, value in options.items() if value is not None}


def _build_config(cls, path=None, **options):
    """``cls`` from a JSON file's fields and the options given, validated;
    an unknown or missing field is a ConfigError (exit 2), as is every
    ``validate()`` failure."""
    from .errors import ConfigError

    payload = (_read_json(path) if path else {}) | _given(**options)
    try:
        config = cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"{cls.__name__}: {exc}") from exc
    config.validate()
    return config


def _write_pair(out_dir: str, src, tar, feature_format: str = "csv") -> Path:
    """``source.tsv`` and ``target.tsv``, each with its features file if any."""
    from .io import write_edge_tsv, write_features_bin, write_features_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, g in (("source", src), ("target", tar)):
        write_edge_tsv(out / f"{name}.tsv", g.edge_keys())
        if g.features is None:
            continue
        if feature_format == "csv":
            write_features_csv(out / f"{name}.features.csv", list(g.keys), g.features)
        else:
            write_features_bin(out / f"{name}.features.json", list(g.keys), g.features)
    return out


# ---------------------------------------------------------------------------
# command handlers

def cmd_ingest(args) -> int:
    from .graph import build_graph
    from .io import read_edge_tsv, read_features, read_sides_tsv, save_graph

    pairs = []
    for path in args.edges:
        p, _ = read_edge_tsv(path)
        pairs.extend(p)
    features = None
    if args.features:
        features = {}
        for path in args.features:
            features.update(read_features(path))
    sides = read_sides_tsv(args.sides) if args.sides else None
    extra = list(features.keys()) if features else []
    g = build_graph(pairs, features=features, sides=sides, extra_nodes=extra)
    save_graph(g, args.out, feature_format=args.feature_format)
    stats = g.build_stats
    print(
        f"ingested {g.num_nodes} nodes, {g.num_edges} edges "
        f"(dropped {stats.self_loops_dropped} self-loops, "
        f"{stats.duplicates_dropped} duplicates) -> {args.out}"
    )
    return 0


def cmd_split_temporal(args) -> int:
    from .datasets import temporal_split
    from .io import read_edge_tsv, read_features

    pairs, years = read_edge_tsv(args.edges)
    if any(y is None for y in years):
        from .errors import DataError

        raise DataError(f"{args.edges}: every edge needs a year column")
    features = read_features(args.features) if args.features else None
    edges = [(u, v, y) for (u, v), y in zip(pairs, years)]
    src, tar = temporal_split(edges, args.y_low, args.y_high, features=features)
    out = _write_pair(args.out_dir, src, tar)
    print(
        f"source: {src.num_nodes} nodes / {src.num_edges} edges; "
        f"target: {tar.num_nodes} nodes / {tar.num_edges} edges -> {out}"
    )
    return 0


def cmd_gen_synmodel(args) -> int:
    from .datasets import SyntheticSpec, generate_synthetic
    from .io import write_edge_tsv

    spec = _build_config(SyntheticSpec, args.spec)
    src, tar, heldout = generate_synthetic(spec)
    out = _write_pair(args.out_dir, src, tar, args.feature_format)
    write_edge_tsv(out / "heldout.tsv", heldout)
    print(
        f"synthetic pair written to {out}: source {src.num_nodes}n/{src.num_edges}e, "
        f"target {tar.num_nodes}n/{tar.num_edges}e, {len(heldout)} held-out edges"
    )
    return 0


def cmd_make_split(args) -> int:
    from .io import load_graph
    from .selection import Regime, make_split

    src = load_graph(args.src)
    tar = load_graph(args.tar)
    given = _given(neg_ratio=args.neg_ratio, train_frac_outside=args.train_frac, seed=args.seed)
    manifest = make_split(Regime.parse(args.regime), src, tar, **given)
    manifest.save(args.out)
    sizes = {k: len(v) for k, v in manifest.splits().items()}
    print(f"manifest -> {args.out} {json.dumps(sizes)}")
    return 0


def _load_training_graph(args):
    """``--manifest`` and its training graph over the ``--graph`` universe."""
    from .io import load_graph
    from .selection import SplitManifest, training_graph_from_universe

    manifest = SplitManifest.load(args.manifest)
    return manifest, training_graph_from_universe(manifest, load_graph(args.graph))


def cmd_train_scorer(args) -> int:
    from .io import write_features_bin
    from .pipeline import fit_scorer
    from .scorer import ScorerConfig

    config = _build_config(ScorerConfig, args.config, seed=args.seed)
    manifest, g_train = _load_training_graph(args)
    model, y, _, _ = fit_scorer(config, g_train, manifest, args.out, args.emit_logits)
    print(
        f"model -> {args.out} (final epoch loss "
        f"{model.loss_trace[-1]:.6f})" if model.loss_trace else f"model -> {args.out}"
    )
    if args.emit_embeddings:
        write_features_bin(args.emit_embeddings, list(g_train.keys), y)
    return 0


def cmd_propagate(args) -> int:
    from .checkpoint import load_scorer
    from .errors import ConfigError
    from .evaluation import CALIBRATED_METHODS, SuiteConfig, method_scores
    from .io import read_scores_for, write_scores_tsv
    from .propagation import DiffusionConfig
    from .scorer import embed, score_edges

    diffusion = _build_config(DiffusionConfig, alpha=args.alpha, k_max=args.kmax, tol=args.tol)
    manifest, g_train = _load_training_graph(args)
    pairs = manifest.all_edges()
    ids = g_train.pair_ids(pairs)

    model = y = z = None
    if args.model:
        model = load_scorer(args.model, g_train)
        y = embed(model, g_train)
        z = score_edges(y, ids)
    if args.logits:
        z = read_scores_for(args.logits, pairs)
    # calibrated methods propagate edge logits; the rest need node embeddings
    method = f"{args.variant}_lp"
    if method in CALIBRATED_METHODS and z is None:
        raise ConfigError(f"{args.variant} variant needs --logits or --model")
    if method not in CALIBRATED_METHODS and y is None:
        raise ConfigError(f"{args.variant} variant needs --model")
    suite = SuiteConfig(diffusion=diffusion)
    scores = method_scores(method, g_train, manifest, model, y, z, ids, suite)
    write_scores_tsv(args.out, pairs, scores)
    print(f"{args.variant} scores for {len(pairs)} edges -> {args.out}")
    return 0


def cmd_distill(args) -> int:
    from .checkpoint import load_scorer, save_student
    from .distill import DistillConfig
    from .evaluation import train_student
    from .scorer import embed

    config = _build_config(DistillConfig, args.config, train_xprime=args.train_xprime)
    manifest, g_train = _load_training_graph(args)
    teacher = load_scorer(args.teacher, g_train)
    student = train_student(embed(teacher, g_train), g_train, manifest, teacher, config)
    save_student(args.out, student, g_train)
    print(f"student -> {args.out} (imitation mse {student.imitation_mse:.6f})")
    return 0


def cmd_baseline(args) -> int:
    from .evaluation import SuiteConfig, method_scores
    from .heuristics import PprConfig
    from .io import load_graph, read_pairs_tsv, write_scores_tsv

    ppr = _build_config(PprConfig, teleport=args.teleport, iterations=args.iterations)
    g = load_graph(args.graph)
    pairs = read_pairs_tsv(args.edges)
    suite = SuiteConfig(ppr=ppr)
    scores = method_scores(args.method, g, None, None, None, None, g.pair_ids(pairs), suite)
    write_scores_tsv(args.out, pairs, scores)
    print(f"{args.method} scores for {len(pairs)} pairs -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .errors import ConfigError
    from .evaluation import EvalReport, SuiteConfig, eval_pairs, shuffle_eval_order
    from .io import read_scores_for
    from .pipeline import metric_row
    from .selection import SplitManifest

    k_mult = tuple(args.k_mult) if args.k_mult else None
    suite = SuiteConfig(**_given(seed=args.seed, eval_split=args.split, k_multipliers=k_mult))
    manifest = SplitManifest.load(args.manifest)
    pos, neg = eval_pairs(manifest, suite.eval_split)
    eval_order, labels = shuffle_eval_order(pos, neg, suite.seed)

    rows = []
    for item in args.scores:
        if "=" not in item:
            raise ConfigError(f"--scores wants METHOD=FILE, got {item!r}")
        method, path = item.split("=", 1)
        scores = read_scores_for(path, eval_order)
        rows.append(
            metric_row(manifest.regime, method, scores, labels, suite, args.threshold)
        )
    report = EvalReport(
        rows=rows,
        config={"split": suite.eval_split, "k_multipliers": list(suite.k_multipliers)},
        seed=suite.seed,
        runtime_seconds=0.0,
    )
    report.save(args.report, args.table)
    print(report.text_table(), end="")
    return 0


def cmd_run(args) -> int:
    from .pipeline import run_pipeline

    config = _read_json(args.config)
    report = run_pipeline(config, base_dir=Path(args.config).resolve().parent)
    print(report.text_table(), end="")
    print(f"report content hash: {report.content_hash()}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkbridge",
        description="Cross-graph link prediction via overlap-selected training "
        "and edge-centric score propagation.",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="canonicalize edge lists into a graph dir")
    p.add_argument("--edges", action="append", required=True)
    p.add_argument("--features", action="append", default=None)
    p.add_argument("--sides", default=None)
    p.add_argument("--feature-format", choices=("csv", "bin"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split-temporal", help="cut a timestamped edge list "
                       "into source/target graphs")
    p.add_argument("--edges", required=True)
    p.add_argument("--y-low", type=int, required=True)
    p.add_argument("--y-high", type=int, required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split_temporal)

    p = sub.add_parser("gen-synmodel", help="generate the synthetic benchmark pair")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--feature-format", choices=("csv", "bin"), default="csv")
    p.set_defaults(func=cmd_gen_synmodel)

    p = sub.add_parser("make-split", help="build a train/valid/test manifest")
    p.add_argument("--regime", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tar", required=True)
    p.add_argument("--neg-ratio", type=float, default=None)
    p.add_argument("--train-frac", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_split)

    p = sub.add_parser("train-scorer", help="fit the pairwise link scorer")
    p.add_argument("--graph", required=True,
                   help="graph covering all manifest nodes (e.g. the union)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-logits", default=None)
    p.add_argument("--emit-embeddings", default=None)
    p.set_defaults(func=cmd_train_scorer)

    p = sub.add_parser("propagate", help="broadcast scores over the graph")
    p.add_argument("--variant", choices=("logit", "emb", "xmc", "node"),
                   required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--logits", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("distill", help="train the MLP student from a teacher")
    p.add_argument("--teacher", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--train-xprime", action="store_true", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("baseline", help="heuristic edge scores")
    p.add_argument("--method", choices=("cn", "aa", "ppr"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--teleport", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="rank-evaluate score files against a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scores", action="append", required=True,
                   help="METHOD=FILE, repeatable")
    p.add_argument("--split", default=None, help="valid, test or pooled")
    p.add_argument("--k-mult", type=float, action="append", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--table", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline from a JSON run config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_threads(args.threads)

    from .errors import ConfigError, DataError, NumericError

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
