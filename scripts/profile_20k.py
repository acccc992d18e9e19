"""Profile one ``run_pipeline`` call at the ROADMAP's 20k profile size.

Usage::

    python3 scripts/profile_20k.py [--methods scorer emb_lp ...] [--scale 0.01]

The pair is ``SyntheticSpec(n_src=20000, n_tar=8000, overlap_ratio=0.3,
mean_deg_src=10, mean_deg_tar=3, feature_dim=16, feature_shift=0.3,
seed=1)``, run under the ``int`` regime with a 5-epoch scorer; ``--scale``
multiplies both node counts. Prints one line per report row (method,
``runtime_seconds``, ``recall_at_1x`` and the SHA-256 of its score file, so
that two checkouts can be compared byte for byte), then the wall time of
the whole ``run_pipeline`` call (``run_s``) and the process's peak RSS.
The run directory is a temporary one, removed on exit. The BLAS pool is
pinned to one thread, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP pools are sized when numpy loads, so the pin must come before
# any import that pulls numpy in.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linkbridge.pipeline import run_pipeline  # noqa: E402

METHODS = ("scorer", "logit_lp", "emb_lp", "xmc_lp", "node_lp", "mlp", "cn", "aa", "ppr")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="factor on both node counts (default 1)")
    args = parser.parse_args(argv)
    spec = {
        "n_src": round(20000 * args.scale),
        "n_tar": round(8000 * args.scale),
        "overlap_ratio": 0.3,
        "mean_deg_src": 10,
        "mean_deg_tar": 3,
        "feature_dim": 16,
        "feature_shift": 0.3,
        "seed": 1,
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = {
            "seed": 1,
            "out_dir": tmp,
            "dataset": {"kind": "synthetic", "spec": spec},
            "regimes": ["int"],
            "methods": args.methods,
            "scorer": {"epochs": 5},
        }
        start = time.perf_counter()
        report = run_pipeline(config)
        run_s = time.perf_counter() - start
        for row in report.rows:
            scores = Path(tmp) / "scores" / f"int.{row['method']}.tsv"
            digest = hashlib.sha256(scores.read_bytes()).hexdigest()[:16]
            print(f"{row['method']:<9} runtime_seconds {row['runtime_seconds']:9.3f}"
                  f"  recall_at_1x {row['recall_at_1x']:.4f}  scores {digest}")
    print(f"run_s {run_s:.3f}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb {peak:.1f}")


if __name__ == "__main__":
    main()
