"""Benchmark entry point: ``python3 perfbench/run.py --workload <name> ...``.

Runs one workload (``broadcast``, ``distill`` or ``heuristics``) in this
process, or every workload one after another with ``--workload all``. Prints
a table of every metric with its unit and sample count, then, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Work files go to ``.bench_work/`` at the root of
the checkout; the spans of a traced run are written there as ``trace.json``.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP pools are sized when numpy loads, so the pin must come before
# any import that pulls numpy in.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("broadcast", "distill", "heuristics")


def _load_program() -> None:
    """Import linkbridge from this checkout's sources, never from elsewhere."""
    package = SRC / "linkbridge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import linkbridge

    if Path(linkbridge.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported linkbridge from {linkbridge.__file__}, not {package}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _table(title: str, result, units: dict) -> str:
    """One line per metric; a timing repeated in the run also shows the
    median and maximum of its samples next to the reported minimum."""
    lines = [title, f"  {'metric':<40} {'value':>12}  {'unit':<9} samples"]
    for name, value in result.metrics.items():
        line = f"  {name:<40} {value:>12.6g}  {units[name]:<9} {result.samples.get(name, 1)}"
        times = result.timings.get(name)
        if times and name in units and len(times) > 1:
            line += f" (min; median {statistics.median(times):.6g}, max {max(times):.6g})"
        lines.append(line)
    return "\n".join(lines)


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from bench import END_TO_END, PER_LAYER, measure
    from workloads import WORKLOADS

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    work = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}"
    result = measure(WORKLOADS[workload_name], seed, seconds, trace, work)
    units = PER_LAYER if trace else END_TO_END
    for problem in result.problems:
        print(f"problem: {problem}")
    if not result.metrics:
        sys.exit(f"error: no call of {workload_name} succeeded")
    print(_table(f"{workload_name} seed={seed} trace={int(trace)}", result, units))
    (work / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")
    (work / "timings.json").write_text(json.dumps(result.timings) + "\n", encoding="utf-8")
    return result_line(result, units)


def result_line(result, units: dict) -> dict:
    """The object printed as the last line: every metric in ``units``."""
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": units[name]}
                    for name in units},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own child process, one at a time, so that each
    process's peak memory belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            combined["failed"] += 1
            combined["attempted"] += 1
            continue
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, entry in one["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        out = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
