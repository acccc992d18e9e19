"""Self-test of the benchmark at toy sizes: ``python3 perfbench/selftest.py``.

Checks that every workload emits each metric that ``BENCHMARK.json`` names,
with its unit, in both modes; that layer self times add up to the traced run
time; that a corrupted score file trips the recall cross-check; and that the
benchmark refuses to run without the program's sources. Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run  # pins BLAS threads before numpy loads

run._load_program()

from bench import END_TO_END, PER_LAYER, measure  # noqa: E402
from checks import RunChecker  # noqa: E402
from linkbridge.pipeline import run_pipeline  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, make_inputs, run_config, scaled  # noqa: E402

TOY = 0.05
WORK = run.WORK / "selftest"


def _contract() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def check_metrics(failures: list[str]) -> None:
    e2e, layers = _contract()
    if e2e != END_TO_END:
        failures.append(f"BENCHMARK.json end_to_end {e2e} != bench.END_TO_END")
    if layers != PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from bench.PER_LAYER")
    for name, workload in WORKLOADS.items():
        toy = scaled(workload, TOY)
        for trace, units in ((False, e2e), (True, layers)):
            result = measure(toy, seed=7, seconds=0.0, trace=trace,
                             work=WORK / f"{name}-trace{int(trace)}")
            tag = f"{name} trace={int(trace)}"
            if not result.correct:
                failures.append(f"{tag}: run not correct: {result.problems}")
                continue
            line = run.result_line(result, units)
            print(f"{tag}: {result.attempted} calls, {len(line['metrics'])} metrics")
            for metric, unit in units.items():
                entry = line["metrics"].get(metric)
                if entry is None or entry["unit"] != unit:
                    failures.append(f"{tag}: {metric} missing or not in {unit}")
                elif not math.isfinite(entry["value"]):
                    failures.append(f"{tag}: {metric} is {entry['value']}")
            if trace:
                selfs = sum(result.metrics[f"{layer}.self_s"] for layer in LAYERS)
                if not math.isclose(selfs, result.metrics["trace.run_s"], rel_tol=1e-9):
                    failures.append(f"{tag}: self times sum to {selfs}, "
                                    f"traced run took {result.metrics['trace.run_s']}")
            else:
                for metric in e2e:
                    if line["metrics"][metric]["value"] <= 0:
                        failures.append(f"{tag}: {metric} is not positive")


def check_corruption_detected(failures: list[str]) -> None:
    workload = scaled(WORKLOADS["broadcast"], TOY)
    work = WORK / "corrupt"
    shutil.rmtree(work, ignore_errors=True)
    inputs, _ = make_inputs(workload, 3, work / "input")
    out_dir = work / "run"
    report = run_pipeline(run_config(workload, 3, inputs, out_dir), base_dir=work)
    checker = RunChecker(inputs, workload)
    if checker.check(report, out_dir):
        failures.append("uncorrupted run failed its checks")
        return
    # rank every negative above every positive: recall drops to 0
    path = out_dir / "scores" / "uni.scorer.tsv"
    manifest_pos = {tuple(p) for p in json.loads(
        (out_dir / "manifests" / "uni.json").read_text())["splits"]["test_pos"]}
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        a, b, _ = line.split("\t")
        lines.append(f"{a}\t{b}\t{0.0 if tuple(sorted((a, b))) in manifest_pos else 1.0}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = checker.check(report, out_dir)
    if not any("recall_at_1x" in p for p in problems):
        failures.append(f"corrupted score file not caught; problems: {problems}")


def check_refuses_without_sources(failures: list[str]) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "broadcast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append(f"ran without sources: exit {proc.returncode}, {proc.stdout!r}")


def main() -> int:
    failures: list[str] = []
    check_metrics(failures)
    check_corruption_detected(failures)
    check_refuses_without_sources(failures)
    shutil.rmtree(WORK, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
