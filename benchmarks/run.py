"""Scenario-run benchmark of fockladder.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

A run writes the workload's scenario files from the seed, times set-up in
fresh interpreters, runs workload passes in one worker process for S
seconds, checks every output against the benchmark's own reference, and
prints one JSON line last: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  --smoke proves that
every metric prints with its unit, that the correctness gate fails on a
perturbed reference, and that the counts repeat.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every worker
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_PROBES = 3
WORKER_GRACE_S = 150.0
PROBE_TIMEOUT_S = 60.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _worker(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def time_setup(plan_path: Path, log) -> float:
    """Seconds from starting an interpreter to its first propagation call."""
    start = time.monotonic()
    proc = subprocess.run(_worker("probe", str(plan_path)), stdout=subprocess.PIPE,
                          stderr=log, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe exited {proc.returncode} before propagating")
    return float(lines[-1]) - start


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 probes: int = SETUP_PROBES) -> dict:
    """One benchmark run: set-up probes, timed passes, checks; returns a record."""
    import workloads

    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.make_plan(workload, seed, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result_path, spans_path = work / "result.json", work / "spans.csv"
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        setup = [time_setup(plan_path, log) for _ in range(probes)]
        subprocess.run(
            _worker("measure", str(plan_path), repr(float(seconds)), "1" if trace else "0",
                    str(result_path), str(spans_path)),
            stdout=log, stderr=subprocess.STDOUT, timeout=seconds + WORKER_GRACE_S, cwd=ROOT,
            check=True,
        )
    result = json.loads(result_path.read_text())
    passes = result["passes"]

    # the reference of each command, from the first pass that produced it
    refs = {}
    for i, command in enumerate(plan["commands"]):
        for p in passes:
            if p["runs"][i]["rc"] == 0:
                try:
                    refs[i] = workloads.command_reference(command, Path(p["out"]))
                except (OSError, KeyError, ValueError):
                    continue  # an unreadable output fails this run in the check below
                break
    attempted = failed = 0
    ref_err = 0.0
    for p in passes:
        for i, (command, run) in enumerate(zip(plan["commands"], p["runs"])):
            attempted += 1
            err = (workloads.compare(command, Path(p["out"]), refs[i], run["steady"])
                   if run["rc"] == 0 and i in refs else math.inf)
            ref_err = max(ref_err, err)
            if err > workloads.TOLERANCE[command["check"]]:
                failed += 1
    return {"workload": workload, "seed": seed, "plan": plan, "refs": refs,
            "passes": passes, "setup_s": setup, "peak_rss_kb": result["peak_rss_kb"],
            "attempted": attempted, "failed": failed, "ref_err": ref_err, "work": work}


def end_to_end(record: dict) -> dict[str, float]:
    plain = [p for p in record["passes"] if not p["traced"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def per_layer(record: dict) -> dict[str, float]:
    traced = [p for p in record["passes"] if p["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        metrics[name] = values[0] if name in spans.COUNT_METRICS else statistics.median(values)
    plain_wall = statistics.median(p["wall_s"] for p in record["passes"] if not p["traced"])
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - plain_wall
    metrics["check.fail_ratio"] = record["failed"] / record["attempted"]
    metrics["check.ref_err"] = record["ref_err"]
    return metrics


def counts_repeat(record: dict) -> bool:
    traced = [p["layers"] for p in record["passes"] if p["traced"]]
    return all(t[name] == traced[0][name] for t in traced for name in spans.COUNT_METRICS)


def _units(section: str) -> dict[str, str]:
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units.get(name, '?')}")


def smoke(seed: int) -> int:
    """Every metric prints with its unit; the gate catches a perturbed
    reference; counts repeat between traced passes."""
    import workloads

    ok = True
    e2e_units, layer_units = _units("end_to_end"), _units("per_layer")
    for workload in workloads.WORKLOADS:
        record = run_workload(workload, seed, 0.0, trace=True, probes=1)
        e2e, layers = end_to_end(record), per_layer(record)
        print(f"{workload}: attempted {record['attempted']}, failed {record['failed']}, "
              f"ref_err {record['ref_err']:.3g}")
        _print_metrics(e2e, e2e_units)
        _print_metrics(layers, layer_units)
        missing = (set(e2e_units) - set(e2e)) | (set(layer_units) - set(layers))
        extra = (set(e2e) - set(e2e_units)) | (set(layers) - set(layer_units))
        if missing or extra:
            print(f"  FAIL metrics missing {sorted(missing)}, not declared {sorted(extra)}")
            ok = False

        first = record["passes"][0]
        kinds = {}
        for i, command in enumerate(record["plan"]["commands"]):
            kinds.setdefault(command["check"], i)
        for i in kinds.values():
            command, ref = record["plan"]["commands"][i], record["refs"][i]
            column = next(name for name in ref["columns"] if name not in ("zeta1_t", "value"))
            perturbed = dict(ref, columns=dict(ref["columns"]))
            perturbed["columns"][column] = ref["columns"][column] + 1e-3
            err = workloads.compare(command, Path(first["out"]), perturbed,
                                    first["runs"][i]["steady"])
            caught = err > workloads.TOLERANCE[command["check"]]
            print(f"  gate on a {command['check']} reference shifted by 1e-3 in {column}: "
                  f"{'fails as it should' if caught else 'FAIL: still passes'} (err {err:.3g})")
            ok = ok and caught
        repeat = counts_repeat(record)
        print(f"  counts repeat across traced passes: {'yes' if repeat else 'FAIL: no'}")
        ok = ok and repeat and record["failed"] == 0
        shutil.rmtree(record["work"], ignore_errors=True)
    print("smoke: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "fockladder" / "__init__.py").is_file():
        print(f"no fockladder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.smoke:
        return smoke(args.seed)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = record["passes"]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"walls {[round(p['wall_s'], 3) for p in passes]}, "
          f"setup {[round(s, 3) for s in record['setup_s']]}")
    print(f"checks: attempted {record['attempted']}, failed {record['failed']}, "
          f"fail_ratio {record['failed'] / record['attempted']:.3g}, "
          f"ref_err {record['ref_err']:.3g}")
    if args.trace:
        metrics, units = per_layer(record), _units("per_layer")
        print(f"counts repeat across traced passes: {counts_repeat(record)}; "
              f"spans in {record['work'] / 'spans.csv'}")
    else:
        metrics, units = end_to_end(record), _units("end_to_end")
    _print_metrics(metrics, units)
    for p in passes:  # outputs are checked; keep the plan, logs and spans
        shutil.rmtree(p["out"], ignore_errors=True)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
