"""The workload process: runs workload passes through ``fockladder.cli.main``.

    python3 benchmarks/worker.py measure PLAN SECONDS TRACE RESULT SPANS
    python3 benchmarks/worker.py probe PLAN

``measure`` repeats the plan's CLI invocations, one pass after another,
for about SECONDS, and writes per-pass wall and CPU times, exit
codes and (with TRACE 1) per-layer metrics to RESULT.  With TRACE 1 the
passes run untraced, traced, traced and then alternate, so the same run
gives the tracing overhead.  ``probe`` prints the monotonic clock at the
first call into the propagation layer and exits there; the caller times
set-up from its own clock reading before the interpreter started.

Only the standard library and fockladder are imported before the
workload runs, so a probe times what a user of the CLI waits for.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

# names through which scenarios enters the propagation layer
PROPAGATION_ENTRY = ("evolve_state", "evolve_density", "collision_model_evolve")


def _argv(command: dict, out: Path) -> list[str]:
    return [arg.replace("{out}", str(out)) for arg in command["argv"]]


def _invoke(main, argv) -> int | str:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught library error fails this run, not the pass loop
        traceback.print_exc(file=sys.stdout)
        return "exception"


def probe(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import fockladder.cli
    import fockladder.scenarios

    def reached(*args, **kwargs):
        os.write(1, f"{time.monotonic()!r}\n".encode())
        os._exit(0)

    for name in PROPAGATION_ENTRY:
        setattr(fockladder.scenarios, name, reached)
    out = Path(plan_path).parent / "probe"
    fockladder.cli.main(_argv(plan["commands"][0], out))
    return 1  # the propagation layer was never reached


def measure(plan_path: str, seconds: float, trace: bool, result_path: str,
            spans_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import fockladder
    import fockladder.cli
    import fockladder.scenarios

    if Path(fockladder.__file__).resolve().parent != SRC / "fockladder":
        raise ImportError(f"fockladder loaded from {fockladder.__file__}, not {SRC}")

    captured: list = []
    if plan["capture_steady"]:
        # the sweep table omits the steady-state block; keep it from each summary
        original = fockladder.scenarios.run_scenario

        def capture(config):
            result = original(config)
            captured.append(result.summary["steady"]["null_space_fidelity"])
            return result

        fockladder.scenarios.run_scenario = capture

    if trace:
        import spans as spanlib

    work = Path(plan_path).parent
    passes = []
    all_spans = []
    begin = time.perf_counter()
    index = 0
    while True:
        traced = trace and (index in (1, 2) or (index > 2 and index % 2 == 0))
        out = work / f"pass-{index}"
        tracer = None
        main = fockladder.cli.main
        if traced:
            tracer = spanlib.Tracer()
            tracer.install()
            main = tracer.wrap("cli.main", main)
        runs = []
        t0, c0 = time.perf_counter(), os.times()
        for command in plan["commands"]:
            del captured[:]
            rc = _invoke(main, _argv(command, out))
            runs.append({"rc": rc, "steady": list(captured)})
        t1, c1 = time.perf_counter(), os.times()
        record = {"traced": traced, "wall_s": t1 - t0,
                  "cpu_s": (c1.user - c0.user) + (c1.system - c0.system),
                  "out": str(out), "runs": runs}
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = spanlib.layer_metrics(tracer.spans)
            all_spans.append((index, tracer.spans))
        passes.append(record)
        if index == 0:
            # later passes reuse (and fragment) the first one's heap, so the
            # peak is that of one pass, whatever the number of passes
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        index += 1
        # stop where the pass count best fills SECONDS: another pass would
        # end further past it than this one ends short of it
        enough = index >= (3 if trace else 1)
        if enough and time.perf_counter() - begin + 0.5 * record["wall_s"] >= seconds:
            break

    Path(result_path).write_text(json.dumps({"passes": passes, "peak_rss_kb": peak_kb}))
    if all_spans:
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("pass,id,name,start,end,parent\n")
            for pass_index, spans in all_spans:
                for sid, (name, start, end, parent, _) in enumerate(spans):
                    fh.write(f"{pass_index},{sid},{name},{start!r},{end!r},{parent}\n")
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        sys.exit(probe(sys.argv[2]))
    sys.exit(measure(sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1",
                     sys.argv[5], sys.argv[6]))
