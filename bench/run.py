"""The repo's benchmark: one command, four workloads, checked answers.

    python3 bench/run.py --workload serve_read --seed 3 --seconds 15 --trace 0

prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, measured with nothing
wrapped; ``--trace 1`` replays the seed's op script under timing
wrappers and reports the per-layer metrics.  A wrong answer exits 1; a
failed op is counted and does not.  See ``bench/README.md``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the script's own directory off the path (its ``trace`` would shadow the
# standard library's), the repository and the program on it
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import harness, trace, traced, workloads  # noqa: E402

_IMPORT_SECONDS = time.perf_counter() - _PROCESS_START


#: workload -> (end-to-end run, traced run)
RUNNERS = {
    "agg_batch": (workloads.run_in_process, traced.trace_in_process),
    "train": (workloads.run_in_process, traced.trace_in_process),
    "serve_read": (workloads.run_serve_read, traced.trace_served),
    "serve_mixed": (workloads.run_serve_mixed, traced.trace_served),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_one(spec: dict, args, workload: str) -> dict:
    settings = workloads.Settings(
        workload=workload,
        seed=args.seed,
        seconds=3.0 if args.smoke else args.seconds,
        smoke=args.smoke,
    )
    plain, replay = RUNNERS[workload]
    if args.trace:
        wanted = spec["per_layer"]
        outcome = replay(settings, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        outcome = plain(settings, _IMPORT_SECONDS)
    unknown = sorted(set(outcome.metrics) - {m["name"] for m in wanted})
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    # a layer this workload never enters reads 0; a layer whose wrapped
    # target no longer exists reads trace.ABSENT and is listed in the file
    metrics = {
        m["name"]: {"value": outcome.metrics.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    write_detail(args, settings, outcome, result)
    for problem in (outcome.problems + outcome.failures)[:20]:
        print(f"[{workload}] {problem}", file=sys.stderr)
    return result


def write_detail(args, settings, outcome, result: dict) -> None:
    out_dir = Path(args.out) if args.out else harness.WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = dict(outcome.detail)
    recorder = detail.pop("recorder", None)
    record = {
        "workload": settings.workload,
        "seed": settings.seed,
        "seconds": settings.seconds,
        "scale": settings.scale,
        "trace": bool(args.trace),
        "smoke": settings.smoke,
        **harness.host_facts(),
        **result,
        "problems": outcome.problems,
        "failures": outcome.failures,
        "absent": outcome.absent,
        "detail": detail,
    }
    if recorder is not None:
        record["spans"] = trace.span_rows(recorder)
    name = f"{settings.workload}-seed{settings.seed}-trace{int(args.trace)}.json"
    with open(out_dir / name, "w") as handle:
        json.dump(record, handle)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.1, 3 s windows, one set-up: a wiring check")
    parser.add_argument("--out", default=None,
                        help="directory for the detailed results (default .bench_work/out)")
    args = parser.parse_args(argv)
    correct = True
    for workload in names if args.workload == "all" else [args.workload]:
        result = run_one(spec, args, workload)
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
