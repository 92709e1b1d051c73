"""linerec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train-short --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` it makes one untraced and one traced
pass over the same inputs and prints the per-layer metrics and the tracing
overhead. The last line of standard output is the result, one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the environment record. Both are also written, with the spans of a
traced run, under .bench_out/. Exit code 0 means every output check passed,
1 that one failed, 2 that the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import bootstrap

OUT_DIR_NAME = ".bench_out"
WORKLOAD_NAMES = ("train-short", "train-long")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.use_checkout_sources()
    except bootstrap.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import envinfo
    import workloads

    try:
        refs = workloads.load_references()[args.workload]
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    except Exception:  # the result must still say that this run failed
        traceback.print_exc()
        report = None
    if report is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        environment = {}
    else:
        result = {
            "correct": report.correct,
            "attempted": report.tally.attempted,
            "failed": report.tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
        }
        environment = envinfo.record(report.info.pop("parameters", {}))
        for problem in report.tally.problems:
            print(f"check failed: {problem}", file=sys.stderr)

    out = bootstrap.ROOT / OUT_DIR_NAME
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": environment, "info": report.info if report else {},
              "args": vars(args), "result": result}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if report is not None and report.tracer is not None:
        report.tracer.write(out / f"{stem}.spans.jsonl")
    print(json.dumps({"environment": environment, "info": record["info"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
