"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {ingest,serve,federated}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` wraps the layer entry points (see
``tracing.py``) and prints the per-layer metrics of ``layers.py``.
Every run checks every decision against the generator's reference
model and runs its workload's deployment check.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give the host block, the checks and each metric by name and unit.

Run from the root of a checkout; the program is imported from
``src/``.  Without it the command exits non-zero and prints no result.
"""

import argparse
import json
import sys

import common

WORKLOADS = ("ingest", "serve", "federated")


def load_workload(name: str):
    if name == "ingest":
        import ingest as module
    elif name == "serve":
        import serve as module
    else:
        import federated as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: small tables, short phases")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    common.require_source_tree()
    host = common.host_block(args.seed)
    outcome = load_workload(args.workload).run(
        args.seed, args.seconds, bool(args.trace), tiny=args.tiny)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, ok in outcome.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in outcome.notes.items():
        print(f"note {name}: {json.dumps(value, default=str)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
