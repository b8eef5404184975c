"""darkspace benchmark: drive the real CLI on generated scenarios.

Usage (from the repository root):

    python3 bench/run.py --workload week-pixel --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

A run builds the workload's inputs from --seed, then repeats the workload's
subcommands, one fresh interpreter each and one at a time, until --seconds
have passed (at least twice, so outputs can be compared across
repetitions).  The output checks run afterwards, outside the timed region.

--trace 0 reports the end-to-end metrics (means over the invocations).
--trace 1 runs the primary subcommands in pairs, untraced then traced, and
reports per-layer metrics from the traced runs plus the tracing overhead.

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  README.md says what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()


def _report(name, runner, metrics) -> dict:
    print(f"== {name}: {runner.attempted} operations, "
          f"{len(runner.failures)} failed")
    for failure in runner.failures:
        print(f"   FAILED {failure}")
    out = {}
    for metric, (value, unit, n) in metrics.items():
        if value is None:
            continue
        print(f"   {metric:42s} {value:>16.6f} {unit:6s} n={n}")
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "darkspace").is_dir() or not (
            ROOT / "configs" / "example_scenario.json").is_file():
        print("error: run from a darkspace checkout (src/darkspace and "
              "configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    attempted = failed = 0
    metrics = {}
    for name in names:
        runner, run_metrics = harness.run_workload(
            ROOT, name, args.seed, args.seconds, bool(args.trace))
        reported = _report(name, runner, run_metrics)
        attempted += runner.attempted
        failed += len(runner.failures)
        if len(names) == 1:
            metrics = reported
        else:
            metrics.update({f"{name}/{k}": v for k, v in reported.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
