"""Run one darkspace subcommand in a fresh interpreter and report on it.

Usage: python3 bench/child.py SPEC.json

SPEC names the scenario config, the CLI arguments (none for a set-up-only
run), whether to trace, and where to write the result.  The result holds
the monotonic instant set-up finished (the parent subtracts its spawn
instant to get set-up time), the subcommand's exit code and wall time,
this process's peak resident memory and, when traced, the spans.

Set-up is what every invocation pays before the subcommand proper:
interpreter start, ``import darkspace.cli``, ``ScenarioConfig.load`` and
validation of the TLEs, presets, transmitters, window and policy.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())

    import darkspace.cli as cli
    from darkspace.config import ScenarioConfig

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    config = ScenarioConfig.load(spec["config"])
    config.satellites()
    config.transmitters()
    config.window()
    config.policy()
    result = {"ready": time.perf_counter()}

    argv = spec.get("argv")
    if argv:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["output_bytes"] = _output_bytes(Path(spec["out_dir"]))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        result["spans"] = [tracing.span_to_list(s) for s in tracer.spans]
        result["missing"] = sorted(tracer.missing)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
