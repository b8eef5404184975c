"""Record the sha256 digests suburban-itu's outputs are checked against.

Usage (from the repository root): python3 bench/record_digests.py

Runs ``itu-sim`` once for every config seed in workloads.SUBURBAN_SEEDS
and writes bench/digests.json.  Re-record only in a change that states an
intended change to the itu-sim outputs.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import harness
    import workloads

    work = ROOT / ".bench_work" / "digests"
    env = harness.child_env(ROOT)
    recorded = {}
    for index, config_seed in enumerate(workloads.SUBURBAN_SEEDS):
        shutil.rmtree(work, ignore_errors=True)
        wl = workloads.build("suburban-itu", index, ROOT, work / "inputs")
        step = wl.step("itu-sim")
        out = work / "out"
        subprocess.run([sys.executable, "-m", "darkspace.cli", "itu-sim",
                        "--config", str(step.config), "--out-dir", str(out)],
                       cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        digests = checks.file_digests(out)
        recorded[str(config_seed)] = {n: digests[n] for n in checks.ITU_FILES}
        print(f"{config_seed}: {recorded[str(config_seed)]}")
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "digests.json").write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
