"""Benchmark harness: repetitions, output checks and metrics for one run.

See run.py for the command line and README.md for the workloads.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from darkspace.config import ScenarioConfig

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent

#: Repetitions per run at the least: byte identity needs two.
MIN_REPS = 2
#: Set-up-only interpreters per untraced run (after one discarded warm-up).
SETUP_SAMPLES = 2
#: Sampled passes checked against brute_force_oracle per run.
ORACLE_PASSES = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: CLI subcommand -> the end-to-end metric of its wall time.
COMMAND_METRICS = {"darkspaces": "darkspaces_s", "experiment": "experiment_s",
                   "itu-sim": "itu_sim_s"}


def child_env(root: Path) -> dict:
    """Environment of a subcommand process: the checkout's sources, and
    BLAS/OpenMP threads capped at the CPUs this process may use."""
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, PYTHONPATH=str(root / "src"),
                **{var: threads for var in THREAD_VARS})


class Runner:
    """Spawns subcommand interpreters and counts operations and failures.

    An operation is a subcommand invocation or an output check; a nonzero
    exit, a crash, a timeout or a failed check is a failure.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.attempted = 0
        self.failures = []
        self._children = 0
        self.env = child_env(root)

    def op(self, what: str, reason) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
        return reason is None

    def check(self, what: str, fn, *args) -> None:
        # A corrupted output can make a check raise instead of returning a
        # reason; either way it is one failed operation, and the run goes on.
        try:
            reason = fn(*args)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            reason = f"{type(exc).__name__}: {exc}"
        self.op(what, reason)

    def spawn(self, config: Path, argv=None, out_dir=None, trace=False):
        """Run bench/child.py; returns (result, None) or (None, reason)."""
        self._children += 1
        spec_path = self.work / f"child{self._children}.json"
        result_path = self.work / f"child{self._children}.result.json"
        spec_path.write_text(json.dumps({
            "config": str(config), "argv": argv,
            "out_dir": str(out_dir) if out_dir else None,
            "trace": trace, "result": str(result_path)}))
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result_path.exists():
            tail = (err or "").strip().splitlines()[-1:] or ["no result"]
            return None, f"child exited {proc.returncode}: {tail[0]}"
        result = json.loads(result_path.read_text())
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by processes.
        result["setup_s"] = result["ready"] - spawned
        return result, None

    def run_rep(self, steps, rep_dir: Path, trace: bool) -> list:
        """One repetition: [(command, child result, output digests)].

        A step with repeat k runs k times, into <command>, <command>.1, ...
        """
        rep = []
        for step in steps:
            for k in range(step.repeat):
                out = rep_dir / (f"{step.command}.{k}" if k else step.command)
                out.mkdir(parents=True, exist_ok=True)
                argv = [step.command, "--config", str(step.config),
                        "--out-dir", str(out)]
                result, reason = self.spawn(step.config, argv, out, trace)
                if result is not None and result["rc"] != 0:
                    reason = f"exit code {result['rc']}"
                if self.op(f"{step.command} run", reason):
                    rep.append((step.command, result,
                                checks.file_digests(out)))
        return rep


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return statistics.fmean(values) if values else None


def _repeat(runner, steps, seconds, trace_pairs):
    """Repeat the steps while another repetition is expected to end within
    ``seconds``; rep 0's outputs are kept for the checks."""
    reps = []
    started = time.perf_counter()
    while True:
        index = len(reps)
        if trace_pairs:
            plain = runner.run_rep(steps, runner.work / f"rep{index}", False)
            traced = runner.run_rep(steps, runner.work / f"rep{index}t", True)
            reps.append((plain, traced))
            shutil.rmtree(runner.work / f"rep{index}t")
        else:
            reps.append(runner.run_rep(steps, runner.work / f"rep{index}",
                                       False))
        if index:
            shutil.rmtree(runner.work / f"rep{index}")
        elapsed = time.perf_counter() - started
        enough = len(reps) >= (1 if trace_pairs else MIN_REPS)
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def _check_identity(runner, reps):
    """Every invocation's files match the first invocation of its command."""
    first = {}
    for rep in reps:
        for command, _, digests in rep:
            if command not in first:
                first[command] = digests
                continue
            runner.check(f"{command} outputs identical",
                         checks.check_identical, first[command], digests)


def _check_outputs(runner, wl, seed):
    """Workload-specific checks on repetition 0's outputs."""
    rep_dir = runner.work / "rep0"
    ds = wl.step("darkspaces")
    if ds.primary and (rep_dir / "darkspaces").is_dir():
        try:
            schedule = checks.read_schedule(rep_dir / "darkspaces")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            runner.op("oracle", f"unreadable schedule: {exc}")
            schedule = {}
        config = ScenarioConfig.load(ds.config)
        rng = random.Random(f"oracle:{seed}")
        passes = checks.sample_passes(schedule, config.window(), rng,
                                      ORACLE_PASSES)
        if schedule and not passes:
            runner.op("oracle", "no dark intervals to sample")
        for tx_id, lo, hi in passes:
            runner.check("oracle", checks.check_oracle, config, schedule,
                         tx_id, lo, hi)
    exp = wl.step("experiment")
    if (rep_dir / "experiment").is_dir():
        config = ScenarioConfig.load(exp.config)
        runner.check("pulses", checks.check_pulses, rep_dir / "experiment",
                     checks.engine_schedule(config),
                     config.experiment_params()["max_pulse_s"])
    itu = wl.step("itu-sim")
    if itu.primary and (rep_dir / "itu-sim").is_dir():
        config_seed = str(json.loads(itu.config.read_text())["seed"])
        recorded = json.loads((HERE / "digests.json").read_text())
        runner.check("itu-sim recorded digests", checks.check_digests,
                     rep_dir / "itu-sim", recorded.get(config_seed))


def _end_to_end(runner, wl, reps, setup_only):
    metrics = {}
    primary = {s.command for s in wl.steps if s.primary}
    setup = list(setup_only)
    rss = []
    walls = {command: [] for command in COMMAND_METRICS}
    for rep in reps:
        for command, result, _ in rep:
            setup.append(result["setup_s"])
            walls[command].append(result["wall_s"])
            if command in primary:
                rss.append(result["rss_mb"])
    # Means, not medians: the host's speed flips between two states every
    # few seconds, and the median of a handful of short samples jumps
    # between them; the mean weighs each state by the time spent in it.
    metrics["setup_s"] = (_mean(setup), "s", len(setup))
    for command, name in COMMAND_METRICS.items():
        metrics[name] = (_mean(walls[command]), "s", len(walls[command]))
    metrics["peak_rss_mb"] = (max(rss) if rss else None, "MB", len(rss))
    failed = len(runner.failures)
    # ok_frac = 1 - failed_frac; the complement is reported so the metric
    # is never 0 on a healthy run.
    metrics["ok_frac"] = (1.0 - failed / max(runner.attempted, 1), "ratio",
                          runner.attempted)
    return metrics


def _per_layer(runner, reps):
    plain_walls, traced_walls, accounted, layer_runs = [], [], [], []
    missing = set()
    for plain, traced in reps:
        if [e[0] for e in plain] != [e[0] for e in traced]:
            continue  # a failed invocation; already counted
        plain_walls.append(sum(r["wall_s"] for _, r, _ in plain))
        traced_walls.append(sum(r["wall_s"] for _, r, _ in traced))
        span_lists = []
        for _, result, _ in traced:
            missing.update(result["missing"])
            span_lists.append([tracing.span_from_list(row)
                               for row in result["spans"]])
        accounted.append(sum(tracing.command_self_seconds(s)
                             for s in span_lists))
        values = tracing.layer_metrics(tracing.aggregate(span_lists, missing))
        values["cli.output_bytes"] = sum(r["output_bytes"]
                                         for _, r, _ in traced)
        layer_runs.append(values)
    if not layer_runs:
        return {}
    units = {m[0]: (m[1], m[3]) for m in tracing.LAYER_METRICS}
    units["cli.output_bytes"] = ("B", True)
    first = layer_runs[0]
    for other in layer_runs[1:]:
        drift = sorted(k for k, (_, det) in units.items()
                       if det and first.get(k) != other.get(k))
        runner.op("work counts repeat",
                  f"changed between traced runs: {drift}" if drift else None)
    metrics = {}
    for name, value in first.items():
        unit, deterministic = units[name]
        samples = [run[name] for run in layer_runs]
        metrics[name] = (value if deterministic else _median(samples), unit,
                         len(samples))
    overhead = [t / p - 1.0 for t, p in zip(traced_walls, plain_walls)]
    metrics["trace_overhead_frac"] = (_median(overhead), "ratio",
                                      len(overhead))
    metrics["trace_accounted_frac"] = (
        _median([a / p for a, p in zip(accounted, plain_walls)]), "ratio",
        len(accounted))
    return metrics


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool):
    """Run one workload; returns (runner, metric -> (value, unit, n))."""
    work = root / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.build(name, seed, root, work / "inputs")
    runner = Runner(root, work)

    if trace:
        # Each primary subcommand once per traced repetition, so that work
        # counts are per invocation.
        steps = [replace(s, repeat=1) for s in wl.steps if s.primary]
        pairs = _repeat(runner, steps, seconds, trace_pairs=True)
        _check_identity(runner, [rep for pair in pairs for rep in pair])
        _check_outputs(runner, wl, seed)
        metrics = _per_layer(runner, pairs)
    else:
        setup = []
        for i in range(SETUP_SAMPLES + 1):
            result, reason = runner.spawn(wl.steps[0].config)
            if runner.op("setup", reason) and i:
                setup.append(result["setup_s"])
        reps = _repeat(runner, wl.steps, seconds, trace_pairs=False)
        _check_identity(runner, reps)
        _check_outputs(runner, wl, seed)
        metrics = _end_to_end(runner, wl, reps, setup)
    for rep_dir in runner.work.glob("rep*"):
        shutil.rmtree(rep_dir)
    return runner, metrics
