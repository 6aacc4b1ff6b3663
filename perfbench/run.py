#!/usr/bin/env python3
"""xdmev benchmark: seeded query workloads, end-to-end and per-layer metrics.

Run from the repository root (Python standard library only):

    python3 perfbench/run.py --workload tips --seed 1 --seconds 20 --trace 0

Workloads: bundled, tips, cp_chain, oracle_grid (see workloads.py).

``--trace 0`` measures the end-to-end metrics. Set-up (import, generating
the workload's documents and loading them through ``xdmev.scenario.loads``)
is timed several times and its median reported. One caller then sends each
query after the previous one returns (a closed loop, no threads beyond the
engine's own default) in whole rounds, until the rounds have taken
``--seconds``. Between rounds, spread over the loop, the CLI is started
cold several times. Reported times are scaled to a reference machine
speed by a calibration loop run next to each measurement (see ``Speed``);
the unscaled figures are printed too.

``--trace 1`` runs one round untraced twice, then traced twice with spans
around the public callables of every module in ``src/xdmev/``, and reports
per-layer metrics from the second traced pass; counts must repeat exactly
between the two. The round is fixed work, so ``--seconds`` does not apply.

Every answer is checked against an independent reference. Lines before
the last describe the run; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 1 when any answer is wrong and 2 when the checkout has no ``src/xdmev``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
COLD_START_SAMPLES = 11
TAIL_BEYOND = 10
CALIBRATION_REPS = 3000
CALIBRATION_REF_MS = 15.0  # defines the reference machine the times are scaled to
CALIBRATE_EVERY_S = 0.25
KERNEL_POOLS = (2000 * 10**18, 100 * 10**18, 100 * 10**18, 3000 * 10**18, 0, 0)
KERNEL_GRID_POINTS = 20_001
KERNEL_QUOTES = 20_000
KERNEL_REPEATS = 5

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import xdmev.cli\n"
    "print(time.perf_counter() - start)\n"
)


class Failures:
    """Attempted and failed query counts, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {problem}")


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


# -- machine speed --------------------------------------------------------------


def calibration_ms() -> float:
    """Wall ms of a fixed loop of the interpreter work xdmev does most:
    dict copies, big-int arithmetic, sorting and hashing. Stdlib only, so
    no change to the program moves it."""
    start = time.perf_counter()
    balances: dict[int, int] = {}
    total = 10**18 + 7
    for k in range(CALIBRATION_REPS):
        balances = dict(balances)
        balances[k % 48] = divmod(total * (k + 3), k + 1)[0]
        total += hash(tuple(sorted(balances.items()))) & 0xFFFF
    return (time.perf_counter() - start) * 1e3


class Speed:
    """Scales wall times to the reference machine, on which the calibration
    loop takes ``CALIBRATION_REF_MS``.

    A shared machine can run the same query 2x slower for tens of seconds
    when its neighbours are busy. The calibration loop slows down with it,
    so each time is multiplied by the reference over the mean of the
    calibrations taken just before and just after it.
    """

    def __init__(self):
        self.calibrations = [calibration_ms()]
        self.pending: list[float] = []  # query seconds since the last calibration
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def scale(self, raw: list[float]) -> list[float]:
        """Scale times measured since the last calibration."""
        after = calibration_ms()
        factor = 2 * CALIBRATION_REF_MS / (self.calibrations[-1] + after)
        self.calibrations.append(after)
        return [value * factor for value in raw]

    def add_query(self, seconds: float) -> None:
        self.pending.append(seconds)
        if sum(self.pending) >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            self.scaled += self.scale(self.pending)
            self.raw += self.pending
            self.pending = []


# -- set-up --------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import xdmev.cli in a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def set_up(name: str, seed: int, samples: int, speed: Speed | None = None):
    """Median set-up seconds (scaled when ``speed`` is given) and the queries
    of the last set-up."""
    totals = []
    queries = []
    for _ in range(samples):
        imported = import_seconds()
        start = time.perf_counter()
        queries = workloads.load(name, workloads.generate(name, seed, ROOT))
        seconds = imported + time.perf_counter() - start
        totals.append(speed.scale([seconds])[0] if speed is not None else seconds)
    return statistics.median(totals), queries


# -- running queries -------------------------------------------------------------


def run_round(queries, answers: list, speed: Speed | None = None, tracer=None) -> None:
    """Send each query after the previous one returns; keep every answer."""
    for index, query in enumerate(queries):
        if tracer is not None:
            tracer.query = index
        start = time.perf_counter()
        try:
            answer = query.run()
        except Exception as exc:  # a failed query is counted, not fatal
            answer = exc
        if speed is not None:
            speed.add_query(time.perf_counter() - start)
        answers.append((index, answer))


def check_answers(queries, answers, failures: Failures) -> None:
    for index, answer in answers:
        query = queries[index]
        if isinstance(answer, Exception):
            failures.record(query.label, f"raised {answer!r}")
        else:
            failures.record(query.label, query.check(answer))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    That is the 11th-largest sample, at percentile 100 * (n - 10) / n.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return 100 * rank / n, ordered[rank - 1]


class ColdStart:
    """Sequential ``python -m xdmev.cli`` runs, timed in wall ms.

    Each run must exit 0 and print the same bytes as the in-process CLI.
    """

    command = [sys.executable, "-m", "xdmev.cli", *workloads.COLD_START_ARGS]

    def __init__(self, failures: Failures):
        self.failures = failures
        self.samples: list[float] = []
        code, self.expected = workloads.run_cli(workloads.COLD_START_ARGS)
        failures.record("in-process cold-start reference", None if code == 0 else f"exit {code}")

    def sample(self, speed: Speed) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.command, cwd=ROOT, env=child_env(), capture_output=True, timeout=60)
        self.samples += speed.scale([(time.perf_counter() - start) * 1e3])
        problem = None
        if proc.returncode != 0:
            problem = f"exit {proc.returncode}"
        elif hashlib.sha256(proc.stdout).hexdigest() != self.expected:
            problem = "stdout differs from the in-process CLI"
        self.failures.record("cold start", problem)


def timed_run(name: str, seed: int, seconds: float, failures: Failures) -> dict:
    speed = Speed()
    setup_s, queries = set_up(name, seed, SETUP_SAMPLES, speed)
    cold = ColdStart(failures)
    answers: list = []
    rounds = 0
    busy = 0.0  # unscaled wall seconds spent in queries
    while busy < seconds:
        run_round(queries, answers, speed)
        speed.flush()
        busy = sum(speed.raw)
        rounds += 1
        # spread the cold starts over the loop, so both see the same machine
        while len(cold.samples) < COLD_START_SAMPLES * min(busy / seconds, 1.0):
            cold.sample(speed)
    check_answers(queries, answers, failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(speed.scaled)
    tail_pct, tail_s = tail(speed.scaled)
    print(
        f"timed loop: {rounds} rounds of {len(queries)} queries, {n} samples, {busy:.3f} s; "
        f"query_tail_ms is percentile {tail_pct:.2f} of {n} samples"
    )
    print(
        f"unscaled: calibration median {statistics.median(speed.calibrations):.3f} ms "
        f"(reference {CALIBRATION_REF_MS} ms), queries_per_s {n / busy:.4f}, "
        f"query_p50_ms {statistics.median(speed.raw) * 1e3:.4f}, "
        f"query_tail_ms {tail(speed.raw)[1] * 1e3:.4f}"
    )
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (n / sum(speed.scaled), "1/s"),
        "query_p50_ms": (statistics.median(speed.scaled) * 1e3, "ms"),
        "query_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_cold_start_ms": (statistics.median(cold.samples), "ms"),
    }


# -- traced run ----------------------------------------------------------------------


def kernel_microbenchmarks() -> dict:
    """Median timings of the active kernel backend's quote and grid scan."""
    from xdmev import _kernels

    grid_scan, swap_out = _kernels.grid_scan, _kernels.swap_out
    grid_ms, quote_ns = [], []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter_ns()
        grid_scan(*KERNEL_POOLS, 0, 2000 * 10**18, KERNEL_GRID_POINTS)
        grid_ms.append((time.perf_counter_ns() - start) / 1e6)
        start = time.perf_counter_ns()
        for k in range(KERNEL_QUOTES):
            swap_out(2000 * 10**18, 100 * 10**18, (k + 1) * 10**18 // 7, 30)
        quote_ns.append((time.perf_counter_ns() - start) / KERNEL_QUOTES)
    return {
        "kernels.grid_scan_ms": statistics.median(grid_ms),
        "kernels.swap_out_quote_ns": statistics.median(quote_ns),
    }


def traced_run(name: str, seed: int, failures: Failures) -> dict:
    _, queries = set_up(name, seed, 1)
    kernels = kernel_microbenchmarks()
    answers: list = []
    untraced = []
    for _ in range(2):
        start = time.perf_counter()
        run_round(queries, answers)
        untraced.append(time.perf_counter() - start)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    passes = []
    for _ in range(2):
        tracer.reset()
        tracer.enabled = True
        start = time.perf_counter()
        run_round(queries, answers, tracer=tracer)
        wall = time.perf_counter() - start
        tracer.enabled = False
        passes.append((wall, tracer.span_count(), tracing.layer_metrics(tracer)))
    check_answers(queries, answers, failures)

    (_, _, first), (wall, span_count, metrics) = passes
    for key in tracing.MACHINE_INDEPENDENT:
        if first[key] != metrics[key]:
            failures.record(f"counter {key}", f"{first[key]} then {metrics[key]} on the same queries")
    counters = {key: metrics[key] for key in tracing.MACHINE_INDEPENDENT}
    print(f"machine-independent counters (workload {name}, seed {seed}): {json.dumps(counters)}")
    print(f"traced pass: {span_count} spans, {wall:.3f} s; untraced {untraced[-1]:.3f} s")

    metrics.update(kernels)
    metrics["trace.overhead_ratio"] = wall / untraced[-1]
    metrics["src.loc"] = src_loc()
    units = {key: unit for key, unit, _ in PER_LAYER}
    return {key: (metrics[key], unit) for key, unit in units.items()}


# -- reporting -------------------------------------------------------------------------


def src_loc() -> int:
    return sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in sorted((SRC / "xdmev").rglob("*.py"))
    )


def environment(name: str, seed: int, threads: str | None) -> dict:
    from xdmev import _kernels

    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernels_backend": getattr(_kernels, "BACKEND", "pure"),
        "XDMEV_THREADS": threads,
        "src.loc": src_loc(),
    }


# name, unit, better -- the per-layer metrics reported with --trace 1
PER_LAYER = (
    ("scenario.load_calls", "count", "lower"),
    ("scenario.load_ms", "ms", "lower"),
    ("cli.main_calls", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("collusion.mev_calls", "count", "lower"),
    ("collusion.self_ms", "ms", "lower"),
    ("engine.mev_calls", "count", "lower"),
    ("engine.mev_self_ms", "ms", "lower"),
    ("engine.explored", "count", "lower"),
    ("engine.apply_per_explored", "ratio", "lower"),
    ("engine.param_probes", "count", "lower"),
    ("engine.oracle_self_ms", "ms", "lower"),
    ("engine.oracle_explored", "count", "lower"),
    ("engine.reachable_self_ms", "ms", "lower"),
    ("engine.priced_delta_calls", "count", "lower"),
    ("engine.priced_delta_ms", "ms", "lower"),
    ("actions.apply_calls", "count", "lower"),
    ("actions.apply_calls.Swap", "count", "lower"),
    ("actions.apply_calls.ExecutePendingTx", "count", "lower"),
    ("actions.apply_calls.Bridge", "count", "lower"),
    ("actions.apply_calls.StylizedArb", "count", "lower"),
    ("actions.apply_failed", "count", "lower"),
    ("actions.apply_ok_ratio", "ratio", "higher"),
    ("actions.apply_self_ms", "ms", "lower"),
    ("actions.max_feasible_calls", "count", "lower"),
    ("venues.apply_swap_calls", "count", "lower"),
    ("venues.apply_pending_tx_calls", "count", "lower"),
    ("venues.apply_bridge_calls", "count", "lower"),
    ("venues.self_ms", "ms", "lower"),
    ("model.worldstate_new", "count", "lower"),
    ("model.worldstate_hash_calls", "count", "lower"),
    ("model.convert_calls", "count", "lower"),
    ("model.self_ms", "ms", "lower"),
    ("fixedpoint.amount_new", "count", "lower"),
    ("fixedpoint.mul_fraction_calls", "count", "lower"),
    ("kernels.swap_out_calls", "count", "lower"),
    ("kernels.swap_out_ms", "ms", "lower"),
    ("kernels.grid_scan_ms", "ms", "lower"),
    ("kernels.swap_out_quote_ns", "ns", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("src.loc", "lines", "lower"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xdmev" / "__init__.py").is_file():
        print(f"error: no xdmev package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # measure the engine's default worker count
    threads = os.environ.pop("XDMEV_THREADS", None)
    sys.path.insert(0, str(SRC))
    import xdmev

    if Path(xdmev.__file__).resolve().parent != SRC / "xdmev":
        print(f"error: imported xdmev from {xdmev.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment(args.workload, args.seed, threads)))
    failures = Failures()
    if args.trace:
        metrics = traced_run(args.workload, args.seed, failures)
    else:
        metrics = timed_run(args.workload, args.seed, args.seconds, failures)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    print(f"failed_ratio = {failures.failed / failures.attempted} ({failures.failed} of {failures.attempted})")
    for reason in failures.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
