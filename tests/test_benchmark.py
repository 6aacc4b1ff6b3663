"""The benchmark harness still runs and still sees every layer it measures."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# counters that read 0 when engine code stops calling a binding the
# benchmark wraps, instead of failing
WRAPPED_COUNTERS = (
    "engine.param_probes",
    "engine.oracle_explored",
    "actions.max_feasible_calls",
    "engine.priced_delta_calls",
)


# seed-1 counts of one traced oracle_grid round; a swap that goes around
# the wrapped kernel, or builds an extra state or an extra Amount, changes them
ORACLE_GRID_SEED1_COUNTS = {
    "actions.apply_calls": 48_618,
    "kernels.swap_out_calls": 48_600,
    "model.worldstate_new": 48_609,
    "fixedpoint.amount_new": 193_809,
}

# seed-1 counts of one traced tips round (pending transfers, no parametric
# action): one Amount per priced node, none per balance move
TIPS_SEED1_COUNTS = {
    "engine.explored": 448,
    "actions.apply_calls": 1_440,
    "model.worldstate_new": 1_446,
    "fixedpoint.amount_new": 448,
}


def traced_round(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_bundled_round_answers_and_counts_every_layer():
    metrics = traced_round("bundled")
    for name in WRAPPED_COUNTERS:
        assert metrics[name]["value"] > 0, name


def assert_counts(workload: str, counts: dict) -> None:
    metrics = traced_round(workload)
    for name, count in counts.items():
        assert metrics[name]["value"] == count, name


def test_traced_oracle_grid_round_keeps_its_counts():
    assert_counts("oracle_grid", ORACLE_GRID_SEED1_COUNTS)


def test_traced_tips_round_keeps_its_counts():
    assert_counts("tips", TIPS_SEED1_COUNTS)
