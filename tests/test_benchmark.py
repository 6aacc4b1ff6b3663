"""The benchmark harness still runs and still sees every layer it measures."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from xdmev.engine import reachable_states
from xdmev.scenario import loads

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
# the wrapped kernel, or builds an extra state or an extra Amount, changes them;
# the grid, the priced deltas and the candidates are int units, so only each
# answer's value and witness amounts are Amounts
ORACLE_GRID_SEED1_COUNTS = {
    "actions.apply_calls": 48_618,
    "kernels.swap_out_calls": 48_600,
    "model.worldstate_new": 48_609,
    "fixedpoint.amount_new": 11,
}

# seed-1 counts of one traced cp_chain round (both swaps parametric): the
# golden-section probes apply and score int units, and a failed probe's
# message formats units: Amounts are built for the answers only; a shape's
# last slot applies to a stand-in, so states are built only below it
CP_CHAIN_SEED1_COUNTS = {
    "engine.explored": 48,
    "actions.apply_calls": 46_872,
    "kernels.swap_out_calls": 46_872,
    "model.worldstate_new": 744,
    "fixedpoint.amount_new": 36,
}

# seed-1 counts of one traced tips round (pending transfers, no parametric
# action): one Amount per answer, none per priced node or balance move, and
# one state hash per memo lookup or store
TIPS_SEED1_COUNTS = {
    "engine.explored": 448,
    "actions.apply_calls": 1_440,
    "model.worldstate_new": 1_446,
    "model.worldstate_hash_calls": 1_894,
    "fixedpoint.amount_new": 6,
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


def test_traced_cp_chain_round_keeps_its_counts():
    assert_counts("cp_chain", CP_CHAIN_SEED1_COUNTS)


def test_traced_tips_round_keeps_its_counts():
    assert_counts("tips", TIPS_SEED1_COUNTS)


# reachable_states counts (grid 101, max_len 2) of the seed-1 oracle_grid
# pairs, as states holding pool records counted them; perfbench only checks
# that each count repeats, so a state representation that merged or split
# states would pass it unseen
ORACLE_GRID_SEED1_REACHABLE = {f"pair{i}": 201 for i in range(6)}


def test_oracle_grid_seed1_reachable_state_counts(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # ``dataclass`` looks it up
    spec.loader.exec_module(workloads)
    counts = {}
    for label, text in workloads.generate("oracle_grid", 1, ROOT):
        sc = loads(text)
        query = sc.default_query()
        states = reachable_states(
            sc.space, sc.initial_state(), query.player, query.action_domains,
            max_len=2, grid_points=101,
        )
        counts[label] = len(states)
    assert counts == ORACLE_GRID_SEED1_REACHABLE
